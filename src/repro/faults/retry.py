"""Error classification and the deterministic backoff schedule.

The fleet distinguishes two failure classes:

* **transient** — the environment failed, not the job: ``OSError`` and its
  subclasses (EIO, ENOSPC, torn reads on shared filesystems, …) and
  :class:`~repro.errors.TraceError` raised while *reading* a trace.  These
  are retried with capped exponential backoff.
* **permanent** — the job itself is wrong: simulation/config/registry
  errors, assertion failures, anything else.  Retrying cannot help; the job
  dead-letters immediately.

Queue workers only see failures as traceback strings (the
``execute_grid`` contract), so classification works on the final
``Module.Class: message`` line of the traceback.

The backoff schedule is jitter-free by design: ``delay(attempt) =
min(cap, base * 2**(attempt-1))``, a pure function of the attempt number,
so the same plan and the same failures always produce the same recorded
schedule — chaos runs are replayable and the determinism test can compare
attempt records byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_RETRY_BASE_SECONDS",
    "DEFAULT_RETRY_CAP_SECONDS",
    "TRANSIENT_EXCEPTIONS",
    "RetryPolicy",
    "backoff_delay",
    "classify_exception",
    "classify_traceback",
]

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_RETRY_BASE_SECONDS = 1.0
DEFAULT_RETRY_CAP_SECONDS = 60.0

#: Exception class names (the last dotted component, as it appears on the
#: final traceback line) whose failures are worth retrying.
TRANSIENT_EXCEPTIONS = frozenset({
    "OSError",
    "IOError",
    "EnvironmentError",
    "FileNotFoundError",
    "FileExistsError",
    "PermissionError",
    "InterruptedError",
    "BlockingIOError",
    "BrokenPipeError",
    "TimeoutError",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionAbortedError",
    "ConnectionRefusedError",
    "IsADirectoryError",
    "NotADirectoryError",
    "TraceError",
})


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a job gets and how the waits between them grow."""

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    base_seconds: float = DEFAULT_RETRY_BASE_SECONDS
    cap_seconds: float = DEFAULT_RETRY_CAP_SECONDS

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not self.base_seconds > 0:
            raise ValueError("base_seconds must be > 0")
        if self.cap_seconds < self.base_seconds:
            raise ValueError("cap_seconds must be >= base_seconds")

    def delay(self, attempt: int) -> float:
        return backoff_delay(attempt, base=self.base_seconds,
                             cap=self.cap_seconds)


def backoff_delay(attempt: int, *,
                  base: float = DEFAULT_RETRY_BASE_SECONDS,
                  cap: float = DEFAULT_RETRY_CAP_SECONDS) -> float:
    """Seconds to wait after failed *attempt* (1-based): capped exponential,
    no jitter — a pure function so recorded schedules are reproducible."""
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    return min(cap, base * (2.0 ** (attempt - 1)))


def classify_exception(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for a live exception object."""
    return ("transient"
            if type(exc).__name__ in TRANSIENT_EXCEPTIONS else "permanent")


def classify_traceback(traceback_text: str) -> str:
    """Classify a formatted traceback by its final ``Class: message`` line.

    Anything unrecognisable is permanent: retrying is the privilege of
    failures we understand.
    """
    for line in reversed(traceback_text.strip().splitlines()):
        line = line.strip()
        if not line or line.startswith(("File ", "Traceback ", "During ",
                                        "The above exception")):
            continue
        name = line.split(":", 1)[0].strip().rsplit(".", 1)[-1]
        if name.isidentifier():
            return ("transient"
                    if name in TRANSIENT_EXCEPTIONS else "permanent")
        return "permanent"
    return "permanent"
