"""Deterministic, seeded fault injection for the durability seams.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming an
*injection point* (``site``), a *trigger* (``nth-call``, ``every-k``,
``first-n``) and a *fault kind* (an exception class to raise, a latency to
inject, a torn write, or a hard ``SIGKILL``).  Production code calls
:func:`fire` at its durability seams; with no plan configured the call is a
single attribute load and a ``return`` — zero code paths, zero branches
beyond the ``None`` check, and nothing written to disk.  Triggers are pure
call counters, so the same plan against the same call sequence injects the
same faults every run: no randomness anywhere.

Plans propagate to pool and queue subprocess workers the same way the log
settings do — through the environment (``REPRO_FAULTS``).  :func:`configure`
exports the plan as inline canonical JSON so workers do not depend on the
plan file outliving the submit; :func:`configure_from_env` is called at every
process entry point (CLI ``main``, pool worker, queue worker).

Injection points threaded through the tree::

    atomic_write         entering repro.runner.store.atomic_write_text
    atomic_write.rename  between the temp-file write and ``os.replace``
    store.put            ResultStore.put, before serialisation
    store.get            ResultStore.get, before the read
    queue.submit         FileQueue.submit, before the job write
    queue.claim          FileQueue.claim_next, before the scan
    queue.reclaim        FileQueue.reclaim_stale, before the scan
    worker.execute       queue worker, after parsing a claim, before execute
    worker.heartbeat     every claim heartbeat (latency here starves a lease)
    trace.decode         repro.trace.format.load_trace, before the read
    sleep                every :func:`sleep` call (the sanctioned wait
                         primitive for ``runner/`` loops — lint rule FLT001)
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError, SimulationError, TraceError

__all__ = [
    "ENV_FAULTS",
    "FAULT_KINDS",
    "TRIGGERS",
    "FaultPlan",
    "FaultSpec",
    "active",
    "configure",
    "configure_from_env",
    "disable",
    "fire",
    "sleep",
]

ENV_FAULTS = "REPRO_FAULTS"

TRIGGERS = ("nth-call", "every-k", "first-n")

#: ``io-error``/``enospc`` raise :class:`OSError` (EIO / ENOSPC) — the
#: transient class.  ``trace-error`` raises :class:`TraceError` (transient:
#: torn reads on shared filesystems).  ``simulation-error`` raises
#: :class:`SimulationError` — the permanent class.  ``latency`` sleeps
#: ``seconds`` and lets the call proceed.  ``torn`` writes a truncated copy
#: of the pending text to the destination and then raises ``OSError`` —
#: only meaningful at ``atomic_write.rename``, where the context carries the
#: target path and text; elsewhere it degrades to a plain ``OSError``.
#: ``kill`` sends ``SIGKILL`` to the current process: a crash, not an
#: exception.
FAULT_KINDS = (
    "io-error",
    "enospc",
    "trace-error",
    "simulation-error",
    "latency",
    "torn",
    "kill",
)


@dataclass
class FaultSpec:
    """One injection rule: *site* × *trigger* × *fault kind*."""

    site: str
    trigger: str
    n: int
    kind: str
    seconds: float = 0.0
    match: Optional[str] = None
    calls: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.site or not isinstance(self.site, str):
            raise ConfigError("fault spec needs a non-empty 'site' string")
        if self.trigger not in TRIGGERS:
            raise ConfigError(
                f"unknown fault trigger {self.trigger!r}; "
                f"expected one of {', '.join(TRIGGERS)}")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigError(
                f"fault trigger parameter n must be a positive int, "
                f"got {self.n!r}")
        if self.kind == "latency" and not self.seconds > 0:
            raise ConfigError("latency faults need 'seconds' > 0")

    def matches(self, site: str, context: Dict[str, Any]) -> bool:
        if site != self.site:
            return False
        if self.match is None:
            return True
        return any(self.match in value
                   for value in context.values() if isinstance(value, str))

    def should_fire(self) -> bool:
        """Increment this spec's call counter and decide.  Pure counting —
        the same call sequence always fires the same calls."""
        self.calls += 1
        if self.trigger == "nth-call":
            return self.calls == self.n
        if self.trigger == "every-k":
            return self.calls % self.n == 0
        return self.calls <= self.n  # first-n

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"site": self.site, "trigger": self.trigger,
                                 "n": self.n, "kind": self.kind}
        if self.kind == "latency":
            entry["seconds"] = self.seconds
        if self.match is not None:
            entry["match"] = self.match
        return entry

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"fault spec must be an object, got {data!r}")
        unknown = set(data) - {"site", "trigger", "n", "kind", "seconds",
                               "match"}
        if unknown:
            raise ConfigError(
                f"unknown fault spec field(s): {', '.join(sorted(unknown))}")
        return cls(site=data.get("site", ""),
                   trigger=data.get("trigger", ""),
                   n=data.get("n", 1),
                   kind=data.get("kind", ""),
                   seconds=float(data.get("seconds", 0.0)),
                   match=data.get("match"))


@dataclass
class FaultPlan:
    """A named, seeded set of fault specs with per-spec call counters."""

    faults: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def fire(self, site: str, context: Dict[str, Any]) -> None:
        for spec in self.faults:
            if not spec.matches(site, context):
                continue
            if not spec.should_fire():
                continue
            _emit_injected(site, spec)
            _inject(site, spec, context)

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError(f"fault plan must be an object, got {data!r}")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ConfigError(
                f"unknown fault plan field(s): {', '.join(sorted(unknown))}")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ConfigError("fault plan 'faults' must be a list")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("fault plan 'seed' must be an int")
        return cls(faults=[FaultSpec.from_dict(entry) for entry in faults],
                   seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: "str | Path") -> "FaultPlan":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_json(text)


_plan: Optional[FaultPlan] = None


def active() -> Optional[FaultPlan]:
    """The currently configured plan, or ``None`` (the normal state)."""
    return _plan


def configure(plan: Optional[FaultPlan], *, propagate: bool = True) -> None:
    """Install *plan* in this process; with *propagate* also export it as
    inline JSON in ``REPRO_FAULTS`` so subprocess workers inherit it."""
    global _plan
    _plan = plan
    if not propagate:
        return
    if plan is None:
        os.environ.pop(ENV_FAULTS, None)
    else:
        os.environ[ENV_FAULTS] = plan.to_json()


def disable() -> None:
    """Remove any configured plan and the ``REPRO_FAULTS`` export."""
    configure(None)


def configure_from_env() -> Optional[FaultPlan]:
    """Adopt the plan from ``REPRO_FAULTS`` (inline JSON if the value starts
    with ``{``, else a path to a plan file); clear the plan when unset.
    Called at every process entry point so the environment is always the
    source of truth for child processes."""
    global _plan
    raw = os.environ.get(ENV_FAULTS, "").strip()
    if not raw:
        _plan = None
        return None
    if raw.startswith("{"):
        _plan = FaultPlan.from_json(raw)
    else:
        _plan = FaultPlan.load(raw)
    return _plan


def fire(site: str, **context: Any) -> None:
    """The injection point.  No plan configured → a ``None`` check and out;
    this is the whole off-path cost."""
    plan = _plan
    if plan is None:
        return
    plan.fire(site, context)


def sleep(seconds: float) -> None:
    """The sanctioned wait primitive for ``runner/`` poll and retry loops
    (lint rule FLT001): a plain ``time.sleep`` that is also an injection
    point, so chaos plans can stretch or crash a waiter deterministically."""
    fire("sleep", seconds=str(seconds))
    time.sleep(seconds)


def _emit_injected(site: str, spec: FaultSpec) -> None:
    from repro import telemetry

    telemetry.emit("fault.injected", level="error", site=site,
                   kind=spec.kind, trigger=spec.trigger, call=spec.calls)


def _inject(site: str, spec: FaultSpec, context: Dict[str, Any]) -> None:
    kind = spec.kind
    if kind == "latency":
        time.sleep(spec.seconds)
        return
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover - the signal does not return
    if kind == "torn":
        path = context.get("path")
        text = context.get("text")
        if isinstance(path, str) and isinstance(text, str):
            # The torn write the fsync-before-rename discipline exists to
            # prevent: half the payload lands at the destination.
            Path(path).write_text(text[:len(text) // 2], encoding="utf-8")
        raise OSError(errno.EIO,
                      f"injected torn write at {site} (call {spec.calls})")
    if kind == "io-error":
        raise OSError(errno.EIO,
                      f"injected I/O fault at {site} (call {spec.calls})")
    if kind == "enospc":
        raise OSError(errno.ENOSPC,
                      f"injected ENOSPC at {site} (call {spec.calls})")
    if kind == "trace-error":
        raise TraceError(
            f"injected trace fault at {site} (call {spec.calls})")
    raise SimulationError(
        f"injected simulation fault at {site} (call {spec.calls})")
