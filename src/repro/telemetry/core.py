"""Near-zero-overhead instrumentation core.

Every hot path in the simulator may call :func:`emit`, :func:`count`,
or :func:`span` unconditionally; when telemetry is disabled (the
default) each call is one module-global integer comparison and a
return.  Nothing here ever changes a simulation result — telemetry
observes runs, it never participates in them (the off-path equivalence
suite in ``tests/test_telemetry.py`` pins results bit-identical with
telemetry enabled, disabled, and absent).

Design rules:

* **No per-instruction call sites.**  The engines' inner loops are
  never instrumented; events fire at run/pass/job granularity, so one
  simulation emits O(1) events regardless of instruction count.  (A
  test counts the calls to enforce this.)
* **Structured output only.**  Events are JSONL — one JSON object per
  line with ``ts``/``pid``/``event`` plus free-form fields — written to
  a file (``--log-json PATH``, append mode so concurrent workers can
  share one file) or stderr.  Non-finite floats are nulled, matching
  the CLI's strict-JSON rule.
* **Process-local.**  Counters and configuration belong to one
  process.  :func:`configure` exports its settings to the environment
  (``REPRO_LOG_LEVEL`` / ``REPRO_LOG_JSON``) so pool and queue worker
  *processes* inherit them via :func:`configure_from_env`.

Levels: ``off`` < ``error`` < ``info`` < ``debug``.  A call site names
the level its event belongs to; it fires when the configured level is
at least that loud.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, TextIO, Tuple

#: accepted ``--log-level`` spellings, quietest first
LEVELS = ("off", "error", "info", "debug")
_LEVEL_NUM = {name: i for i, name in enumerate(LEVELS)}

#: environment variables :func:`configure` exports and worker-process
#: entry points (pool ``_execute_payload``, ``repro worker``) read back
ENV_LEVEL = "REPRO_LOG_LEVEL"
ENV_JSON = "REPRO_LOG_JSON"

# module-global state, read on every call site's fast path
_level: int = 0  # off
_sink: Optional[TextIO] = None  # owned file handle (None: stderr)
_sink_path: Optional[str] = None
_counters: Dict[str, int] = {}
#: in-process listeners (see :func:`listen`): (thread ident, callback);
#: a forked child starts with none
_listeners: List[Tuple[int, Callable[[dict], None]]] = []
os.register_at_fork(after_in_child=_listeners.clear)
#: the quietest level a listener hears
_LISTEN_FLOOR = _LEVEL_NUM["info"]


def level_name() -> str:
    """The configured level's spelling (``"off"`` when disabled)."""
    return LEVELS[_level]


def enabled(level: str = "info") -> bool:
    """Would an event at ``level`` be written right now?"""
    return _level >= _LEVEL_NUM[level]


def configure(level: Optional[str] = None,
              json_path: Optional[str] = None,
              *, propagate: bool = True) -> None:
    """Turn telemetry on (or off: ``level="off"``).

    ``json_path`` appends JSONL events to that file (shared by any
    number of processes — each event is one short ``O_APPEND`` write);
    without it events go to stderr.  Naming a path without a level
    implies ``info``.  ``propagate=True`` (default) exports the
    settings to the environment so worker processes spawned later
    inherit them.
    """
    global _level, _sink, _sink_path
    if level is None:
        level = "info" if json_path else level_name()
    if level not in _LEVEL_NUM:
        raise ValueError(
            f"unknown log level '{level}' (choose from {', '.join(LEVELS)})")
    if _sink is not None and _sink_path != json_path:
        try:
            _sink.close()
        except OSError:
            pass
        _sink = None
    _sink_path = json_path
    if json_path is not None and _sink is None:
        _sink = open(json_path, "a", encoding="utf-8")
    _level = _LEVEL_NUM[level]
    if propagate:
        os.environ[ENV_LEVEL] = level
        if json_path is not None:
            os.environ[ENV_JSON] = str(json_path)
        else:
            os.environ.pop(ENV_JSON, None)


def configure_from_env() -> None:
    """Adopt the parent process's telemetry settings, if any (no-op
    when the environment carries none)."""
    level = os.environ.get(ENV_LEVEL)
    json_path = os.environ.get(ENV_JSON)
    if level or json_path:
        try:
            configure(level=level, json_path=json_path, propagate=False)
        except (ValueError, OSError):
            pass  # a foreign/bogus environment must never crash a worker


def disable() -> None:
    """Reset to the off state (and drop the counters) — tests and
    long-lived embedders."""
    global _level, _sink, _sink_path
    _level = 0
    if _sink is not None:
        try:
            _sink.close()
        except OSError:
            pass
    _sink = None
    _sink_path = None
    _counters.clear()
    os.environ.pop(ENV_LEVEL, None)
    os.environ.pop(ENV_JSON, None)


def _clean(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def emit(event: str, level: str = "info", **fields) -> None:
    """Write one structured event (a no-op below the configured level
    when no :func:`listen` block wants it).

    Every event line carries ``ts`` (unix seconds), ``pid``, ``event``,
    and the caller's fields.  A failing sink (disk full, closed stderr)
    is swallowed: telemetry must never take a run down with it.
    """
    wanted = _LEVEL_NUM.get(level, 2)
    if _level < wanted and not _listeners:
        return
    record = {"ts": round(time.time(), 6), "pid": os.getpid(),
              "event": event}
    record.update(fields)
    if _listeners and wanted <= _LISTEN_FLOOR:
        thread = threading.get_ident()
        for owner, callback in _listeners:
            if owner == thread:
                callback(record)
    if _level < wanted:
        return
    try:
        line = json.dumps(_clean(record), allow_nan=False,
                          separators=(",", ":"))
        out = _sink if _sink is not None else sys.stderr
        out.write(line + "\n")
        out.flush()
    except (OSError, ValueError, TypeError):
        pass


@contextmanager
def listen(callback: Callable[[dict], None]) -> Iterator[None]:
    """Hand every ``info``-or-louder event this thread emits inside the
    block to ``callback`` (the record a sink would get), whatever the
    configured level — how in-process code reacts to events without
    reading a log (the CLI's report progress lines).  Events of other
    threads, such as a queue worker's beside a sweep, are not heard.
    Unlike a sink, a listener that raises propagates to the emitter."""
    entry = (threading.get_ident(), callback)
    _listeners.append(entry)
    try:
        yield
    finally:
        _listeners.remove(entry)


def count(name: str, value: int = 1) -> None:
    """Bump a process-local counter (a no-op when telemetry is off)."""
    if _level == 0:
        return
    _counters[name] = _counters.get(name, 0) + value


def counters() -> Dict[str, int]:
    """Snapshot of the process-local counters."""
    return dict(_counters)


@contextmanager
def span(event: str, level: str = "info", **fields) -> Iterator[None]:
    """Time a block and emit one ``<event>`` record with ``seconds`` on
    exit (plus ``error: true`` if the block raised).  When telemetry is
    off the only cost is the context-manager protocol itself — no
    clock is read."""
    if _level < _LEVEL_NUM.get(level, 2):
        yield
        return
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(event, level=level,
             seconds=round(time.perf_counter() - start, 6),
             error=True, **fields)
        raise
    emit(event, level=level,
         seconds=round(time.perf_counter() - start, 6), **fields)
