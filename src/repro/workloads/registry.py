"""Workload registry: string names resolve to runnable workloads.

The sweep runner (:mod:`repro.runner`) describes jobs declaratively, so a
job must be able to *name* its workload — a name survives JSON
serialization and a trip through a worker process, a
:class:`~repro.workloads.synthetic.SyntheticWorkload` object does not.
This registry is the name space:

* the six SPEC2000 stand-ins register under their SPEC names
  (``"177.mesa"`` ...);
* every microbenchmark builder registers under ``"micro.<name>"`` with
  its default parameters;
* recorded instruction traces resolve under ``trace:<path>`` (see
  :mod:`repro.trace`) — the path is the registration, no explicit
  :func:`register` call needed;
* foreign traces resolve under ``import:<format>:<path>`` (see
  :mod:`repro.trace.importers`) — converted on the fly into an
  on-demand replayable workload;
* ``<name>@affinity`` resolves to ``<name>`` relaid by call affinity,
  memoized, and builtin exactly when ``<name>`` is;
* callers add their own entries with :func:`register` (any zero-argument
  factory) or :func:`register_profile` (a
  :class:`~repro.workloads.synthetic.WorkloadProfile`, generated on first
  resolve).

Resolution of generated workloads is memoized per process: generating a
workload is expensive (seconds for the SPEC profiles) and deterministic,
so one instance per name is both safe and necessary for the experiment
layer's pass sharing.  ``trace:`` names resolve to a fresh
:class:`~repro.trace.replay.TraceWorkload` wrapper each time, but the
expensive part — gunzipping and decoding the file — is served from the
per-process LRU in :func:`repro.trace.format.load_trace`, keyed by the
file's *content* digest: a sweep decodes each trace once per process,
and an edited trace still can never be served stale.  ``import:`` names
re-convert on every resolve (conversion rules can change between
resolves via ``register_format``; convert once with ``repro trace
import`` for big streams).
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Callable, Dict, Tuple, Union

from repro.compiler.layout import layout_by_affinity
from repro.errors import RegistryError
from repro.workloads.synthetic import (
    SyntheticWorkload,
    WorkloadProfile,
    generate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.replay import TraceWorkload

WorkloadFactory = Callable[[], SyntheticWorkload]

#: names with this prefix resolve to recorded traces; the remainder of
#: the name is the file path
TRACE_PREFIX = "trace:"
#: names of the form ``import:<format>:<path>`` resolve to foreign
#: traces converted on demand (see :mod:`repro.trace.importers`)
IMPORT_PREFIX = "import:"
#: ``<name>@affinity`` is generated workload ``<name>`` relaid by affinity
AFFINITY_SUFFIX = "@affinity"


def split_import_name(name: str) -> Tuple[str, str]:
    """``import:<format>:<path>`` -> ``(format, path)``; raises
    :class:`~repro.errors.RegistryError` for a malformed name."""
    rest = name[len(IMPORT_PREFIX):]
    fmt, sep, path = rest.partition(":")
    if not sep or not fmt or not path:
        raise RegistryError(
            f"malformed import workload '{name}' (expected "
            f"'{IMPORT_PREFIX}<format>:<path>', e.g. "
            f"'{IMPORT_PREFIX}eio:runs/app.eio.txt')")
    return fmt, path


def file_backed_path(name: str) -> Union[str, None]:
    """The file behind a ``trace:``/``import:`` workload name, or None
    for generated (name-identified) workloads.  File-backed workloads
    are the ones :class:`~repro.runner.JobSpec` content-addresses by
    file digest, and the ones the detailed (ooo) engine cannot run."""
    if name.startswith(TRACE_PREFIX):
        return name[len(TRACE_PREFIX):]
    if name.startswith(IMPORT_PREFIX):
        return split_import_name(name)[1]
    return None

_FACTORIES: Dict[str, WorkloadFactory] = {}
_INSTANCES: Dict[str, SyntheticWorkload] = {}
#: names whose current factory came from a caller (new names and
#: builtin names overridden with ``replace=True``) — these exist only
#: in this process
_CUSTOM: set = set()
_BUILTINS_LOADED = False

#: microbenchmark builders exposed through the registry (name -> builder
#: attribute on :mod:`repro.workloads.microbench`), at default parameters
MICROBENCH_NAMES: Tuple[str, ...] = (
    "counted_loop",
    "page_ping_pong",
    "straight_line",
    "call_return",
    "memory_walker",
    "taken_pattern",
)


def register(name: str, factory: WorkloadFactory, *,
             replace: bool = False) -> None:
    """Bind ``name`` to a zero-argument workload factory.

    Re-registering an existing name requires ``replace=True`` (and drops
    any memoized instance built from the old factory).
    """
    _ensure_builtins()
    if not name:
        raise RegistryError("workload name must be non-empty")
    if name.startswith(TRACE_PREFIX):
        raise RegistryError(
            f"the '{TRACE_PREFIX}' prefix is reserved for trace files "
            "(the path after the prefix is the registration)")
    if name.startswith(IMPORT_PREFIX):
        raise RegistryError(
            f"the '{IMPORT_PREFIX}' prefix is reserved for foreign "
            "trace imports (import:<format>:<path>)")
    if name.endswith(AFFINITY_SUFFIX):
        raise RegistryError(f"the '{AFFINITY_SUFFIX}' suffix is reserved")
    if name in _FACTORIES and not replace:
        raise RegistryError(
            f"workload '{name}' is already registered "
            "(pass replace=True to override)")
    _FACTORIES[name] = factory
    _CUSTOM.add(name)
    _INSTANCES.pop(name, None)
    _INSTANCES.pop(name + AFFINITY_SUFFIX, None)


def register_profile(profile: WorkloadProfile, *,
                     replace: bool = False) -> str:
    """Register a synthetic profile under ``profile.name``; the workload
    is generated lazily on first :func:`resolve`.  Returns the name."""
    register(profile.name, lambda: generate(profile), replace=replace)
    return profile.name


def resolve(name: str) -> Union[SyntheticWorkload, "TraceWorkload"]:
    """The workload registered under ``name`` (generated and memoized on
    first use; ``trace:`` names share a content-keyed decoded-file LRU,
    ``import:`` names convert afresh every time).  Raises :class:`KeyError`
    for unknown names, :class:`~repro.errors.TraceError` for unreadable
    traces and :class:`RegistryError` for chunkless ``@affinity`` bases."""
    _ensure_builtins()
    if name.endswith(AFFINITY_SUFFIX):
        if name not in _INSTANCES:
            base = resolve(name[:-len(AFFINITY_SUFFIX)])
            if not getattr(base, "chunks", None):
                raise RegistryError(f"'{name}': no static chunks to lay out")
            _INSTANCES[name] = dataclasses.replace(
                base, profile=dataclasses.replace(base.profile, name=name),
                module=layout_by_affinity(base.chunks, base.call_graph,
                                          base.module.data))
        return _INSTANCES[name]
    if name.startswith(TRACE_PREFIX):
        from repro.trace.replay import load_trace_workload
        return load_trace_workload(name[len(TRACE_PREFIX):])
    if name.startswith(IMPORT_PREFIX):
        from repro.trace.importers import load_imported_workload
        fmt, path = split_import_name(name)
        return load_imported_workload(fmt, path)
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown workload '{name}' (available: "
            f"{', '.join(available())})")
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def is_registered(name: str) -> bool:
    _ensure_builtins()
    if name.endswith(AFFINITY_SUFFIX):
        return is_registered(name[:-len(AFFINITY_SUFFIX)])
    if name.startswith(TRACE_PREFIX):
        return os.path.isfile(name[len(TRACE_PREFIX):])
    if name.startswith(IMPORT_PREFIX):
        from repro.trace.importers import available_formats
        try:
            fmt, path = split_import_name(name)
        except RegistryError:
            return False
        return fmt in available_formats() and os.path.isfile(path)
    return name in _FACTORIES


def is_builtin(name: str) -> bool:
    """True when ``name`` resolves identically in any fresh process (the
    SPEC stand-ins, ``micro.*`` entries *not* overridden, and
    ``trace:``/``import:`` files — any process can read the file), and
    the ``@affinity`` variant of any of those.
    Custom registrations — including builtin names replaced via
    ``register(..., replace=True)`` — exist only in the registering
    process; the sweep runner uses this to keep their jobs out of
    spawned workers."""
    _ensure_builtins()
    if name.endswith(AFFINITY_SUFFIX):
        return is_builtin(name[:-len(AFFINITY_SUFFIX)])
    if name.startswith(TRACE_PREFIX) or name.startswith(IMPORT_PREFIX):
        return True
    return name not in _CUSTOM and _builtin_factory(name) is not None


def available() -> Tuple[str, ...]:
    """All registered names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_FACTORIES))


def unregister(name: str) -> None:
    """Remove a registration.  A builtin name reverts to its builtin
    factory (overrides don't outlive their usefulness); other names
    disappear.  Unknown names are a no-op."""
    _ensure_builtins()
    _FACTORIES.pop(name, None)
    _INSTANCES.pop(name, None)
    _INSTANCES.pop(name + AFFINITY_SUFFIX, None)
    _CUSTOM.discard(name)
    builtin = _builtin_factory(name)
    if builtin is not None:
        _FACTORIES[name] = builtin


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def _spec_factory(name: str) -> WorkloadFactory:
    def build() -> SyntheticWorkload:
        from repro.workloads.spec2000 import profile_for
        return generate(profile_for(name))
    return build


def _micro_factory(name: str) -> WorkloadFactory:
    def build() -> SyntheticWorkload:
        from repro.workloads import microbench
        module = getattr(microbench, name)()
        # wrap the bare module so it runs anywhere a generated workload
        # does (link plain or instrumented, at any page size)
        return SyntheticWorkload(
            profile=WorkloadProfile(name=f"micro.{name}"),
            module=module,
            chunks=[],
            data_items=list(module.data),
            call_graph={},
        )
    return build


def _builtin_factory(name: str):
    """The factory ``name`` gets in any fresh process, or None — the one
    definition of what counts as builtin (shared by ``_ensure_builtins``,
    ``is_builtin``, and ``unregister``'s revert)."""
    from repro.workloads.spec2000 import BENCHMARK_NAMES
    if name in BENCHMARK_NAMES:
        return _spec_factory(name)
    prefix = "micro."
    if name.startswith(prefix) and name[len(prefix):] in MICROBENCH_NAMES:
        return _micro_factory(name[len(prefix):])
    return None


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    # imports are deferred into the factories: spec2000 itself resolves
    # benchmarks through this module, so importing it here would cycle
    from repro.workloads.spec2000 import BENCHMARK_NAMES
    for name in BENCHMARK_NAMES:
        _FACTORIES[name] = _spec_factory(name)
    for name in MICROBENCH_NAMES:
        _FACTORIES[f"micro.{name}"] = _micro_factory(name)
