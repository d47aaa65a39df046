"""Declarative description of one simulation job.

A :class:`JobSpec` is everything :func:`repro.sim.multi.run_all_schemes`
needs, with the workload referenced *by registry name* instead of by
object.  That makes a spec:

* hashable and comparable (frozen dataclass);
* JSON-round-trippable (:meth:`to_dict` / :meth:`from_dict`), so it can
  cross a process boundary or live in a cache entry next to its result;
* content-addressable: :attr:`key` is the SHA-256 of the canonical JSON
  form, so two specs describing the same simulation collide by
  construction — the property the :class:`~repro.runner.store.ResultStore`
  is built on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.config import MachineConfig, SchemeName

#: bump when the spec schema (or anything that invalidates cached
#: results, e.g. simulator semantics) changes incompatibly; the format is
#: hashed into every key, so old cache entries simply stop matching
SPEC_FORMAT = 1

#: the workload digest recorded when a file-backed workload's file
#: cannot be read at spec-construction time.  Such a spec is still a
#: valid batch member — it hashes, serializes, and dedups — but its
#: :meth:`JobSpec.run` *always* raises a typed error (even if the file
#: has appeared since), which the sweep captures as that job's failure.
#: A sentinel-keyed spec therefore can never produce — and so never
#: cache — a result, so two specs sharing the sentinel can never serve
#: each other stale data.
UNREADABLE_DIGEST = "unreadable"


@dataclass(frozen=True)
class JobSpec:
    """One (workload, machine, scheme set) cell of a sweep."""

    workload: str  #: registry name (see :mod:`repro.workloads.registry`)
    config: MachineConfig
    instructions: int
    warmup: int = 0
    #: None means every scheme (the :func:`run_all_schemes` default)
    schemes: Optional[Tuple[SchemeName, ...]] = None
    #: evaluator name, one of :data:`repro.sim.simulator.ENGINE_NAMES`
    #: (hashed into :attr:`key`; anything else is refused at
    #: construction)
    engine: str = "fast"
    #: content identity of file-backed workloads.  ``trace:<path>`` and
    #: ``import:<format>:<path>`` names resolve to whatever bytes the
    #: file holds, so the spec's identity must cover them: the file's
    #: SHA-256 is computed here (unless supplied, e.g. by
    #: :meth:`from_dict`) and hashed into :attr:`key`, so editing a
    #: trace can never yield a stale
    #: :class:`~repro.runner.store.ResultStore` hit.  A missing or
    #: unreadable file digests as :data:`UNREADABLE_DIGEST` instead of
    #: raising — spec construction must never crash a batch build; the
    #: typed error surfaces later, as that one job's
    #: :attr:`~repro.runner.sweep.JobResult.error`.  Always ``None``
    #: for registry-generated workloads, whose name is their identity.
    workload_digest: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.errors import ConfigError, RegistryError
        from repro.sim.simulator import ENGINE_NAMES, unknown_engine
        from repro.workloads.registry import file_backed_path
        if self.engine not in ENGINE_NAMES:
            # a queue file or script naming a retired engine must fail
            # here, not after hashing into a key and reaching a worker
            raise ConfigError(unknown_engine(self.engine))
        if self.workload_digest is None:
            try:
                path = file_backed_path(self.workload)
            except RegistryError:
                # malformed import:<format>:<path> name: resolvable to a
                # typed error at run() time, not a batch-build crash
                path = None
            if path is not None:
                from repro.errors import TraceError
                from repro.trace.format import file_digest
                try:
                    digest = file_digest(path)
                    from repro.workloads.registry import IMPORT_PREFIX
                    if self.workload.startswith(IMPORT_PREFIX):
                        # import: workloads are (file bytes x conversion
                        # rules): an importer-version bump must stop old
                        # cache entries from matching, exactly like an
                        # edited file
                        from repro.trace.importers.base import (
                            IMPORTER_VERSION,
                        )
                        digest = f"{digest}.i{IMPORTER_VERSION}"
                except TraceError:
                    digest = UNREADABLE_DIGEST
                object.__setattr__(self, "workload_digest", digest)
        if self.schemes is not None:
            # canonicalize: coerce strings, drop duplicates, and fix the
            # order (enum declaration order), so ("ia", "base") and
            # (SchemeName.BASE, SchemeName.IA) are the same spec — and
            # share a content key
            order = tuple(SchemeName)
            object.__setattr__(
                self, "schemes",
                tuple(sorted({SchemeName(s) for s in self.schemes},
                             key=order.index)))

    # -- identity ------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "format": SPEC_FORMAT,
            "workload": self.workload,
            "config": self.config.to_dict(),
            "instructions": self.instructions,
            "warmup": self.warmup,
            "schemes": (None if self.schemes is None
                        else [s.value for s in self.schemes]),
            "engine": self.engine,
        }
        # only present for file-backed workloads, so the canonical form
        # (and every existing cache key) of name-identified specs is
        # unchanged
        if self.workload_digest is not None:
            data["workload_digest"] = self.workload_digest
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        # a spec dict can now arrive from another machine (file-queue
        # job files): refuse foreign schema versions with a typed error
        # a worker can record, instead of mis-parsing them silently
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            from repro.errors import ConfigError
            raise ConfigError(
                f"job spec has format {fmt!r}; this version speaks "
                f"format {SPEC_FORMAT} (mixed-version queue?)")
        return cls(
            workload=data["workload"],
            config=MachineConfig.from_dict(data["config"]),
            instructions=data["instructions"],
            warmup=data["warmup"],
            schemes=(None if data["schemes"] is None
                     else tuple(SchemeName(s) for s in data["schemes"])),
            engine=data["engine"],
            workload_digest=data.get("workload_digest"),
        )

    @cached_property
    def key(self) -> str:
        """Content-addressed identity: SHA-256 over the canonical JSON
        form.  Equal specs — however constructed — share a key.  Cached:
        one sweep consults it several times per job (store lookups,
        dedup bookkeeping, file naming)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        schemes = ("all" if self.schemes is None
                   else "+".join(s.value for s in self.schemes))
        return (f"{self.workload} [{self.config.il1_addressing.value}, "
                f"iTLB {self.config.itlb.entries}] {schemes} "
                f"{self.instructions:,}i/{self.warmup:,}w")

    # -- execution -----------------------------------------------------

    def run(self):
        """Execute the job (no caching — callers wanting cache hits go
        through :class:`~repro.runner.sweep.SweepRunner` or the store)."""
        if self.workload_digest == UNREADABLE_DIGEST:
            # the file may have appeared since construction, but this
            # spec's identity was sealed as "unreadable" — running it
            # anyway would store a result under the sentinel key, which
            # a later spec over *different* file bytes could then hit.
            # Refuse deterministically; a fresh JobSpec picks up the
            # file's real digest.
            from repro.errors import TraceError
            raise TraceError(
                f"workload file for '{self.workload}' was missing or "
                "unreadable when this JobSpec was constructed; construct "
                "a new spec now that the file exists (spec identity is "
                "bound to the file's content)")
        from repro.sim.multi import run_all_schemes
        from repro.workloads.registry import resolve
        return run_all_schemes(
            resolve(self.workload), self.config,
            instructions=self.instructions, warmup=self.warmup,
            schemes=self.schemes, engine=self.engine)
