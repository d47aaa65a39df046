"""A grid of JobSpecs sharing one decoded simulation pass.

A :class:`GridSpec` bundles N :class:`~repro.runner.jobspec.JobSpec`
members that differ only in the fields a
:class:`~repro.cpu.grid.MultiConfigEngine` can replicate per member
(iTLB geometry, energy accounting — :data:`~repro.config.
GRID_MEMBER_FIELDS`).  Running the grid costs roughly one member's wall
clock and produces one :class:`~repro.sim.multi.CombinedRun` per member,
each **bit-identical** to its member's independent :meth:`JobSpec.run`.

Grids are a *planning* construct, not a result identity: every member
result lands in the :class:`~repro.runner.store.ResultStore` under the
member's own unchanged key, so cache hits stay free for future
single-config jobs and a grid never mints new cache entries.  The grid's
own :attr:`key` (hashed over the member keys) names only transient
artifacts — file-queue job files and telemetry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.runner.jobspec import SPEC_FORMAT, UNREADABLE_DIGEST, JobSpec

#: engines whose evaluation can share a decoded pass (see
#: :func:`repro.sim.simulator.run_program_grid`)
GRID_ENGINES = ("fast", "batch")


def grid_eligible(spec: JobSpec) -> bool:
    """Whether ``spec`` may join a grid at all: a readable file-backed
    replay workload on a batchable engine.  Live (generated) workloads
    have no decoded stream to share; the scalar/ooo engines step one
    config at a time; an unreadable-digest spec must fail as itself."""
    from repro.workloads.registry import IMPORT_PREFIX, TRACE_PREFIX
    return (spec.workload.startswith((TRACE_PREFIX, IMPORT_PREFIX))
            and spec.engine in GRID_ENGINES
            and spec.workload_digest != UNREADABLE_DIGEST)


#: what a backend executes: a single job, or a grid of them sharing a
#: pass.  Backends flatten a grid's outcomes into member order, so a
#: planned queue of units always answers the expanded spec list.
WorkUnit = Union[JobSpec, "GridSpec"]


def plan_units(specs: Sequence[JobSpec]) -> List[WorkUnit]:
    """Partition unique cache-missing specs into shareable grids.

    Specs that agree on everything a shared pass needs — workload (and
    its content digest), window, scheme set, engine, and the config's
    shared-stream fields — are merged into one :class:`GridSpec`;
    everything else stays a standalone :class:`JobSpec`.  Standalone
    jobs are grouped by (workload, page size), so the jobs that link the
    same two binaries run back to back and share them (see
    :func:`repro.workloads.synthetic.link_slot`).  Grids and groups come
    back in first-appearance order, members and grouped jobs in input
    order.  :func:`expand_units` of the result therefore lists every
    input spec once but not always in input order: the sweep answers by
    key, not by position.
    """
    groups: Dict[tuple, List[JobSpec]] = {}
    order: List[tuple] = []
    solo_marker = object()
    for spec in specs:
        if grid_eligible(spec):
            group_key = (
                spec.workload, spec.workload_digest, spec.instructions,
                spec.warmup, spec.schemes, spec.engine,
                json.dumps(spec.config.grid_invariants(), sort_keys=True,
                           separators=(",", ":")),
            )
        else:
            group_key = (solo_marker, spec.workload,
                         spec.config.mem.page_bytes)
        if group_key not in groups:
            groups[group_key] = []
            order.append(group_key)
        groups[group_key].append(spec)
    units: List[WorkUnit] = []
    for group_key in order:
        members = groups[group_key]
        if group_key[0] is solo_marker:
            units.extend(members)
        elif len(members) > 1:
            units.append(GridSpec(members=tuple(members)))
        else:
            units.append(members[0])
    return units


def expand_units(units: Sequence[WorkUnit]) -> List[JobSpec]:
    """The member specs of ``units``, flattened in execution order —
    the order backends return outcomes in."""
    expanded: List[JobSpec] = []
    for unit in units:
        if isinstance(unit, GridSpec):
            expanded.extend(unit.members)
        else:
            expanded.append(unit)
    return expanded


@dataclass(frozen=True)
class GridSpec:
    """N same-stream JobSpecs evaluated in one shared pass."""

    members: Tuple[JobSpec, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("a grid needs at least one member spec")
        object.__setattr__(self, "members", tuple(self.members))
        anchor = self.members[0]
        if not grid_eligible(anchor):
            raise ConfigError(
                f"spec '{anchor.describe()}' cannot join a grid: grids "
                "replay decoded trace:/import: workloads on the "
                f"{'/'.join(GRID_ENGINES)} engines")
        invariants = anchor.config.grid_invariants()
        seen = set()
        for position, member in enumerate(self.members):
            for field in ("workload", "workload_digest", "instructions",
                          "warmup", "schemes", "engine"):
                if getattr(member, field) != getattr(anchor, field):
                    raise ConfigError(
                        f"grid member {position} differs from member 0 "
                        f"in '{field}' — a grid shares one decoded pass, "
                        "so everything but the machine config must match")
            if member.config.grid_invariants() != invariants:
                raise ConfigError(
                    f"grid member {position}'s config differs from "
                    "member 0 outside the member fields (iTLB geometry, "
                    "energy) — shared-stream fields like page size or "
                    "iL1 addressing cannot vary within a grid")
            if member.key in seen:
                raise ConfigError(
                    f"grid member {position} duplicates an earlier "
                    "member (same content key); deduplicate before "
                    "building the grid")
            seen.add(member.key)

    # -- convenience ---------------------------------------------------

    @property
    def workload(self) -> str:
        return self.members[0].workload

    def describe(self) -> str:
        anchor = self.members[0]
        entries = ",".join(str(m.config.itlb.entries) for m in self.members)
        return (f"grid[{len(self.members)}] {anchor.workload} "
                f"[{anchor.config.il1_addressing.value}, iTLB {entries}] "
                f"{anchor.instructions:,}i/{anchor.warmup:,}w")

    # -- identity ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": SPEC_FORMAT,
            "kind": "grid",
            "members": [member.to_dict() for member in self.members],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ConfigError(
                f"grid spec has format {fmt!r}; this version speaks "
                f"format {SPEC_FORMAT} (mixed-version queue?)")
        if data.get("kind") != "grid":
            raise ConfigError(
                f"expected a grid spec, got kind {data.get('kind')!r}")
        return cls(members=tuple(JobSpec.from_dict(member)
                                 for member in data["members"]))

    @cached_property
    def key(self) -> str:
        """Identity of the *grid as a unit of work* — hashed over the
        member keys, so the same member set always names the same queue
        job file.  Results never persist under this key (each member
        stores under its own :attr:`JobSpec.key`)."""
        canonical = json.dumps(
            {"format": SPEC_FORMAT, "kind": "grid",
             "members": [member.key for member in self.members]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- execution -----------------------------------------------------

    def run(self) -> List:
        """Execute the shared pass; one CombinedRun per member, in
        member order (no caching — the sweep layer handles stores)."""
        from repro.sim.multi import run_all_schemes_grid
        from repro.workloads.registry import resolve
        anchor = self.members[0]
        return run_all_schemes_grid(
            resolve(anchor.workload),
            [member.config for member in self.members],
            instructions=anchor.instructions, warmup=anchor.warmup,
            schemes=anchor.schemes, engine=anchor.engine)
