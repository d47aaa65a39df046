"""The unit of work: one or more JobSpecs sharing one simulation pass.

Every unit a backend executes is a :class:`GridSpec`: N
:class:`~repro.runner.jobspec.JobSpec` members that differ only in the
fields a :class:`~repro.cpu.fast.FastEngine` pass can score per
member (iTLB geometry, energy accounting — :data:`~repro.config.
GRID_MEMBER_FIELDS`).  Running it costs roughly one member's wall
clock and produces one :class:`~repro.sim.multi.CombinedRun` per
member, each **bit-identical** to its member's :meth:`JobSpec.run`.  A
lone job — an ``ooo`` job, an unreadable-workload job, or any spec
with no partner — is simply a one-member pass.

A unit is a *planning* construct, not a result identity: every member
result lands in the :class:`~repro.runner.store.ResultStore` under the
member's own unchanged key, so a pass never mints new cache entries.
The unit's own :attr:`~GridSpec.key` names only transient artifacts —
file-queue job files, failure records and telemetry — and a one-member
pass keys and serializes exactly as its member does, so those
artifacts look the same whether or not a job found partners.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.cpu.grid import grid_invariants_key
from repro.errors import ConfigError
from repro.runner.jobspec import (
    SPEC_FORMAT,
    UNREADABLE_DIGEST,
    JobSpec,
    run_pass,
)

def grid_eligible(spec: JobSpec) -> bool:
    """Whether ``spec`` may join a grid at all: a fast-engine job (the
    ooo engine steps one config at a time) whose workload is readable
    (an unreadable-digest spec must fail as itself)."""
    return (spec.engine == "fast"
            and spec.workload_digest != UNREADABLE_DIGEST)


def plan_units(specs: Sequence[JobSpec]) -> List["GridSpec"]:
    """Partition unique cache-missing specs into shared passes.

    Specs that agree on everything a shared pass needs — workload (and
    its content digest), window, scheme set, engine, and the config's
    shared-stream fields — are merged into one :class:`GridSpec`;
    every other spec becomes a one-member pass.  Units are ordered by
    the first appearance of their workload, then by the first
    appearance of their page size within it, so the units that link
    the same two binaries run back to back and share them, and a
    workload's page sizes run back to back and share its plain layout
    (see :func:`repro.workloads.synthetic.link_slot`).  Within one
    (workload, page size), the largest ``instructions + warmup`` runs
    first, so each binary's memoized stream is built once and the
    shorter windows replay a prefix of it
    (:meth:`~repro.isa.program.Program.window_source`); equal windows
    keep first-appearance order, and members input order.
    :func:`expand_units` of the result therefore lists every input spec
    once but not always in input order: the sweep answers by key, not
    by position.
    """
    #: workload -> page size -> shared-pass key -> members
    workloads: Dict[str, Dict[int, Dict[tuple, List[JobSpec]]]] = {}
    for position, spec in enumerate(specs):
        if grid_eligible(spec):
            group_key: tuple = (
                spec.workload_digest, spec.instructions, spec.warmup,
                spec.schemes, spec.engine,
                grid_invariants_key(spec.config),
            )
        else:
            group_key = (position,)  # never shared
        groups = workloads.setdefault(spec.workload, {}).setdefault(
            spec.config.mem.page_bytes, {})
        groups.setdefault(group_key, []).append(spec)
    return [GridSpec(members=tuple(members))
            for binaries in workloads.values()
            for groups in binaries.values()
            for members in sorted(groups.values(), key=_budget_first)]


def _budget_first(members: List[JobSpec]) -> int:
    """Sort key putting the longest window of a binary pair first (the
    sort is stable, so equal windows keep their order)."""
    return -(members[0].instructions + members[0].warmup)


def expand_units(units: Sequence["GridSpec"]) -> List[JobSpec]:
    """The member specs of ``units``, flattened in execution order —
    the order backends return outcomes in."""
    return [member for unit in units for member in unit.members]


@dataclass(frozen=True)
class GridSpec:
    """One or more same-stream JobSpecs evaluated in one shared pass."""

    members: Tuple[JobSpec, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("a grid needs at least one member spec")
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) == 1:
            return  # any spec runs as its own one-member pass
        anchor = self.members[0]
        if not grid_eligible(anchor):
            raise ConfigError(
                f"spec '{anchor.describe()}' cannot join a grid: grids "
                "share one fast-engine pass over a readable workload")
        invariants = anchor.config.grid_invariants()
        seen = set()
        for position, member in enumerate(self.members):
            for field in ("workload", "workload_digest", "instructions",
                          "warmup", "schemes", "engine"):
                if getattr(member, field) != getattr(anchor, field):
                    raise ConfigError(
                        f"grid member {position} differs from member 0 "
                        f"in '{field}' — a grid shares one pass, "
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

    @property
    def binary(self) -> Tuple[str, int]:
        """The (workload, page size) whose binaries the pass links —
        what :func:`plan_units` groups units by."""
        return self.workload, self.members[0].config.mem.page_bytes

    def describe(self) -> str:
        anchor = self.members[0]
        if len(self.members) == 1:
            return anchor.describe()
        entries = ",".join(str(m.config.itlb.entries) for m in self.members)
        return (f"grid[{len(self.members)}] {anchor.workload} "
                f"[{anchor.config.il1_addressing.value}, iTLB {entries}] "
                f"{anchor.instructions:,}i/{anchor.warmup:,}w")

    # -- identity ------------------------------------------------------
    #
    # The wire format: a one-member pass is its member's JobSpec dict
    # and key; only passes of two or more members use the grid form.

    def to_dict(self) -> dict:
        if len(self.members) == 1:
            return self.members[0].to_dict()
        return {
            "format": SPEC_FORMAT,
            "kind": "grid",
            "members": [member.to_dict() for member in self.members],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        if data.get("kind") != "grid":
            return cls(members=(JobSpec.from_dict(data),))
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ConfigError(
                f"grid spec has format {fmt!r}; this version speaks "
                f"format {SPEC_FORMAT} (mixed-version queue?)")
        return cls(members=tuple(JobSpec.from_dict(member)
                                 for member in data["members"]))

    @cached_property
    def key(self) -> str:
        """Identity of the pass *as a unit of work*: a lone member's own
        key, else a hash over the member keys, so the same member set
        always names the same queue job file.  Results never persist
        under a grid key (each member stores under its own
        :attr:`JobSpec.key`)."""
        if len(self.members) == 1:
            return self.members[0].key
        canonical = json.dumps(
            {"format": SPEC_FORMAT, "kind": "grid",
             "members": [member.key for member in self.members]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- execution -----------------------------------------------------

    def run(self) -> List:
        """Execute the shared pass; one CombinedRun per member, in
        member order (no caching — the sweep layer handles stores)."""
        return run_pass(self.members)
