"""The grid engine: one shared pass, N machine configurations.

The shared per-event machinery (predictor training, iL1/L2 timing,
per-scheme policy triggers) must run identically for bit-identity, so a
single config can't get much faster.  But the paper's own evaluation
trick (Section 3.3.4: no iTLB scheme perturbs the shared stream)
generalizes *sideways* — the same
:class:`~repro.trace.format.SegmentColumns` stream, predictor, caches,
and dTLB can score **N whole machine configurations** at once, as long
as the configs differ only in what rides along additively: iTLB
geometry (mono or two-level) and energy accounting
(:data:`~repro.config.GRID_MEMBER_FIELDS`).

:class:`MultiConfigEngine` subclasses :class:`~repro.cpu.fast.
FastEngine` and adds nothing to the hot loop: it simply installs one
policy set per member (via :meth:`~repro.cpu.fast.FastEngine.
_install_member`) into the flat lists the inherited loop already
iterates.  Each policy mutates only its own counters/iTLB, and
``SchemeResult.cycles = base_cycles + extra_cycles`` per policy, so
every member's numbers are **bit-identical** to the run it would get
alone — pinned by ``tests/test_batch_engine.py``'s grid suite.  Live
programs and replays grid alike: both reach the loop as columns.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from repro.config import MachineConfig, SchemeName
from repro.cpu.fast import FastEngine
from repro.errors import ConfigError
from repro.isa.program import Program


def check_grid_configs(configs: Sequence[MachineConfig]) -> None:
    """Validate that ``configs`` can share one pass: non-empty, and
    identical outside :data:`~repro.config.GRID_MEMBER_FIELDS`."""
    if not configs:
        raise ConfigError("a config grid needs at least one member")
    anchor = configs[0].grid_invariants()
    for position, config in enumerate(configs[1:], start=1):
        invariants = config.grid_invariants()
        if invariants != anchor:
            differing = sorted(
                key for key in set(anchor) | set(invariants)
                if anchor.get(key) != invariants.get(key))
            raise ConfigError(
                f"grid member {position} differs from member 0 outside "
                f"the member fields: {', '.join(differing)} — only "
                "iTLB geometry and energy accounting may vary "
                "(shared-stream fields like page size or iL1 addressing "
                "change the decoded pass itself)")


def grid_invariants_key(config: MachineConfig) -> str:
    """Canonical JSON of a config's shared-stream fields — two configs
    may join one grid iff their keys match (the planner's group key)."""
    return json.dumps(config.grid_invariants(), sort_keys=True,
                      separators=(",", ":"))


class MultiConfigEngine(FastEngine):
    """One pass over a committed stream under N configurations.

    Construction takes the full member list; ``configs[0]`` seeds the
    shared machinery (caches, predictor, dTLB — identical across members
    by :func:`check_grid_configs`), and every further member contributes
    only its private per-scheme policy state.  :meth:`run_grid` returns
    one :class:`~repro.cpu.results.EngineResult` per member, in order.
    """

    def __init__(self, program: Program, configs: Sequence[MachineConfig],
                 schemes: Optional[Sequence[SchemeName]] = None) -> None:
        check_grid_configs(configs)
        super().__init__(program, configs[0], schemes=schemes)
        for config in configs[1:]:
            self._install_member(config)
