"""Config grids: which machine configurations may share one pass.

The paper's own evaluation trick (Section 3.3.4: no iTLB scheme
perturbs the shared stream) generalizes *sideways*: the same
:class:`~repro.trace.format.SegmentColumns` stream, predictor, caches,
dTLB — and the same iTLB-policy decisions — can score **N whole machine
configurations** at once, as long as the configs differ only in what
rides along additively: iTLB geometry (mono or two-level) and energy
accounting (:data:`~repro.config.GRID_MEMBER_FIELDS`).

No scheme's lookup decisions read whether a lookup hit, so members
that differ only in iTLB geometry look up at the same VPNs for the same
reasons.  :class:`~repro.cpu.fast.FastEngine` therefore takes the
member list itself, runs **one** policy set per pass, and replays each
scheme's lookup column through every member's own iTLB at each window
boundary: decision cost is paid once, and only that tight replay
multiplies per member, whose iTLB counts are its iTLBs' own statistics.
Every member's numbers are **bit-identical** to
the run it would get alone — pinned by ``tests/test_batch_engine.py``'s
grid suite.  Live programs and replays grid alike: both reach the loop
as columns.

This module holds the two rules the engine and the planner share:
:func:`check_grid_configs` (may these configs share a pass?) and
:func:`grid_invariants_key` (the planner's group key).
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.config import MachineConfig
from repro.errors import ConfigError


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
