"""The six SPEC2000 benchmark stand-ins and the paper's reference numbers.

The paper evaluates 177.mesa, 186.crafty, 191.fma3d, 252.eon, 254.gap, and
255.vortex — the SPEC2000 members that stress the iTLB most (worst
instruction locality).  Each gets a :class:`WorkloadProfile` whose knobs
were tuned so the *measured* characteristics of the generated program land
near the paper's Table 2/4/5 rows; ``tests/test_workloads.py`` pins the
bands.

``PAPER_REFERENCE`` carries the published numbers (at 250M simulated
instructions) so the experiment harness can print paper-vs-measured side
by side in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workloads.synthetic import SyntheticWorkload, WorkloadProfile

BENCHMARK_NAMES: Tuple[str, ...] = (
    "177.mesa", "186.crafty", "191.fma3d", "252.eon", "254.gap",
    "255.vortex",
)


@dataclass(frozen=True)
class PaperRow:
    """Published characteristics of one benchmark (250M instructions,
    default configuration)."""

    cycles_vipt_m: float  #: Table 2, execution cycles, VI-PT (millions)
    energy_vipt_mj: float  #: Table 2, base iTLB energy, VI-PT (mJ)
    cycles_vivt_m: float
    energy_vivt_mj: float
    il1_miss_rate: float
    branch_fraction: float  #: dynamic branches / instructions
    boundary_crossings: float  #: Table 2, BOUNDARY page crossings
    branch_crossings: float  #: Table 2, BRANCH page crossings
    analyzable_pct: float  #: Table 4, dynamic analyzable branches (%)
    crossing_pct: float  #: Table 4, crossings among analyzable (%)
    in_page_pct: float  #: Table 4, in-page among analyzable (%)
    predictor_accuracy: float  #: Table 5 (%)

    @property
    def crossings_per_kinst(self) -> float:
        total = self.boundary_crossings + self.branch_crossings
        return total / 250_000_000 * 1000.0

    @property
    def boundary_share_pct(self) -> float:
        total = self.boundary_crossings + self.branch_crossings
        return 100.0 * self.boundary_crossings / total


PAPER_REFERENCE: Dict[str, PaperRow] = {
    "177.mesa": PaperRow(188.1, 109.1, 196.1, 3.345, 0.002, 0.089,
                         99016, 5503671, 81.1, 27.0, 73.0, 94.14),
    "186.crafty": PaperRow(331.7, 124.1, 350.5, 8.385, 0.014, 0.126,
                           86925, 7969935, 87.6, 24.1, 75.9, 91.16),
    "191.fma3d": PaperRow(169.3, 112.7, 176.6, 3.040, 0.011, 0.186,
                          13513, 12168347, 87.9, 29.1, 70.9, 95.82),
    "252.eon": PaperRow(263.1, 134.5, 274.7, 5.221, 0.010, 0.123,
                        312314, 15344827, 74.5, 30.2, 69.8, 85.23),
    "254.gap": PaperRow(161.3, 112.2, 165.6, 2.005, 0.006, 0.073,
                        722028, 5662714, 90.2, 40.8, 59.2, 89.55),
    "255.vortex": PaperRow(293.9, 108.4, 310.5, 6.345, 0.027, 0.166,
                           577674, 9473056, 87.7, 26.6, 73.4, 97.38),
}


#: placeholder row for workloads the paper never measured (recorded
#: traces, custom profiles): every field, and so every derived
#: quantity, is NaN, which renders as ``nan`` in the paper comparison
#: columns instead of crashing the experiment
_NAN = float("nan")
UNKNOWN_PAPER_ROW = PaperRow(*[_NAN] * 12)


def paper_row_for(name: str) -> PaperRow:
    """The published reference row for ``name``, or
    :data:`UNKNOWN_PAPER_ROW` for workloads outside the paper's six
    (trace files, custom registrations)."""
    return PAPER_REFERENCE.get(name, UNKNOWN_PAPER_ROW)


_PROFILES: Dict[str, WorkloadProfile] = {
    # mesa: moderate branch density, excellent locality (tiny iL1 miss
    # rate), high predictor accuracy, almost all crossings from branches.
    "177.mesa": WorkloadProfile(
        name="177.mesa", seed=177,
        hot_functions=6, cold_functions=12, leaf_functions=6,
        blocks_per_function=(7, 10), leaf_blocks=(2, 4),
        block_len=(9, 13),
        long_block_prob=0.01, long_block_len=(100, 200),
        big_fn_frac=0.12, big_fn_scale=8,
        fn_align_words=1024, fn_pad_words=(0, 650),
        cond_prob=0.58, loop_prob=0.03, call_prob=0.34, switch_prob=0.02,
        tail_call_prob=0.30, far_branch_frac=0.35,
        loop_trips=(6, 16), switch_skew=0.6, shared_leaf_frac=0.15,
        fallthrough_bias_frac=0.35,
        predictable_frac=0.97, biased_taken_prob=0.985,
        noisy_taken_prob=0.55, rng_refresh_prob=0.40,
        schedule_len=12, schedule_run_len=3, schedule_chunk=4,
        chunk_repeats=5, indirect_call_frac=0.06,
        cold_call_prob=0.004, mem_op_frac=0.22, cold_access_prob=0.02,
        fp_frac=0.12,
    ),
    # crafty: denser branches, bigger hot footprint (1.4% iL1 misses),
    # middling accuracy.
    "186.crafty": WorkloadProfile(
        name="186.crafty", seed=186,
        hot_functions=12, cold_functions=14, leaf_functions=8,
        blocks_per_function=(7, 11), leaf_blocks=(2, 4),
        block_len=(6, 9),
        long_block_prob=0.008, long_block_len=(80, 160),
        big_fn_frac=0.2, big_fn_scale=8,
        fn_align_words=1024, fn_pad_words=(0, 700),
        cond_prob=0.54, loop_prob=0.03, call_prob=0.30, switch_prob=0.03,
        tail_call_prob=0.30, far_branch_frac=0.30,
        loop_trips=(6, 14), switch_skew=0.5, shared_leaf_frac=0.25,
        fallthrough_bias_frac=0.35,
        predictable_frac=0.90, biased_taken_prob=0.975,
        noisy_taken_prob=0.55, rng_refresh_prob=0.30,
        schedule_len=16, schedule_run_len=2, schedule_chunk=4,
        chunk_repeats=3, indirect_call_frac=0.10,
        cold_call_prob=0.02, mem_op_frac=0.24, cold_access_prob=0.04,
        fp_frac=0.02,
    ),
    # fma3d: the branchiest (18.6%), tiny basic blocks, high accuracy,
    # essentially no BOUNDARY crossings.
    "191.fma3d": WorkloadProfile(
        name="191.fma3d", seed=191,
        hot_functions=12, cold_functions=12, leaf_functions=10,
        blocks_per_function=(5, 8), leaf_blocks=(2, 3),
        block_len=(3, 5),
        long_block_prob=0.0, long_block_len=(80, 120),
        big_fn_frac=0.15, big_fn_scale=5,
        fn_align_words=1024, fn_pad_words=(0, 600),
        cond_prob=0.50, loop_prob=0.02, call_prob=0.44, switch_prob=0.02,
        tail_call_prob=0.40, far_branch_frac=0.26,
        loop_trips=(6, 12), switch_skew=0.75, shared_leaf_frac=0.1,
        fallthrough_bias_frac=0.15,
        predictable_frac=0.985, biased_taken_prob=0.99,
        noisy_taken_prob=0.55, rng_refresh_prob=0.15,
        schedule_len=14, schedule_run_len=2, schedule_chunk=4,
        chunk_repeats=3, indirect_call_frac=0.05,
        cold_call_prob=0.015, mem_op_frac=0.16, cold_access_prob=0.03,
        fp_frac=0.20,
    ),
    # eon: worst predictor accuracy (85%), most page crossings, C++-style
    # indirect-call-heavy control flow (lowest analyzable fraction).
    "252.eon": WorkloadProfile(
        name="252.eon", seed=252,
        hot_functions=10, cold_functions=12, leaf_functions=12,
        blocks_per_function=(3, 6), leaf_blocks=(2, 3),
        block_len=(5, 9),
        long_block_prob=0.01, long_block_len=(80, 160),
        big_fn_frac=0.1, big_fn_scale=8,
        fn_align_words=1024, fn_pad_words=(0, 950),
        cond_prob=0.38, loop_prob=0.02, call_prob=0.48, switch_prob=0.06,
        tail_call_prob=0.45, far_branch_frac=0.45,
        loop_trips=(6, 14), switch_skew=0.35, shared_leaf_frac=0.5,
        fallthrough_bias_frac=0.30,
        predictable_frac=0.30, biased_taken_prob=0.96,
        noisy_taken_prob=0.50, rng_refresh_prob=0.50,
        schedule_len=16, schedule_run_len=1, schedule_chunk=4,
        chunk_repeats=3, indirect_call_frac=0.28,
        cold_call_prob=0.015, mem_op_frac=0.22, cold_access_prob=0.03,
        fp_frac=0.10,
    ),
    # gap: sparse branches, very long straight-line stretches (the
    # BOUNDARY-crossing outlier at 11.3%), low-ish accuracy.
    "254.gap": WorkloadProfile(
        name="254.gap", seed=254,
        hot_functions=4, cold_functions=10, leaf_functions=5,
        blocks_per_function=(5, 8), leaf_blocks=(2, 4),
        block_len=(8, 12),
        long_block_prob=0.03, long_block_len=(250, 400),
        big_fn_frac=0.25, big_fn_scale=4,
        fn_align_words=1024, fn_pad_words=(0, 900),
        cond_prob=0.36, loop_prob=0.015, call_prob=0.48, switch_prob=0.02,
        tail_call_prob=0.25, far_branch_frac=0.40,
        loop_trips=(6, 12), switch_skew=0.5, shared_leaf_frac=0.3,
        fallthrough_bias_frac=0.80,
        predictable_frac=0.66, biased_taken_prob=0.96,
        noisy_taken_prob=0.55, rng_refresh_prob=0.50,
        schedule_len=12, schedule_run_len=2, schedule_chunk=4,
        chunk_repeats=4, indirect_call_frac=0.08,
        cold_call_prob=0.008, mem_op_frac=0.20, cold_access_prob=0.02,
        fp_frac=0.04,
    ),
    # vortex: branch-dense, worst iL1 locality of the suite (2.7%), yet
    # the most predictable branches (97.4%).
    "255.vortex": WorkloadProfile(
        name="255.vortex", seed=255,
        hot_functions=16, cold_functions=20, leaf_functions=12,
        blocks_per_function=(5, 8), leaf_blocks=(2, 3),
        block_len=(3, 5),
        long_block_prob=0.005, long_block_len=(120, 240),
        big_fn_frac=0.12, big_fn_scale=6,
        fn_align_words=1024, fn_pad_words=(0, 600),
        cond_prob=0.52, loop_prob=0.02, call_prob=0.48, switch_prob=0.035,
        tail_call_prob=0.35, far_branch_frac=0.45,
        loop_trips=(16, 32), switch_skew=0.75, shared_leaf_frac=0.05,
        fallthrough_bias_frac=0.30,
        predictable_frac=0.98, biased_taken_prob=0.99,
        noisy_taken_prob=0.6, rng_refresh_prob=0.15,
        schedule_len=18, schedule_run_len=1, schedule_chunk=6,
        chunk_repeats=3, indirect_call_frac=0.03,
        cold_call_prob=0.12, mem_op_frac=0.26, cold_access_prob=0.05,
        fp_frac=0.02,
    ),
}

def spec2000_suite() -> Dict[str, WorkloadProfile]:
    """All six benchmark profiles, keyed by SPEC name."""
    return dict(_PROFILES)


def profile_for(name: str) -> WorkloadProfile:
    if name not in _PROFILES:
        raise KeyError(
            f"unknown benchmark '{name}' (choose from {BENCHMARK_NAMES})")
    return _PROFILES[name]


def load_benchmark(name: str) -> SyntheticWorkload:
    """Generate (and memoize) one benchmark's workload.

    Resolution goes through the workload registry
    (:mod:`repro.workloads.registry`), which owns the per-process
    instance cache the sweep runner shares.
    """
    profile_for(name)  # unknown names fail with the historical message
    from repro.workloads.registry import resolve
    return resolve(name)
