#!/usr/bin/env python
"""Build and evaluate a custom workload profile.

Everything in the reproduction is driven by
:class:`repro.WorkloadProfile` knobs; this example constructs a
database-like workload (the paper repeatedly points at commercial
workloads with much higher iL1 miss rates as the case where its schemes
matter even more), then measures how the IA scheme's savings respond.

    python examples/custom_workload.py
"""

from repro import (
    CacheAddressing,
    SchemeName,
    WorkloadProfile,
    default_config,
    generate,
    run_all_schemes,
)

#: a deliberately cache-hostile, call-heavy "transaction processing"
#: profile: big flat code footprint, low loop reuse, branchy dispatch
DB_PROFILE = WorkloadProfile(
    name="oltp-like", seed=2002,
    hot_functions=32, cold_functions=24, leaf_functions=16,
    blocks_per_function=(4, 8), leaf_blocks=(2, 4), block_len=(4, 8),
    big_fn_frac=0.1, big_fn_scale=6,
    fn_align_words=1024, fn_pad_words=(0, 700),
    cond_prob=0.50, loop_prob=0.02, call_prob=0.40, switch_prob=0.05,
    tail_call_prob=0.3, far_branch_frac=0.25,
    predictable_frac=0.7, biased_taken_prob=0.96,
    schedule_len=24, schedule_run_len=1, schedule_chunk=4,
    chunk_repeats=2, indirect_call_frac=0.2, cold_call_prob=0.10,
    mem_op_frac=0.3, cold_access_prob=0.10,
)

INSTRUCTIONS = 40_000
WARMUP = 8_000


def main() -> None:
    workload = generate(DB_PROFILE)
    program = workload.link()
    print(program.summary())

    for addressing in (CacheAddressing.VIPT, CacheAddressing.VIVT):
        run = run_all_schemes(workload, default_config(addressing),
                              instructions=INSTRUCTIONS, warmup=WARMUP)
        if addressing is CacheAddressing.VIPT:
            shared = run.shared
            print(f"\nmeasured: branch% {100 * shared.branch_fraction:.1f}  "
                  f"iL1 mr {shared.il1.miss_rate:.4f}  crossings/kinst "
                  f"{1000 * shared.page_crossings / shared.instructions:.1f}"
                  f"  accuracy {100 * shared.predictor.accuracy:.1f}%")
        ia = 100 * run.normalized_energy(SchemeName.IA)
        ia_cycles = 100 * run.normalized_cycles(SchemeName.IA)
        print(f"{addressing.value}: IA energy {ia:.1f}% of base, "
              f"cycles {ia_cycles:.2f}% of base")

    print("\nThe paper's prediction for commercial workloads: higher iL1 "
          "miss rates make\nthe VI-VT miss path hotter, so IA's cycle "
          "savings grow relative to SPEC.")


if __name__ == "__main__":
    main()
