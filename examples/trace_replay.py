"""Record a workload's instruction stream, then sweep over the trace.

Demonstrates the trace subsystem end to end:

1. record the committed stream of a microbenchmark (both binaries) to a
   gzip trace file in a temporary directory, removed at the end;
2. run the workload live and replay the file through the unchanged
   machinery, and verify the two runs are bit-identical;
3. sweep iTLB sizes over the *trace* through the runner — the committed
   stream is architectural, so one recording serves every same-page-size
   machine configuration.

Run with:  PYTHONPATH=src python examples/trace_replay.py
"""

import json
import tempfile
from pathlib import Path

from repro import (
    JobSpec,
    SchemeName,
    SweepRunner,
    TLBConfig,
    default_config,
    load_trace_workload,
    record_trace,
    run_all_schemes,
)
from repro.workloads import registry

INSTRUCTIONS, WARMUP = 4_000, 800

config = default_config()

with tempfile.TemporaryDirectory(prefix="repro-trace-") as workdir:
    trace_path = Path(workdir) / "taken_pattern.trace.gz"

    # 1. record (writes the committed streams; runs no evaluation)
    record_trace("micro.taken_pattern", config, instructions=INSTRUCTIONS,
                 warmup=WARMUP, path=trace_path)
    print(f"recorded {trace_path} ({trace_path.stat().st_size:,} bytes)")

    # 2. run live, replay, and compare, counter for counter
    live = run_all_schemes(registry.resolve("micro.taken_pattern"), config,
                           instructions=INSTRUCTIONS, warmup=WARMUP)
    workload = load_trace_workload(trace_path)
    replay = run_all_schemes(workload, config, instructions=INSTRUCTIONS,
                             warmup=WARMUP)
    identical = (json.dumps(live.to_dict(), sort_keys=True)
                 == json.dumps(replay.to_dict(), sort_keys=True))
    print(f"record -> replay bit-identical: {identical}")
    assert identical

    # 3. sweep iTLB sizes over the trace file by name
    specs = [JobSpec(workload=f"trace:{trace_path}",
                     config=config.with_itlb(TLBConfig(entries=entries)),
                     instructions=INSTRUCTIONS, warmup=WARMUP)
             for entries in (4, 8, 16, 32)]
    print(f"\niTLB sweep over {specs[0].workload}:")
    for result in SweepRunner().run(specs):
        entries = result.spec.config.itlb.entries
        ia = result.run.normalized_energy(SchemeName.IA)
        print(f"  {entries:>3}-entry iTLB: IA energy "
              f"{100.0 * ia:6.2f}% of base")
