"""Pin result digests for some seeds into ``digests.json``.

Usage (from the repository root)::

    python3 perfbench/pin.py --seeds 0-4 [--workload paper_report ...]

For each workload and seed this runs one set-up and one iteration at
the benchmark's windows and records the digest of every operation
(and, for the report, of every job).  Later runs on a pinned seed
compare against these digests, so a change that moves any simulated
number fails the benchmark.  Pin only from a commit whose results are
known good; a verification failure stops the pinning.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from common import DIGESTS_PATH, WINDOWS, WORKLOADS, window_tag  # noqa: E402


def pin(workload: str, seed: int) -> dict:
    window = WINDOWS[workload]
    work = os.path.join(run.WORK, f"pin-{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = run.Runner(workload, seed, window, work)
        setup = runner.run("setup").out
        verified = runner.run("verify", traces=setup["traces"]).out
        if verified["checks"]:
            raise SystemExit("\n".join(verified["checks"]))
        out = runner.run("iterate", stream=True,
                         traces=setup["traces"]).out
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out is None or out["errors"]:
        raise SystemExit(f"{workload} seed {seed}: the run failed")
    checker = run.Checker(workload, {}, verified["ops"])
    checker.check_iteration(out, run.expected_ops(workload,
                                                  setup["traces"]))
    if checker.failed:
        raise SystemExit(f"{workload} seed {seed}: {checker.messages}")
    digests = dict(out["ops"])
    digests.update((f"job:{key}", job["digest"])
                   for key, job in out.get("jobs", {}).items())
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-4 or 0,7")
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args()
    seeds = []
    for part in args.seeds.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for workload in args.workload:
        for seed in seeds:
            key = f"{window_tag(WINDOWS[workload])}/seed={seed}"
            table.setdefault(workload, {})[key] = pin(workload, seed)
            with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"pinned {workload} {key}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
