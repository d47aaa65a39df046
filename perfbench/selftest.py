"""Self-test of the benchmark: a tiny-window smoke of every workload.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs each workload once timed and once traced with the windows in
``common.TINY_WINDOWS`` and asserts what the benchmark promises: every
metric ``BENCHMARK.json`` names is emitted with its unit, values are
finite (end-to-end ones never 0), the output is strict JSON, every
check passes, and a directory holding only ``BENCHMARK.json`` and the
benchmark fails without printing a result.  Takes about three minutes
on a 2-CPU host.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from common import TINY_WINDOWS, WORKLOADS  # noqa: E402


def _reject(token: str):
    raise ValueError(f"non-strict JSON token {token}")


def strict(payload) -> None:
    """Serialize as the benchmark prints, then parse strictly."""
    from repro.cli import to_json
    json.loads(to_json(payload, indent=None), parse_constant=_reject)


def check_result(result: dict, units: dict, label: str,
                 positive: bool) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: not correct"
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0
    got = {name: metric["unit"] for name, metric in
           result["metrics"].items()}
    assert got == units, f"{label}: metric names or units differ: " \
        f"missing {sorted(set(units) - set(got))}, " \
        f"extra {sorted(set(got) - set(units))}"
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{label}: {name} = {value!r}"
        assert value > 0 or not positive, f"{label}: {name} is {value}"


def check_bare_checkout(bench_path: str) -> None:
    """Without the package source the benchmark must exit non-zero and
    print no result."""
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(bench_path, bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare checkout: exit code 0"
    assert not proc.stdout.strip(), f"bare checkout printed {proc.stdout!r}"


def main() -> int:
    bench_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == dict(run.END_TO_END)
    sys.path.insert(0, run.SRC)
    for workload in WORKLOADS:
        for trace, units in ((False, end_to_end), (True, per_layer)):
            label = f"{workload} trace={int(trace)}"
            result, details = run.run_benchmark(
                workload, 0, 0.5, trace, TINY_WINDOWS[workload])
            assert not details["failures"], \
                f"{label}: {details['failures']}"
            check_result(result, units, label, positive=not trace)
            strict(result)
            strict(details)
            print(f"perfbench self-test: {label} ok", file=sys.stderr)
    check_bare_checkout(bench_path)
    print("perfbench self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
