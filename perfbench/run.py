"""The repository benchmark: three workloads, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_report --seed 0 \\
        --seconds 8 --trace 0

Every timed run is a fresh Python process (``child.py``), as every
``repro`` invocation is: cold synthetic generation, cold decode, an
empty LRU, and a per-run peak RSS.  All of them use the serial backend.

``--trace 0`` prints the end-to-end metrics: the median over the runs
that fit in ``--seconds`` (at least one), after set-up and an untimed
verification pass.  ``--trace 1`` runs one untimed and one traced
iteration plus the ablation passes and prints the per-layer metrics
(see ``README.md``).  The last line of standard output is the result
object; the line before it carries the quartiles, the sample counts,
the environment stamp and every check that failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)

from common import (  # noqa: E402
    GRID_ENTRIES,
    WINDOWS,
    WORKLOADS,
    calibrate,
    load_pinned,
    reference_seconds,
)
from layers import (  # noqa: E402
    EXPERIMENTS,
    PER_LAYER,
    UNATTRIBUTED_LIMIT,
    layer_metrics,
)

#: set-ups per run: at least the first count, more while their total
#: stays under the seconds, at most the last count; ``setup_s`` is the
#: median.  Cheap set-ups repeat more, which keeps the median steady.
SETUPS_MIN, SETUP_SECONDS, SETUPS_MAX = 2, 5.0, 5

#: the end-to-end metrics, with their units
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_instr_per_s", "instr/s"),
    ("peak_rss_mb", "MB"),
)


def child_env(window: dict) -> Dict[str, str]:
    """The children's environment: the package on the path, no
    inherited ``REPRO_*`` setting (fault plans, telemetry, trace
    windows) except the forced stream window of the workload."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    if "window_bytes" in window:
        env["REPRO_TRACE_WINDOW"] = str(window["window_bytes"])
    return env


class Child(NamedTuple):
    wall: float  #: seconds from spawn until the child was reaped
    rss_mb: float  #: the child's peak resident memory
    out: Optional[dict]  #: its result, None if it failed
    #: the child's time in reference-host seconds (its wall time when it
    #: was not calibrated), without the calibrations it ran itself
    seconds: float

    @property
    def slowdown(self) -> float:
        return self.wall / self.seconds if self.seconds else 1.0


class Runner:
    """Starts children one at a time inside one work directory."""

    def __init__(self, workload: str, seed: int, window: dict,
                 work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.window = window
        self.work = work
        self.count = 0
        self.loads: List[list] = []
        #: the calibration right after the last calibrated child, which
        #: also serves as the next one's "before"
        self._calibration: Optional[float] = None

    def run(self, mode: str, traced: bool = False, stream: bool = False,
            calibrated: bool = False, **extra) -> Child:
        self.count += 1
        directory = os.path.join(self.work, f"{mode}-{self.count}")
        os.makedirs(directory)
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed,
                "window": self.window, "traced": traced, "dir": directory,
                "out": os.path.join(directory, "result.json"), **extra}
        window = self.window if stream else {
            k: v for k, v in self.window.items() if k != "window_bytes"}
        before = None
        if calibrated:
            before = self._calibration or calibrate()
            spec["calibrated"] = True
        self._calibration = None
        spec_path = os.path.join(directory, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        load = os.getloadavg()
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path,
                                 repr(started)],
                                cwd=ROOT, env=child_env(window),
                                stdout=sys.stderr.fileno())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.loads.append([mode, list(load), list(os.getloadavg())])
        rss_mb = usage.ru_maxrss / 1024.0
        out = None
        if proc.returncode == 0:
            with open(spec["out"], encoding="utf-8") as fh:
                out = json.load(fh)
        seconds = wall
        if before is not None:
            self._calibration = calibrate()
            seconds = reference_seconds(
                started, started + wall, before, self._calibration,
                (out or {}).get("calibrations", []))
        return Child(wall, rss_mb, out, seconds)


class Checker:
    """Compares each operation's digest with its reference: pinned for
    this seed and window when the table has it, else the verification
    pass, else the first run that produced it."""

    def __init__(self, workload: str, pinned: Dict[str, str],
                 verified: Dict[str, str]) -> None:
        self.workload = workload
        self.reference = {op: ("verify", d) for op, d in verified.items()}
        self.reference.update((op, ("pinned", d)) for op, d in
                              pinned.items())
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def fail(self, message: str) -> None:
        self.messages.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def compare(self, op: str, got: str, label: str = "") -> bool:
        source, expected = self.reference.setdefault(op, ("first", got))
        if got == expected:
            return True
        self.fail(f"digest mismatch: workload {self.workload}, "
                  f"{label or op}: expected {expected} ({source}), "
                  f"got {got}")
        return False

    def check_iteration(self, out: Optional[dict], ops: List[str]) -> None:
        """Count one iteration's operations and failures."""
        self.attempted += len(ops)
        if out is None:
            self.failed += len(ops)
            self.fail(f"workload {self.workload}: the run crashed; all "
                      f"{len(ops)} operations count as failed")
            return
        bad = set()
        for op, error in out["errors"].items():
            bad.add(op)
            self.fail(f"workload {self.workload}, {op} raised:\n{error}")
        for op, got in out["ops"].items():
            if not self.compare(op, got):
                bad.add(op)
        for key, job in out.get("jobs", {}).items():
            if not self.compare(f"job:{key}", job["digest"],
                                label=f"job {job['describe']} [{key}]"):
                bad.add(job["op"])
        missing = set(ops) - set(out["ops"]) - bad
        for op in sorted(missing):
            self.fail(f"workload {self.workload}, {op}: no result")
        self.failed += len(bad | missing)


def expected_ops(workload: str, traces: Dict[str, str]) -> List[str]:
    if workload == "paper_report":
        return [*EXPERIMENTS, "EXPERIMENTS.md"]
    if workload == "itlb_grid_sweep":
        return [f"{name}/itlb{entries}" for name in sorted(traces)
                for entries in GRID_ENTRIES]
    return ["177.mesa"]


def quartiles(values: List[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    """What the numbers depend on besides the code: host and source."""
    commit = None
    try:
        found = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = found.stdout.split()
        if found.returncode == 0 and len(lines) == 2 \
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                source.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    source.update(fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "git_commit": commit, "source_digest": source.hexdigest()[:16]}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  window: Optional[dict] = None) -> Tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    window = window or WINDOWS[workload]
    work = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(workload, seed, window, work)
    try:
        return _run(runner, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(runner: Runner, seconds: float, trace: bool) -> Tuple[dict, dict]:
    workload, window = runner.workload, runner.window

    # -- set-up: fresh processes; the first one's inputs are used ------
    setups: List[Child] = []
    while not setups or not trace and len(setups) < SETUPS_MAX and (
            len(setups) < SETUPS_MIN
            or sum(setup.wall for setup in setups) < SETUP_SECONDS):
        setup = runner.run("setup", traced=trace, calibrated=not trace)
        if setup.out is None:
            raise SystemExit(f"perfbench: set-up of {workload} failed")
        setups.append(setup)
    traces = setups[0].out["traces"]

    # -- untimed verification -----------------------------------------
    verified = runner.run("verify", traces=traces).out
    if verified is None:
        raise SystemExit(f"perfbench: verification of {workload} crashed")
    pinned = load_pinned(workload, runner.seed, window)
    checker = Checker(workload, pinned, verified["ops"])
    for problem in verified["checks"]:
        checker.fail(problem)
    ops = expected_ops(workload, traces)

    details = {"workload": workload, "seed": runner.seed, "window": window,
               "pinned": bool(pinned), "env": environment()}
    if trace:
        metrics = _traced(runner, traces, setups[0].out, checker, ops,
                          details)
    else:
        metrics = _timed(runner, traces, seconds, checker, ops, details,
                         setups)
    details["loadavg"] = runner.loads
    details["failed_frac"] = checker.failed / max(checker.attempted, 1)
    details["failures"] = checker.messages
    result = {
        "correct": checker.failed == 0 and not checker.messages,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return result, details


def _timed(runner: Runner, traces: dict, seconds: float, checker: Checker,
           ops: List[str], details: dict, setups: List[Child]) -> dict:
    runs: List[Child] = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        child = runner.run("iterate", stream=True, calibrated=True,
                           traces=traces)
        checker.check_iteration(child.out, ops)
        runs.append(child)
    samples = {
        "setup_s": [setup.seconds for setup in setups],
        "wall_s": [child.seconds for child in runs],
        "sim_instr_per_s": [(child.out or {}).get("instructions", 0)
                            / child.seconds for child in runs],
        "peak_rss_mb": [child.rss_mb for child in runs],
    }
    details["samples"] = samples
    details["raw"] = {
        "setup_wall_s": [setup.wall for setup in setups],
        "setup_slowdown": [setup.slowdown for setup in setups],
        "wall_s": [child.wall for child in runs],
        "slowdown": [child.slowdown for child in runs],
    }
    details["quartiles"] = {name: quartiles(values)
                            for name, values in samples.items()}
    return {name: {"value": details["quartiles"][name]["median"],
                   "unit": unit} for name, unit in END_TO_END}


def _traced(runner: Runner, traces: dict, setup_out: dict,
            checker: Checker, ops: List[str], details: dict) -> dict:
    untraced = runner.run("iterate", stream=True, traces=traces)
    checker.check_iteration(untraced.out, ops)
    traced_child = runner.run("iterate", traced=True, stream=True,
                              traces=traces)
    traced, traced_wall = traced_child.out, traced_child.wall
    checker.check_iteration(traced, ops)
    ablation = runner.run("ablate", traces=traces).out
    if traced is None or ablation is None:
        raise SystemExit(f"perfbench: traced run of {runner.workload} "
                         "crashed")
    metrics, addup = layer_metrics(
        traced["spans"], setup_out.get("spans", []), traced_wall,
        untraced.wall, ablation["ablation"], traced)
    details["addup"] = addup
    details["ablation"] = ablation["ablation"]
    details["skipped_targets"] = traced.get("skipped", [])
    os.makedirs(OUT, exist_ok=True)
    dump = os.path.join(
        OUT, f"spans-{runner.workload}-s{runner.seed}.json")
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"details": details, "spans": traced["spans"],
                   "setup_spans": setup_out.get("spans", [])}, fh)
    if metrics["bench.unattributed_frac"] > UNATTRIBUTED_LIMIT:
        checker.fail(
            f"add-up check failed on {runner.workload}: "
            f"{metrics['bench.unattributed_frac']:.1%} of the traced wall "
            f"({traced_wall:.2f} s) is in no span; the largest gap is "
            f"the process root with {addup['root_self_s']:.3f} s of self "
            f"time and {addup['outside_root_s']:.3f} s outside it; "
            f"largest self times: {addup['largest_self'][:3]}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.cli import to_json
    result, details = run_benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print(to_json(details, indent=None))
    print(to_json(result, indent=None))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
