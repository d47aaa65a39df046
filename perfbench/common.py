"""What the benchmark runs: workload windows, seeded inputs, digests.

Shared by the parent (``run.py``), which times fresh processes, and the
child (``child.py``), which does the work inside one of them.  Nothing
here imports ``repro`` at module level, so the parent stays light and
the child can time the package import itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from typing import Dict, List, Sequence

#: the seed that reproduces the shipped stand-in seeds (177, 186, ...)
DEFAULT_SEED = 0

#: iTLB sizes (fully associative entries) the grid sweep covers
GRID_ENTRIES = (1, 2, 4, 8, 16, 32)

#: the windows each workload simulates.  ``paper_report`` is dominated
#: by linking, which does not shrink with the window, so a small window
#: keeps one report near 40 s on a 2-CPU host.  The long trace is over
#: three times the 60k+10k window ``repro bench`` records, and is
#: streamed through a 1 MiB window, about a twentieth of its decoded
#: columns per segment.
WINDOWS: Dict[str, dict] = {
    "paper_report": {"instructions": 4000, "warmup": 1000},
    "itlb_grid_sweep": {"instructions": 8000, "warmup": 2000},
    "long_trace_stream": {"instructions": 200000, "warmup": 20000,
                          "window_bytes": 1 << 20},
}

#: the self-test's smoke windows: a few hundred instructions per pass,
#: and a report over two stand-ins
TINY_WINDOWS: Dict[str, dict] = {
    "paper_report": {"instructions": 300, "warmup": 100,
                     "benchmarks": ["177.mesa", "254.gap"]},
    "itlb_grid_sweep": {"instructions": 2000, "warmup": 200},
    "long_trace_stream": {"instructions": 20000, "warmup": 1000,
                          "window_bytes": 64 << 10},
}

WORKLOADS = tuple(WINDOWS)

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


def window_tag(window: dict) -> str:
    """Names a window in the pinned-digest table: digests are only
    comparable between runs of the same window."""
    return "+".join(f"{key}={window[key]}" for key in sorted(window))


def stand_ins(workload: str, window: dict):
    """The stand-ins a workload generates (only mesa for the long
    trace)."""
    from repro.workloads.spec2000 import BENCHMARK_NAMES
    if workload == "long_trace_stream":
        return ("177.mesa",)
    return tuple(window.get("benchmarks", BENCHMARK_NAMES))


def register_seed(seed: int) -> None:
    """Make the six stand-ins generate from ``seed``.

    The default seed keeps the shipped profiles.  Any other seed
    re-registers each profile under its own name with a derived
    generator seed, so the experiments' paper-row lookups by name still
    work while the generated programs differ."""
    if seed == DEFAULT_SEED:
        return
    import dataclasses

    from repro.workloads.registry import register_profile
    from repro.workloads.spec2000 import BENCHMARK_NAMES, profile_for
    for name in BENCHMARK_NAMES:
        profile = profile_for(name)
        register_profile(
            dataclasses.replace(profile, seed=profile.seed + 1000 * seed),
            replace=True)


def digest(payload) -> str:
    """Short content digest of a JSON-able value or a string."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def load_pinned(workload: str, seed: int, window: dict) -> Dict[str, str]:
    """The digests pinned for (workload, seed, window); empty if none."""
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return {}
    return table.get(workload, {}).get(f"{window_tag(window)}/seed={seed}",
                                       {})


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: what :func:`calibrate` takes on the reference host (a 2-CPU VM
#: running CPython 3.11 while otherwise idle); timings are reported in
#: seconds of that host
REFERENCE_CALIBRATION_S = 0.05


def calibrate() -> float:
    """The host's current speed: the median time of a fixed,
    interpreter-bound loop that shares no code with the package.

    Shared hosts drift by up to 2x within a minute.  The parent
    calibrates before and after every timed child, a long child also
    calibrates between its phases, and :func:`reference_seconds`
    divides each stretch of the child's time by the slowdown measured
    around it.  Over ten seeds this cut the spread of the grid sweep's
    ``wall_s`` from 31% to 9%."""
    times = []
    for _ in range(7):
        table, cells, state, total = {}, [0] * 1024, 1, 0
        started = time.perf_counter()
        for i in range(150000):
            k = i & 1023
            cells[k] += i
            table[k] = cells[k] ^ state
            state = (state + table[k]) & 0xFFFF
            total += state
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def checkpoint(calibrations: List[list]) -> None:
    """Calibrate inside a child: appends ``[start, end, seconds]``."""
    started = time.perf_counter()
    speed = calibrate()
    calibrations.append([started, time.perf_counter(), speed])


def reference_seconds(start: float, end: float, before: float,
                      after: float, inside: Sequence[Sequence[float]]
                      ) -> float:
    """A child's time from ``start`` to ``end`` in reference-host
    seconds.  ``before``/``after`` are the parent's calibrations around
    it and ``inside`` the child's own ``[start, end, seconds]``
    checkpoints; each stretch between two calibrations is scaled by
    the mean slowdown at its ends, and the checkpoints' own time is
    left out."""
    points = [(start, start, before), *inside, (end, end, after)]
    total = 0.0
    for (_, gap_start, left), (gap_end, _, right) in zip(points,
                                                         points[1:]):
        slowdown = (left + right) / 2 / REFERENCE_CALIBRATION_S
        total += max(gap_end - gap_start, 0.0) / slowdown
    return total
