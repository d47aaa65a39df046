"""The fast engine's results, pinned case by case.

``tests/golden/engine_results.json`` maps every case below to a digest
of its ``CombinedRun.to_dict()``.  The digests were generated by the
per-instruction scalar loop that evaluated live programs before the
columns loop replaced it, so they pin that loop's semantics: the one
loop must reproduce every digest on the live program *and* on a replay
of the program's recorded trace.

The cases are the twelve registered workloads (six SPEC stand-ins, six
micros) under PI-PT, VI-PT and VI-VT at 4 KB and 64 KB pages, each
stand-in under four more generator seeds at VI-PT / 4 KB (registered
under its own name, as ``perfbench`` does), one zero-warmup window, and
the register-corner loop (:mod:`register_corners`) under PI-PT, VI-PT
and VI-VT at 4 KB.

Regenerate (only for an intentional change to the model) with::

    PYTHONPATH=src python -m pytest tests/test_engine_results.py \\
        --update-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, NamedTuple

import pytest

from register_corners import NAME as CORNERS
from register_corners import corner_workload
from repro.config import CacheAddressing, default_config
from repro.sim.multi import run_all_schemes
from repro.trace.record import record_trace
from repro.trace.replay import load_trace_workload
from repro.workloads.registry import (
    MICROBENCH_NAMES,
    register_profile,
    resolve,
    unregister,
)
from repro.workloads.spec2000 import BENCHMARK_NAMES, profile_for
from repro.workloads.synthetic import link_slot

GOLDEN_FILE = Path(__file__).parent / "golden" / "engine_results.json"

INSTRUCTIONS, WARMUP = 2_000, 500
ADDRESSINGS = (CacheAddressing.PIPT, CacheAddressing.VIPT,
               CacheAddressing.VIVT)
PAGE_SIZES = (4096, 65536)
#: extra generator seeds per stand-in (the profile seed + 1000 * n)
EXTRA_SEEDS = (1, 2, 3, 4)
WORKLOADS = tuple(BENCHMARK_NAMES) + tuple(f"micro.{name}"
                                           for name in MICROBENCH_NAMES)


class Case(NamedTuple):
    workload: str
    seed: int  #: extra generator seed; 0 = the registered profile
    addressing: CacheAddressing
    page_bytes: int
    warmup: int = WARMUP

    @property
    def id(self) -> str:
        name = self.workload + (f"+seed{self.seed}" if self.seed else "")
        tail = "" if self.warmup == WARMUP else f"/warmup{self.warmup}"
        return f"{name}/{self.addressing.value}/{self.page_bytes}{tail}"

    @property
    def stream(self) -> str:
        """The committed stream this case reads: one per (program,
        page size, window), shared by every addressing."""
        return self.id.replace(f"/{self.addressing.value}", "")

    def config(self):
        return default_config(self.addressing).with_page_bytes(
            self.page_bytes)


def _cases() -> List[Case]:
    cases = [Case(workload, 0, addressing, page_bytes)
             for workload in WORKLOADS
             for page_bytes in PAGE_SIZES
             for addressing in ADDRESSINGS]
    cases += [Case(workload, seed, CacheAddressing.VIPT, 4096)
              for workload in BENCHMARK_NAMES for seed in EXTRA_SEEDS]
    cases.append(Case("177.mesa", 0, CacheAddressing.VIPT, 4096, warmup=0))
    cases += [Case(CORNERS, 0, addressing, 4096) for addressing in ADDRESSINGS]
    return cases


CASES = _cases()
STREAMS: Dict[str, List[Case]] = {}
for _case in CASES:
    STREAMS.setdefault(_case.stream, []).append(_case)


def _digest(run) -> str:
    canonical = json.dumps(run.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@contextmanager
def _workload(case: Case):
    """The case's workload; an extra seed is registered under the
    stand-in's own name for the duration, then the builtin restored, and
    the corner loop only for the duration."""
    if case.workload == CORNERS:
        with corner_workload() as workload:
            yield workload
        return
    if not case.seed:
        yield resolve(case.workload)
        return
    profile = profile_for(case.workload)
    register_profile(dataclasses.replace(
        profile, seed=profile.seed + 1000 * case.seed), replace=True)
    try:
        yield resolve(case.workload)
    finally:
        unregister(case.workload)


def _run(workload, case: Case):
    return run_all_schemes(workload, case.config(),
                           instructions=INSTRUCTIONS, warmup=case.warmup)


def _live_digests(cases: List[Case]) -> Dict[str, str]:
    with _workload(cases[0]) as workload, link_slot():
        return {case.id: _digest(_run(workload, case)) for case in cases}


@pytest.fixture(scope="module")
def golden(request) -> Dict[str, str]:
    if request.config.getoption("--update-golden"):
        digests: Dict[str, str] = {}
        for cases in STREAMS.values():
            digests.update(_live_digests(cases))
        GOLDEN_FILE.write_text(json.dumps(
            {"window": {"instructions": INSTRUCTIONS, "warmup": WARMUP},
             "cases": digests}, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_FILE.read_text())["cases"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case.id for case in CASES)


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_live_and_replay_reproduce_the_digests(golden, stream, tmp_path):
    cases = STREAMS[stream]
    expected = {case.id: golden[case.id] for case in cases}
    first = cases[0]
    path = tmp_path / "case.trace"  # uncompressed: quicker to write
    with _workload(first) as workload, link_slot():
        # the live runs share the programs, and so the streams, the
        # recording built
        record_trace(workload, first.config(), instructions=INSTRUCTIONS,
                     warmup=first.warmup, path=path)
        live = {case.id: _digest(_run(workload, case)) for case in cases}
    assert live == expected
    replay = load_trace_workload(path)
    assert {case.id: _digest(_run(replay, case))
            for case in cases} == expected
