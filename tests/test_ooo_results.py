"""The detailed (``ooo``) engine's results, pinned case by case.

``tests/golden/ooo_results.json`` maps every case below to a digest of
its ``CombinedRun.to_dict()`` (energy attached).  The detailed engine
takes each iTLB lookup at its real pipeline point, including IA's
up-front lookups on wrong-path branches, so these pins guard where and
when it translates, not just how many lookups it decides.

The cases are mesa, vortex and ``micro.page_ping_pong`` under PI-PT,
VI-PT and VI-VT with every scheme on the default iTLB, plus mesa Base
and IA under each addressing on a 1-entry iTLB and on serial (1+32) and
parallel (2+16) two-level iTLBs, and the register-corner loop
(:mod:`register_corners`) Base and IA under each addressing.

Regenerate (only for an intentional change to the model) with::

    PYTHONPATH=src python -m pytest tests/test_ooo_results.py \\
        --update-golden
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, NamedTuple

import pytest

from register_corners import NAME as CORNERS
from register_corners import corner_workload
from repro.config import (
    CacheAddressing,
    MachineConfig,
    SchemeName,
    TLBConfig,
    TwoLevelTLBConfig,
    default_config,
)
from repro.sim.multi import run_all_schemes
from repro.workloads.registry import resolve

GOLDEN_FILE = Path(__file__).parent / "golden" / "ooo_results.json"

INSTRUCTIONS, WARMUP = 1_000, 250
ADDRESSINGS = (CacheAddressing.PIPT, CacheAddressing.VIPT,
               CacheAddressing.VIVT)
WORKLOADS = ("177.mesa", "255.vortex", "micro.page_ping_pong")
#: iTLB shapes beyond the default (32-entry fully associative)
SHAPES = {
    "itlb1": lambda config: config.with_itlb(TLBConfig(entries=1)),
    "serial1+32": lambda config: config.with_two_level_itlb(
        TwoLevelTLBConfig(level1=TLBConfig(entries=1),
                          level2=TLBConfig(entries=32), serial=True)),
    "parallel2+16": lambda config: config.with_two_level_itlb(
        TwoLevelTLBConfig(level1=TLBConfig(entries=2),
                          level2=TLBConfig(entries=16), serial=False)),
}


class Case(NamedTuple):
    workload: str
    addressing: CacheAddressing
    scheme: SchemeName
    shape: str = "default"

    @property
    def id(self) -> str:
        return (f"{self.workload}/{self.addressing.value}/"
                f"{self.scheme.value}/{self.shape}")

    def config(self) -> MachineConfig:
        config = default_config(self.addressing)
        if self.shape == "default":
            return config
        return SHAPES[self.shape](config)


def _cases() -> List[Case]:
    cases = [Case(workload, addressing, scheme)
             for workload in WORKLOADS
             for addressing in ADDRESSINGS
             for scheme in SchemeName]
    cases += [Case("177.mesa", addressing, scheme, shape)
              for shape in SHAPES
              for addressing in ADDRESSINGS
              for scheme in (SchemeName.BASE, SchemeName.IA)]
    cases += [Case(CORNERS, addressing, scheme)
              for addressing in ADDRESSINGS
              for scheme in (SchemeName.BASE, SchemeName.IA)]
    return cases


CASES = _cases()


def _digest(case: Case) -> str:
    with (corner_workload() if case.workload == CORNERS
          else nullcontext(resolve(case.workload))) as workload:
        run = run_all_schemes(workload, case.config(),
                              instructions=INSTRUCTIONS, warmup=WARMUP,
                              schemes=(case.scheme,), engine="ooo")
    canonical = json.dumps(run.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden(request) -> Dict[str, str]:
    if request.config.getoption("--update-golden"):
        GOLDEN_FILE.write_text(json.dumps(
            {"window": {"instructions": INSTRUCTIONS, "warmup": WARMUP},
             "cases": {case.id: _digest(case) for case in CASES}},
            indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_FILE.read_text())["cases"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case.id for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_ooo_reproduces_the_digest(golden, case):
    assert _digest(case) == golden[case.id]
