"""The report's tables, pinned section by section.

``tests/golden/report_sections.json`` maps every experiment of
:data:`~repro.experiments.report.ALL_EXPERIMENTS` to the sha256 of its
table's ``to_markdown()`` from one :func:`run_all` at a small window
(1500 + 500 instructions, mesa and gap — the window of
``tests/test_report_plan.py``).  A change to how experiments declare,
answer or build their cells must leave every table byte-identical.

Regenerate (only for an intentional change to the model or a table's
layout) with::

    PYTHONPATH=src python -m pytest tests/test_report_sections.py \\
        --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments import common
from repro.experiments.report import ALL_EXPERIMENTS, run_all

GOLDEN_FILE = Path(__file__).parent / "golden" / "report_sections.json"

SETTINGS = common.default_settings(instructions=1_500, warmup=500,
                                   benchmarks=("177.mesa", "254.gap"))


def _sections() -> Dict[str, str]:
    common.configure_store(None)
    try:
        results = run_all(SETTINGS, verbose=False)
    finally:
        common.configure_store(None)
    return {name: hashlib.sha256(result.to_markdown().encode("utf-8"))
            .hexdigest()
            for (name, _), result in zip(ALL_EXPERIMENTS, results)}


@pytest.fixture(scope="module")
def sections() -> Dict[str, str]:
    return _sections()


@pytest.fixture(scope="module")
def golden(request, sections) -> Dict[str, str]:
    if request.config.getoption("--update-golden"):
        GOLDEN_FILE.write_text(json.dumps(
            {"window": {"instructions": SETTINGS.instructions,
                        "warmup": SETTINGS.warmup,
                        "benchmarks": list(SETTINGS.benchmarks)},
             "sections": sections},
            indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_FILE.read_text())["sections"]


def test_golden_covers_every_experiment(golden):
    assert sorted(golden) == sorted(name for name, _ in ALL_EXPERIMENTS)


@pytest.mark.parametrize("name", [name for name, _ in ALL_EXPERIMENTS])
def test_section_reproduces_the_digest(golden, sections, name):
    assert sections[name] == golden[name]
