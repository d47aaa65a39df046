"""Golden-number regression suite.

Pins today's headline reproduction numbers — Table 2 / Figure 4 metrics
(iTLB lookups, per-scheme energies and savings) for all six SPEC
stand-ins, plus the exact replay metrics of a small checked-in trace —
and asserts *exact* equality on every future run.  Any simulator change
that moves a counter or an energy by one bit fails here first.  The
linked images themselves are pinned too: a digest of every field of
each stand-in's plain and instrumented binary at two page sizes.

Intentional changes are recorded by regenerating the assets::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

then committing the rewritten ``tests/golden/`` files with the change
that moved the numbers.  The checked-in trace additionally pins the
on-disk trace *format*: if this suite can no longer read it, the format
changed and :data:`repro.trace.format.TRACE_VERSION` must be bumped.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import CacheAddressing, SchemeName, default_config
from repro.experiments.common import answer, default_settings, job_for
from repro.sim.multi import run_all_schemes
from repro.trace import file_digest, load_trace_workload, record_trace
from repro.workloads.spec2000 import BENCHMARK_NAMES, load_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"
HEADLINE_FILE = GOLDEN_DIR / "headline.json"
TRACE_FILE = GOLDEN_DIR / "mesa.trace.gz"
TRACE_GOLDEN_FILE = GOLDEN_DIR / "trace_replay.json"
LINKED_FILE = GOLDEN_DIR / "linked_programs.json"

#: page sizes the linked-image digests cover
LINK_PAGE_SIZES = (4096, 65536)

#: identical to tests/test_experiments.py's SETTINGS, so a full suite
#: run answers these cells from the shared in-process result store
SETTINGS = default_settings(instructions=20_000, warmup=4_000)

#: the checked-in trace's recording window
TRACE_INSTRUCTIONS, TRACE_WARMUP = 3_000, 500

_FIG4_SCHEMES = (SchemeName.HOA, SchemeName.SOCA, SchemeName.SOLA,
                 SchemeName.IA, SchemeName.OPT)


@pytest.fixture()
def update_golden(request):
    return request.config.getoption("--update-golden")


def _headline_metrics(run) -> dict:
    """The Table 2 / Figure 4 facts for one (workload, config) cell."""
    shared = run.shared
    return {
        "instructions": shared.instructions,
        "boundary_crossings": shared.page_crossings_boundary,
        "branch_crossings": shared.page_crossings_branch,
        "il1_misses": shared.il1.misses,
        "schemes": {
            name.value: {
                "lookups": scheme.lookups,
                "misses": scheme.itlb_misses,
                "cycles": scheme.cycles,
                "energy_nj": scheme.energy.total_nj,
            }
            for name, scheme in sorted(run.schemes.items(),
                                       key=lambda kv: kv[0].value)
        },
        "normalized_energy_pct": {
            scheme.value: 100.0 * run.normalized_energy(scheme)
            for scheme in _FIG4_SCHEMES
        },
    }


def _compute_headline() -> dict:
    answers, _ = answer(
        {(bench, addressing): job_for(bench, default_config(addressing),
                                      SETTINGS)
         for bench in BENCHMARK_NAMES
         for addressing in (CacheAddressing.VIPT, CacheAddressing.VIVT)},
        SETTINGS)
    data = {
        "settings": {"instructions": SETTINGS.instructions,
                     "warmup": SETTINGS.warmup},
        "benchmarks": {},
    }
    for bench in BENCHMARK_NAMES:
        data["benchmarks"][bench] = {
            addressing.value: _headline_metrics(answers[bench, addressing])
            for addressing in (CacheAddressing.VIPT, CacheAddressing.VIVT)
        }
    return data


def _compute_trace_golden() -> dict:
    run = run_all_schemes(load_trace_workload(TRACE_FILE),
                          default_config(),
                          instructions=TRACE_INSTRUCTIONS,
                          warmup=TRACE_WARMUP)
    return {
        "trace_sha256": file_digest(TRACE_FILE),
        "window": {"instructions": TRACE_INSTRUCTIONS,
                   "warmup": TRACE_WARMUP},
        "workload": run.workload_name,
        "vi-pt": _headline_metrics(run),
    }


def program_digest(program) -> str:
    """Digest of everything a linked image holds: every instruction's
    fields, the symbol table, the data image and the layout facts."""
    image = {
        "instructions": [
            [instr.op.name, instr.rd, instr.rs, instr.rt, instr.imm,
             instr.target, instr.inpage_hint, instr.is_boundary_branch,
             instr.address, instr.label]
            for instr in program.instructions],
        "labels": program.labels,
        "data_words": sorted(program.data_words.items()),
        "entry": program.entry,
        "data_size": program.data_size,
        "boundary_branch_count": program.boundary_branch_count,
    }
    canonical = json.dumps(image, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _compute_linked() -> dict:
    digests = {}
    for bench in BENCHMARK_NAMES:
        workload = load_benchmark(bench)
        for page_bytes in LINK_PAGE_SIZES:
            for binary in ("plain", "instrumented"):
                program = workload.link(
                    page_bytes=page_bytes,
                    instrumented=binary == "instrumented")
                digests[f"{bench}/{binary}/{page_bytes}"] = \
                    program_digest(program)
    return digests


def _write(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


class TestHeadlineNumbers:
    def test_table2_fig4_metrics_exact(self, update_golden):
        computed = _compute_headline()
        if update_golden:
            _write(HEADLINE_FILE, computed)
        golden = json.loads(HEADLINE_FILE.read_text(encoding="utf-8"))
        assert computed == golden, (
            "headline Table 2 / Fig 4 numbers moved; if intentional, "
            "regenerate with --update-golden and commit tests/golden/")

    def test_golden_covers_all_six_benchmarks(self):
        golden = json.loads(HEADLINE_FILE.read_text(encoding="utf-8"))
        assert sorted(golden["benchmarks"]) == sorted(BENCHMARK_NAMES)
        mesa = golden["benchmarks"]["177.mesa"]["vi-pt"]
        # base does one lookup per instruction by construction: a sanity
        # anchor that the pinned numbers are the real ones
        assert mesa["schemes"]["base"]["lookups"] == mesa["instructions"]


class TestLinkedPrograms:
    def test_linker_reproduces_pinned_images(self, update_golden):
        """Every stand-in's plain and instrumented image, at two page
        sizes, is field-identical to the pinned link."""
        computed = _compute_linked()
        if update_golden:
            _write(LINKED_FILE, computed)
        golden = json.loads(LINKED_FILE.read_text(encoding="utf-8"))
        moved = sorted(name for name in golden
                       if computed.get(name) != golden[name])
        assert sorted(computed) == sorted(golden)
        assert not moved, (
            f"linked images changed: {moved}; if intentional, regenerate "
            "with --update-golden")


class TestCheckedInTraceReplay:
    def test_trace_file_digest_pinned(self, update_golden):
        if update_golden:
            record_trace("177.mesa", default_config(),
                         instructions=TRACE_INSTRUCTIONS,
                         warmup=TRACE_WARMUP, path=TRACE_FILE)
            _write(TRACE_GOLDEN_FILE, _compute_trace_golden())
        golden = json.loads(TRACE_GOLDEN_FILE.read_text(encoding="utf-8"))
        assert file_digest(TRACE_FILE) == golden["trace_sha256"], (
            "the checked-in trace's bytes changed; regenerate with "
            "--update-golden")

    def test_replay_matches_golden_exactly(self, update_golden):
        computed = _compute_trace_golden()
        if update_golden:
            _write(TRACE_GOLDEN_FILE, computed)
        golden = json.loads(TRACE_GOLDEN_FILE.read_text(encoding="utf-8"))
        assert computed == golden, (
            "replaying tests/golden/mesa.trace.gz no longer "
            "reproduces its pinned counters; if intentional, regenerate "
            "with --update-golden")

    def test_recording_the_same_workload_reproduces_the_trace(
            self, tmp_path):
        """Format determinism: re-recording an unchanged workload under
        the unchanged simulator yields the identical file."""
        fresh = tmp_path / "fresh.trace.gz"
        record_trace("177.mesa", default_config(),
                     instructions=TRACE_INSTRUCTIONS, warmup=TRACE_WARMUP,
                     path=fresh)
        assert fresh.read_bytes() == TRACE_FILE.read_bytes()
