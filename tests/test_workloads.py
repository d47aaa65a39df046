"""Workload generation and calibration bands.

Calibration bands are centered on the paper's Table 2/4/5 targets but
widened to the residuals the generator actually achieves (documented in
EXPERIMENTS.md); they exist to catch regressions, not to assert perfect
SPEC equivalence.
"""

import functools
import math
from types import SimpleNamespace

import pytest

from repro.experiments import calibration
from repro.experiments.common import default_settings
from repro.workloads.spec2000 import (
    BENCHMARK_NAMES,
    PAPER_REFERENCE,
    load_benchmark,
    paper_row_for,
    profile_for,
    spec2000_suite,
)
from repro.workloads.synthetic import WorkloadProfile, generate


class TestGenerator:
    def test_deterministic(self):
        a = generate(profile_for("177.mesa"))
        b = generate(profile_for("177.mesa"))
        assert a.module.instruction_count == b.module.instruction_count
        assert a.call_graph == b.call_graph

    def test_different_seeds_differ(self):
        base = profile_for("177.mesa")
        import dataclasses
        other = dataclasses.replace(base, seed=base.seed + 1)
        assert (generate(base).module.instruction_count
                != generate(other).module.instruction_count)

    def test_chunks_cover_module(self):
        workload = load_benchmark("177.mesa")
        chunk_instrs = sum(
            sum(1 for item in items if not isinstance(item, str))
            for _, items in workload.chunks)
        assert chunk_instrs == workload.module.instruction_count

    def test_call_graph_names_exist(self):
        workload = load_benchmark("177.mesa")
        names = {name for name, _ in workload.chunks}
        for caller, callee in workload.call_graph:
            assert caller in names
            assert callee in names

    def test_both_binaries_link(self):
        workload = load_benchmark("254.gap")
        plain = workload.link()
        instr = workload.link(instrumented=True)
        assert instr.boundary_branch_count > 0
        assert len(instr) > len(plain)

    def test_custom_profile_runs(self):
        profile = WorkloadProfile(name="custom", seed=7, hot_functions=3,
                                  cold_functions=2, leaf_functions=2,
                                  schedule_len=6, fn_align_words=1024)
        workload = generate(profile)
        from repro.cpu.functional import Executor
        from repro.vm.os_model import AddressSpace
        program = workload.link()
        executor = Executor(program, AddressSpace(program))
        assert executor.run(3000) == 3000  # endless driver loop

    def test_suite_has_six_members(self):
        suite = spec2000_suite()
        assert set(suite) == set(BENCHMARK_NAMES)


@functools.lru_cache(maxsize=None)
def _calibration():
    """The calibration table over the six stand-ins, computed once and
    shared across the parametrized band tests."""
    return calibration.run(default_settings(instructions=30_000,
                                            warmup=8_000))


def _measured_for(bench):
    """``bench``'s measured characteristics, one attribute per metric
    row of the calibration table."""
    return SimpleNamespace(**{row["metric"]: row["measured"]
                              for row in _calibration().rows
                              if row["benchmark"] == bench})


@pytest.mark.parametrize("bench", BENCHMARK_NAMES)
class TestCalibrationBands:
    """Per-benchmark bands around the paper's characterization."""

    @pytest.fixture()
    def measured(self, bench):
        return _measured_for(bench)

    def test_branch_fraction_band(self, bench, measured):
        paper = PAPER_REFERENCE[bench].branch_fraction
        assert 0.35 * paper < measured.branch_fraction < 2.0 * paper

    def test_il1_miss_rate_band(self, bench, measured):
        paper = PAPER_REFERENCE[bench].il1_miss_rate
        assert 0.15 * paper < measured.il1_miss_rate < 9.0 * paper

    def test_crossings_band(self, bench, measured):
        paper = PAPER_REFERENCE[bench].crossings_per_kinst
        assert 0.3 * paper < measured.crossings_per_kinst < 1.8 * paper

    def test_accuracy_band(self, bench, measured):
        paper = PAPER_REFERENCE[bench].predictor_accuracy
        assert abs(measured.predictor_accuracy_pct - paper) < 5.0

    def test_analyzable_band(self, bench, measured):
        paper = PAPER_REFERENCE[bench].analyzable_pct
        # widest residual: gap runs ~14 points under its paper value
        # (documented in EXPERIMENTS.md)
        assert abs(measured.analyzable_pct - paper) < 15.0

    def test_in_page_band(self, bench, measured):
        paper = PAPER_REFERENCE[bench].in_page_pct
        assert abs(measured.in_page_pct - paper) < 15.0


class TestSuiteOrderings:
    """Cross-benchmark orderings the paper's narrative leans on."""

    @pytest.fixture(scope="class")
    def all_measured(self):
        return {bench: _measured_for(bench) for bench in BENCHMARK_NAMES}

    def test_fma3d_is_branchiest(self, all_measured):
        fma = all_measured["191.fma3d"].branch_fraction
        assert fma >= max(m.branch_fraction
                          for b, m in all_measured.items()
                          if b != "191.fma3d") - 0.03

    def test_gap_has_fewest_branches(self, all_measured):
        gap = all_measured["254.gap"].branch_fraction
        assert gap <= min(m.branch_fraction
                          for b, m in all_measured.items()
                          if b != "254.gap") + 0.01

    def test_vortex_most_predictable(self, all_measured):
        vortex = all_measured["255.vortex"].predictor_accuracy_pct
        eon = all_measured["252.eon"].predictor_accuracy_pct
        assert vortex > eon

    def test_table_pairs_paper_and_measured(self):
        table = _calibration()
        assert table.columns == ["benchmark", "metric", "paper",
                                 "measured"]
        assert len(table.rows) == 7 * len(BENCHMARK_NAMES)
        mesa = {row["metric"]: row for row in table.rows
                if row["benchmark"] == "177.mesa"}
        assert set(mesa) >= {"branch_fraction", "il1_miss_rate",
                             "predictor_accuracy_pct"}
        paper = PAPER_REFERENCE["177.mesa"]
        assert mesa["branch_fraction"]["paper"] == paper.branch_fraction
        assert mesa["boundary_share_pct"]["paper"] \
            == paper.boundary_share_pct
        for row in table.rows:
            assert row["paper"] >= 0 and row["measured"] >= 0


def test_unknown_paper_row_is_nan():
    """A workload the paper never measured has no published crossings,
    so its derived crossing figures are NaN, not a division by zero."""
    row = paper_row_for("micro.straight_line")
    assert math.isnan(row.boundary_share_pct)
    assert math.isnan(row.crossings_per_kinst)


class TestRegistry:
    """The workload registry the sweep runner resolves names through."""

    def test_builtins_available(self):
        from repro.workloads import registry
        names = registry.available()
        for bench in BENCHMARK_NAMES:
            assert bench in names
        for micro in registry.MICROBENCH_NAMES:
            assert f"micro.{micro}" in names

    def test_resolve_memoizes(self):
        from repro.workloads import registry
        assert registry.resolve("177.mesa") is registry.resolve("177.mesa")

    def test_load_benchmark_shares_registry_instance(self):
        from repro.workloads import registry
        assert load_benchmark("254.gap") is registry.resolve("254.gap")

    def test_unknown_name_raises_keyerror(self):
        from repro.workloads import registry
        with pytest.raises(KeyError):
            registry.resolve("not.registered")

    def test_duplicate_registration_rejected(self):
        from repro.errors import RegistryError
        from repro.workloads import registry
        with pytest.raises(RegistryError):
            registry.register("177.mesa", lambda: None)

    def test_register_profile_and_unregister(self):
        from repro.workloads import registry
        profile = profile_for("177.mesa")
        import dataclasses
        custom = dataclasses.replace(profile, name="custom.test", seed=7)
        try:
            name = registry.register_profile(custom)
            assert name == "custom.test"
            workload = registry.resolve(name)
            assert workload.profile.seed == 7
        finally:
            registry.unregister("custom.test")
        assert not registry.is_registered("custom.test")

    def test_affinity_variant_is_memoized_and_builtin(self):
        from repro.workloads import registry
        base = registry.resolve("177.mesa")
        variant = registry.resolve("177.mesa@affinity")
        assert variant is registry.resolve("177.mesa@affinity")
        assert registry.is_builtin("177.mesa@affinity")
        assert registry.is_registered("177.mesa@affinity")
        assert variant.profile.name == "177.mesa@affinity"
        assert variant.module.instruction_count \
            == base.module.instruction_count
        assert variant.module.text != base.module.text

    def test_affinity_variant_dropped_with_its_base(self):
        from repro.workloads import registry
        base = registry.resolve("177.mesa")
        variant = registry.resolve("177.mesa@affinity")
        try:
            registry.register("177.mesa", lambda: base, replace=True)
            assert not registry.is_builtin("177.mesa@affinity")
            relaid = registry.resolve("177.mesa@affinity")
            assert relaid is not variant
        finally:
            registry.unregister("177.mesa")
        assert registry.is_builtin("177.mesa@affinity")
        assert registry.resolve("177.mesa@affinity") is not relaid

    def test_affinity_variant_needs_static_chunks(self):
        from repro.errors import RegistryError
        from repro.workloads import registry
        with pytest.raises(RegistryError, match="no static chunks"):
            registry.resolve("micro.counted_loop@affinity")
        with pytest.raises(RegistryError, match="reserved"):
            registry.register("custom@affinity", lambda: None)

    def test_micro_workloads_link_both_ways(self):
        from repro.workloads import registry
        workload = registry.resolve("micro.counted_loop")
        plain = workload.link(page_bytes=4096)
        instrumented = workload.link(page_bytes=4096, instrumented=True)
        assert not plain.instrumented
        assert instrumented.instrumented
        assert len(plain.instructions) > 0
