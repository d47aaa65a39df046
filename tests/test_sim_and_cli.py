"""Simulator facade, combined runs, energy attachment, extensions, CLI."""

import dataclasses

import pytest

from repro.config import (
    CacheAddressing,
    EnergyConfig,
    SchemeName,
    default_config,
)
from repro.cli import main as cli_main
from repro.core.dcfr import DataCFR
from repro.errors import ConfigError
from repro.experiments import extensions
from repro.experiments.common import default_settings
from repro.sim.multi import run_all_schemes
from repro.sim.simulator import Simulator, attach_energy
from repro.vm.os_model import AddressSpace
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLB
from repro.workloads.spec2000 import load_benchmark


class TestSimulator:
    def test_energy_attached(self, mesa_run_vipt):
        for scheme in mesa_run_vipt.schemes.values():
            assert scheme.energy is not None
            assert scheme.energy.total_nj >= 0

    def test_page_size_mismatch_rejected(self):
        workload = load_benchmark("177.mesa")
        program = workload.link(page_bytes=4096)
        sim = Simulator(default_config().with_page_bytes(8192))
        with pytest.raises(ConfigError):
            sim.run_program(program, instructions=100)

    def test_ooo_engine_requires_single_scheme(self):
        workload = load_benchmark("177.mesa")
        sim = Simulator(default_config())
        with pytest.raises(ConfigError):
            sim.run_program(workload.link(), instructions=100,
                            schemes=(SchemeName.BASE, SchemeName.IA),
                            engine="ooo")

    def test_unknown_engine_rejected(self):
        workload = load_benchmark("177.mesa")
        sim = Simulator(default_config())
        with pytest.raises(ConfigError):
            sim.run_program(workload.link(), instructions=100,
                            engine="magic")


class TestCombinedRun:
    def test_scheme_binary_routing(self, mesa_run_vipt):
        assert SchemeName.BASE in mesa_run_vipt.plain.schemes
        assert SchemeName.IA in mesa_run_vipt.instrumented.schemes
        assert SchemeName.IA not in mesa_run_vipt.plain.schemes

    def test_normalization_base_is_one(self, mesa_run_vipt):
        assert mesa_run_vipt.normalized_energy(SchemeName.BASE) \
            == pytest.approx(1.0)
        assert mesa_run_vipt.normalized_cycles(SchemeName.BASE) \
            == pytest.approx(1.0)

    def test_boundary_overhead_is_small(self, mesa_run_vipt):
        assert mesa_run_vipt.boundary_overhead_fraction < 0.02

    def test_schemes_property_merges(self, mesa_run_vipt):
        merged = mesa_run_vipt.schemes
        assert set(merged) == set(SchemeName)

    def test_subset_of_schemes(self):
        run = run_all_schemes(load_benchmark("177.mesa"), default_config(),
                              instructions=3000, warmup=500,
                              schemes=(SchemeName.BASE, SchemeName.OPT))
        assert set(run.plain.schemes) == {SchemeName.BASE, SchemeName.OPT}

    def test_instrumented_base_copy_is_shadowed(self, mesa_run_vipt):
        """The instrumented pass carries a Base copy purely for same-binary
        normalization; the merged view must expose the plain-pass Base."""
        plain_base = mesa_run_vipt.plain.schemes[SchemeName.BASE]
        instr_base = mesa_run_vipt.instrumented.schemes[SchemeName.BASE]
        assert instr_base is not plain_base
        merged = mesa_run_vipt.schemes
        assert merged[SchemeName.BASE] is plain_base
        assert mesa_run_vipt.scheme(SchemeName.BASE) is plain_base
        # the two Base results really come from different binaries, so
        # shadowing the wrong way would corrupt Table 2's characteristics
        assert mesa_run_vipt.instrumented.program_name \
            == mesa_run_vipt.plain.program_name + "+instr"

    def test_base_normalization_uses_same_binary_copy(self, mesa_run_vipt):
        """IA normalizes against the instrumented pass's Base, not the
        plain one, so layout noise cancels within a binary."""
        instr_base = mesa_run_vipt.instrumented.schemes[SchemeName.BASE]
        ia = mesa_run_vipt.scheme(SchemeName.IA)
        expected = ia.energy.total_nj / instr_base.energy.total_nj
        assert mesa_run_vipt.normalized_energy(SchemeName.IA) \
            == pytest.approx(expected)


class TestEnergyReattachment:
    def test_full_accounting_increases_energy(self, mesa_run_vipt):
        from repro.energy.cacti import CactiLikeModel
        ia = mesa_run_vipt.scheme(SchemeName.IA)
        paper_nj = ia.energy.total_nj
        full_model = CactiLikeModel(EnergyConfig(charge_cfr_reads=True,
                                                 charge_btb_compare=True))
        attach_energy(mesa_run_vipt.instrumented, full_model)
        assert ia.energy.total_nj > paper_nj
        # restore the default accounting for other tests
        attach_energy(mesa_run_vipt.instrumented)


class TestDataCFR:
    def test_single_register_hit_rate(self):
        config = default_config()
        dtlb = TLB(config.dtlb)
        table = PageTable(4096)
        dcfr = DataCFR(dtlb, table, 12, registers=1)
        for addr in (0x1000, 0x1004, 0x1008, 0x2000, 0x2004):
            dcfr.translate(addr, write=False)
        counters = dcfr.counters
        assert counters.references == 5
        assert counters.register_hits == 3  # same-page follow-ups
        assert counters.dtlb_lookups == 2

    def test_more_registers_never_worse(self):
        config = default_config()
        pattern = [0x1000, 0x9000, 0x1004, 0x9004] * 50
        hits = []
        for registers in (1, 2):
            dcfr = DataCFR(TLB(config.dtlb), PageTable(4096), 12,
                           registers=registers)
            for addr in pattern:
                dcfr.translate(addr, write=False)
            hits.append(dcfr.counters.register_hits)
        assert hits[1] > hits[0]

    def test_rejects_zero_registers(self):
        with pytest.raises(ValueError):
            DataCFR(TLB(default_config().dtlb), PageTable(4096), 12,
                    registers=0)


class TestExtensions:
    SETTINGS = default_settings(instructions=6_000, warmup=1_500,
                                benchmarks=("177.mesa",))

    def test_dcfr_experiment(self):
        result = extensions.run_dcfr(self.SETTINGS)
        rows = {row["registers"]: row for row in result.rows}
        assert rows[4]["register hit %"] >= rows[1]["register hit %"]

    def test_layout_experiment(self):
        result = extensions.run_layout(self.SETTINGS)
        by_layout = {row["layout"]: row for row in result.rows}
        assert by_layout["affinity"]["page crossings"] \
            <= by_layout["original"]["page crossings"] * 1.5

    def test_predictor_experiment(self):
        result = extensions.run_predictors(self.SETTINGS)
        assert any(row["predictor"] == "bimodal, no RAS"
                   for row in result.rows)
        for row in result.rows:
            assert row["ia/opt ratio"] >= 0.99

    def test_accounting_experiment(self):
        result = extensions.run_accounting(self.SETTINGS)
        for row in result.rows:
            assert row["full accounting %"] > row["paper accounting %"]


class TestCLI:
    def test_config_command(self, capsys):
        assert cli_main(["config"]) == 0
        out = capsys.readouterr().out
        assert "RUU Size" in out

    def test_experiment_command(self, capsys):
        assert cli_main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        assert cli_main(["simulate", "177.mesa", "--instructions", "2000",
                         "--warmup", "500"]) == 0
        out = capsys.readouterr().out
        assert "177.mesa" in out and "lookups" in out

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            cli_main(["simulate", "999.nope"])

    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_python_dash_m_repro_smoke(self):
        """``python -m repro`` dispatches to the CLI (subprocess, so the
        __main__ path itself is exercised)."""
        import os
        import subprocess
        import sys
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert "repro-itlb" in proc.stdout


class TestCLISweep:
    ARGS = ["sweep", "--benchmarks", "micro.counted_loop",
            "micro.call_return", "--itlb-entries", "8", "32",
            "--instructions", "2000", "--warmup", "400"]

    def test_sweep_table_output(self, capsys):
        assert cli_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "micro.counted_loop" in out and "8,FA" in out
        assert "0 failed" in out

    def test_sweep_json_output_and_cache(self, capsys, tmp_path):
        import json
        args = self.ARGS + ["--json", "--cache-dir", str(tmp_path)]
        assert cli_main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["stats"]["simulated"] == 4
        assert len(first["jobs"]) == 4
        # repeat: served entirely from the on-disk store
        assert cli_main(args) == 0
        second = json.loads(capsys.readouterr().out)
        # each benchmark's iTLB sizes shared one pass; a cached job
        # plans no pass at all
        assert first["stats"]["grids"] == 2
        assert second["stats"] == {**first["stats"], "cached": 4,
                                   "simulated": 0, "parallel": False,
                                   "grids": 0, "grid_members": 0}
        for a, b in zip(first["jobs"], second["jobs"]):
            assert b["cached"] and a["result"] == b["result"]

    def test_sweep_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--benchmarks", "not.a.workload"])
