"""Scheme semantics — the paper's contribution, pinned by construction.

Uses microbenchmarks with derivable behaviour plus the mesa workload, and
asserts the structural identities of Section 3.3:

* HoA performs exactly OPT's lookups (they differ only in comparator ops);
* Base looks up on every fetch (VI-PT) / every iL1 miss (VI-VT);
* SoCA performs ~one lookup per dynamic branch;
* SoCA >= SoLA >= IA >= ~OPT in lookups;
* OPT's lookups equal the page crossings (+1 seed);
* schemes never change iL1/L2 behaviour.
"""

import pytest

from repro.config import CacheAddressing, SchemeName, default_config
from repro.core.cfr import CFR
from repro.core.schemes import LookupReason, build_all_policies, build_policy
from repro.cpu.fast import FastEngine
from repro.isa.assembler import link, place_boundary_branches
from repro.sim.multi import run_all_schemes
from repro.sim.simulator import run_program_grid
from repro.vm.page_table import PageTable, Protection
from repro.vm.tlb import build_itlb
from repro.workloads import microbench, registry
from repro.workloads.spec2000 import BENCHMARK_NAMES, load_benchmark


def _run(module, addressing=CacheAddressing.VIPT, instrumented=False,
         instructions=6000, schemes=None):
    program = link(module)
    if instrumented:
        program = place_boundary_branches(program, page_bytes=4096)
    engine = FastEngine(program, default_config(addressing), schemes=schemes)
    return engine.run(instructions, warmup=0)


def _code_table() -> PageTable:
    """A page table with code pages 0-7 mapped RX, as an address space
    premaps a program's text: iTLB refills only read it."""
    table = PageTable(4096)
    for vpn in range(8):
        table.map_page(vpn, Protection.RX)
    return table


class TestCFR:
    def test_load_and_match(self):
        cfr = CFR()
        assert not cfr.matches(5)
        cfr.load(5, 99, Protection.RX)
        assert cfr.matches(5)
        assert not cfr.matches(6)
        assert (cfr.pfn, cfr.prot) == (99, Protection.RX)


class TestPolicyMechanics:
    def test_policy_factory_builds_private_itlbs(self):
        """Policies own no iTLB: each gets a private lookup column, which
        the engine replays through that scheme's own iTLBs."""
        config = default_config()
        table = PageTable(4096)
        policies = build_all_policies(config, table)
        assert len(policies) == 6
        columns = {id(p.column) for p in policies}
        assert len(columns) == 6

    def test_base_always_wants_lookup(self):
        policy = build_policy(SchemeName.BASE, default_config(),
                              _code_table())
        assert policy.wants_lookup(1)
        policy.lookup(1, LookupReason.BRANCH)
        assert policy.wants_lookup(1)  # no CFR: still wants it

    def test_opt_wants_lookup_only_on_page_change(self):
        policy = build_policy(SchemeName.OPT, default_config(),
                              _code_table())
        assert policy.wants_lookup(1)
        policy.lookup(1, LookupReason.BRANCH)
        assert not policy.wants_lookup(1)
        assert policy.wants_lookup(2)

    def test_lookup_reasons_counted(self):
        policy = build_policy(SchemeName.OPT, default_config(),
                              _code_table())
        policy.lookup(1, LookupReason.BOUNDARY)
        policy.lookup(2, LookupReason.BRANCH)
        assert policy.counters.boundary_lookups == 1
        assert policy.counters.branch_lookups == 1
        assert policy.counters.lookups == 2

    def test_lookup_miss_penalty_returned(self):
        """A replay right after a lookup exposes its miss latency, as
        the out-of-order engine charges it."""
        config = default_config()
        table = _code_table()
        policy = build_policy(SchemeName.OPT, config, table)
        itlb = build_itlb(config.itlb)
        penalty = config.itlb.miss_penalty

        def lookup(vpn):
            policy.lookup(vpn, LookupReason.BRANCH)
            before = itlb.latency(penalty)
            itlb.replay(policy.column, {}, table)
            del policy.column[:]
            return itlb.latency(penalty) - before

        extra = lookup(1)
        assert extra == config.itlb.miss_penalty  # cold iTLB
        lookup(2)
        assert lookup(1) == 0  # warm now

    def test_snapshot_restore_keeps_counters(self):
        policy = build_policy(SchemeName.IA, default_config(),
                              _code_table())
        snap = policy.snapshot()
        policy.lookup(1, LookupReason.BRANCH)
        lookups = policy.counters.lookups
        policy.restore(snap)
        assert policy.counters.lookups == lookups  # energy stays spent
        assert not policy.cfr.matches(1)


class TestSchemeIdentities:
    """Structural identities on a real instruction stream."""

    @pytest.fixture(scope="class")
    def mesa_vipt(self):
        return run_all_schemes(load_benchmark("177.mesa"),
                               default_config(CacheAddressing.VIPT),
                               instructions=15_000, warmup=3_000)

    @pytest.fixture(scope="class")
    def mesa_vivt(self):
        return run_all_schemes(load_benchmark("177.mesa"),
                               default_config(CacheAddressing.VIVT),
                               instructions=15_000, warmup=3_000)

    def test_hoa_equals_opt_lookups(self, mesa_vipt):
        hoa = mesa_vipt.scheme(SchemeName.HOA).counters
        opt = mesa_vipt.scheme(SchemeName.OPT).counters
        assert hoa.lookups == opt.lookups
        assert hoa.misses == opt.misses

    def test_hoa_pays_comparator_per_fetch(self, mesa_vipt):
        hoa = mesa_vipt.scheme(SchemeName.HOA).counters
        assert hoa.comparator_ops == mesa_vipt.plain.shared.instructions
        opt = mesa_vipt.scheme(SchemeName.OPT).counters
        assert opt.comparator_ops == 0

    def test_base_looks_up_every_fetch_vipt(self, mesa_vipt):
        base = mesa_vipt.scheme(SchemeName.BASE).counters
        assert base.lookups == mesa_vipt.plain.shared.instructions

    def test_opt_lookups_equal_page_crossings(self, mesa_vipt):
        opt = mesa_vipt.scheme(SchemeName.OPT).counters
        crossings = mesa_vipt.plain.shared.page_crossings
        # +1 for the very first fetch after the (unmeasured) warmup
        assert abs(opt.lookups - crossings) <= 1

    def test_soca_lookups_track_dynamic_branches(self, mesa_vipt):
        soca = mesa_vipt.scheme(SchemeName.SOCA).counters
        branches = mesa_vipt.instrumented.shared.dynamic_branches
        assert soca.lookups == pytest.approx(branches, rel=0.01)

    def test_scheme_ordering(self, mesa_vipt):
        lookups = {s: mesa_vipt.scheme(s).counters.lookups
                   for s in SchemeName}
        assert lookups[SchemeName.SOCA] >= lookups[SchemeName.SOLA]
        assert lookups[SchemeName.SOLA] >= lookups[SchemeName.IA] * 0.8
        assert lookups[SchemeName.IA] >= lookups[SchemeName.OPT] * 0.9
        assert lookups[SchemeName.BASE] >= lookups[SchemeName.SOCA]

    def test_energy_ordering_vipt(self, mesa_vipt):
        energy = {s: mesa_vipt.scheme(s).energy.total_nj for s in SchemeName}
        assert energy[SchemeName.OPT] < energy[SchemeName.HOA]
        assert energy[SchemeName.HOA] < energy[SchemeName.SOCA]
        assert energy[SchemeName.IA] < energy[SchemeName.SOCA]
        assert energy[SchemeName.SOCA] < 0.5 * energy[SchemeName.BASE]

    def test_ia_close_to_opt(self, mesa_vipt):
        ia = mesa_vipt.normalized_energy(SchemeName.IA)
        opt = mesa_vipt.normalized_energy(SchemeName.OPT)
        assert ia < 2.5 * opt
        assert ia < 0.15  # >85% saving, the headline claim

    def test_boundary_lookups_equal_across_soft_schemes(self, mesa_vipt):
        soca = mesa_vipt.scheme(SchemeName.SOCA).counters
        sola = mesa_vipt.scheme(SchemeName.SOLA).counters
        ia = mesa_vipt.scheme(SchemeName.IA).counters
        assert soca.boundary_lookups == sola.boundary_lookups
        assert soca.boundary_lookups == ia.boundary_lookups

    def test_vivt_base_lookups_equal_il1_misses(self, mesa_vivt):
        base = mesa_vivt.scheme(SchemeName.BASE).counters
        assert base.lookups == mesa_vivt.plain.shared.il1.misses

    def test_vivt_lookups_bounded_by_misses(self, mesa_vivt):
        misses = mesa_vivt.plain.shared.il1.misses
        for scheme in (SchemeName.HOA, SchemeName.OPT):
            assert mesa_vivt.scheme(scheme).counters.lookups <= misses

    def test_vivt_deferred_hits_plus_lookups_cover_misses(self, mesa_vivt):
        opt = mesa_vivt.scheme(SchemeName.OPT).counters
        misses = mesa_vivt.plain.shared.il1.misses
        assert opt.lookups + opt.deferred_cfr_hits == misses

    def test_hoa_vivt_comparator_on_miss_path_only(self, mesa_vivt):
        hoa = mesa_vivt.scheme(SchemeName.HOA).counters
        assert hoa.comparator_ops == mesa_vivt.plain.shared.il1.misses

    def test_schemes_do_not_change_cache_behaviour(self, mesa_vipt,
                                                   mesa_vivt):
        """Paper Section 3.3.4: same binary => same iL1/L2 hits/misses
        regardless of scheme (one pass serves all schemes, so identical by
        construction; the VI-PT vs VI-VT shared stats must agree too since
        index and effective tagging are bijective)."""
        vipt = mesa_vipt.plain.shared
        vivt = mesa_vivt.plain.shared
        assert vipt.il1.misses == vivt.il1.misses
        assert vipt.instructions == vivt.instructions

    def test_ia_btb_compares_bounded_by_taken_predictions(self, mesa_vipt):
        ia = mesa_vipt.scheme(SchemeName.IA).counters
        branches = mesa_vipt.instrumented.shared.dynamic_branches
        assert 0 < ia.btb_compares <= branches


def _opt_pass(program, config):
    """One OPT-only pass over ``program`` (3000 + 700, warm CFR)."""
    (result,) = run_program_grid(program, [config], instructions=3_000,
                                 warmup=700, schemes=(SchemeName.OPT,))
    return result


class TestOptLooksUpOncePerCrossing:
    """Under a physically tagged iL1 every fetch translates, so OPT
    looks up exactly once per page crossing of the pass it ran on: the
    layout extension reads its OPT column off the instrumented pass's
    page crossings.  Under VI-VT OPT looks up on iL1 misses only."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES + tuple(
        f"micro.{micro}" for micro in registry.MICROBENCH_NAMES))
    def test_opt_lookups_equal_page_crossings(self, name):
        workload = registry.resolve(name)
        for page_bytes in (4096, 16384):
            for instrumented in (False, True):
                program = workload.link(page_bytes=page_bytes,
                                        instrumented=instrumented)
                for addressing in (CacheAddressing.PIPT,
                                   CacheAddressing.VIPT):
                    result = _opt_pass(program, default_config(addressing)
                                       .with_page_bytes(page_bytes))
                    assert result.schemes[SchemeName.OPT].lookups \
                        == result.shared.page_crossings, \
                        (page_bytes, instrumented, addressing)

    def test_not_under_vivt(self):
        result = _opt_pass(load_benchmark("177.mesa").link(),
                           default_config(CacheAddressing.VIVT))
        assert result.schemes[SchemeName.OPT].lookups \
            != result.shared.page_crossings


class TestPingPongExactCounts:
    """A two-page ping-pong: every hop is a page-crossing taken jump, so
    OPT's lookup count is derivable in closed form."""

    def test_opt_counts(self):
        module = microbench.page_ping_pong(pages=2, pad_instructions=1100,
                                           iterations=120)
        result = _run(module, schemes=(SchemeName.OPT, SchemeName.BASE),
                      instructions=900)
        shared = result.shared
        opt = result.schemes[SchemeName.OPT]
        assert shared.page_crossings > 100  # it really ping-pongs
        assert abs(opt.counters.lookups - (shared.page_crossings + 1)) <= 1

    def test_straight_line_boundary_crossings(self):
        module = microbench.straight_line(instructions=3000, iterations=3)
        result = _run(module, schemes=(SchemeName.OPT,), instructions=6000)
        shared = result.shared
        assert shared.page_crossings_boundary > 0
        assert shared.page_crossings_boundary \
            >= shared.page_crossings_branch
