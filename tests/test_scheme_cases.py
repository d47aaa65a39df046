"""Case-by-case scheme semantics with fabricated predictions/outcomes.

Unit-level pinning of the paper's Figure 3 (IA's A/B/C/D cases) and the
deferral rules, without an engine in the loop.
"""

import pytest

from repro.branch.predictor import BranchOutcome, Prediction
from repro.config import (
    SchemeName,
    TLBConfig,
    TwoLevelTLBConfig,
    default_config,
)
from repro.core.schemes import LookupReason, build_policy
from repro.cpu.results import scheme_result
from repro.isa.instructions import Instruction, Opcode
from repro.vm.page_table import PageTable, Protection
from repro.vm.tlb import build_itlb

PAGE = 4096


def _code_table() -> PageTable:
    """A page table with the code pages these cases touch mapped RX, as
    an address space premaps a program's text: iTLB refills only read
    it."""
    table = PageTable(PAGE)
    for vpn in (*range(8), *range(0x400, 0x408)):
        table.map_page(vpn, Protection.RX)
    return table


def _policy(name, defer=False, config=None):
    return build_policy(name, config or default_config(), _code_table(),
                        defer=defer)


def _translate(policy, itlb):
    """Replay the policy's pending lookups through ``itlb``, as an
    engine does, and return the latency they exposed."""
    penalty = policy.config.itlb.miss_penalty
    before = itlb.latency(penalty)
    itlb.replay(policy.column, {}, policy.page_table)
    del policy.column[:]
    return itlb.latency(penalty) - before


def _counters(policy, itlb):
    """The policy's counters with the iTLB's misses and probes."""
    return scheme_result(policy, itlb, extra_cycles=0, cycles=0).counters


#: where the branch of most cases sits
PC = 0x400000


def _branch_instr(target=0x402000, boundary=False, hint=False):
    return Instruction(Opcode.BNE, rs=1, rt=2, target=target,
                       is_boundary_branch=boundary, inpage_hint=hint)


def _outcome(instr, predicted_taken, predicted_target, taken, next_pc,
             mispredicted, pc=PC):
    prediction = Prediction(predicted_taken, predicted_target,
                            btb_hit=predicted_target is not None)
    return BranchOutcome(pc=pc, instr=instr,
                         prediction=prediction, taken=taken,
                         next_pc=next_pc, mispredicted=mispredicted)


class TestIACases:
    """Figure 3's four return points, as lookup-count assertions."""

    def _seeded_ia(self):
        ia = _policy(SchemeName.IA)
        ia.lookup(0x400000 // PAGE, LookupReason.START)  # CFR covers page 0x400
        ia.counters.lookups = 0
        return ia

    def test_case_a_not_taken_correct_no_lookup(self):
        ia = self._seeded_ia()
        instr = _branch_instr()
        ia.on_control(_outcome(instr, False, None, False,
                               PC + 4, mispredicted=False))
        assert ia.counters.lookups == 0
        assert ia.covered

    def test_case_b_not_taken_wrong_lookup_at_next_fetch(self):
        ia = self._seeded_ia()
        instr = _branch_instr()
        ia.on_control(_outcome(instr, False, None, True, instr.target,
                               mispredicted=True))
        assert ia.counters.lookups == 0  # deferred to the resolved fetch
        assert not ia.covered
        assert ia.wants_lookup(instr.target // PAGE)

    def test_case_c_taken_correct_page_change_one_lookup(self):
        ia = self._seeded_ia()
        instr = _branch_instr(target=0x402000)  # different page
        ia.on_control(_outcome(instr, True, instr.target, True,
                               instr.target, mispredicted=False))
        assert ia.counters.lookups == 1  # the up-front lookup
        assert ia.covered
        assert ia.cfr.matches(instr.target // PAGE)

    def test_case_d_taken_predicted_wrong_two_lookups(self):
        ia = self._seeded_ia()
        instr = _branch_instr(target=0x402000)
        ia.on_control(_outcome(instr, True, instr.target, False,
                               PC + 4, mispredicted=True))
        assert ia.counters.lookups == 1  # up-front for the predicted page
        assert not ia.covered  # the not-taken path re-looks-up at fetch
        assert ia.wants_lookup((PC + 4) // PAGE)

    def test_same_page_predicted_taken_no_lookup(self):
        ia = self._seeded_ia()
        instr = _branch_instr(target=0x400100)  # same page as CFR
        ia.on_control(_outcome(instr, True, instr.target, True,
                               instr.target, mispredicted=False))
        assert ia.counters.lookups == 0
        assert ia.covered

    def test_btb_compare_counted_only_on_predicted_taken(self):
        ia = self._seeded_ia()
        instr = _branch_instr()
        ia.on_control(_outcome(instr, False, None, False,
                               PC + 4, False))
        assert ia.counters.btb_compares == 0
        ia.on_control(_outcome(instr, True, instr.target, True,
                               instr.target, False))
        assert ia.counters.btb_compares == 1

    def test_deferred_mode_never_looks_up_in_trigger(self):
        ia = _policy(SchemeName.IA, defer=True)
        ia.lookup(0x400000 // PAGE, LookupReason.START)
        ia.counters.lookups = 1
        instr = _branch_instr(target=0x402000)
        ia.on_control(_outcome(instr, True, instr.target, True,
                               instr.target, mispredicted=False))
        assert ia.counters.lookups == 1  # nothing eager under VI-VT
        assert not ia.covered  # marked stale instead


class TestSoCASoLACases:
    def test_soca_invalidates_on_any_branch(self):
        soca = _policy(SchemeName.SOCA)
        soca.lookup(1, LookupReason.START)
        instr = _branch_instr()
        soca.on_control(_outcome(instr, False, None, False,
                                 PC + 4, False))
        assert not soca.covered
        assert soca.pending_reason is LookupReason.BRANCH

    def test_soca_boundary_reason(self):
        soca = _policy(SchemeName.SOCA)
        soca.lookup(1, LookupReason.START)
        instr = Instruction(Opcode.J, target=0x401000,
                            is_boundary_branch=True)
        soca.on_control(_outcome(instr, True, instr.target, True,
                                 instr.target, False, pc=0x400FFC))
        assert soca.pending_reason is LookupReason.BOUNDARY

    def test_sola_hinted_branch_keeps_coverage(self):
        sola = _policy(SchemeName.SOLA)
        sola.lookup(1, LookupReason.START)
        instr = _branch_instr(target=0x400100, hint=True)
        sola.on_control(_outcome(instr, True, instr.target, True,
                                 instr.target, False))
        assert sola.covered

    def test_sola_unhinted_branch_invalidates(self):
        sola = _policy(SchemeName.SOLA)
        sola.lookup(1, LookupReason.START)
        instr = _branch_instr(target=0x402000, hint=False)
        sola.on_control(_outcome(instr, True, instr.target, True,
                                 instr.target, False))
        assert not sola.covered

    def test_hoa_opt_ignore_branches(self):
        for name in (SchemeName.HOA, SchemeName.OPT):
            policy = _policy(name)
            policy.lookup(1, LookupReason.START)
            instr = _branch_instr()
            policy.on_control(_outcome(instr, True, instr.target, True,
                                       instr.target, False))
            assert not policy.wants_lookup(1)  # still keyed on the CFR page


class TestTwoLevelPolicyIntegration:
    def test_policy_with_two_level_itlb_counts_l2_probes(self):
        config = default_config().with_itlb(TLBConfig(entries=32)) \
            .with_two_level_itlb(TwoLevelTLBConfig(
                level1=TLBConfig(entries=1),
                level2=TLBConfig(entries=32)))
        policy = build_policy(SchemeName.OPT, config, _code_table())
        itlb = build_itlb(config.itlb, config.itlb_two_level)
        policy.lookup(1, LookupReason.BRANCH)  # cold: L1 miss, L2 miss
        policy.lookup(2, LookupReason.BRANCH)  # evicts 1 from L1
        policy.lookup(1, LookupReason.BRANCH)  # L1 miss, L2 hit
        _translate(policy, itlb)
        counters = _counters(policy, itlb)
        assert counters.lookups == 3
        assert counters.l2_probes == 3
        assert counters.misses == 2

    def test_note_repeat_hits_on_two_level(self):
        config = default_config().with_two_level_itlb(TwoLevelTLBConfig(
            level1=TLBConfig(entries=1), level2=TLBConfig(entries=32)))
        policy = build_policy(SchemeName.BASE, config, _code_table())
        itlb = build_itlb(config.itlb, config.itlb_two_level)
        policy.lookup(1, LookupReason.BRANCH)
        _translate(policy, itlb)
        # the decision side counts the lookups, the iTLB that served
        # the previous one counts the hits
        policy.note_repeat_hits(100)
        itlb.repeat_hits(100)
        counters = _counters(policy, itlb)
        assert counters.lookups == 101
        assert counters.l2_probes == 1  # repeats hit level 1
        assert itlb.level1.stats.hits == 100


class TestLookupExtraLatency:
    def test_two_level_serial_extra_cycle_surfaces(self):
        config = default_config().with_two_level_itlb(TwoLevelTLBConfig(
            level1=TLBConfig(entries=1), level2=TLBConfig(entries=32)))
        policy = build_policy(SchemeName.OPT, config, _code_table())
        itlb = build_itlb(config.itlb, config.itlb_two_level)
        policy.lookup(1, LookupReason.BRANCH)
        cold = _translate(policy, itlb)
        assert cold == 1 + config.itlb.miss_penalty  # L2 probe + walk
        policy.lookup(2, LookupReason.BRANCH)
        _translate(policy, itlb)
        policy.lookup(1, LookupReason.BRANCH)
        warm_l2 = _translate(policy, itlb)
        assert warm_l2 == 1  # L1 miss, L2 hit: just the extra probe cycle

    def test_serial_penalty_applied_by_ia_upfront(self):
        ia = _policy(SchemeName.IA)
        ia.serial_penalty = 1  # PI-PT mode
        ia.lookup(0x400000 // PAGE, LookupReason.START)
        before = ia.extra_cycles
        instr = _branch_instr(target=0x402000)
        ia.on_control(_outcome(instr, True, instr.target, True,
                               instr.target, False))
        assert ia.extra_cycles >= before + 1
