"""Branch prediction: bimodal counters, BTB, RAS, gshare, and the
integrated front-end predictor on deterministic patterns."""

import pytest

from repro.branch.bimodal import BimodalPredictor
from repro.branch.btb import BTB
from repro.branch.gshare import GsharePredictor
from repro.branch.predictor import FrontEndPredictor
from repro.branch.ras import ReturnAddressStack
from repro.config import BranchPredictorConfig, CacheAddressing, SchemeName, \
    default_config
from repro.cpu.fast import FastEngine
from repro.isa.assembler import link
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import REG_RA
from repro.workloads import microbench


class TestBimodal:
    def test_four_state_walk(self):
        pred = BimodalPredictor(table_entries=16)
        pc = 0x400000
        assert not pred.predict(pc)  # weakly not-taken initial
        pred.update(pc, True)
        assert pred.predict(pc)
        pred.update(pc, True)
        assert pred.counter(pc) == 3  # saturated
        pred.update(pc, False)
        assert pred.predict(pc)  # hysteresis: still predicts taken
        pred.update(pc, False)
        assert not pred.predict(pc)

    def test_saturation_bounds(self):
        pred = BimodalPredictor(table_entries=16)
        pc = 0x400000
        for _ in range(10):
            pred.update(pc, False)
        assert pred.counter(pc) == 0
        for _ in range(10):
            pred.update(pc, True)
        assert pred.counter(pc) == 3

    def test_aliasing_by_index(self):
        pred = BimodalPredictor(table_entries=4)
        a, b = 0x400000, 0x400000 + 4 * 4  # same index
        pred.update(a, True)
        pred.update(a, True)
        assert pred.predict(b)  # aliased


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(entries=16, assoc=2)
        assert btb.lookup(0x400000) is None
        btb.update(0x400000, 0x400100)
        assert btb.lookup(0x400000) == 0x400100

    def test_lru_within_set(self):
        btb = BTB(entries=4, assoc=2)  # 2 sets
        pcs = [0x400000, 0x400000 + 8, 0x400000 + 16]  # same set (stride 2 words)
        btb.update(pcs[0], 1)
        btb.update(pcs[1], 2)
        btb.lookup(pcs[0])
        btb.update(pcs[2], 3)
        assert btb.probe(pcs[1]) is None
        assert btb.probe(pcs[0]) == 1

    def test_retarget(self):
        btb = BTB(entries=16, assoc=2)
        btb.update(0x400000, 0x1)
        btb.update(0x400000, 0x2)
        assert btb.lookup(0x400000) == 0x2


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        for addr in (1, 2, 3):
            ras.push(addr)
        assert ras.overflows == 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


class TestGshare:
    def test_learns_alternating_pattern(self):
        """Gshare disambiguates a strict T/N alternation via history;
        bimodal cannot (it oscillates around the threshold)."""
        gshare = GsharePredictor(table_entries=256, history_bits=4)
        pc = 0x400000
        pattern = [True, False] * 200
        correct = 0
        for taken in pattern:
            correct += gshare.predict(pc) == taken
            gshare.update(pc, taken)
        assert correct / len(pattern) > 0.9


class TestFrontEndPredictor:
    #: where the branch sits
    PC = 0x400000

    def _branch(self, target=0x400100):
        return Instruction(Opcode.BNE, rs=1, rt=2, target=target)

    def test_conditional_needs_btb_for_taken(self):
        fe = FrontEndPredictor(BranchPredictorConfig())
        instr = self._branch()
        # train direction taken but BTB cold: effective prediction not-taken
        fe.direction.update(self.PC, True)
        fe.direction.update(self.PC, True)
        pred = fe.predict(self.PC, instr)
        assert not pred.predicted_taken
        fe.train(self.PC, instr, pred, True, instr.target)
        pred2 = fe.predict(self.PC, instr)
        assert pred2.predicted_taken
        assert pred2.predicted_target == instr.target

    def test_mispredict_flag_direction(self):
        fe = FrontEndPredictor(BranchPredictorConfig())
        instr = self._branch()
        pred = fe.predict(self.PC, instr)
        outcome = fe.train(self.PC, instr, pred, True, instr.target)
        assert outcome.mispredicted  # predicted NT, was taken

    def test_degenerate_branch_no_path_divergence(self):
        """Taken branch to its own fall-through: mispredicted direction but
        no wrong-path fetch (the OoO desync regression)."""
        instr = self._branch(target=0x400004)
        fe = FrontEndPredictor(BranchPredictorConfig())
        pred = fe.predict(self.PC, instr)
        outcome = fe.train(self.PC, instr, pred, True, 0x400004)
        assert outcome.mispredicted
        assert not outcome.path_diverged

    def test_ras_predicts_returns(self):
        fe = FrontEndPredictor(BranchPredictorConfig(ras_entries=8))
        call = Instruction(Opcode.JAL, target=0x400800)
        ret = Instruction(Opcode.JR, rs=REG_RA)
        pred = fe.predict(0x400000, call)
        fe.train(0x400000, call, pred, True, call.target)
        pred_ret = fe.predict(0x400800, ret)
        assert pred_ret.from_ras
        assert pred_ret.predicted_target == 0x400004

    def test_no_ras_returns_use_btb(self):
        fe = FrontEndPredictor(BranchPredictorConfig(ras_entries=0))
        ret = Instruction(Opcode.JR, rs=REG_RA)
        pred = fe.predict(0x400800, ret)
        assert not pred.from_ras
        assert not pred.predicted_taken  # BTB cold

    def test_accuracy_on_biased_pattern(self):
        """End-to-end through the fast engine: a 5:1-biased pattern branch
        should be predicted at ~ max(p, 1-p)."""
        program = link(microbench.taken_pattern("TTTTTN", iterations=400))
        engine = FastEngine(program, default_config(CacheAddressing.VIPT),
                            schemes=(SchemeName.BASE,))
        result = engine.run(8000, warmup=2000)
        stats = result.shared.predictor
        assert stats.accuracy > 0.75

    def test_static_kind_taken(self):
        fe = FrontEndPredictor(BranchPredictorConfig(kind="taken"))
        instr = self._branch()
        fe.train(self.PC, instr,
                 fe.predict(self.PC, instr), True, instr.target)
        pred = fe.predict(self.PC, instr)
        assert pred.predicted_taken
