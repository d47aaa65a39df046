"""Execution engines: functional correctness, fast-engine invariants, and
fast-vs-OoO agreement."""

import pytest

from repro.config import CacheAddressing, SchemeName, default_config
from repro.cpu.fast import FastEngine
from repro.cpu.functional import Executor
from repro.cpu.ooo import OutOfOrderEngine
from repro.errors import ExecutionError, MemoryFault
from repro.isa.assembler import Assembler, link
from repro.isa.registers import REG_RA
from repro.vm.os_model import AddressSpace
from repro.workloads import microbench
from repro.workloads.spec2000 import load_benchmark


def _execute(module, max_steps=100_000):
    program = link(module)
    space = AddressSpace(program)
    executor = Executor(program, space)
    executor.run(max_steps)
    return executor, space


class TestFunctional:
    def test_counted_loop_result(self):
        asm = Assembler()
        asm.label("main")
        asm.addi(8, 0, 0)     # t0 = 0
        asm.addi(16, 0, 10)   # s0 = 10
        asm.label("loop")
        asm.add(8, 8, 16)     # t0 += s0
        asm.addi(16, 16, -1)
        asm.bne(16, 0, "loop")
        asm.halt()
        executor, _ = _execute(asm.module)
        assert executor.halted
        assert executor.regs[8] == sum(range(1, 11))

    def test_call_return_semantics(self):
        executor, _ = _execute(microbench.call_return(depth_calls=5,
                                                      callee_len=3))
        assert executor.halted

    def test_memory_walker_increments(self):
        module = microbench.memory_walker(words=64, iterations=2)
        executor, space = _execute(module)
        base = space.program.labels["walk_array"]
        assert space.memory[base] == 2
        assert space.memory[base + 4] == 2

    def test_r0_hardwired(self):
        asm = Assembler()
        asm.label("main")
        asm.addi(0, 0, 99)
        asm.add(8, 0, 0)
        asm.halt()
        executor, _ = _execute(asm.module)
        assert executor.regs[8] == 0

    def test_signed_comparisons(self):
        asm = Assembler()
        asm.label("main")
        asm.addi(8, 0, -1)     # t0 = -1 (0xFFFFFFFF)
        asm.addi(9, 0, 1)
        asm.slt(10, 8, 9)      # -1 < 1 signed => 1
        asm.halt()
        executor, _ = _execute(asm.module)
        assert executor.regs[10] == 1

    def test_32bit_wraparound(self):
        asm = Assembler()
        asm.label("main")
        asm.li(8, 0x7FFFFFFF)
        asm.addi(9, 0, 1)
        asm.add(10, 8, 9)
        asm.halt()
        executor, _ = _execute(asm.module)
        assert executor.regs[10] == 0x80000000

    def test_divide_by_zero_yields_zero(self):
        asm = Assembler()
        asm.label("main")
        asm.addi(8, 0, 5)
        asm.div(10, 8, 0)
        asm.halt()
        executor, _ = _execute(asm.module)
        assert executor.regs[10] == 0

    def test_xorshift_rng_is_32bit(self):
        asm = Assembler()
        asm.label("main")
        asm.li(23, 12345)
        for _ in range(8):
            asm.slli(24, 23, 13)
            asm.xor(23, 23, 24)
            asm.srli(24, 23, 17)
            asm.xor(23, 23, 24)
            asm.slli(24, 23, 5)
            asm.xor(23, 23, 24)
        asm.halt()
        executor, _ = _execute(asm.module)
        assert 0 < executor.regs[23] <= 0xFFFFFFFF

    def test_step_after_halt_raises(self):
        executor, _ = _execute(microbench.counted_loop(iterations=2))
        assert executor.halted
        with pytest.raises(ExecutionError):
            executor.step()

    def test_wild_jump_faults(self):
        asm = Assembler()
        asm.label("main")
        asm.addi(8, 0, 0)
        asm.jr(8)  # jump to address 0
        module = asm.module
        program = link(module)
        executor = Executor(program, AddressSpace(program))
        executor.step()  # addi
        executor.step()  # jr lands the PC at 0
        with pytest.raises(MemoryFault):
            executor.step()  # fetching address 0 faults


class TestFastEngine:
    def test_deterministic(self):
        workload = load_benchmark("177.mesa")
        def one():
            engine = FastEngine(workload.link(), default_config())
            return engine.run(5000, warmup=1000)
        a, b = one(), one()
        assert a.shared.base_cycles == b.shared.base_cycles
        assert (a.schemes[SchemeName.IA].lookups
                == b.schemes[SchemeName.IA].lookups)

    def test_budget_counts_useful_instructions(self):
        workload = load_benchmark("177.mesa")
        engine = FastEngine(workload.link(instrumented=True),
                            default_config())
        result = engine.run(5000)
        assert result.shared.useful_instructions == 5000
        assert result.shared.instructions \
            == 5000 + result.shared.boundary_instructions

    def test_scheme_cycles_are_base_plus_extra(self, mesa_run_vipt):
        shared = mesa_run_vipt.plain.shared
        for scheme in mesa_run_vipt.plain.schemes.values():
            assert scheme.cycles == shared.base_cycles + scheme.extra_cycles

    def test_vipt_schemes_no_extra_cycles_with_warm_itlb(self, mesa_run_vipt):
        """VI-PT: lookups are parallel; only iTLB misses cost cycles."""
        ia = mesa_run_vipt.scheme(SchemeName.IA)
        assert ia.extra_cycles <= ia.counters.misses \
            * default_config().itlb.miss_penalty

    def test_ipc_in_sane_band(self, mesa_run_vipt):
        assert 0.5 < mesa_run_vipt.plain.ipc < 4.0

    def test_warmup_excluded_from_stats(self):
        workload = load_benchmark("177.mesa")
        engine = FastEngine(workload.link(), default_config())
        result = engine.run(4000, warmup=2000)
        assert result.shared.instructions == 4000


class TestOutOfOrderEngine:
    @pytest.mark.parametrize("addressing", list(CacheAddressing))
    def test_runs_all_addressings(self, addressing):
        workload = load_benchmark("177.mesa")
        engine = OutOfOrderEngine(workload.link(),
                                  default_config(addressing),
                                  scheme=SchemeName.BASE)
        result = engine.run(3000, warmup=500)
        assert result.shared.useful_instructions >= 3000
        assert result.shared.base_cycles > 0

    def test_wrong_path_inflates_base_lookups(self):
        """The OoO engine fetches (and translates) down mispredicted
        paths: Base VI-PT lookups exceed retired instructions."""
        workload = load_benchmark("186.crafty")
        engine = OutOfOrderEngine(workload.link(), default_config(),
                                  scheme=SchemeName.BASE)
        result = engine.run(4000, warmup=1000)
        assert result.schemes[SchemeName.BASE].lookups \
            > result.shared.instructions

    def test_pipt_serialization_costs_cycles(self):
        workload = load_benchmark("177.mesa")
        vipt = OutOfOrderEngine(workload.link(), default_config(),
                                scheme=SchemeName.BASE).run(3000, warmup=500)
        pipt = OutOfOrderEngine(
            workload.link(), default_config(CacheAddressing.PIPT),
            scheme=SchemeName.BASE).run(3000, warmup=500)
        assert pipt.shared.base_cycles > 1.1 * vipt.shared.base_cycles

    def test_ia_recovers_pipt_cycles(self):
        workload = load_benchmark("177.mesa")
        base = OutOfOrderEngine(
            workload.link(), default_config(CacheAddressing.PIPT),
            scheme=SchemeName.BASE).run(3000, warmup=500)
        ia = OutOfOrderEngine(
            workload.link(instrumented=True),
            default_config(CacheAddressing.PIPT),
            scheme=SchemeName.IA).run(3000, warmup=500)
        assert ia.shared.base_cycles < base.shared.base_cycles

    def test_agreement_with_fast_engine(self):
        """Cycles within a generous band, retired stream identical."""
        workload = load_benchmark("177.mesa")
        config = default_config()
        fast = FastEngine(workload.link(), config,
                          schemes=(SchemeName.BASE,)).run(4000, warmup=1000)
        ooo = OutOfOrderEngine(workload.link(), config,
                               scheme=SchemeName.BASE).run(4000, warmup=1000)
        assert fast.shared.dynamic_branches == ooo.shared.dynamic_branches
        ratio = fast.shared.base_cycles / ooo.shared.base_cycles
        assert 0.7 < ratio < 1.4

    def test_halting_program_drains(self):
        program = link(microbench.counted_loop(iterations=100, body_len=4))
        engine = OutOfOrderEngine(program, default_config(),
                                  scheme=SchemeName.BASE)
        result = engine.run(10_000)
        assert result.shared.instructions < 10_000  # halted early
