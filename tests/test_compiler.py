"""Compiler passes: static analysis, instrumentation, layout transform."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.analysis import analyze_program, classify_branch
from repro.compiler.instrument import (
    instrument_module,
    link_plain,
    mark_inpage_hints,
)
from repro.compiler.layout import layout_by_affinity
from repro.isa.assembler import Assembler, link
from repro.isa.instructions import Opcode
from repro.isa.registers import REG_RA
from repro.workloads.spec2000 import load_benchmark
from repro.workloads.synthetic import WorkloadProfile, generate


def _module_with_branches():
    asm = Assembler()
    asm.label("main")
    asm.label("near")
    asm.addi(1, 0, 1)
    asm.bne(1, 0, "near")        # in-page conditional
    asm.jal("far")               # cross-page call (far is pushed a page away)
    asm.jr(REG_RA)               # unanalyzable
    for _ in range(1100):
        asm.nop()
    asm.label("far")
    asm.addi(2, 0, 2)
    asm.jr(REG_RA)
    return asm.module


class TestAnalysis:
    def test_classification(self):
        program = link_plain(_module_with_branches())
        stats = analyze_program(program)
        assert stats.total == 4  # bne, jal, 2x jr
        assert stats.analyzable == 2
        assert stats.in_page == 1  # the bne
        assert stats.crossing == 1  # the jal

    def test_classify_rejects_non_control(self):
        program = link_plain(_module_with_branches())
        addi = program.instructions[0]
        assert not addi.is_control
        with pytest.raises(ValueError):
            classify_branch(addi, program.text_base, 4096)

    def test_boundary_branches_excluded_by_default(self):
        program = instrument_module(_module_with_branches())
        stats = analyze_program(program)
        assert stats.total == 4
        stats_all = analyze_program(program, include_boundary=True)
        assert stats_all.total == 4 + program.boundary_branch_count

    def test_row_percentages(self):
        program = link_plain(_module_with_branches())
        row = analyze_program(program).row()
        assert row["analyzable_pct"] == pytest.approx(50.0)
        assert row["in_page_pct"] == pytest.approx(50.0)


class TestInstrument:
    def test_inpage_hints_marked(self):
        program = instrument_module(_module_with_branches())
        bne = next(i for i in program.instructions if i.op is Opcode.BNE)
        jal = next(i for i in program.instructions if i.op is Opcode.JAL)
        assert bne.inpage_hint
        assert not jal.inpage_hint

    def test_boundary_branches_never_hinted(self):
        program = instrument_module(_module_with_branches())
        for instr in program.instructions:
            if instr.is_boundary_branch:
                assert not instr.inpage_hint

    def test_plain_binary_unhinted(self):
        program = link_plain(_module_with_branches())
        assert not any(i.inpage_hint for i in program.instructions)

    def test_hints_recomputed_after_layout_shift(self):
        """Instrumentation shifts addresses; hints are computed on the
        final layout, so re-marking is a no-op."""
        program = instrument_module(_module_with_branches())
        before = [i.inpage_hint for i in program.instructions]
        mark_inpage_hints(program)
        assert [i.inpage_hint for i in program.instructions] == before

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_instrumented_workloads_validate(self, seed):
        """Any generated workload must produce a structurally valid
        instrumented binary (boundary invariant enforced in validate)."""
        profile = WorkloadProfile(name=f"p{seed}", seed=seed,
                                  hot_functions=3, cold_functions=2,
                                  leaf_functions=2, schedule_len=4,
                                  fn_align_words=1024,
                                  far_branch_frac=0.2, tail_call_prob=0.2)
        workload = generate(profile)
        program = workload.link(instrumented=True)
        program.validate()  # raises on any violated invariant


class TestLayout:
    def test_affinity_layout_links_and_runs(self):
        workload = load_benchmark("177.mesa")
        module = layout_by_affinity(workload.chunks, workload.call_graph,
                                    workload.module.data)
        program = instrument_module(module, name="mesa-affinity")
        program.validate()
        assert len(program) > 0

    def test_entry_function_stays_first(self):
        workload = load_benchmark("177.mesa")
        module = layout_by_affinity(workload.chunks, workload.call_graph,
                                    workload.module.data)
        program = link_plain(module)
        assert program.entry == program.labels["main"]

    def test_all_chunks_preserved(self):
        workload = load_benchmark("177.mesa")
        module = layout_by_affinity(workload.chunks, workload.call_graph,
                                    workload.module.data)
        assert module.instruction_count \
            == workload.module.instruction_count

    def test_affine_pair_adjacent(self):
        chunks = [("a", ["a"]), ("b", ["b"]), ("c", ["c"]), ("main", ["main"])]
        graph = {("main", "c"): 10, ("c", "a"): 9, ("b", "a"): 1}
        module = layout_by_affinity(chunks, graph)
        order = [item for item in module.text if isinstance(item, str)]
        assert order[0] == "main"
        assert order.index("c") == order.index("main") + 1
