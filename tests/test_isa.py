"""ISA layer: instruction metadata, encoding round-trips, assembler,
linker layout, and the boundary-branch invariant."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AssemblyError, LayoutError, MemoryFault
from repro.isa.assembler import (
    Assembler,
    Module,
    SymInstr,
    link,
    place_boundary_branches,
)
from repro.isa.instructions import (
    ANALYZABLE_KINDS,
    CONTROL_KINDS,
    Instruction,
    InstrKind,
    Opcode,
    decode,
    encode,
)
from repro.isa.program import TEXT_BASE
from repro.isa.registers import REG_RA, REG_ZERO, reg_name, temp_regs
from repro.workloads import microbench
from repro.workloads.registry import AFFINITY_SUFFIX, resolve
from repro.workloads.spec2000 import BENCHMARK_NAMES, load_benchmark


class TestOpcodeMetadata:
    def test_branches_are_analyzable_control(self):
        for op in (Opcode.BEQ, Opcode.BNE, Opcode.J, Opcode.JAL):
            assert op.is_control and op.is_analyzable_control

    def test_indirect_not_analyzable(self):
        for op in (Opcode.JR, Opcode.JALR):
            assert op.is_control and not op.is_analyzable_control

    def test_unconditional_kinds(self):
        assert Opcode.J.is_unconditional
        assert Opcode.JAL.is_unconditional
        assert not Opcode.BEQ.is_unconditional

    def test_latencies_ordered(self):
        assert Opcode.ADD.latency < Opcode.MUL.latency < Opcode.DIV.latency

    def test_kind_code_precomputed(self):
        instr = Instruction(Opcode.LW, rd=1, rs=2, imm=4)
        assert instr.kind_code == int(InstrKind.LOAD)

    def test_control_kind_partition(self):
        assert ANALYZABLE_KINDS < CONTROL_KINDS


class TestInstructionConstructor:
    """``Instruction`` has a written-out ``__init__``; it must build the
    same dataclass the generated one did."""

    #: every constructor argument, in signature order
    ARGS = dict(rd=1, rs=2, rt=3, imm=-4, target=TEXT_BASE + 16,
                inpage_hint=True, is_boundary_branch=False, label="blk")

    def test_every_opcode_carries_its_kind_code(self):
        for op in Opcode:
            assert op.kind_code == int(op.kind)
            assert type(op.kind_code) is int

    def test_positional_and_keyword_construction_agree(self):
        for op in Opcode:
            positional = Instruction(op, *self.ARGS.values())
            keyword = Instruction(op=op, **self.ARGS)
            assert positional == keyword
            assert repr(positional) == repr(keyword)
            for instr in (positional, keyword):
                assert instr.kind_code == int(op.kind)
                assert instr.latency == op.latency
                assert [getattr(instr, name) for name in self.ARGS] \
                    == list(self.ARGS.values())

    def test_defaults_and_repr(self):
        instr = Instruction(Opcode.NOP)
        assert repr(instr) == (
            "Instruction(op=<Opcode.NOP: ('nop', <InstrKind.NOP: 13>, 1)>, "
            "rd=0, rs=0, rt=0, imm=0, target=None, inpage_hint=False, "
            "is_boundary_branch=False, label='', kind_code=13, "
            "latency=1)")
        assert instr == Instruction(Opcode.NOP)
        assert instr != Instruction(Opcode.NOP, label="blk")
        assert instr != Instruction(Opcode.HALT)

    def test_fields(self):
        fields = dataclasses.fields(Instruction)
        assert [f.name for f in fields] == [
            "op", "rd", "rs", "rt", "imm", "target", "inpage_hint",
            "is_boundary_branch", "label", "kind_code", "latency"]
        assert [f.name for f in fields if not f.init] \
            == ["kind_code", "latency"]
        assert not hasattr(Instruction(Opcode.ADD), "__dict__")

    def test_replace(self):
        instr = Instruction(Opcode.ADD, **self.ARGS)
        assert dataclasses.replace(instr, rd=7) \
            == Instruction(Opcode.ADD, **{**self.ARGS, "rd": 7})
        divided = dataclasses.replace(instr, op=Opcode.DIV)
        assert divided.kind_code == int(InstrKind.INT_DIV)
        assert divided.latency == Opcode.DIV.latency
        with pytest.raises(ValueError):
            dataclasses.replace(instr, kind_code=3)


class TestRegisters:
    def test_names(self):
        assert reg_name(0) == "zero"
        assert reg_name(REG_RA) == "ra"
        assert reg_name(3, fp=True) == "f3"

    def test_bad_index(self):
        with pytest.raises(ValueError):
            reg_name(32)

    def test_temp_regs_disjoint_from_zero(self):
        assert 0 not in temp_regs()


class TestEncoding:
    def _roundtrip(self, instr: Instruction,
                   pc: int = 0x400000) -> Instruction:
        return decode(encode(instr, pc), pc)

    def test_rtype_roundtrip(self):
        instr = Instruction(Opcode.ADD, rd=3, rs=4, rt=5)
        out = self._roundtrip(instr)
        assert (out.op, out.rd, out.rs, out.rt) == (Opcode.ADD, 3, 4, 5)

    def test_itype_negative_imm(self):
        instr = Instruction(Opcode.ADDI, rd=2, rs=2, imm=-7)
        assert self._roundtrip(instr).imm == -7

    def test_branch_roundtrip_with_hint(self):
        instr = Instruction(Opcode.BNE, rs=1, rt=2, target=0x400100,
                            inpage_hint=True)
        out = self._roundtrip(instr)
        assert out.target == 0x400100
        assert out.inpage_hint

    def test_jump_roundtrip(self):
        instr = Instruction(Opcode.JAL, target=0x0048_0000)
        assert self._roundtrip(instr).target == 0x0048_0000

    def test_unlinked_branch_rejected(self):
        with pytest.raises(AssemblyError):
            encode(Instruction(Opcode.BEQ, rs=1, rt=2))

    def test_branch_out_of_encoding_range(self):
        instr = Instruction(Opcode.BNE, rs=1, rt=2,
                            target=0x400000 + (1 << 20))
        with pytest.raises(AssemblyError):
            encode(instr, 0x400000)

    @given(rd=st.integers(0, 31), rs=st.integers(0, 31),
           imm=st.integers(-(1 << 15), (1 << 15) - 1))
    @settings(max_examples=60)
    def test_itype_roundtrip_property(self, rd, rs, imm):
        instr = Instruction(Opcode.XORI, rd=rd, rs=rs, imm=imm)
        out = decode(encode(instr), 0x400000)
        assert (out.rd, out.rs, out.imm) == (rd, rs, imm)

    @pytest.mark.parametrize("op", [Opcode.LUI, Opcode.ORI, Opcode.XORI])
    def test_low_half_imm_accepts_unsigned(self, op):
        instr = Instruction(op, rd=5, rs=5, imm=0xF44E)
        assert self._roundtrip(instr).imm & 0xFFFF == 0xF44E

    def test_andi_imm_stays_signed(self):
        instr = Instruction(Opcode.ANDI, rd=5, rs=5, imm=0xF44E)
        with pytest.raises(AssemblyError):
            encode(instr)

    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_stand_in_binaries_roundtrip(self, bench):
        """Every instruction of both binaries encodes, and decodes to an
        instruction the executor runs the same way."""
        def executed(instr):
            imm = instr.imm
            if instr.op in (Opcode.LUI, Opcode.ORI, Opcode.XORI):
                imm &= 0xFFFF  # all the executor reads of these
            return (instr.op, instr.rd, instr.rs, instr.rt, imm,
                    instr.target, instr.inpage_hint)

        workload = load_benchmark(bench)
        for instrumented in (False, True):
            program = workload.link(instrumented=instrumented)
            for index, instr in enumerate(program.instructions):
                pc = program.text_base + 4 * index
                assert executed(self._roundtrip(instr, pc)) \
                    == executed(instr)

    @given(off_words=st.integers(-(1 << 14) + 1, (1 << 14) - 1),
           hint=st.booleans())
    @settings(max_examples=60)
    def test_branch_offset_roundtrip_property(self, off_words, hint):
        pc = 0x0100_0000
        instr = Instruction(Opcode.BLT, rs=3, rt=4,
                            target=pc + 4 + 4 * off_words,
                            inpage_hint=hint)
        out = decode(encode(instr, pc), pc)
        assert out.target == instr.target
        assert out.inpage_hint == hint


class TestAssemblerAndLinker:
    def test_forward_and_backward_labels(self):
        asm = Assembler()
        asm.label("main")
        asm.j("end")
        asm.label("mid")
        asm.addi(1, 0, 1)
        asm.label("end")
        asm.j("mid")
        program = link(asm.module)
        assert program.labels["main"] == TEXT_BASE
        assert program.instructions[0].target == program.labels["end"]
        assert program.instructions[-1].target == program.labels["mid"]

    def test_duplicate_label_rejected(self):
        asm = Assembler()
        asm.label("a")
        asm.nop()
        asm.label("a")
        asm.nop()
        with pytest.raises(AssemblyError):
            link(asm.module)

    def test_undefined_label_rejected(self):
        asm = Assembler()
        asm.label("main")
        asm.j("nowhere")
        with pytest.raises(AssemblyError):
            link(asm.module)

    def test_branch_range_enforced(self):
        asm = Assembler()
        asm.label("main")
        asm.label("top")
        for _ in range(20000):
            asm.nop()
        asm.bne(1, 2, "top")
        with pytest.raises(AssemblyError):
            link(asm.module)

    def test_li_small_is_one_instruction(self):
        asm = Assembler()
        asm.label("main")
        asm.li(5, 100)
        assert asm.module.instruction_count == 1

    def test_li_large_expands(self):
        asm = Assembler()
        asm.label("main")
        asm.li(5, 0x12345678)
        assert asm.module.instruction_count == 2

    def test_data_labels_resolved(self):
        asm = Assembler()
        asm.label("main")
        asm.label("target")
        asm.nop()
        asm.data_words("table", ["target", 42])
        program = link(asm.module)
        table = program.labels["table"]
        assert program.data_words[table] == program.labels["target"]
        assert program.data_words[table + 4] == 42

    def test_data_label_undefined(self):
        asm = Assembler()
        asm.label("main")
        asm.nop()
        asm.data_words("table", ["missing"])
        with pytest.raises(AssemblyError):
            link(asm.module)

    def test_entry_defaults_to_main(self):
        asm = Assembler()
        asm.nop()
        asm.label("main")
        asm.nop()
        program = link(asm.module)
        assert program.entry == program.labels["main"]

    def test_nop_run_links_to_its_words(self):
        asm = Assembler()
        asm.label("main")
        asm.addi(1, 0, 1)
        asm.label("pad")
        asm.nop(5)
        asm.label("after")
        asm.halt()
        assert asm.module.instruction_count == 7
        program = link(asm.module)
        pad = program.labels["pad"]
        assert pad == TEXT_BASE + 4
        assert program.labels["after"] == pad + 4 * 5
        words = program.instructions[1:6]
        assert [w.op for w in words] == [Opcode.NOP] * 5
        assert {w.label for w in words} == {"pad"}
        assert program.instructions[6].op is Opcode.HALT

    def test_nop_zero_emits_nothing(self):
        asm = Assembler()
        asm.label("main")
        asm.nop(0)
        assert asm.module.text == ["main"]
        asm.nop()
        assert asm.module.instruction_count == 1

    def test_repeated_nop_rebinds_labels_between_repeats(self):
        """A label between two repeats of one NOP item still binds: the
        linker's repeat fast path covers only an unbroken run."""
        nop = SymInstr(Opcode.NOP, label="main")
        module = Module(text=["main", nop, nop, "mid", nop, "end",
                              SymInstr(Opcode.HALT, label="end")])
        program = link(module)
        assert program.labels["mid"] == TEXT_BASE + 8
        assert program.labels["end"] == TEXT_BASE + 12
        assert [w.op for w in program.instructions] \
            == [Opcode.NOP] * 3 + [Opcode.HALT]

    def test_sym_instr_has_no_dict(self):
        assert not hasattr(SymInstr(Opcode.NOP), "__dict__")

    @pytest.mark.parametrize("name", [
        name + suffix for name in BENCHMARK_NAMES
        for suffix in ("", AFFINITY_SUFFIX)])
    def test_stand_in_padding_is_one_object_per_run(self, name):
        """A stand-in holds one :class:`SymInstr` per non-NOP word and
        per run of NOP words, however long the run."""
        items = [item for item in resolve(name).module.text
                 if isinstance(item, SymInstr)]
        non_nop = sum(1 for item in items if item.op is not Opcode.NOP)
        runs = sum(1 for i, item in enumerate(items)
                   if item.op is Opcode.NOP
                   and (i == 0 or items[i - 1].op is not Opcode.NOP))
        assert len({id(item) for item in items}) <= non_nop + runs
        assert len(items) - non_nop > 10 * runs  # runs are long


class TestBoundaryInstrumentation:
    def _big_module(self, n=3000):
        asm = Assembler()
        asm.label("main")
        for i in range(n):
            asm.addi(1, 1, 1)
        asm.halt()
        return asm.module

    def test_boundary_branches_inserted(self):
        program = place_boundary_branches(link(self._big_module()),
                                          page_bytes=4096)
        assert program.instrumented
        assert program.boundary_branch_count >= 2

    def test_boundary_invariant_validated(self):
        program = place_boundary_branches(link(self._big_module()),
                                          page_bytes=4096)
        page = program.page_bytes
        for index, instr in enumerate(program.instructions):
            if instr.is_boundary_branch:
                address = program.text_base + 4 * index
                assert address % page == page - 4
                assert instr.target == address + 4

    def test_plain_binary_has_no_boundary_branches(self):
        program = link(self._big_module())
        assert program.boundary_branch_count == 0
        assert not program.instrumented

    def test_labels_bind_past_boundary_branch(self):
        # a label landing exactly on a page-end slot must bind to the real
        # instruction (pushed past the boundary branch), not the branch
        asm = Assembler()
        asm.label("main")
        for _ in range(1023):
            asm.nop()
        asm.label("landing")
        asm.addi(1, 0, 7)
        asm.j("landing")
        program = place_boundary_branches(link(asm.module), page_bytes=4096)
        landing = program.labels["landing"]
        instr = program.fetch(landing)
        assert instr.op is Opcode.ADDI

    def test_program_fetch_bounds(self):
        program = link(self._big_module())
        with pytest.raises(MemoryFault):
            program.fetch(program.text_base - 4)
        with pytest.raises(MemoryFault):
            program.fetch(program.text_end)

    def test_validate_rejects_targets_outside_text(self):
        program = place_boundary_branches(link(self._big_module()),
                                          page_bytes=4096)
        branch = program.instructions[program.page_bytes // 4 - 1]
        branch.target = program.text_end
        with pytest.raises(LayoutError, match="outside the text segment"):
            program.validate()
        branch.target = program.text_base + 2
        with pytest.raises(LayoutError, match="outside the text segment"):
            program.validate()

    @staticmethod
    def _reference_boundary_error(program):
        """The per-word walk the stride check replaced: the message of
        the lowest-address violation, or None."""
        page = program.page_bytes
        for index, instr in enumerate(program.instructions):
            address = program.text_base + 4 * index
            next_addr = address + 4
            if next_addr >= program.text_end:
                continue
            if address % page == page - 4:
                if not instr.is_boundary_branch:
                    return (f"instrumented binary: page-end slot "
                            f"{address:#x} is {instr.op.mnemonic}, "
                            "not a boundary branch")
                if instr.target != next_addr:
                    return (f"boundary branch at {address:#x} targets "
                            f"{instr.target:#x}, expected {next_addr:#x}")
            elif instr.is_boundary_branch:
                return (f"boundary branch at {address:#x} is not at "
                        "a page end")
        return None

    @given(st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans(),
                              st.sampled_from(["flip", "retarget"])),
                    max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_boundary_invariant_reports_the_first_violation(self,
                                                           corruptions):
        """Stray, missing and mistargeted boundary branches, alone or
        several at once: the error is the lowest-address one."""
        program = place_boundary_branches(
            link(self._big_module(290), page_bytes=256), page_bytes=256)
        page_ends = [index for index, instr in enumerate(program)
                     if instr.is_boundary_branch]
        for number, at_page_end, action in corruptions:
            index = (page_ends[number % len(page_ends)] if at_page_end
                     else number % len(program))
            instr = program.instructions[index]
            if action == "flip":
                instr.is_boundary_branch = not instr.is_boundary_branch
            else:
                instr.target = program.text_base + 4 * index + 8
        expected = self._reference_boundary_error(program)
        if expected is None:
            program._validate_boundary_invariant()
        else:
            with pytest.raises(LayoutError) as raised:
                program._validate_boundary_invariant()
            assert str(raised.value) == expected


class TestMicrobenchModules:
    @pytest.mark.parametrize("builder", [
        microbench.counted_loop,
        microbench.page_ping_pong,
        microbench.straight_line,
        microbench.call_return,
        microbench.memory_walker,
        microbench.taken_pattern,
    ])
    def test_links_both_ways(self, builder):
        module = builder()
        plain = link(module)
        instr = place_boundary_branches(plain, page_bytes=4096)
        assert len(instr) >= len(plain)
        plain.validate()
        instr.validate()
