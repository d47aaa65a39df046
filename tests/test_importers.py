"""Foreign-trace importers: EIO/gem5 parsing, conversion, and replay.

The acceptance-critical properties:

* each checked-in foreign fixture converts (``repro trace import`` /
  ``import_trace``) into a byte-deterministic native trace that replays
  through ``run_all_schemes`` exactly like the on-demand
  ``import:<format>:<path>`` registry path — and exactly like the
  pinned golden metrics (``tests/golden/imported.json``);
* every malformed input — truncated records, unknown opcodes or op
  classes, out-of-range or misaligned addresses, internally conflicting
  streams — surfaces as a typed :class:`~repro.errors.TraceError`
  naming the file and line, never a bare ``ValueError``/``KeyError``.
"""

import gc
import gzip
import json
import warnings
from pathlib import Path

import pytest

from repro.config import CacheAddressing, SchemeName, TLBConfig, default_config
from repro.errors import RegistryError, TraceError
from repro.runner import JobSpec, ResultStore, SweepRunner
from repro.sim.multi import run_all_schemes
from repro.trace import (
    TraceReader,
    available_formats,
    file_digest,
    import_trace,
    load_imported_workload,
    load_trace_workload,
)
from repro.trace.importers import Importer, get_importer, register_format
from repro.workloads import registry

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_FILE = Path(__file__).parent / "golden" / "imported.json"

#: per-format checked-in fixture and its golden replay window
FIXTURE_FOR = {
    "champsim": FIXTURES / "branchy.champsim.bin.gz",
    "eio": FIXTURES / "twopage.eio.txt",
    "gem5": FIXTURES / "loopcall.gem5.txt.gz",
}
WINDOW_FOR = {"champsim": (900, 200), "eio": (900, 200),
              "gem5": (800, 150)}


def _canonical(run) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


def _convert(fmt: str, tmp_path, **options):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / f"{fmt}.trace.gz"
    info = import_trace(fmt, FIXTURE_FOR[fmt], out, **options)
    return out, info


def _eio_file(tmp_path, text: str) -> Path:
    path = tmp_path / "case.eio.txt"
    path.write_text(text, encoding="utf-8")
    return path


def _gem5_file(tmp_path, body: str) -> Path:
    path = tmp_path / "case.gem5.txt"
    path.write_text(body, encoding="utf-8")
    return path


def _gem5_line(tick, pc, disasm, opclass, extra=""):
    return f"{tick}: system.cpu: A0 T0 : {pc} : {disasm} : {opclass} :{extra}"


class TestFormatRegistry:
    def test_builtin_formats_present(self):
        assert {"champsim", "eio", "gem5"} <= set(available_formats())

    def test_unknown_format_lists_alternatives(self):
        with pytest.raises(TraceError, match="eio.*gem5|gem5.*eio"):
            get_importer("valgrind")

    def test_duplicate_registration_rejected(self):
        class Dummy(Importer):
            name = "eio"

            def events(self, path):  # pragma: no cover - never parsed
                return iter(())

        with pytest.raises(TraceError, match="already registered"):
            register_format(Dummy())
        # replace=True is the sanctioned override; restore the original
        original = get_importer("eio")
        register_format(Dummy(), replace=True)
        try:
            assert type(get_importer("eio")) is Dummy
        finally:
            register_format(original, replace=True)


@pytest.mark.parametrize("fmt", sorted(FIXTURE_FOR))
class TestFixtureConversion:
    def test_fixture_converts_and_describes(self, fmt, tmp_path):
        out, info = _convert(fmt, tmp_path)
        assert info["steps"] > 900
        assert info["format"] == fmt
        assert len(info["source_sha256"]) == 64
        decoded = TraceReader(out).info()
        assert decoded["header"]["imported"]["format"] == fmt
        assert [s["binary"] for s in decoded["segments"]] \
            == ["plain", "instrumented"]
        # both binaries carry the identical uninstrumented stream
        assert (decoded["segments"][0]["steps"]
                == decoded["segments"][1]["steps"] == info["steps"])

    def test_conversion_is_byte_deterministic(self, fmt, tmp_path):
        a, _ = _convert(fmt, tmp_path / "a")
        b, _ = _convert(fmt, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_replays_through_all_schemes(self, fmt, tmp_path):
        out, _ = _convert(fmt, tmp_path)
        instructions, warmup = WINDOW_FOR[fmt]
        run = run_all_schemes(load_trace_workload(out), default_config(),
                              instructions=instructions, warmup=warmup)
        assert set(run.schemes) == set(SchemeName)
        base = run.scheme(SchemeName.BASE)
        assert base.lookups == instructions
        assert run.scheme(SchemeName.OPT).lookups < base.lookups

    def test_converted_file_matches_on_demand_import(self, fmt, tmp_path):
        """The explicit convert step and the import:<format>:<path>
        registry path must produce bit-identical simulations."""
        out, _ = _convert(fmt, tmp_path)
        instructions, warmup = WINDOW_FOR[fmt]
        config = default_config().with_itlb(TLBConfig(entries=8))
        via_file = run_all_schemes(load_trace_workload(out), config,
                                   instructions=instructions,
                                   warmup=warmup)
        via_name = run_all_schemes(
            load_imported_workload(fmt, FIXTURE_FOR[fmt]), config,
            instructions=instructions, warmup=warmup)
        assert _canonical(via_file) == _canonical(via_name)

    def test_vivt_and_page_size_variants(self, fmt, tmp_path):
        out, _ = _convert(fmt, tmp_path, page_sizes=[8192])
        workload = load_trace_workload(out)
        run = run_all_schemes(workload,
                              default_config(CacheAddressing.VIVT),
                              instructions=400, warmup=50)
        assert run.shared.instructions == 400
        sized = default_config().with_page_bytes(8192)
        run8k = run_all_schemes(workload, sized, instructions=400,
                                warmup=50)
        assert run8k.shared.instructions == 400

    def test_windowing_and_skip(self, fmt, tmp_path):
        out, info = _convert(fmt, tmp_path, max_instructions=120)
        assert info["steps"] == 120
        skipped, skip_info = _convert(fmt, tmp_path / "skip", skip=60,
                                      max_instructions=60)
        assert skip_info["steps"] == 60
        # the skipped window is a different stream, hence different bytes
        assert skipped.read_bytes() != out.read_bytes()

    def test_window_longer_than_import_raises_on_replay(self, fmt,
                                                        tmp_path):
        out, info = _convert(fmt, tmp_path, max_instructions=200)
        with pytest.raises(TraceError, match="exhausted"):
            run_all_schemes(load_trace_workload(out), default_config(),
                            instructions=10_000, warmup=0)

    def test_bad_page_sizes_are_typed_errors(self, fmt, tmp_path):
        for bad in (0, 6000, -4096, 32):
            with pytest.raises(TraceError, match="power of two"):
                _convert(fmt, tmp_path, page_bytes=bad)
        with pytest.raises(TraceError, match="power of two"):
            _convert(fmt, tmp_path, page_sizes=[12345])


class TestCompressedSources:
    def test_compressed_sources_close_their_files(self, tmp_path):
        """Converting a gzip'd foreign trace releases the underlying
        file, not only the decompressing wrapper around it."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for fmt in ("gem5", "champsim"):
                _convert(fmt, tmp_path / fmt)
            gc.collect()
        leaks = [w for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []


class TestEIOMalformed:
    CASES = [
        ("", "no instructions"),
        ("# only comments\n; and more\n", "no instructions"),
        ("400000\n", "expected '<pc> <mnemonic>"),
        ("zzz addiu\n", "bad pc"),
        ("400000 frobnicate\n", "unknown opcode 'frobnicate'"),
        ("400000 lw rd=9\n", "'lw' requires the ea= annotation"),
        ("400000 sw\n", "'sw' requires the ea= annotation"),
        ("400000 bne tk=1\n", "'bne' requires the tgt= annotation"),
        ("400000 bne tgt=400010\n", "'bne' requires the tk= annotation"),
        ("400000 bne tgt=400010 tk=7\n", "not a branch outcome"),
        ("400000 jal\n", "'jal' requires the tgt= annotation"),
        ("400000 jr\n", "'jr' requires the nx= annotation"),
        ("400000 addiu rd=99\n", "register rd=99 out of range"),
        ("400000 addiu bogus=1\n", "unrecognized annotation"),
        ("400000 addiu rd\n", "unrecognized annotation"),
        ("400000 lw ea=nothex\n", "bad ea"),
        ("400000 addiu rd=x\n", "bad rd"),
        ("400002 addiu\n", "misaligned pc"),
        ("400000 bne tgt=400011 tk=1\n", "misaligned branch target"),
        # same pc observed both taken-to-X and taken-to-Y
        ("400000 bne tgt=400010 tk=1\n400010 nop\n"
         "400000 bne tgt=400020 tk=1\n400020 nop\n",
         "conflicting taken targets"),
        # same pc classified two different ways
        ("400000 addiu\n400000 lw ea=10000000\n",
         "conflicting classifications"),
        # indirect destination absurdly far from every observed pc
        ("400000 jr nx=90000000\n400004 nop\n",
         "import limit"),
    ]

    @pytest.mark.parametrize("text,match", CASES,
                             ids=[m[:30] for _, m in CASES])
    def test_typed_error(self, tmp_path, text, match):
        path = _eio_file(tmp_path, text)
        with pytest.raises(TraceError, match=match):
            import_trace("eio", path, tmp_path / "out.trace")
        assert not (tmp_path / "out.trace").exists()  # aborted, no file

    def test_error_names_file_and_line(self, tmp_path):
        path = _eio_file(tmp_path, "400000 nop\n400004 frobnicate\n")
        with pytest.raises(TraceError, match=r"line 2"):
            import_trace("eio", path, tmp_path / "out.trace")

    def test_missing_source_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot open"):
            import_trace("eio", tmp_path / "absent.txt",
                         tmp_path / "out.trace")

    def test_gzip_source_is_sniffed(self, tmp_path):
        path = tmp_path / "zipped.eio"  # no .gz suffix on purpose
        path.write_bytes(gzip.compress(b"400000 nop\n400004 halt\n"))
        info = import_trace("eio", path, tmp_path / "out.trace")
        assert info["steps"] == 2

    def test_window_ending_on_taken_forward_jump_imports(self, tmp_path):
        """A --max-instructions window whose last instruction is a taken
        transfer to code beyond the window must import (the geometry
        grows to cover the claimed destination) and replay cleanly."""
        text = ("400000 addiu rd=1 rs=1\n"
                "400004 j tgt=401100\n"
                "401100 addiu rd=2 rs=2\n"
                "401104 halt\n")
        path = _eio_file(tmp_path, text)
        out = tmp_path / "win.trace"
        info = import_trace("eio", path, out, max_instructions=2)
        assert info["steps"] == 2
        run = run_all_schemes(load_trace_workload(out), default_config(),
                              instructions=2, warmup=0)
        assert run.shared.instructions == 2

    def test_window_ending_on_indirect_jump_imports(self, tmp_path):
        text = ("400000 addiu rd=1 rs=1\n"
                "400004 jr nx=401100 rs=31\n"
                "401100 halt\n")
        path = _eio_file(tmp_path, text)
        out = tmp_path / "win.trace"
        info = import_trace("eio", path, out, max_instructions=2)
        assert info["steps"] == 2
        run = run_all_schemes(load_trace_workload(out), default_config(),
                              instructions=2, warmup=0)
        assert run.shared.instructions == 2


class TestGem5Malformed:
    def test_unknown_opclass(self, tmp_path):
        body = _gem5_line(100, "0x1000", "addiu r1, r1, 1",
                          "WarpSpeed") + "\n"
        with pytest.raises(TraceError, match="unknown op class "
                                             "'WarpSpeed'"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")

    def test_mem_instruction_without_address(self, tmp_path):
        body = "\n".join([
            _gem5_line(100, "0x1000", "lw r4, 0(r29)", "MemRead",
                       " D=0x1"),
            _gem5_line(200, "0x1004", "nop", "No_OpClass"),
        ]) + "\n"
        with pytest.raises(TraceError, match="no A= effective address"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")

    def test_tick_line_that_cannot_parse(self, tmp_path):
        with pytest.raises(TraceError, match="expected 'tick"):
            import_trace("gem5",
                         _gem5_file(tmp_path, "500: system.cpu bogus\n"),
                         tmp_path / "out.trace")

    def test_bad_pc_field(self, tmp_path):
        body = "500: cpu : not-a-pc : nop : No_OpClass :\n"
        with pytest.raises(TraceError, match="bad pc field"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")

    def test_interleaved_cpus_rejected(self, tmp_path):
        """A multi-core Exec log merged into one stream would fabricate
        control flow (every core switch looks like a jump); it must be
        a typed error, not silently meaningless numbers."""
        body = "\n".join([
            "100: system.cpu0: A0 T0 : 0x1000 : nop : No_OpClass :",
            "200: system.cpu1: A0 T0 : 0x8000 : nop : No_OpClass :",
        ]) + "\n"
        with pytest.raises(TraceError, match="interleaves two cpus"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")

    def test_tick_line_missing_opclass_field(self, tmp_path):
        """A truncated tick line (no OpClass field) must not silently
        import as a NOP."""
        body = "51000: system.cpu: A0 T0 : 0x400144 : sw r4, 0(r\n"
        with pytest.raises(TraceError, match="expected 'tick"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")

    def test_micro_continuation_at_wrong_pc_rejected(self, tmp_path):
        body = "\n".join([
            _gem5_line(100, "0x1000.0", "mult r4, r4", "IntMult"),
            _gem5_line(150, "0x2000.1", "mflo r5", "IntAlu"),
        ]) + "\n"
        with pytest.raises(TraceError, match="does not match its "
                                             "macro-op"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")

    def test_noise_only_file_has_no_instructions(self, tmp_path):
        body = "gem5 Simulator System\nwarn: nothing here\n"
        with pytest.raises(TraceError, match="no instructions"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")

    def test_memory_instruction_redirecting_fetch(self, tmp_path):
        body = "\n".join([
            _gem5_line(100, "0x1000", "lw r4, 0(r29)", "MemRead",
                       " A=0x5000"),
            _gem5_line(200, "0x2000", "nop", "No_OpClass"),
        ]) + "\n"
        with pytest.raises(TraceError, match="both memory and control"):
            import_trace("gem5", _gem5_file(tmp_path, body),
                         tmp_path / "out.trace")


class TestGem5Semantics:
    def test_micro_ops_fold_into_their_macro(self, tmp_path):
        body = "\n".join([
            _gem5_line(100, "0x1000.0", "mult r4, r4", "IntMult"),
            _gem5_line(150, "0x1000.1", "mflo r5", "IntAlu"),
            _gem5_line(200, "0x1004", "nop", "No_OpClass"),
        ]) + "\n"
        info = import_trace("gem5", _gem5_file(tmp_path, body),
                            tmp_path / "out.trace")
        assert info["steps"] == 2  # the two micros are one instruction

    def test_memory_micro_after_compute_micro_keeps_the_access(
            self, tmp_path):
        """x86/Arm-style micro-coding puts the MemWrite on a later
        micro: the macro must still import as a store (with its A=
        address), not silently degrade to an ALU op."""
        body = "\n".join([
            _gem5_line(100, "0x1000.0", "limm t1, 0x2a", "IntAlu"),
            _gem5_line(150, "0x1000.1", "st t1, [r2]", "MemWrite",
                       " A=0x9000"),
            _gem5_line(200, "0x1004", "nop", "No_OpClass"),
        ]) + "\n"
        out = tmp_path / "out.trace"
        import_trace("gem5", _gem5_file(tmp_path, body), out)
        from repro.isa.instructions import InstrKind
        from repro.isa.program import TEXT_BASE
        segment = TraceReader(out).read().segments[0]
        by_addr = dict(zip(segment.pcs, segment.instructions))
        assert by_addr[TEXT_BASE].kind is InstrKind.STORE
        cols = segment.columns()
        index, aux = cols.index[0], cols.aux[0]
        assert segment.pcs[index] == TEXT_BASE
        assert aux != -1  # the remapped store address rode along

    def test_final_direct_transfer_is_dropped(self, tmp_path):
        body = "\n".join([
            _gem5_line(100, "0x1000", "nop", "No_OpClass"),
            _gem5_line(200, "0x1004", "jal 0x2000", "IntAlu",
                       " flags=(IsControl|IsDirectControl|IsCall)"),
        ]) + "\n"
        info = import_trace("gem5", _gem5_file(tmp_path, body),
                            tmp_path / "out.trace")
        assert info["steps"] == 1  # EOF jal has no resolvable target

    def test_final_conditional_branch_is_dropped_not_guessed(self,
                                                             tmp_path):
        """A conditional branch on the last line has an unknowable
        outcome; importing it as not-taken would bake a guess into the
        converted stream, so it is dropped like every other
        unresolvable EOF transfer."""
        body = "\n".join([
            _gem5_line(100, "0x1000", "nop", "No_OpClass"),
            _gem5_line(200, "0x1004", "beq r1, r0, 0x2000", "IntAlu",
                       " flags=(IsControl|IsDirectControl"
                       "|IsCondControl)"),
        ]) + "\n"
        info = import_trace("gem5", _gem5_file(tmp_path, body),
                            tmp_path / "out.trace")
        assert info["steps"] == 1

    def test_unrecognized_redirector_becomes_indirect_jump(self,
                                                           tmp_path):
        """An unflagged, unknown mnemonic that redirects fetch — and
        also falls through elsewhere — is promoted to an indirect jump
        so replay follows the observed flow exactly."""
        body = "\n".join([
            _gem5_line(100, "0x1000", "eret", "IntAlu"),
            _gem5_line(200, "0x2000", "nop", "No_OpClass"),
            _gem5_line(300, "0x1000", "eret", "IntAlu"),
            _gem5_line(400, "0x1004", "nop", "No_OpClass"),
        ]) + "\n"
        out = tmp_path / "out.trace"
        import_trace("gem5", _gem5_file(tmp_path, body), out)
        segment = TraceReader(out).read().segments[0]
        by_addr = dict(zip(segment.pcs, segment.instructions))
        from repro.isa.instructions import Opcode
        from repro.isa.program import TEXT_BASE
        assert by_addr[TEXT_BASE].op is Opcode.JR
        # both dynamic instances carry their own observed destination
        cols = segment.columns()
        dests = [aux for idx, aux in zip(cols.index, cols.aux)
                 if segment.pcs[idx] == TEXT_BASE]
        assert len(dests) == 2 and dests[0] != dests[1]


class TestChampSimBinary:
    """The ChampSim importer: 64-byte record parsing, register-derived
    classification, lookahead targets, and the malformed-input space
    unique to a binary format (truncation, misalignment, EOF
    transfers)."""

    @staticmethod
    def _rec(ip, is_branch=0, taken=0, dregs=(0, 0),
             sregs=(0, 0, 0, 0), dmem=(0, 0), smem=(0, 0, 0, 0)):
        import struct
        return struct.pack("<QBB2B4B2Q4Q", ip, is_branch, taken,
                           *dregs, *sregs, *dmem, *smem)

    def _file(self, tmp_path, payload: bytes) -> Path:
        path = tmp_path / "case.champsim.bin"
        path.write_bytes(payload)
        return path

    def _alu(self, ip):
        return self._rec(ip, dregs=(3, 0), sregs=(1, 2, 0, 0))

    def test_classification_per_register_convention(self, tmp_path):
        """Each register pattern lands on the documented kind."""
        from repro.isa.instructions import InstrKind
        from repro.trace.importers.champsim import (
            REG_FLAGS, REG_INSTRUCTION_POINTER, REG_STACK_POINTER)
        importer = get_importer("champsim")
        IP, SP, FL = (REG_INSTRUCTION_POINTER, REG_STACK_POINTER,
                      REG_FLAGS)
        payload = b"".join([
            self._rec(0x1000, is_branch=1, taken=1, dregs=(IP, 0),
                      sregs=(FL, 0, 0, 0)),              # cond, taken
            self._rec(0x2000, is_branch=1, taken=1, dregs=(IP, SP),
                      sregs=(IP, SP, 0, 0)),             # direct call
            self._rec(0x3000, is_branch=1, taken=1, dregs=(IP, 0),
                      sregs=(IP, 0, 0, 0)),              # direct jump
            self._rec(0x4000, is_branch=1, taken=1, dregs=(IP, 0),
                      sregs=(SP, 0, 0, 0)),              # return
            self._rec(0x5000, is_branch=1, taken=1, dregs=(IP, SP),
                      sregs=(1, 0, 0, 0)),               # indirect call
            self._rec(0x6000, is_branch=1, taken=1, dregs=(IP, 0),
                      sregs=(1, 0, 0, 0)),               # indirect jump
            self._rec(0x7000, smem=(0x9000, 0, 0, 0)),   # load
            self._rec(0x8000, dmem=(0x9100, 0)),         # store
            self._alu(0x9000),                           # plain alu
        ])
        events = list(importer.events(self._file(tmp_path, payload)))
        kinds = [e.kind for e in events]
        assert kinds == [
            InstrKind.COND_BRANCH, InstrKind.CALL, InstrKind.JUMP,
            InstrKind.INDIRECT_JUMP, InstrKind.INDIRECT_CALL,
            InstrKind.INDIRECT_JUMP, InstrKind.LOAD, InstrKind.STORE,
            InstrKind.INT_ALU,
        ]
        # lookahead: every transfer's destination is the next record's ip
        assert events[0].target == 0x2000
        assert events[1].target == 0x3000
        assert events[2].target == 0x4000
        assert events[3].next_pc == 0x5000
        assert events[6].mem_addr == 0x9000
        assert events[7].mem_addr == 0x9100

    def test_not_taken_conditional_needs_no_lookahead_target(
            self, tmp_path):
        from repro.trace.importers.champsim import (
            REG_FLAGS, REG_INSTRUCTION_POINTER)
        importer = get_importer("champsim")
        payload = b"".join([
            self._rec(0x1000, is_branch=1, taken=0,
                      dregs=(REG_INSTRUCTION_POINTER, 0),
                      sregs=(REG_FLAGS, 0, 0, 0)),
            self._alu(0x1004),
        ])
        events = list(importer.events(self._file(tmp_path, payload)))
        assert events[0].taken is False and events[0].target is None

    def test_empty_file_is_typed_error(self, tmp_path):
        with pytest.raises(TraceError, match="no instructions"):
            import_trace("champsim", self._file(tmp_path, b""),
                         tmp_path / "out.trace")

    def test_truncated_record_is_typed_error(self, tmp_path):
        payload = self._alu(0x1000) + self._alu(0x1004)[:40]
        with pytest.raises(TraceError, match="truncated record"):
            import_trace("champsim", self._file(tmp_path, payload),
                         tmp_path / "out.trace")
        assert not (tmp_path / "out.trace").exists()

    def test_misaligned_ip_is_typed_error(self, tmp_path):
        payload = self._alu(0x1000) + self._alu(0x1002)
        with pytest.raises(TraceError, match="misaligned pc"):
            import_trace("champsim", self._file(tmp_path, payload),
                         tmp_path / "out.trace")

    def test_taken_transfer_as_final_record_is_typed_error(
            self, tmp_path):
        from repro.trace.importers.champsim import (
            REG_FLAGS, REG_INSTRUCTION_POINTER)
        payload = self._alu(0x1000) + self._rec(
            0x1004, is_branch=1, taken=1,
            dregs=(REG_INSTRUCTION_POINTER, 0),
            sregs=(REG_FLAGS, 0, 0, 0))
        with pytest.raises(TraceError, match="final record"):
            import_trace("champsim", self._file(tmp_path, payload),
                         tmp_path / "out.trace")

    def test_missing_source_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot open"):
            import_trace("champsim", tmp_path / "absent.bin",
                         tmp_path / "out.trace")

    def test_gzip_and_xz_sources_are_sniffed(self, tmp_path):
        import lzma
        payload = self._alu(0x1000) + self._alu(0x1004)
        for suffixless, data in (("zipped", gzip.compress(payload)),
                                 ("xzed", lzma.compress(payload))):
            path = tmp_path / suffixless  # no telltale suffix on purpose
            path.write_bytes(data)
            info = import_trace("champsim", path,
                                tmp_path / f"{suffixless}.trace")
            assert info["steps"] == 2

    def test_fixture_generator_reproduces_committed_bytes(self):
        """The checked-in binary fixture must match its generator
        script exactly — anyone can regenerate and diff."""
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "make_champsim_fixture",
            FIXTURES / "make_champsim_fixture.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        regenerated = gzip.compress(b"".join(module.stream()), mtime=0)
        assert regenerated == FIXTURE_FOR["champsim"].read_bytes()


class TestImportRegistryIntegration:
    def _name(self, fmt="eio"):
        return f"import:{fmt}:{FIXTURE_FOR[fmt]}"

    def test_resolve_and_flags(self):
        workload = registry.resolve(self._name())
        assert workload.profile.name == f"eio:{FIXTURE_FOR['eio'].name}"
        assert registry.is_registered(self._name())
        assert registry.is_builtin(self._name())  # workers may run it

    def test_malformed_and_missing_names(self, tmp_path):
        assert not registry.is_registered("import:eio")
        assert not registry.is_registered("import:valgrind:/tmp/x")
        assert not registry.is_registered(
            f"import:eio:{tmp_path}/absent.txt")
        with pytest.raises(RegistryError, match="malformed import"):
            registry.resolve("import:eiomissingpath")

    def test_import_prefix_reserved(self):
        with pytest.raises(RegistryError, match="reserved"):
            registry.register("import:x:y", lambda: None)

    def test_jobspec_digests_source_file_and_importer_version(
            self, tmp_path):
        """import: identity is (file bytes x conversion rules): the
        digest carries the importer version, so a future version bump
        invalidates cached results exactly like an edited file."""
        from repro.trace.importers.base import IMPORTER_VERSION
        spec = JobSpec(workload=self._name(), config=default_config(),
                       instructions=300, warmup=50)
        assert spec.workload_digest \
            == f"{file_digest(FIXTURE_FOR['eio'])}.i{IMPORTER_VERSION}"
        # editing the foreign source must change the key
        copy = tmp_path / "edited.eio.txt"
        copy.write_text(FIXTURE_FOR["eio"].read_text() + "# extra\n")
        edited = JobSpec(workload=f"import:eio:{copy}",
                         config=default_config(), instructions=300,
                         warmup=50)
        assert edited.workload_digest != spec.workload_digest

    def test_sweep_over_import_name_parallel(self, tmp_path):
        """import: jobs cross the worker boundary and match the
        converted-file replay byte for byte."""
        out, _ = _convert("eio", tmp_path)
        configs = [default_config().with_itlb(TLBConfig(entries=n))
                   for n in (8, 32)]
        via_name = SweepRunner(workers=2).run(
            [JobSpec(workload=self._name(), config=config,
                     instructions=600, warmup=100)
             for config in configs])
        via_file = SweepRunner().run(
            [JobSpec(workload=f"trace:{out}", config=config,
                     instructions=600, warmup=100)
             for config in configs])
        for named, filed in zip(via_name, via_file):
            assert named.ok, named.error
            assert filed.ok, filed.error
            assert _canonical(named.run) == _canonical(filed.run)

    def test_short_name_display(self):
        from repro.experiments.common import short_name
        assert short_name(self._name()) \
            == f"{FIXTURE_FOR['eio'].name}.eio"

    def test_validation_prefilter_survives_malformed_import_name(self):
        """validation.run's file-backed pre-filter must skip a
        malformed import: name with a note (it cannot run on the
        detailed engine either), not crash the whole table while
        filtering."""
        from repro.experiments import validation
        from repro.experiments.common import ExperimentSettings
        settings = ExperimentSettings(
            instructions=4000, warmup=1000,
            benchmarks=("import:eio", f"trace:{FIXTURE_FOR['eio']}"),
            workers=1)
        result = validation.run(settings)
        assert sum("skipped" in note for note in result.notes) == 2


class TestImportedGolden:
    """Pins the imported fixtures end to end: the converted file's
    bytes and its replay metrics must never move silently.  Regenerate
    with ``--update-golden`` (and commit) when a change is intentional.
    """

    @pytest.fixture()
    def update_golden(self, request):
        return request.config.getoption("--update-golden")

    def _metrics(self, fmt, tmp_path) -> dict:
        out, info = _convert(fmt, tmp_path)
        instructions, warmup = WINDOW_FOR[fmt]
        run = run_all_schemes(load_trace_workload(out), default_config(),
                              instructions=instructions, warmup=warmup)
        return {
            "source_sha256": info["source_sha256"],
            "converted_sha256": file_digest(out),
            "steps": info["steps"],
            "distinct_instructions": info["distinct_instructions"],
            "window": {"instructions": instructions, "warmup": warmup},
            "workload": run.workload_name,
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
        }

    def test_imported_fixture_metrics_exact(self, tmp_path,
                                            update_golden):
        computed = {fmt: self._metrics(fmt, tmp_path / fmt)
                    for fmt in sorted(FIXTURE_FOR)}
        if update_golden:
            GOLDEN_FILE.write_text(
                json.dumps(computed, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
        assert computed == golden, (
            "imported-fixture conversion or replay metrics moved; if "
            "intentional, regenerate with --update-golden and commit "
            "tests/golden/imported.json")


class TestImporterCLI:
    def test_formats_listing(self, capsys):
        from repro.cli import main
        assert main(["trace", "formats"]) == 0
        out = capsys.readouterr().out
        assert "eio" in out and "gem5" in out and "champsim" in out

    def test_import_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "cli.trace.gz"
        assert main(["trace", "import", str(FIXTURE_FOR["eio"]),
                     "-o", str(out), "--format", "eio",
                     "--max-instructions", "300"]) == 0
        text = capsys.readouterr().out
        assert "300 steps" in text and "sha256" in text
        assert main(["trace", "info", str(out)]) == 0
        assert "eio:" in capsys.readouterr().out
        # and the converted file sweeps like any native trace
        assert main(["sweep", "--benchmarks", f"trace:{out}",
                     "--instructions", "200", "--warmup", "50"]) == 0

    def test_import_command_reports_malformed_input(self, tmp_path,
                                                    capsys):
        from repro.cli import main
        bad = tmp_path / "bad.eio.txt"
        bad.write_text("400000 frobnicate\n")
        assert main(["trace", "import", str(bad), "-o",
                     str(tmp_path / "x.trace"), "--format", "eio"]) == 1
        assert "unknown opcode" in capsys.readouterr().err

    def test_import_command_unknown_format(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["trace", "import", str(FIXTURE_FOR["eio"]),
                     "-o", str(tmp_path / "x.trace"),
                     "--format", "valgrind"]) == 1
        assert "unknown trace format" in capsys.readouterr().err

    def test_sweep_rejects_missing_import_file(self, tmp_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks",
                  f"import:eio:{tmp_path}/absent.txt"])
        assert "not found" in capsys.readouterr().err

    def test_sweep_rejects_unknown_import_format(self, tmp_path,
                                                 capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks",
                  f"import:valgrind:{FIXTURE_FOR['eio']}"])
        assert "unknown trace format" in capsys.readouterr().err
