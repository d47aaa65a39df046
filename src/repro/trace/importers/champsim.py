"""ChampSim binary instruction traces.

ChampSim's tracer emits one fixed 64-byte little-endian record per
retired instruction::

    u64 ip;                      // program counter
    u8  is_branch;               // any control transfer
    u8  branch_taken;            // outcome (conditional) / always 1
    u8  destination_registers[2];
    u8  source_registers[4];
    u64 destination_memory[2];   // store effective addresses (0 = unused)
    u64 source_memory[4];        // load effective addresses (0 = unused)

The record carries no opcode; ChampSim itself classifies control flow
from the architectural registers the instruction touches, and this
importer applies the same convention (register numbers follow the
tracer's x86 encoding):

==============================  =====================================
registers observed              classification
==============================  =====================================
reads FLAGS (25)                conditional branch
reads IP (26), writes SP (6)    direct call
reads IP (26)                   direct jump
reads SP (6) only               return (indirect jump)
writes SP (6)                   indirect call
anything else                   indirect jump
==============================  =====================================

Branch destinations are not recorded either; they are recovered by a
one-record lookahead — the *next* record's ip is where fetch actually
went.  A taken control transfer as the final record is therefore a
typed error (its destination is unrecoverable), as is a truncated
record.  Non-branches classify as store (any destination memory slot
set), load (any source memory slot set), or plain integer ALU.

Only fixed-length 4-byte-aligned streams are importable (the shared
:func:`~repro.trace.importers.base.scan_stream` guard); raw x86
captures generally are not, but RISC ports of the tracer and
synthesized streams are.  Files may be plain, gzip-, or xz-compressed
(sniffed by magic bytes, like every other reader here).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Tuple, Union

from repro.isa.instructions import InstrKind
from repro.trace.importers.base import ForeignStep, Importer

#: one trace record: ip, is_branch, branch_taken, 2 destination
#: registers, 4 source registers, 2 store addresses, 4 load addresses
RECORD = struct.Struct("<QBB2B4B2Q4Q")
RECORD_BYTES = RECORD.size  # 64

#: the tracer's special register numbers (x86 numbering)
REG_STACK_POINTER = 6
REG_FLAGS = 25
REG_INSTRUCTION_POINTER = 26

_Record = Tuple[int, bool, bool, Tuple[int, ...], Tuple[int, ...],
                Tuple[int, ...], Tuple[int, ...]]


class ChampSimImporter(Importer):
    """Parser for ChampSim's 64-byte binary record stream."""

    name = "champsim"
    description = ("ChampSim binary trace: 64-byte records classified "
                   "from register usage, branch targets recovered by "
                   "lookahead")

    def events(self, path: Union[str, Path]) -> Iterator[ForeignStep]:
        with self.open_binary(path) as stream:
            number = 1
            record = self._read_record(stream, path, number)
            while record is not None:
                nxt = self._read_record(stream, path, number + 1)
                yield self._classify(
                    path, number, record,
                    None if nxt is None else nxt[0])
                record = nxt
                number += 1

    # -- raw records ---------------------------------------------------

    def _read_record(self, stream: BinaryIO, path,
                     number: int) -> Optional[_Record]:
        chunk = stream.read(RECORD_BYTES)
        if not chunk:
            return None
        if len(chunk) < RECORD_BYTES:
            raise self.error(
                path, number,
                f"truncated record ({len(chunk)} of {RECORD_BYTES} "
                "bytes) — the capture was cut mid-instruction")
        fields = RECORD.unpack(chunk)
        return (fields[0], bool(fields[1]), bool(fields[2]),
                fields[3:5], fields[5:9], fields[9:11], fields[11:15])

    # -- one record -> one ForeignStep ---------------------------------

    def _classify(self, path, number: int, record: _Record,
                  next_ip: Optional[int]) -> ForeignStep:
        ip, is_branch, taken, dregs, sregs, dmem, smem = record
        rd = next((r for r in dregs if r), 0)
        rs = sregs[0] if sregs else 0
        rt = sregs[1] if len(sregs) > 1 else 0
        if not is_branch:
            store = next((a for a in dmem if a), None)
            load = next((a for a in smem if a), None)
            if store is not None:
                return ForeignStep(pc=ip, kind=InstrKind.STORE,
                                   mnemonic="store", mem_addr=store,
                                   rd=rd, rs=rs, rt=rt, line=number)
            if load is not None:
                return ForeignStep(pc=ip, kind=InstrKind.LOAD,
                                   mnemonic="load", mem_addr=load,
                                   rd=rd, rs=rs, rt=rt, line=number)
            return ForeignStep(pc=ip, kind=InstrKind.INT_ALU,
                               mnemonic="alu", rd=rd, rs=rs, rt=rt,
                               line=number)
        reads_sp = REG_STACK_POINTER in sregs
        reads_ip = REG_INSTRUCTION_POINTER in sregs
        reads_flags = REG_FLAGS in sregs
        writes_sp = REG_STACK_POINTER in dregs
        if reads_flags:
            kind, mnemonic = InstrKind.COND_BRANCH, "cond_branch"
        elif reads_ip and writes_sp:
            kind, mnemonic = InstrKind.CALL, "call"
        elif reads_ip:
            kind, mnemonic = InstrKind.JUMP, "jump"
        elif reads_sp and not writes_sp:
            kind, mnemonic = InstrKind.INDIRECT_JUMP, "return"
        elif writes_sp:
            kind, mnemonic = InstrKind.INDIRECT_CALL, "indirect_call"
        else:
            kind, mnemonic = InstrKind.INDIRECT_JUMP, "indirect_jump"
        step = ForeignStep(pc=ip, kind=kind, mnemonic=mnemonic,
                           rd=rd, rs=rs, rt=rt, line=number)
        if kind is InstrKind.COND_BRANCH:
            step.taken = taken
            if taken:
                step.target = self._destination(path, number, mnemonic,
                                                ip, next_ip)
        elif kind in (InstrKind.JUMP, InstrKind.CALL):
            step.taken = True
            step.target = self._destination(path, number, mnemonic, ip,
                                            next_ip)
        else:
            step.taken = True
            step.next_pc = self._destination(path, number, mnemonic, ip,
                                             next_ip)
        return step

    def _destination(self, path, number: int, mnemonic: str, ip: int,
                     next_ip: Optional[int]) -> int:
        if next_ip is None:
            raise self.error(
                path, number,
                f"taken {mnemonic} at pc {ip:#x} is the final record — "
                "its destination (the next record's ip) is "
                "unrecoverable; re-capture past the transfer or trim "
                "the window before it")
        return next_ip
