"""The decoded stream's eleven-column layout, kept as a test-only
reference.

A decoded window (:class:`repro.trace.format.SegmentColumns`) holds per
step only its static index, its aux payload and one byte of a
plain/event map; the fast engine reads every other fact of a step
through its index from the stream's static tables.  Before it did, the
build copied those facts into eleven parallel per-step ``array('q')``
columns.  :class:`ReferenceColumns` is that build, so tests can compare
what the engine sees under both layouts, step for step:
:func:`reference_view` reads the old columns, :func:`engine_view` reads
a window the way the engine's loop does.

The old columns carried each step's register operands and a byte of
flag bits, and the engine's loop picked a register file by branching
on kind and on those bits.  The engine now reads register slots
(:func:`repro.isa.instructions.register_slots`) instead;
:func:`reference_slots` restates the old branches over the old
columns, so the slots are checked against them.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.trace.format import PLAIN_KINDS

#: the old columns' per-step flag bits
COL_FLAG_BOUNDARY = 0x01  #: compiler-inserted page-boundary branch
COL_FLAG_INPAGE = 0x02    #: SoLA in-page hint
COL_FLAG_CVTIF = 0x04     #: Opcode.CVTIF (FP op reading the int file)
COL_FLAG_CVTFI = 0x08     #: Opcode.CVTFI (FP op writing the int file)
COL_FLAG_FLW = 0x10       #: Opcode.FLW (load filling the FP file)
COL_FLAG_FSW = 0x20       #: Opcode.FSW (store reading the FP file)

#: every per-step fact the engine reads, by name.  ``next_pc`` is the
#: resolved successor at control steps and ``None`` elsewhere (the
#: engine resolves it nowhere else); ``run`` is the length of the run
#: of plain steps starting at the step, truncated at the window's end.
FACTS = ("pc", "next_pc", "kind", "aux", "src1", "src2", "src3", "dst",
         "latency", "boundary", "index", "run")

_FP, _SINK = 32, 64  #: slot of f0, and the write sink


def _is_control(kind: int) -> bool:
    return 8 <= kind <= 12


def reference_slots(kind: int, flags: int, rs: int, rt: int,
                    rd: int) -> Tuple[int, int, int, int]:
    """``(src1, src2, src3, dst)`` as the engine's loop chose them from
    a step's kind, flag bits and operands before it read slot tables:
    integer register ``r`` is slot ``r``, FP register ``f`` is slot
    ``32 + f``, slot 0 reads as ready at cycle 0 and slot 64 is never
    read."""
    src3, dst = 0, _SINK
    if 3 <= kind <= 5:  # FP ops read the FP file
        src1 = rs if flags & COL_FLAG_CVTIF else _FP + rs
        src2 = _FP + rt
        if flags & COL_FLAG_CVTFI:
            if rd:
                dst = rd
        else:
            dst = _FP + rd
        return src1, src2, src3, dst
    if kind == 7 and rd:  # stores also read the value
        src3 = _FP + rd if flags & COL_FLAG_FSW else rd
    if kind == 6:  # loads (FLW fills the FP file)
        if flags & COL_FLAG_FLW:
            dst = _FP + rd
        elif rd:
            dst = rd
    elif kind <= 2:
        if rd:
            dst = rd
    elif kind == 10 or kind == 12:  # calls write ra
        dst = 31
    return rs, rt, src3, dst


class ReferenceColumns:
    """The eleven-column build: one ``array('q')`` slot per step for
    each of pc, next_pc, kind, aux, rs, rt, rd, latency, flags, index
    and run, from ``instructions[i]`` executed at ``pcs[i]``."""

    def __init__(self, instructions: List[Instruction], pcs: List[int],
                 index: array, aux: array) -> None:
        s_kind, s_rs, s_rt, s_rd, s_lat, s_flags, s_target = (
            [], [], [], [], [], [], [])
        for instr in instructions:
            s_kind.append(instr.kind_code)
            s_rs.append(instr.rs)
            s_rt.append(instr.rt)
            s_rd.append(instr.rd)
            s_lat.append(instr.latency)
            flag = 0
            if instr.is_boundary_branch:
                flag |= COL_FLAG_BOUNDARY
            if instr.inpage_hint:
                flag |= COL_FLAG_INPAGE
            op = instr.op
            if op is Opcode.CVTIF:
                flag |= COL_FLAG_CVTIF
            elif op is Opcode.CVTFI:
                flag |= COL_FLAG_CVTFI
            elif op is Opcode.FLW:
                flag |= COL_FLAG_FLW
            elif op is Opcode.FSW:
                flag |= COL_FLAG_FSW
            s_flags.append(flag)
            s_target.append(-1 if instr.target is None else instr.target)

        n = len(index)
        self.steps = n
        pc = array("q", bytes(8 * n))
        next_pc = array("q", bytes(8 * n))
        kind = array("q", bytes(8 * n))
        rs = array("q", bytes(8 * n))
        rt = array("q", bytes(8 * n))
        rd = array("q", bytes(8 * n))
        latency = array("q", bytes(8 * n))
        flags = array("q", bytes(8 * n))
        run = array("q", bytes(8 * n))
        for i, idx in enumerate(index):
            a = pcs[idx]
            k = s_kind[idx]
            pc[i] = a
            kind[i] = k
            rs[i] = s_rs[idx]
            rt[i] = s_rt[idx]
            rd[i] = s_rd[idx]
            latency[i] = s_lat[idx]
            flags[i] = s_flags[idx]
            if k == 8:  # COND_BRANCH: recorded direction picks the successor
                next_pc[i] = s_target[idx] if aux[i] else a + 4
            elif k in (9, 10):  # JUMP / CALL: static target
                next_pc[i] = s_target[idx]
            elif k in (11, 12):  # indirect: recorded target
                next_pc[i] = aux[i]
            elif k == 14:  # HALT
                next_pc[i] = a
            else:
                next_pc[i] = a + 4
        # run lengths, computed backward: run[i] counts the consecutive
        # plain steps starting at i (0 when step i itself is an event)
        streak = 0
        for i in range(n - 1, -1, -1):
            streak = streak + 1 if kind[i] in PLAIN_KINDS else 0
            run[i] = streak
        self.pc = pc
        self.next_pc = next_pc
        self.kind = kind
        self.aux = aux
        self.rs = rs
        self.rt = rt
        self.rd = rd
        self.latency = latency
        self.flags = flags
        self.index = index
        self.run = run
        slots = [reference_slots(*facts)
                 for facts in zip(kind, flags, rs, rt, rd)]
        self.src1, self.src2, self.src3, self.dst = (
            [step[i] for step in slots] for i in range(4))
        self.boundary = [flag & COL_FLAG_BOUNDARY for flag in flags]


def reference_view(cols: ReferenceColumns) -> Dict[str, list]:
    """:data:`FACTS` of every step, from the eleven columns."""
    view = {name: list(getattr(cols, name)) for name in FACTS}
    view["next_pc"] = [nxt if _is_control(kind) else None
                       for kind, nxt in zip(cols.kind, cols.next_pc)]
    return view


def engine_view(cols) -> Dict[str, list]:
    """:data:`FACTS` of every step of a
    :class:`~repro.trace.format.SegmentColumns` view, read as the fast
    engine reads them: each through the step's static index, the
    successor only at control steps, and the run from the event map."""
    tables = cols.tables
    view: Dict[str, list] = {name: [] for name in FACTS}
    n = cols.steps
    for i, (idx, aux) in enumerate(zip(cols.index, cols.aux)):
        pc = tables.pc[idx]
        kind = tables.kind[idx]
        next_pc = None
        if _is_control(kind):
            if kind >= 11:  # indirect: the recorded target
                next_pc = aux
            else:
                taken = kind != 8 or aux != 0
                next_pc = tables.target[idx] if taken else pc + 4
        end = cols.events.find(1, i)
        for name, value in (
                ("pc", pc), ("next_pc", next_pc), ("kind", kind),
                ("aux", aux), ("src1", tables.src1[idx]),
                ("src2", tables.src2[idx]), ("src3", tables.src3[idx]),
                ("dst", tables.dst[idx]), ("latency", tables.lat[idx]),
                ("boundary", tables.boundary[idx]), ("index", idx),
                ("run", (n if end < 0 else end) - i)):
            view[name].append(value)
    return view


def view_mismatches(cols, instructions: List[Instruction],
                    pcs: List[int]) -> List[str]:
    """The :data:`FACTS` on which ``cols`` and the eleven-column build
    of the same steps disagree (empty when every step agrees)."""
    ours = engine_view(cols)
    theirs = reference_view(
        ReferenceColumns(instructions, pcs, cols.index, cols.aux))
    return [name for name in FACTS if ours[name] != theirs[name]]
