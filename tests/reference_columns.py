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
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.isa.instructions import Instruction, Opcode
from repro.trace.format import (
    COL_FLAG_BOUNDARY,
    COL_FLAG_CVTFI,
    COL_FLAG_CVTIF,
    COL_FLAG_FLW,
    COL_FLAG_FSW,
    COL_FLAG_INPAGE,
    PLAIN_KINDS,
)

#: every per-step fact the engine reads, by name.  ``next_pc`` is the
#: resolved successor at control steps and ``None`` elsewhere (the
#: engine resolves it nowhere else); ``run`` is the length of the run
#: of plain steps starting at the step, truncated at the window's end.
FACTS = ("pc", "next_pc", "kind", "aux", "rs", "rt", "rd", "latency",
         "flags", "index", "run")


def _is_control(kind: int) -> bool:
    return 8 <= kind <= 12


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
                ("aux", aux), ("rs", tables.rs[idx]),
                ("rt", tables.rt[idx]), ("rd", tables.rd[idx]),
                ("latency", tables.lat[idx]),
                ("flags", tables.flags[idx]), ("index", idx),
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
