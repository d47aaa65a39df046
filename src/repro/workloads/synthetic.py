"""Synthetic benchmark generator.

Programs are generated from a :class:`WorkloadProfile` with a seeded RNG,
so every build of a benchmark is identical.  The generated shape:

* ``main`` runs an endless outer loop over a static *call schedule* of hot
  functions (direct ``jal`` and indirect ``jalr`` through a function-pointer
  table), with rare guarded calls to *cold* functions (instruction-cache
  sweeps — the iL1 miss-rate knob);
* each function is a chain of basic blocks ending in conditional branches
  (biased or noisy — the predictor-accuracy knob), counter loops, indirect
  switch dispatches through jump tables (the unanalyzable-branch knob),
  calls to leaf functions, and a return;
* run-time "randomness" comes from an in-guest xorshift32 register, so
  branch outcomes are unpredictable to the simulated predictor yet fully
  deterministic;
* blocks mix ALU, memory (hot per-function regions plus occasional walks
  of a large cold array — the dL1 knob), and floating-point work;
* occasional very long straight-line blocks make sequential execution
  cross page ends (the BOUNDARY-crossing knob).

The generator returns the module *and* its per-function chunks plus the
static call graph, which the code-layout extension
(:func:`repro.compiler.layout.layout_by_affinity`) consumes.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import cycle
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.isa.assembler import Assembler, DataItem, Module, SymInstr, link
from repro.isa.program import DATA_BASE, Program, TEXT_BASE
from repro.isa.registers import (
    REG_GP,
    REG_RA,
    REG_SP,
    REG_ZERO,
)
from repro.compiler.instrument import (
    instrument_module,
    instrument_program,
    link_plain,
)

# register conventions used by generated code
_RNG = 23  # s7: xorshift32 state
_PTR = 16  # s0: function data pointer
_CNT = 17  # s1: loop counter
_ACC = 18  # s2: accumulator
_T0, _T1, _T2, _T3 = 8, 9, 10, 11
_T8 = 24  # xorshift scratch
_SCH = 21  # s5: schedule chunk-loop counter (never touched by functions)


@dataclass(frozen=True)
class WorkloadProfile:
    """All the knobs that shape one synthetic benchmark.

    The six shipped profiles (:mod:`repro.workloads.spec2000`) set these to
    land on the paper's per-benchmark characteristics; custom profiles are
    ordinary instances of this class (see ``examples/custom_workload.py``).
    """

    name: str
    seed: int = 1

    # code shape
    hot_functions: int = 12
    cold_functions: int = 16
    leaf_functions: int = 8
    blocks_per_function: Tuple[int, int] = (6, 12)
    #: leaf functions are small (accessors/helpers), like real SPEC leaves
    leaf_blocks: Tuple[int, int] = (2, 4)
    block_len: Tuple[int, int] = (6, 12)
    long_block_prob: float = 0.02
    long_block_len: Tuple[int, int] = (120, 300)
    #: fraction of hot functions grown ~4x (multi-page bodies whose
    #: internal branches legitimately cross pages — the source of the
    #: paper's 24-41% crossing fraction among analyzable branches)
    big_fn_frac: float = 0.0
    big_fn_scale: int = 4

    # control-flow mix (block terminator probabilities; remainder falls
    # through sequentially)
    cond_prob: float = 0.62
    loop_prob: float = 0.08
    call_prob: float = 0.12
    switch_prob: float = 0.04
    #: probability a non-leaf function ends in a direct tail call
    #: (``j other_hot``) instead of ``jr ra`` — an analyzable, almost
    #: always page-crossing branch, common in compiled code
    tail_call_prob: float = 0.0
    #: fraction of conditional branches in non-leaf functions that target
    #: a far early-return trampoline (off-page) and are almost never
    #: taken — the error-path branches that dominate the paper's
    #: "crossing" class of analyzable branches without adding dynamic
    #: page crossings
    far_branch_frac: float = 0.0
    far_branch_taken_prob: float = 0.02
    loop_trips: Tuple[int, int] = (4, 24)
    switch_ways: int = 4
    #: fraction of switch-table entries duplicated onto the first target:
    #: skews the dispatch so the BTB predicts it part of the time
    switch_skew: float = 0.5
    #: fraction of leaf calls that target the *shared* leaf pool instead of
    #: the caller's dedicated leaves — shared leaves see many call sites,
    #: so their returns thrash the BTB (predictor-accuracy knob)
    shared_leaf_frac: float = 0.2
    #: dead padding (never-executed words) appended after each function:
    #: spreads functions across pages, which is what makes calls and
    #: returns cross pages at SPEC-like rates
    fn_pad_words: Tuple[int, int] = (0, 0)
    #: additionally pad each function start to a multiple of this many
    #: words (0 = off).  Quantized starts keep small bodies away from page
    #: ends — the knob for the BOUNDARY share of page crossings.
    fn_align_words: int = 0

    # branch behaviour
    predictable_frac: float = 0.75
    biased_taken_prob: float = 0.94
    noisy_taken_prob: float = 0.55
    #: fraction of *predictable* conditional branches biased toward
    #: fall-through instead of taken.  High values make execution snake
    #: linearly through function bodies, which is what produces sequential
    #: (BOUNDARY) page crossings; low values give jumpy flow with none.
    fallthrough_bias_frac: float = 0.3
    #: probability a block re-keys the guest RNG (cheaper blocks reuse
    #: stale bits at different offsets)
    rng_refresh_prob: float = 0.5

    # schedule
    schedule_len: int = 36
    #: consecutive calls to the same function per schedule slot (raises
    #: return-address predictability, as tight SPEC call sites do)
    schedule_run_len: int = 1
    #: slots per schedule chunk; each chunk is wrapped in a small counted
    #: loop executing ``chunk_repeats`` times.  Short chunk reuse distance
    #: is what keeps call sites resident in the BTB, like real loops over
    #: call clusters (a single flat 100+-site schedule thrashes it).
    schedule_chunk: int = 4
    chunk_repeats: int = 3
    indirect_call_frac: float = 0.12
    cold_call_prob: float = 0.02

    # data behaviour
    hot_data_words: int = 1024
    cold_data_words: int = 65536
    mem_op_frac: float = 0.22
    cold_access_prob: float = 0.04
    fp_frac: float = 0.08


#: what :func:`link_slot` calls with a pair it is about to drop
ReleaseHook = Callable[["SyntheticWorkload", int, Dict[bool, Program]], None]


class _LinkSlot:
    """The plain and instrumented binary of one (workload, page size),
    plus the workload's plain layout, kept across its page sizes: every
    plain binary of the workload is a copy of it and every instrumented
    one is derived from it, stream included.

    Held by identity of the workload object: a workload re-registered
    under the same name is a new object and can never be served the old
    image."""

    __slots__ = ("workload", "page_bytes", "programs", "plain", "on_release")

    def __init__(self, on_release: Optional[ReleaseHook] = None) -> None:
        self.workload: Optional["SyntheticWorkload"] = None
        self.page_bytes = 0
        self.programs: Dict[bool, Program] = {}
        #: the workload's one plain link: without boundary branches the
        #: layout is the same at every page size, so the workload's other
        #: page sizes copy it (:meth:`Program.with_page_bytes`), and its
        #: instrumented layouts are derived from it
        #: (:func:`~repro.compiler.instrument.instrument_program`)
        self.plain: Optional[Program] = None
        self.on_release = on_release

    def release(self) -> None:
        """Drop the held pair, first handing it to ``on_release``."""
        if self.programs and self.on_release is not None:
            self.on_release(self.workload, self.page_bytes, self.programs)
        self.programs.clear()


#: each thread's open link slot (``slot`` is ``None`` outside
#: :func:`link_slot`).  Per thread: a queue worker thread beside an open
#: sweep must link its own binaries, not swap the sweep's under it.
_local = threading.local()


def _forget_hook_in_child() -> None:
    """A process forked inside an open slot (a pool worker) keeps the
    slot but not its release hook: the hook's work belongs to the
    process that opened the block, which would never see its results."""
    slot = getattr(_local, "slot", None)
    if slot is not None:
        slot.on_release = None


os.register_at_fork(after_in_child=_forget_hook_in_child)


def release_link_slot() -> None:
    """Drop the open slot's pair now (through its release hook), so
    work the hook does happens here and not inside the next link.  A
    no-op outside :func:`link_slot`."""
    slot = getattr(_local, "slot", None)
    if slot is not None:
        slot.release()


@contextmanager
def link_slot(on_release: Optional[ReleaseHook] = None) -> Iterator[None]:
    """Serve :meth:`SyntheticWorkload.link` from a one-pair slot while
    the block runs.

    Consecutive jobs on the same (workload, page size) then share one
    plain and one instrumented binary.  A link for any other pair empties
    the slot first, so at most the current job's two binaries are held —
    what one job holds anyway.  The plain layout does not depend on the
    page size, so the slot keeps it until a link for another workload:
    the workload's other page sizes copy it, memoized stream included,
    instead of linking and executing it again, and every instrumented
    binary is derived from it — its image remapped, its stream derived
    from the plain stream — so a workload is placed and executed once
    per block.  The slot is dropped on exit, so nothing linked inside
    outlives the block.  A block nested in an open one shares the open
    slot; the slot belongs to the thread that opened it.

    ``on_release(workload, page_bytes, programs)`` runs each time the
    slot is about to drop a pair — for another pair, or when the block
    ends without an error — while ``programs`` (``{instrumented:
    Program}``) still holds that pair's binaries and their memoized
    streams: the way to do extra work on every image the block links
    without linking it again.  Only the outermost block may pass one,
    and only this process runs it: a forked child drops it."""
    if getattr(_local, "slot", None) is not None:
        if on_release is not None:
            raise RuntimeError("a nested link_slot shares the open "
                               "slot and cannot add a release hook")
        yield
        return
    slot = _local.slot = _LinkSlot(on_release)
    try:
        yield
        slot.release()
    finally:
        _local.slot = None


@dataclass
class SyntheticWorkload:
    """A generated benchmark, ready to link (plain or instrumented)."""

    profile: WorkloadProfile
    module: Module
    chunks: List[Tuple[str, List[Union[str, SymInstr]]]]
    data_items: List[DataItem]
    call_graph: Dict[Tuple[str, str], int]

    def link(self, *, page_bytes: int = 4096,
             instrumented: bool = False) -> Program:
        """Produce the executable image a scheme set runs: a fresh
        :class:`Program`, or inside :func:`link_slot` the slot's shared
        one (engines only read a program)."""
        slot = getattr(_local, "slot", None)
        if slot is None:
            return self._link(page_bytes, instrumented)
        if slot.workload is not self or slot.page_bytes != page_bytes:
            slot.release()  # before linking: one pair at a time
            if slot.workload is not self:
                slot.plain = None
            slot.workload = self
            slot.page_bytes = page_bytes
        program = slot.programs.get(instrumented)
        if program is None:
            plain = slot.plain
            if plain is None:
                plain = slot.plain = self._link(page_bytes, False)
            if instrumented:
                program = instrument_program(plain, page_bytes=page_bytes)
            elif plain.page_bytes == page_bytes:
                program = plain
            else:
                program = plain.with_page_bytes(page_bytes)
            slot.programs[instrumented] = program
        return program

    def _link(self, page_bytes: int, instrumented: bool) -> Program:
        if instrumented:
            return instrument_module(self.module, page_bytes=page_bytes,
                                     name=self.profile.name)
        return link_plain(self.module, page_bytes=page_bytes,
                          name=self.profile.name)


class _Generator:
    """One-shot generator: builds functions as chunk lists, then a module."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.profile = profile
        self.rng = random.Random(profile.seed)
        self.asm = Assembler()
        self.chunks: List[Tuple[str, List[Union[str, SymInstr]]]] = []
        self.call_graph: Dict[Tuple[str, str], int] = {}
        self._label_counter = 0
        self._tail_targets: List[str] = []  # hot functions, for tail calls
        #: the current function's early-return trampoline (far-branch
        #: target); lives one page past the function body, inside the same
        #: chunk, so layout transformations keep it in branch range
        self._trampoline_label = ""
        self._instr_total = 0  # instructions placed so far (for alignment)
        self._data_cursor = 0  # byte offset of next data item from DATA_BASE
        self._data_offsets: Dict[str, int] = {}
        self._switch_tables: List[DataItem] = []

    # -- helpers -------------------------------------------------------------

    def _fresh(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def _reserve_data(self, name: str, words: int) -> int:
        """Reserve a zero-initialized data region; returns its byte offset
        from the data base (known at generation time because items are
        laid out in insertion order)."""
        offset = self._data_cursor
        self._data_offsets[name] = offset
        self.asm.data_space(name, words)
        self._data_cursor += 4 * words
        return offset

    def _reserve_table(self, name: str, labels: List[str]) -> int:
        offset = self._data_cursor
        self._data_offsets[name] = offset
        self.asm.data_words(name, labels)
        self._data_cursor += 4 * len(labels)
        return offset

    def _emit_address(self, asm: Assembler, reg: int, offset: int) -> None:
        """Materialize ``gp + offset`` into ``reg``."""
        if offset <= 32767:
            asm.addi(reg, REG_GP, offset)
        else:
            asm.lui(reg, (offset >> 16) & 0xFFFF)
            asm.ori(reg, reg, offset & 0xFFFF)
            asm.add(reg, reg, REG_GP)

    def _emit_xorshift(self, asm: Assembler) -> None:
        """Advance the guest RNG: xorshift32 on s7."""
        asm.slli(_T8, _RNG, 13)
        asm.xor(_RNG, _RNG, _T8)
        asm.srli(_T8, _RNG, 17)
        asm.xor(_RNG, _RNG, _T8)
        asm.slli(_T8, _RNG, 5)
        asm.xor(_RNG, _RNG, _T8)

    def _emit_random_test(self, asm: Assembler, taken_prob: float,
                          bit_offset: int) -> None:
        """Leave nonzero in t0 with probability ``taken_prob``, drawing an
        8-bit field at ``bit_offset`` of the RNG register."""
        threshold = max(1, min(255, round(taken_prob * 256)))
        if bit_offset:
            asm.srli(_T0, _RNG, bit_offset)
            asm.andi(_T0, _T0, 0xFF)
        else:
            asm.andi(_T0, _RNG, 0xFF)
        asm.slti(_T0, _T0, threshold)

    # -- filler ------------------------------------------------------------------

    def _emit_filler(self, asm: Assembler, count: int, fn_data: int) -> None:
        """``count`` instructions of ALU / memory / FP work."""
        profile = self.profile
        rng = self.rng
        emitted = 0
        while emitted < count:
            draw = rng.random()
            if draw < profile.mem_op_frac and count - emitted >= 2:
                emitted += self._emit_mem_op(asm, fn_data)
            elif draw < profile.mem_op_frac + profile.fp_frac \
                    and count - emitted >= 2:
                choice = rng.randrange(3)
                fd = rng.randrange(1, 8)
                fs = rng.randrange(1, 8)
                ft = rng.randrange(1, 8)
                if choice == 0:
                    asm.fadd(fd, fs, ft)
                elif choice == 1:
                    asm.fmul(fd, fs, ft)
                else:
                    asm.fsub(fd, fs, ft)
                emitted += 1
            else:
                choice = rng.randrange(6)
                if choice == 0:
                    asm.addi(_ACC, _ACC, rng.randrange(1, 64))
                elif choice == 1:
                    asm.add(_ACC, _ACC, _T1)
                elif choice == 2:
                    asm.xor(_T1, _ACC, _RNG)
                elif choice == 3:
                    asm.slli(_T2, _ACC, rng.randrange(1, 8))
                elif choice == 4:
                    asm.sub(_ACC, _ACC, _T2)
                else:
                    asm.mul(_T1, _ACC, _T2) if rng.random() < 0.15 \
                        else asm.ori(_T1, _ACC, rng.randrange(1, 255))
                emitted += 1

    def _emit_mem_op(self, asm: Assembler, fn_data: int) -> int:
        """One load or store; mostly the function's hot region, sometimes a
        pseudo-random walk of the cold array.  Returns instructions used."""
        profile = self.profile
        rng = self.rng
        if rng.random() < profile.cold_access_prob:
            # cold: address = cold_base + ((rng >> 4) & mask)*4
            mask = min(profile.cold_data_words - 1, 0x1FFF)
            asm.srli(_T1, _RNG, 4)
            asm.andi(_T1, _T1, mask)
            asm.slli(_T1, _T1, 2)
            self._emit_address(asm, _T2, self._data_offsets["cold_data"])
            asm.add(_T2, _T2, _T1)
            if rng.random() < 0.3:
                asm.sw(_ACC, _T2, 0)
            else:
                asm.lw(_T1, _T2, 0)
            return 5 if self._data_offsets["cold_data"] <= 32767 else 7
        offset = 4 * rng.randrange(0, max(profile.hot_data_words // 8, 1))
        offset = min(offset, 32760)
        if rng.random() < 0.35:
            asm.sw(_ACC, _PTR, offset)
        else:
            asm.lw(_T1, _PTR, offset)
        return 1

    # -- functions ------------------------------------------------------------

    def _begin_chunk(self, name: str) -> Assembler:
        asm = Assembler()
        asm.label(name)
        return asm

    def _end_chunk(self, name: str, asm: Assembler) -> None:
        """Close a function chunk, applying the profile's inter-function
        padding: random dead words (page spread) plus alignment of the
        *next* function's start (boundary-share control).  Padding lives
        inside the chunk so layout transformations move it with the
        function, and it is one :meth:`Assembler.nop` run: a single
        object however many words it spans."""
        profile = self.profile
        items = asm.module.text
        count = sum(1 for item in items if isinstance(item, SymInstr))
        self._instr_total += count
        # align up first, then jitter: the next function starts at
        # align-boundary + jitter, giving page separation (crossing rate)
        # with varied sub-page offsets (iL1 set spread, straddle control)
        pad = 0
        align = profile.fn_align_words
        if align > 0:
            pad += (align - (self._instr_total % align)) % align
        lo, hi = profile.fn_pad_words
        if hi > 0:
            pad += self.rng.randrange(lo, hi + 1)
        asm.nop(pad)  # dead padding: never executed
        self._instr_total += pad
        self.chunks.append((name, items))
        self.asm.module.text.extend(items)

    def _record_call(self, caller: str, callee: str, weight: int = 1) -> None:
        key = (caller, callee)
        self.call_graph[key] = self.call_graph.get(key, 0) + weight

    def _gen_function(self, name: str, fn_index: int, leaf: bool,
                      dedicated_leaves: List[str],
                      shared_leaves: List[str], big: bool = False,
                      cold: bool = False) -> None:
        profile = self.profile
        rng = self.rng
        asm = self._begin_chunk(name)
        # prologue: point s0 at this function's slice of the hot data
        slice_words = max(profile.hot_data_words // 8, 1)
        slice_off = (fn_index * slice_words * 4) % (profile.hot_data_words * 4)
        self._emit_address(asm, _PTR, self._data_offsets["hot_data"]
                           + slice_off)
        if not leaf:
            asm.addi(REG_SP, REG_SP, -8)
            asm.sw(REG_RA, REG_SP, 0)
        if not leaf and profile.far_branch_frac > 0:
            self._trampoline_label = self._fresh(f"{name}_errexit")
        else:
            self._trampoline_label = ""
        if leaf and not cold:
            n_blocks = rng.randrange(*_span(profile.leaf_blocks))
        else:
            n_blocks = rng.randrange(*_span(profile.blocks_per_function))
        if big:
            n_blocks *= max(profile.big_fn_scale, 1)
        block_labels = [self._fresh(f"{name}_b") for _ in range(n_blocks)]
        exit_label = self._fresh(f"{name}_exit")
        for i, label in enumerate(block_labels):
            asm.label(label)
            self._gen_block(asm, name, i, block_labels, exit_label, leaf,
                            dedicated_leaves, shared_leaves, big=big)
        asm.label(exit_label)
        if not leaf:
            asm.lw(REG_RA, REG_SP, 0)
            asm.addi(REG_SP, REG_SP, 8)
        tail_targets = [t for t in self._tail_targets if t != name]
        if (not leaf and tail_targets
                and rng.random() < profile.tail_call_prob):
            target = rng.choice(tail_targets)
            asm.j(target)  # tail call: callee returns to our caller
            self._record_call(name, target)
        else:
            asm.jr(REG_RA)
        if self._trampoline_label:
            # the far-branch trampoline: one page past the body (inside
            # the chunk, so layout moves keep it in range), reached only
            # by rarely-taken error-path branches; it early-returns
            align = profile.fn_align_words or 1024
            emitted = sum(1 for item in asm.module.text
                          if isinstance(item, SymInstr))
            pad = (align - (self._instr_total + emitted) % align) % align
            asm.nop(pad)
            asm.label(self._trampoline_label)
            asm.lw(REG_RA, REG_SP, 0)
            asm.addi(REG_SP, REG_SP, 8)
            asm.jr(REG_RA)
        self._end_chunk(name, asm)

    def _gen_block(self, asm: Assembler, fn_name: str, index: int,
                   labels: List[str], exit_label: str, leaf: bool,
                   dedicated_leaves: List[str],
                   shared_leaves: List[str], big: bool = False) -> None:
        profile = self.profile
        rng = self.rng
        if rng.random() < profile.long_block_prob:
            length = rng.randrange(*_span(profile.long_block_len))
        else:
            length = rng.randrange(*_span(profile.block_len))
        overhead = 0
        if rng.random() < profile.rng_refresh_prob:
            self._emit_xorshift(asm)
            overhead = 6
        self._emit_filler(asm, max(length - overhead, 1),
                          self._data_offsets["hot_data"])

        draw = rng.random()
        remaining = labels[index + 1:]
        if draw < profile.cond_prob and remaining:
            if (not leaf and self._trampoline_label
                    and rng.random() < profile.far_branch_frac):
                # error-path branch: far (off-page) target, almost never
                # taken; when taken it early-returns via the trampoline
                self._emit_random_test(asm, profile.far_branch_taken_prob,
                                       rng.choice((0, 8, 16)))
                asm.bne(_T0, REG_ZERO, self._trampoline_label)
                return
            # conditional branch: skip ahead a few blocks or to the exit;
            # big (multi-page) functions jump much further, so their
            # branches cross pages the way large SPEC functions do
            span = 12 if big else 3
            target_pool = remaining[:span] + [exit_label]
            target = rng.choice(target_pool)
            if rng.random() < profile.predictable_frac:
                taken_prob = profile.biased_taken_prob
                if rng.random() < profile.fallthrough_bias_frac:
                    taken_prob = 1.0 - taken_prob  # biased to fall through
            else:
                taken_prob = profile.noisy_taken_prob
            self._emit_random_test(asm, taken_prob, rng.choice((0, 8, 16)))
            asm.bne(_T0, REG_ZERO, target)
        elif draw < profile.cond_prob + profile.loop_prob:
            trips = rng.randrange(*_span(profile.loop_trips))
            head = self._fresh(f"{fn_name}_loop")
            asm.addi(_CNT, REG_ZERO, trips)
            asm.label(head)
            self._emit_filler(asm, rng.randrange(2, 6),
                              self._data_offsets["hot_data"])
            asm.addi(_CNT, _CNT, -1)
            asm.bne(_CNT, REG_ZERO, head)
        elif draw < (profile.cond_prob + profile.loop_prob
                     + profile.call_prob) and not leaf \
                and (dedicated_leaves or shared_leaves):
            if shared_leaves and (not dedicated_leaves
                                  or rng.random() < profile.shared_leaf_frac):
                callee = rng.choice(shared_leaves)
            else:
                callee = rng.choice(dedicated_leaves)
            asm.jal(callee)
            self._record_call(fn_name, callee)
        elif draw < (profile.cond_prob + profile.loop_prob
                     + profile.call_prob + profile.switch_prob) \
                and len(remaining) >= 2:
            ways = profile.switch_ways
            # duplicate the hot entry so dispatch is skewed (a default
            # switch case), which is what lets the BTB predict part of it
            skewed = max(1, round(profile.switch_skew * ways))
            pool = remaining[:max(ways - skewed + 1, 1)]
            targets = [pool[0]] * skewed + list(pool[1:ways - skewed + 1])
            while len(targets) < ways:
                targets.append(pool[len(targets) % len(pool)])
            table = self._fresh(f"swtab_{fn_name}")
            offset = self._reserve_table(table, targets)
            asm.srli(_T0, _RNG, 3)
            asm.andi(_T0, _T0, ways - 1)
            asm.slli(_T0, _T0, 2)
            self._emit_address(asm, _T1, offset)
            asm.add(_T1, _T1, _T0)
            asm.lw(_T2, _T1, 0)
            asm.jr(_T2)
        # otherwise: plain fall-through into the next block

    # -- main --------------------------------------------------------------------

    def _gen_main(self, hot_names: List[str], cold_names: List[str],
                  fn_table_offset: int, fn_table_size: int) -> None:
        profile = self.profile
        rng = self.rng
        asm = self._begin_chunk("main")
        asm.lui(REG_GP, DATA_BASE >> 16)
        seed = (profile.seed * 2654435761) & 0xFFFFFFFF
        asm.li(_RNG, seed | 1)
        asm.addi(_ACC, REG_ZERO, 1)
        asm.addi(_T1, REG_ZERO, 3)
        asm.addi(_T2, REG_ZERO, 7)
        outer = "outer_loop"
        asm.label(outer)
        cold_iter = cycle(cold_names)
        chunk = max(profile.schedule_chunk, 1)
        repeats = max(profile.chunk_repeats, 1)
        chunk_label = None
        for step in range(profile.schedule_len):
            if step % chunk == 0:
                if chunk_label is not None:
                    asm.addi(_SCH, _SCH, -1)
                    asm.bne(_SCH, REG_ZERO, chunk_label)
                chunk_label = self._fresh("sched_chunk")
                asm.addi(_SCH, REG_ZERO, repeats)
                asm.label(chunk_label)
            if rng.random() < profile.indirect_call_frac and fn_table_size:
                # indirect call through the function-pointer table
                self._emit_xorshift(asm)
                asm.srli(_T0, _RNG, 2)
                asm.andi(_T0, _T0, fn_table_size - 1)
                asm.slli(_T0, _T0, 2)
                self._emit_address(asm, _T1, fn_table_offset)
                asm.add(_T1, _T1, _T0)
                asm.lw(_T2, _T1, 0)
                asm.jalr(_T2)
                for callee in hot_names[:fn_table_size]:
                    self._record_call("main", callee, 1)
            else:
                callee = rng.choice(hot_names)
                for _ in range(max(profile.schedule_run_len, 1)):
                    asm.jal(callee)
                self._record_call("main", callee, 4)
            if rng.random() < profile.cold_call_prob * 4 and cold_names:
                # guarded cold call: taken rarely at run time
                callee = next(cold_iter)
                skip = self._fresh("skip_cold")
                self._emit_xorshift(asm)
                self._emit_random_test(asm, profile.cold_call_prob, 8)
                asm.beq(_T0, REG_ZERO, skip)
                asm.jal(callee)
                asm.label(skip)
                self._record_call("main", callee, 1)
        if chunk_label is not None:
            asm.addi(_SCH, _SCH, -1)
            asm.bne(_SCH, REG_ZERO, chunk_label)
        asm.j(outer)
        self._end_chunk("main", asm)

    # -- top level -------------------------------------------------------------

    def build(self) -> SyntheticWorkload:
        profile = self.profile
        self._reserve_data("hot_data", profile.hot_data_words)
        self._reserve_data("cold_data", profile.cold_data_words)

        hot_names = [f"hot_{i}" for i in range(profile.hot_functions)]
        cold_names = [f"cold_{i}" for i in range(profile.cold_functions)]
        leaf_names = [f"leaf_{i}" for i in range(profile.leaf_functions)]

        table_size = 1
        while table_size * 2 <= min(len(hot_names), 8):
            table_size *= 2
        # skew the pointer table like the switch tables: virtual dispatch
        # in real code is dominated by one receiver type
        skewed = max(1, round(self.profile.switch_skew * table_size))
        table_entries = ([hot_names[0]] * skewed
                         + hot_names[1:table_size - skewed + 1])
        while len(table_entries) < table_size:
            table_entries.append(hot_names[len(table_entries)
                                           % len(hot_names)])
        fn_table_offset = self._reserve_table("fn_table",
                                              table_entries[:table_size])

        # Partition leaves: most are dedicated to one hot function (stable
        # return targets, localized call graph); the tail is shared by all
        # callers (BTB-thrashing returns).
        n_shared = max(int(round(profile.leaf_functions
                                 * profile.shared_leaf_frac)), 0)
        shared_leaves = leaf_names[:n_shared]
        private_pool = leaf_names[n_shared:]
        dedicated: Dict[str, List[str]] = {name: [] for name in hot_names}
        for i, leaf in enumerate(private_pool):
            dedicated[hot_names[i % len(hot_names)]].append(leaf)

        self._tail_targets = list(hot_names)
        # main first (entry), then hot / leaf / cold function bodies
        self._gen_main(hot_names, cold_names, fn_table_offset, table_size)
        n_big = int(round(profile.big_fn_frac * len(hot_names)))
        for i, name in enumerate(hot_names):
            self._gen_function(name, i, leaf=False,
                               dedicated_leaves=dedicated[name],
                               shared_leaves=shared_leaves,
                               big=i < n_big)
        for i, name in enumerate(leaf_names):
            self._gen_function(name, i + len(hot_names), leaf=True,
                               dedicated_leaves=[], shared_leaves=[])
        for i, name in enumerate(cold_names):
            self._gen_function(name, i + 3, leaf=True, dedicated_leaves=[],
                               shared_leaves=[], cold=True)

        module = self.asm.module
        module.entry_label = "main"
        return SyntheticWorkload(
            profile=profile,
            module=module,
            chunks=self.chunks,
            data_items=list(module.data),
            call_graph=self.call_graph,
        )


def _span(bounds: Tuple[int, int]) -> Tuple[int, int]:
    lo, hi = bounds
    return lo, max(hi, lo + 1)


def generate(profile: WorkloadProfile) -> SyntheticWorkload:
    """Build the synthetic benchmark described by ``profile``."""
    return _Generator(profile).build()
