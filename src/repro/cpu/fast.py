"""The fast engine: one pass, every iTLB scheme evaluated side by side.

Two observations from the paper make this engine possible:

1. *"None of these mechanisms affect iL1 and L2 hits or misses"* (Section
   3.3.4) — so the instruction stream, cache behaviour, predictor
   behaviour, and dTLB behaviour can be simulated **once** and shared by
   every scheme;
2. each scheme's lookup decisions depend only on that shared stream plus
   its private CFR state, never on whether a lookup hit — so six small
   policy state machines can ride along on a single pass, and decide
   **once** for every config in a grid whose members differ only in
   iTLB geometry or energy accounting.  A lookup appends its VPN to the
   scheme's column; at every window boundary each member replays the
   columns through its own iTLBs (:meth:`~repro.vm.tlb.TLB.replay`),
   which is all that multiplies per member.  Misses, level-2 probes and
   the exposed miss latency are then read from each iTLB's statistics.

The same observation makes a program's committed stream pure data: it
depends only on the program (binary and page size) and the window.  So
the engine never interprets instructions itself.  It consumes the
stream one window at a time (:class:`~repro.trace.format.SegmentColumns`)
from the program's window source: per step only a static index and an
aux payload, with every other fact read through the index from the
stream's static tables.  A live program executes functionally once
into an in-memory segment (see
:meth:`repro.isa.program.Program.window_source`), a replay decodes its
trace, eagerly or in bounded windows.  Live and
replayed runs therefore go through the one loop below, and stay
bit-identical.

Timing is a dependency-aware list-scheduling model of the Table 1 core:

* the front end fetches groups of up to ``fetch_width`` contiguous
  instructions, broken by taken branches and iL1-block boundaries, charging
  iL1 miss latencies and the fixed misprediction penalty;
* each instruction issues when its source registers and a functional unit
  are ready, completes after its latency (plus memory latency for loads),
  and commits in order at ``commit_width`` per cycle;
* fetch stalls when the RUU (window of ``ruu_size``) is full.

Scheme-specific translation stalls (serial PI-PT lookups, VI-VT miss-path
lookups, iTLB miss penalties) accumulate per scheme and are added to the
shared pipeline cycle count — a first-order approximation validated against
the detailed out-of-order engine (see :mod:`repro.experiments.validation`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.branch.predictor import FrontEndPredictor
from repro.config import CacheAddressing, MachineConfig, SchemeName
from repro.core.schemes import (
    ITLBPolicy,
    LookupReason,
    SchemeCounters,
    build_all_policies,
)
from repro.cpu.grid import check_grid_configs
from repro.cpu.results import (
    EngineResult,
    SchemeResult,
    SharedStats,
    scheme_result,
)
from repro.errors import ConfigError
from repro.isa.instructions import REGISTER_SLOTS
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace.format import trace_exhausted
from repro.vm.os_model import AddressSpace
from repro.vm.page_table import Protection
from repro.vm.tlb import TLB, AnyTLB, build_itlb

_FRONT_DEPTH = 3  #: fetch-queue + decode/dispatch depth in cycles


def _miss_path_lookups(policies: Sequence[ITLBPolicy], vpn: int) -> None:
    """A VI-VT iL1 miss on page ``vpn``: each policy whose CFR cannot
    supply the translation looks it up on the miss path, serially; the
    others are served from the CFR."""
    for policy in policies:
        if policy.wants_lookup(vpn):
            policy.extra_cycles += policy.serial_penalty
            policy.lookup(vpn, policy.fetch_reason(True))
        else:
            policy.serve_from_cfr()


class FastEngine:
    """Single-pass multi-scheme simulator over one or more configs.

    ``config`` is one machine configuration, or a grid's member list:
    configs identical outside :data:`~repro.config.GRID_MEMBER_FIELDS`
    (checked by :func:`~repro.cpu.grid.check_grid_configs`).  The first
    member seeds the shared machinery and the one policy set;
    :meth:`run_grid` returns one result per member, in order."""

    def __init__(self, program: Program,
                 config: Union[MachineConfig, Sequence[MachineConfig]],
                 schemes: Optional[Sequence[SchemeName]] = None) -> None:
        members = ([config] if isinstance(config, MachineConfig)
                   else list(config))
        check_grid_configs(members)
        config = members[0]
        self.program = program
        self.config = config
        self.addressing = config.mem.il1_addressing
        self.space = AddressSpace(program)
        self.hier = MemoryHierarchy(config.mem)
        self.predictor = FrontEndPredictor(config.branch)
        self.dtlb = TLB(config.dtlb, name="dtlb")

        # one policy set decides for every member: no decision reads
        # whether a lookup hit, so members that differ only in iTLB
        # geometry make the same lookups.  Each lookup goes to its
        # scheme's column, and every member replays the columns
        # through its own iTLBs (:meth:`_replay_lookups`).
        self.policies: List[ITLBPolicy] = build_all_policies(
            config, self.space.page_table,
            defer=self.addressing is CacheAddressing.VIVT,
            names=None if schemes is None else tuple(schemes))
        serial = self.addressing in (CacheAddressing.PIPT,
                                     CacheAddressing.VIVT)
        self._base: Optional[ITLBPolicy] = None
        for policy in self.policies:
            policy.serial_penalty = 1 if serial else 0
            if policy.name is SchemeName.BASE:
                self._base = policy
        if self._base is not None and self.addressing is CacheAddressing.PIPT:
            # Base PI-PT serializes a lookup before *every* fetch group;
            # that stall is added in bulk per group, so per-lookup serial
            # charging must be off to avoid double counting.
            self._base.serial_penalty = 0
        self._event_policies = [policy for policy in self.policies
                                if policy is not self._base]
        self.member_configs: List[MachineConfig] = members
        #: per member, one replaying iTLB per policy (same order)
        self._member_itlbs: List[List[AnyTLB]] = [
            [build_itlb(member.itlb, member.itlb_two_level,
                        name=f"itlb[{policy.name.value}]")
             for policy in self.policies]
            for member in members]
        #: code-page frames the fetch path and every member's refills
        #: share (VPN -> (PFN, protection)), each page walked once:
        #: code pages are premapped and never move
        self._frames: Dict[int, Tuple[int, Protection]] = {}

        # shared counters (measurement window)
        self.shared = SharedStats()
        self._page_shift = config.mem.page_bytes.bit_length() - 1
        self._block_shift = self.hier.il1.block_shift
        self._dblock_shift = self.hier.dl1.block_shift
        self._offset_mask = config.mem.page_bytes - 1
        self._dtlb_penalty = config.dtlb.miss_penalty

        # timing state (continuous across warmup/measurement)
        core = config.core
        self._fetch_width = core.fetch_width
        self._commit_width = core.commit_width
        self._mispredict_penalty = config.branch.mispredict_penalty
        #: ready cycle per register slot; a ready time of 0 never
        #: exceeds an issue time (fetch + 3), so all start at int 0
        self._ready = [0] * REGISTER_SLOTS
        #: per kind code, a heap of the cycles each functional unit is
        #: next free (None = no structural limit)
        self._fu_pools: List[Optional[List[int]]] = [None] * 15
        for kind, count in core.unit_counts().items():
            self._fu_pools[kind] = [0] * count
        self._ring_size = core.ruu_size
        self._commit_ring = [0] * self._ring_size
        self._ring_pos = 0
        self._group_count = 0
        self._fetch_clock = 0
        self._commit_cycle = 0
        self._commit_slots = 0
        self._group_remaining = 0  # 0: the next step starts a fetch group
        self._group_block = -1

        # stream position: the window source is bound by the measured run
        self._source = None
        self._window = None  #: the current window (None before one)
        self._win_base = 0  #: absolute step offset of the current window
        self._pos = 0  #: position *within* the current window
        self._halted = False

        # stream-tracking state
        self._last_vpn = -1
        self._last_pfn = -1
        self._last_fetch_block = -1
        self._last_dvpn = -1
        self._last_dpfn = -1
        self._last_dblock = -1
        self._prev_outcome = None
        # bulk counters
        self._il1_bulk_hits = 0
        self._dtlb_bulk_hits = 0
        self._dl1_bulk_hits = 0
        self._base_structural = 0

    # -- public API ------------------------------------------------------------

    def run(self, instructions: int, warmup: int = 0) -> EngineResult:
        """Execute ``warmup`` useful instructions unmeasured, then measure
        ``instructions`` useful (non-boundary) instructions."""
        return self._run_measured(instructions, warmup)[0]

    def run_grid(self, instructions: int, warmup: int = 0) \
            -> List[EngineResult]:
        """Like :meth:`run`, but return one result per installed grid
        member (in installation order)."""
        return self._run_measured(instructions, warmup)

    def _run_measured(self, instructions: int,
                      warmup: int = 0) -> List[EngineResult]:
        if self._source is not None:
            raise ConfigError("an engine runs one measured window; "
                              "build a new engine for the next one")
        self._source = self.program.window_source(warmup + instructions)
        try:
            if warmup:
                self._run_window(warmup)
            self._reset_measurement()
            cycles_start = self._commit_cycle
            self._run_window(instructions)
        finally:
            # a window that ends before its stream does must not leave a
            # streamed trace's file handle open
            self._source.close()
        self._flush_bulk_counters()
        base_cycles = self._commit_cycle - cycles_start
        self.shared.base_cycles = base_cycles
        self.shared.fetch_groups = self._group_count
        return self._collect(base_cycles)

    # -- measurement bookkeeping ------------------------------------------------

    def _reset_measurement(self) -> None:
        self._flush_bulk_counters()
        self.shared = SharedStats()
        self.hier.reset_stats()
        self.dtlb.stats.reset()
        self.predictor.stats.reset()
        for policy in self.policies:
            policy.counters = SchemeCounters()
            policy.extra_cycles = 0
        for itlbs in self._member_itlbs:
            for itlb in itlbs:
                itlb.reset_stats()
        self._base_structural = 0
        self._group_count = 0

    def _flush_bulk_counters(self) -> None:
        il1 = self.hier.il1.stats
        il1.accesses += self._il1_bulk_hits
        il1.hits += self._il1_bulk_hits
        self._il1_bulk_hits = 0
        dl1 = self.hier.dl1.stats
        dl1.accesses += self._dl1_bulk_hits
        dl1.hits += self._dl1_bulk_hits
        self._dl1_bulk_hits = 0
        dstats = self.dtlb.stats
        dstats.accesses += self._dtlb_bulk_hits
        dstats.hits += self._dtlb_bulk_hits
        self._dtlb_bulk_hits = 0

    def _collect(self, base_cycles: int) -> List[EngineResult]:
        shared = self.shared
        shared.il1 = self.hier.il1.stats
        shared.dl1 = self.hier.dl1.stats
        shared.l2 = self.hier.l2.stats
        shared.dtlb = self.dtlb.stats
        shared.predictor = self.predictor.stats
        # bulk per-fetch bookkeeping (HoA comparator, CFR reads) and Base's
        # same-page lookups
        for policy in self.policies:
            policy.note_fetches(shared.instructions)
        base = self._base
        if base is not None and self.addressing is not CacheAddressing.VIVT:
            repeats = shared.instructions - self._base_structural
            base.note_repeat_hits(repeats)
            # each repeat re-touches the entry the previous lookup left
            # most recent, in every member's Base iTLB alike.  Known
            # model gap, pinned as is: a two-level iTLB counts them as
            # level-1 hits only, though a parallel design probes level 2
            # on every access (TwoLevelTLB.repeat_hits)
            slot = self.policies.index(base)
            for itlbs in self._member_itlbs:
                itlbs[slot].repeat_hits(repeats)
            if self.addressing is CacheAddressing.PIPT:
                base.extra_cycles += shared.fetch_groups
        collected: List[EngineResult] = []
        for config, itlbs in zip(self.member_configs, self._member_itlbs):
            miss_penalty = config.itlb.miss_penalty
            results: Dict[SchemeName, SchemeResult] = {}
            for policy, itlb in zip(self.policies, itlbs):
                extra_cycles = policy.extra_cycles + itlb.latency(
                    miss_penalty)
                results[policy.name] = scheme_result(
                    policy, itlb, extra_cycles=extra_cycles,
                    cycles=base_cycles + extra_cycles)
            collected.append(EngineResult(
                program_name=self.program.name,
                config=config,
                addressing=self.addressing,
                shared=shared,
                schemes=results,
                engine="fast",
            ))
        return collected

    def _replay_lookups(self) -> None:
        """Translate the lookups decided since the last call through
        every member's iTLB for the deciding scheme, then empty the
        columns.  Runs at every window boundary, so a column never
        outgrows one window's decisions."""
        frames = self._frames
        page_table = self.space.page_table
        for slot, policy in enumerate(self.policies):
            column = policy.column
            if column:
                for itlbs in self._member_itlbs:
                    itlbs[slot].replay(column, frames, page_table)
                del column[:]

    # -- main loop ----------------------------------------------------------

    def _run_window(self, budget: int) -> None:  # noqa: C901 - hot loop
        """Execute ``budget`` useful instructions from the stream.

        The engine's mutable scalar state (timing clocks, stream
        trackers, shared counters) lives in frame locals for the whole
        window and is written back to the instance at its end.  Each
        iteration has one head and one timing statement:

        * the **head** takes the step at ``pos`` — an event (page
          change, control transfer, memory access, HALT) or the first
          plain step of an iL1 block — through page-change accounting,
          scheme triggers, the iL1 fetch, retirement, the data access
          and control resolution;
        * a head step with no control outcome and no HALT **widens**
          ``end`` over the plain steps that follow it in the same iL1
          block, up to the next byte set in the window's event map (and
          never past the window end or the budget).  Those steps hit the
          block just fetched, so their fetch and retire bookkeeping is
          one bulk-counter update;
        * one **timing loop** then list-schedules the steps in
          ``[pos, end)``.  A step issues once its source slots are
          ready in the one ``ready`` list and its kind's unit heap has
          a free unit, then writes its completion to its destination
          slot (:func:`~repro.isa.instructions.register_slots`).  The
          head's memory latency is a one-shot ``extra_lat``, zero for
          the plain steps after it.

        Each step's facts are ``table[idx]`` reads through its static
        index ``idx``; its successor is resolved only at control steps.
        Windows come one at a time.  When the position runs off the
        current window's end the loop top pulls the next window and
        rebinds the locals; a block's plain steps split by a window
        edge resume through the head in the next window, which times
        them bit-identically (the streaming equivalence suite pins
        this).
        """
        source = self._source
        instrs = source.instructions
        cols = self._window
        win_base = self._win_base
        # the loop top binds the window locals: first to the window an
        # earlier call stopped in, if any, then to each next window
        resume = cols is not None
        n_records = 0

        shared = self.shared
        page_shift = self._page_shift
        block_shift = self._block_shift
        offset_mask = self._offset_mask
        block_low_mask = (1 << block_shift) - 1
        page_table = self.space.page_table
        frames = self._frames
        vivt = self.addressing is CacheAddressing.VIVT
        policies = self.policies
        event_policies = self._event_policies
        base = self._base
        predictor_observe = self.predictor.observe
        hier_fetch = self.hier.fetch
        data_access = self._data_access
        fetch_width = self._fetch_width
        commit_width = self._commit_width
        mispredict_penalty = self._mispredict_penalty
        ready = self._ready
        pools = self._fu_pools
        ring = self._commit_ring
        ring_size = self._ring_size

        # engine scalar state, local for the whole window
        pos = self._pos
        halted = self._halted
        last_vpn = self._last_vpn
        last_pfn = self._last_pfn
        last_fetch_block = self._last_fetch_block
        il1_bulk = self._il1_bulk_hits
        base_structural = self._base_structural
        prev_outcome = self._prev_outcome
        fetch_clock = self._fetch_clock
        commit_cycle = self._commit_cycle
        commit_slots = self._commit_slots
        group_remaining = self._group_remaining
        group_block = self._group_block
        group_count = self._group_count
        ring_pos = self._ring_pos
        # latency a load or store adds to its own step; the timing
        # loop zeroes it after the step, so it is 0 between steps
        extra_lat = 0

        # shared counters, local for the whole window
        c_instructions = 0
        c_boundary = 0
        c_loads = 0
        c_stores = 0
        c_branches = 0
        c_taken = 0
        c_cross_branch = 0
        c_cross_boundary = 0

        useful = 0
        try:
            while useful < budget and not halted:
                if pos >= n_records:
                    if resume:
                        resume = False
                    else:
                        self._replay_lookups()
                        nxt = source.next_window()
                        if nxt is None:
                            raise trace_exhausted(win_base + pos)
                        win_base += n_records
                        cols = nxt
                        pos = 0
                    tables = cols.tables
                    s_pc = tables.pc
                    s_kind = tables.kind
                    s_src1 = tables.src1
                    s_src2 = tables.src2
                    s_src3 = tables.src3
                    s_dst = tables.dst
                    s_lat = tables.lat
                    s_boundary = tables.boundary
                    s_target = tables.target
                    idxs = cols.index
                    auxs = cols.aux
                    find_event = cols.events.find
                    n_records = cols.steps
                    continue

                # =================== the head ====================
                idx = idxs[pos]
                pc = s_pc[idx]
                vpn = pc >> page_shift

                # ---- page-change accounting and translation ----
                # (last_vpn starts at -1, so the first fetch is a change)
                if vpn != last_vpn:
                    page_changed = True
                    last_vpn = vpn
                    frame = frames.get(vpn)
                    if frame is None:
                        pte = page_table.translate(
                            vpn, prot=Protection.EXEC, allocate=False)
                        frame = frames[vpn] = (pte.pfn, pte.prot)
                    last_pfn = frame[0]
                    if prev_outcome is not None and prev_outcome.taken:
                        if prev_outcome.instr.is_boundary_branch:
                            c_cross_boundary += 1
                        else:
                            c_cross_branch += 1
                    else:
                        c_cross_boundary += 1
                else:
                    page_changed = False
                pa = (last_pfn << page_shift) | (pc & offset_mask)

                # ---- scheme triggers at the fetch point (non-VI-VT) ----
                if not vivt and (prev_outcome is not None or page_changed):
                    seq_boundary = not (prev_outcome is not None
                                        and prev_outcome.taken)
                    for policy in event_policies:
                        if policy.wants_lookup(vpn):
                            policy.extra_cycles += policy.serial_penalty
                            policy.lookup(
                                vpn, policy.fetch_reason(seq_boundary))
                    if base is not None and page_changed:
                        # one structural event per trigger (shared-stream
                        # driven); the fetches in between are repeats
                        base_structural += 1
                        base.extra_cycles += base.serial_penalty
                        base.lookup(vpn, LookupReason.BRANCH)

                # ---- iL1 fetch (with same-block fast path); a miss
                # stalls the front end before this step is fetched ----
                fetch_block = pa >> block_shift
                if fetch_block == last_fetch_block:
                    il1_bulk += 1
                else:
                    last_fetch_block = fetch_block
                    fetched = hier_fetch(pc, pa)
                    if not fetched.il1_hit:
                        fetch_clock += fetched.latency - 1
                        if vivt:
                            _miss_path_lookups(policies, vpn)

                # ---- retire (the static tables hold the step facts) ----
                kind = s_kind[idx]
                aux = auxs[pos]
                c_instructions += 1
                if s_boundary[idx]:
                    c_boundary += 1
                else:
                    useful += 1

                # ---- data access ----
                if kind == 6:  # LOAD: memory latency beyond a 1-cycle hit
                    extra_lat = data_access(aux, False)
                    c_loads += 1
                elif kind == 7:  # STORE: completes into the store queue
                    extra_lat = (1 + (data_access(aux, True) >> 3)
                                 - s_lat[idx])
                    c_stores += 1
                elif kind == 14:  # HALT
                    halted = True

                # ---- control resolution ----
                outcome = None
                end = pos + 1
                if 8 <= kind <= 12:
                    if kind >= 11:  # indirect: the recorded target
                        taken = True
                        next_pc = aux
                    else:
                        taken = kind != 8 or aux != 0
                        next_pc = s_target[idx] if taken else pc + 4
                    c_branches += 1
                    if taken:
                        c_taken += 1
                    instr = instrs[idx]
                    outcome = predictor_observe(pc, instr, taken, next_pc)
                    prediction = outcome.prediction
                    for policy in event_policies:
                        # on_control(outcome), unrolled
                        policy.on_predict(instr, prediction)
                        policy.on_resolve(outcome)
                elif not halted:
                    # widen over the plain steps left in this iL1 block
                    # (a block never spans pages): they hit the block
                    # just fetched and retire as useful instructions
                    limit = pos + (((pc | block_low_mask) + 1 - pc) >> 2)
                    if limit > n_records:
                        limit = n_records
                    room = end + budget - useful
                    if limit > room:
                        limit = room
                    end = find_event(1, end, limit)
                    if end < 0:
                        end = limit
                    n = end - pos - 1
                    il1_bulk += n
                    c_instructions += n
                    useful += n
                prev_outcome = outcome

                # =============== the timing statement ================
                vblock = pc >> block_shift
                while pos < end:
                    if group_remaining == 0 or vblock != group_block:
                        fetch_clock += 1
                        group_count += 1
                        group_remaining = fetch_width
                        group_block = vblock
                    group_remaining -= 1
                    fetch_t = fetch_clock
                    oldest = ring[ring_pos]
                    if oldest > fetch_t:
                        fetch_t = oldest
                        fetch_clock = oldest
                    issue_t = fetch_t + _FRONT_DEPTH
                    idx = idxs[pos]
                    src = ready[s_src1[idx]]
                    if src > issue_t:
                        issue_t = src
                    src = ready[s_src2[idx]]
                    if src > issue_t:
                        issue_t = src
                    # a store's value register; slot 0 (never written)
                    # for every other step
                    src = ready[s_src3[idx]]
                    if src > issue_t:
                        issue_t = src
                    pool = pools[s_kind[idx]]
                    if pool is not None:
                        best_t = pool[0]
                        if best_t > issue_t:
                            issue_t = best_t
                        heapq.heapreplace(pool, issue_t + 1)
                    complete_t = issue_t + s_lat[idx] + extra_lat
                    extra_lat = 0
                    ready[s_dst[idx]] = complete_t
                    candidate = complete_t + 1
                    if candidate > commit_cycle:
                        commit_cycle = candidate
                        commit_slots = 1
                    else:
                        commit_slots += 1
                        if commit_slots > commit_width:
                            commit_cycle += 1
                            commit_slots = 1
                    ring[ring_pos] = commit_cycle
                    ring_pos += 1
                    if ring_pos == ring_size:
                        ring_pos = 0
                    pos += 1
                if outcome is not None:
                    # a taken branch or a misprediction redirects fetch:
                    # the next step starts a new group
                    if outcome.path_diverged:
                        fetch_clock += mispredict_penalty
                        group_remaining = 0
                    elif outcome.taken:
                        group_remaining = 0
        finally:
            # write the hoisted engine state back (also on the
            # trace-exhausted raise, so the instance stays coherent)
            self._window = cols
            self._win_base = win_base
            self._pos = pos
            self._halted = halted
            self._last_vpn = last_vpn
            self._last_pfn = last_pfn
            self._last_fetch_block = last_fetch_block
            self._il1_bulk_hits = il1_bulk
            self._base_structural = base_structural
            self._prev_outcome = prev_outcome
            self._fetch_clock = fetch_clock
            self._commit_cycle = commit_cycle
            self._commit_slots = commit_slots
            self._group_remaining = group_remaining
            self._group_block = group_block
            self._group_count = group_count
            self._ring_pos = ring_pos
            shared.instructions += c_instructions
            shared.useful_instructions += useful
            shared.boundary_instructions += c_boundary
            shared.loads += c_loads
            shared.stores += c_stores
            shared.dynamic_branches += c_branches
            shared.taken_branches += c_taken
            shared.page_crossings_branch += c_cross_branch
            shared.page_crossings_boundary += c_cross_boundary
        self._replay_lookups()

    # -- data-side helper ------------------------------------------------------

    def _data_access(self, vaddr: int, is_store: bool) -> int:
        """dTLB + dL1/L2 access; returns the latency beyond a 1-cycle hit
        that the consuming load must wait for."""
        dvpn = vaddr >> self._page_shift
        stall = 0
        if dvpn == self._last_dvpn:
            self._dtlb_bulk_hits += 1
        else:
            self._last_dvpn = dvpn
            entry = self.dtlb.access(dvpn)
            if entry is None:
                prot = Protection.WRITE if is_store else Protection.READ
                pte = self.space.page_table.translate(dvpn, prot=prot)
                self.dtlb.fill(dvpn, pte.pfn, pte.prot)
                self._last_dpfn = pte.pfn
                stall += self._dtlb_penalty
                self.shared.dtlb_miss_cycles += self._dtlb_penalty
            else:
                self._last_dpfn = entry[0]
        pa = ((self._last_dpfn << self._page_shift)
              | (vaddr & self._offset_mask))
        dblock = pa >> self._dblock_shift
        if dblock == self._last_dblock:
            self._dl1_bulk_hits += 1
        else:
            self._last_dblock = dblock
            # allocated on a miss, so the block is resident from here on
            outcome = self.hier.data(vaddr, pa, is_store)
            if not outcome.dl1_hit:
                stall += outcome.latency - 1
        return stall
