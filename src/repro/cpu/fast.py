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
stream as flat ``array('q')`` columns
(:class:`~repro.trace.format.SegmentColumns`), one window at a time,
from the program's window source: a live program executes functionally
once into an in-memory segment (see
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
the detailed out-of-order engine (see ``benchmarks/test_validation.py``).
"""

from __future__ import annotations

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
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace.format import (
    COL_FLAG_BOUNDARY,
    COL_FLAG_CVTFI,
    COL_FLAG_CVTIF,
    COL_FLAG_FLW,
    COL_FLAG_FSW,
    trace_exhausted,
)
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
        self._ready_int = [0] * 32
        self._ready_fp = [0.0] * 32
        # functional-unit pools, indexed by kind_code (None = no structural
        # limit for that kind).  A flat list beats the previous dict: the
        # timing loop consults it once per retired instruction, and list
        # indexing skips the hash.
        self._fu_pools: List[Optional[List[int]]] = [None] * 15
        self._fu_pools[0] = [0] * core.int_alus        # INT_ALU
        self._fu_pools[1] = [0] * core.int_mult_div    # INT_MULT
        self._fu_pools[2] = [0] * core.int_mult_div    # INT_DIV (shares unit)
        self._fu_pools[3] = [0] * core.fp_alus         # FP_ALU
        self._fu_pools[4] = [0] * core.fp_mult_div     # FP_MULT
        self._fu_pools[5] = [0] * core.fp_mult_div     # FP_DIV
        self._fu_pools[6] = [0, 0]                     # LOAD (2 cache ports)
        self._fu_pools[7] = [0, 0]                     # STORE
        self._ring_size = core.ruu_size
        self._commit_ring = [0] * self._ring_size
        self._ring_pos = 0
        self._group_count = 0
        self._fetch_clock = 0
        self._commit_cycle = 0
        self._commit_slots = 0
        self._group_remaining = 0
        self._group_block = -1
        self._redirect = True  # first fetch starts a group

        # stream position: the window source is bound by the measured run
        self._source = None
        self._window = None  #: current window's columns (None before one)
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
        self._last_dblock_hit = False
        self._prev_outcome = None
        self._first_fetch = True
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
        """Execute ``budget`` useful instructions from the columns.

        The engine's mutable scalar state (timing clocks, stream
        trackers, shared counters) lives in frame locals for the whole
        window and is written back to the instance at its end.  The loop
        alternates two regimes:

        * a **per-event path** (page changes, control transfers, memory
          operations, HALT, and the first fetch after any of those) that
          runs the full model for one record;
        * a **run-length path** that retires whole straight-line runs of
          plain instructions (no control, no memory access) in chunks
          bounded by iL1-block and page ends: the chunk's stream
          bookkeeping is one bulk-counter update and its timing is the
          plain-instruction subset of the list-scheduling model.

        Columns come one window at a time.  When the position runs off
        the current window's end the loop top pulls the next window and
        rebinds the column locals; a run-length run truncated at a
        window boundary simply resumes on the per-event path in the next
        window, which retires a plain step bit-identically (the
        streaming equivalence suite pins this).
        """
        source = self._source
        instrs = source.instructions
        cols = self._window
        win_base = self._win_base
        # the loop top binds the column locals: first to the window an
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
        ready_int = self._ready_int
        ready_fp = self._ready_fp
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
        first_fetch = self._first_fetch
        base_structural = self._base_structural
        prev_outcome = self._prev_outcome
        redirect = self._redirect
        fetch_clock = self._fetch_clock
        commit_cycle = self._commit_cycle
        commit_slots = self._commit_slots
        group_remaining = self._group_remaining
        group_block = self._group_block
        group_count = self._group_count
        ring_pos = self._ring_pos

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
                    pcs = cols.pc
                    nexts = cols.next_pc
                    kinds = cols.kind
                    auxs = cols.aux
                    rss = cols.rs
                    rts = cols.rt
                    rds = cols.rd
                    lats = cols.latency
                    flagss = cols.flags
                    idxs = cols.index
                    runs = cols.run
                    n_records = cols.steps
                    continue

                # =================== per-event path ====================
                pc = pcs[pos]
                vpn = pc >> page_shift

                # ---- page-change accounting and translation ----
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
                if not vivt and (prev_outcome is not None or page_changed
                                 or first_fetch):
                    seq_boundary = not (prev_outcome is not None
                                        and prev_outcome.taken)
                    for policy in event_policies:
                        if policy.wants_lookup(vpn):
                            policy.extra_cycles += policy.serial_penalty
                            policy.lookup(
                                vpn, policy.fetch_reason(seq_boundary))
                    if base is not None and (page_changed or first_fetch):
                        # one structural event per trigger (shared-stream
                        # driven); the fetches in between are repeats
                        base_structural += 1
                        base.extra_cycles += base.serial_penalty
                        base.lookup(vpn, LookupReason.BRANCH)
                first_fetch = False

                # ---- iL1 fetch (with same-block fast path) ----
                fetch_block = pa >> block_shift
                fetch_stall = 0
                if fetch_block == last_fetch_block:
                    il1_bulk += 1
                else:
                    last_fetch_block = fetch_block
                    fetched = hier_fetch(pc, pa)
                    if not fetched.il1_hit:
                        fetch_stall = fetched.latency - 1
                        if vivt:
                            _miss_path_lookups(policies, vpn)

                # ---- retire (the columns hold the step facts) ----
                kind = kinds[pos]
                aux = auxs[pos]
                flags = flagss[pos]
                c_instructions += 1
                if flags & COL_FLAG_BOUNDARY:
                    c_boundary += 1
                else:
                    useful += 1

                # ---- data access ----
                mem_stall = 0
                if kind == 6:  # LOAD
                    mem_stall = data_access(aux, False)
                    c_loads += 1
                elif kind == 7:  # STORE
                    mem_stall = data_access(aux, True)
                    c_stores += 1
                elif kind == 14:  # HALT
                    halted = True

                # ---- control resolution ----
                outcome = None
                if 8 <= kind <= 12:
                    instr = instrs[idxs[pos]]
                    taken = kind != 8 or aux != 0
                    c_branches += 1
                    if taken:
                        c_taken += 1
                    outcome = predictor_observe(pc, instr, taken,
                                                nexts[pos])
                    prediction = outcome.prediction
                    for policy in event_policies:
                        # on_control(outcome), unrolled
                        policy.on_predict(instr, prediction)
                        policy.on_resolve(outcome)
                prev_outcome = outcome

                # ---- timing ----
                vblock = pc >> block_shift
                if redirect or group_remaining == 0 or vblock != group_block:
                    fetch_clock += 1
                    group_count += 1
                    group_remaining = fetch_width
                    group_block = vblock
                    redirect = False
                group_remaining -= 1
                if fetch_stall:
                    fetch_clock += fetch_stall
                fetch_t = fetch_clock
                oldest = ring[ring_pos]
                if oldest > fetch_t:
                    fetch_t = oldest
                    fetch_clock = oldest
                issue_t = fetch_t + _FRONT_DEPTH
                rs = rss[pos]
                rt = rts[pos]
                rd = rds[pos]
                # ready_int[0] is invariantly 0 (int-file writes are
                # guarded by ``if rd:``), so r0 sources read directly
                if 3 <= kind <= 5:  # FP ops read the FP file
                    if flags & COL_FLAG_CVTIF:
                        src1 = ready_int[rs]
                    else:
                        src1 = ready_fp[rs]
                    src2 = ready_fp[rt]
                    if src1 > issue_t:
                        issue_t = src1
                    if src2 > issue_t:
                        issue_t = src2
                else:
                    src1 = ready_int[rs]
                    src2 = ready_int[rt]
                    if src1 > issue_t:
                        issue_t = src1
                    if src2 > issue_t:
                        issue_t = src2
                    if kind == 7 and rd:  # stores also read the value
                        src3 = (ready_fp[rd] if flags & COL_FLAG_FSW
                                else ready_int[rd])
                        if src3 > issue_t:
                            issue_t = src3
                pool = pools[kind]
                if pool is not None:
                    best_t = min(pool)
                    if best_t > issue_t:
                        issue_t = best_t
                    pool[pool.index(best_t)] = issue_t + 1
                latency = lats[pos]
                if kind == 6:  # load: memory latency beyond a 1-cycle hit
                    latency += mem_stall
                elif kind == 7:
                    latency = 1  # stores complete into the store queue
                    if mem_stall:
                        latency += mem_stall >> 3
                complete_t = issue_t + latency
                if 3 <= kind <= 5:
                    if flags & COL_FLAG_CVTFI:
                        if rd:
                            ready_int[rd] = complete_t
                    else:
                        ready_fp[rd] = complete_t
                elif kind == 6:  # loads (FLW fills the FP file)
                    if flags & COL_FLAG_FLW:
                        ready_fp[rd] = complete_t
                    elif rd:
                        ready_int[rd] = complete_t
                elif kind <= 2:
                    if rd:
                        ready_int[rd] = complete_t
                elif kind == 10 or kind == 12:  # calls write ra
                    ready_int[31] = complete_t
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
                if outcome is not None:
                    if outcome.path_diverged:
                        fetch_clock += mispredict_penalty
                        redirect = True
                    elif outcome.taken:
                        redirect = True
                pos += 1

                # =================== run-length path ===================
                # After an event-free step the stream is straight-line
                # plain instructions until the next event; retire the
                # whole run in chunks bounded by iL1-block/page ends.
                if outcome is not None or halted or useful >= budget:
                    continue
                if pos >= n_records:
                    continue
                run = runs[pos]
                if run == 0:
                    continue
                remaining = budget - useful
                if run > remaining:
                    run = remaining

                while run > 0:
                    pc = pcs[pos]
                    if pc >> page_shift != last_vpn:
                        break  # sequential crossing: event path handles it
                    # chunk ends at the iL1 block (or page) boundary;
                    # within a page the physical and virtual boundaries
                    # coincide
                    room = ((pc | block_low_mask) + 1 - pc) >> 2
                    page_room = ((pc | offset_mask) + 1 - pc) >> 2
                    if page_room < room:
                        room = page_room
                    n = run if run < room else room
                    pa = (last_pfn << page_shift) | (pc & offset_mask)
                    fetch_block = pa >> block_shift
                    fs = 0
                    if fetch_block == last_fetch_block:
                        il1_bulk += n
                    else:
                        last_fetch_block = fetch_block
                        fetched = hier_fetch(pc, pa)
                        il1_bulk += n - 1
                        if not fetched.il1_hit:
                            fs = fetched.latency - 1
                            if vivt:
                                # the chunk never leaves last_vpn's page
                                _miss_path_lookups(policies, last_vpn)
                    vblock = pc >> block_shift

                    # ---- plain-instruction timing (the subset of the
                    # model reachable with no memory stall, no control
                    # outcome, and no redirect pending) ----
                    end = pos + n
                    while pos < end:
                        if group_remaining == 0 or vblock != group_block:
                            fetch_clock += 1
                            group_count += 1
                            group_remaining = fetch_width
                            group_block = vblock
                        group_remaining -= 1
                        if fs:
                            fetch_clock += fs
                            fs = 0
                        fetch_t = fetch_clock
                        oldest = ring[ring_pos]
                        if oldest > fetch_t:
                            fetch_t = oldest
                            fetch_clock = oldest
                        issue_t = fetch_t + _FRONT_DEPTH
                        kind = kinds[pos]
                        rs = rss[pos]
                        rt = rts[pos]
                        if 3 <= kind <= 5:  # FP ops read the FP file
                            if flagss[pos] & COL_FLAG_CVTIF:
                                src1 = ready_int[rs]
                            else:
                                src1 = ready_fp[rs]
                            src2 = ready_fp[rt]
                        else:
                            src1 = ready_int[rs]
                            src2 = ready_int[rt]
                        if src1 > issue_t:
                            issue_t = src1
                        if src2 > issue_t:
                            issue_t = src2
                        pool = pools[kind]
                        if pool is not None:
                            best_t = min(pool)
                            if best_t > issue_t:
                                issue_t = best_t
                            pool[pool.index(best_t)] = issue_t + 1
                        complete_t = issue_t + lats[pos]
                        rd = rds[pos]
                        if 3 <= kind <= 5:
                            if flagss[pos] & COL_FLAG_CVTFI:
                                if rd:
                                    ready_int[rd] = complete_t
                            else:
                                ready_fp[rd] = complete_t
                        elif kind <= 2:
                            if rd:
                                ready_int[rd] = complete_t
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

                    c_instructions += n
                    useful += n
                    run -= n
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
            self._first_fetch = first_fetch
            self._base_structural = base_structural
            self._prev_outcome = prev_outcome
            self._redirect = redirect
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
        if dblock == self._last_dblock and self._last_dblock_hit:
            self._dl1_bulk_hits += 1
        else:
            self._last_dblock = dblock
            outcome = self.hier.data(vaddr, pa, is_store)
            self._last_dblock_hit = True  # allocated on miss: now resident
            if not outcome.dl1_hit:
                stall += outcome.latency - 1
        return stall
