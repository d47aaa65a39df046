"""Cycle-driven out-of-order engine (the Table 1 core, one scheme at a time).

A SimpleScalar-``sim-outorder``-shaped model:

* **fetch** — up to ``fetch_width``/cycle into a ``fetch_queue_size`` queue,
  following BTB/bimodal predictions; iL1 misses and serialized iTLB
  lookups stall the front end; after a misprediction enters the window the
  front end keeps fetching down the *wrong path* (touching iL1, the iTLB,
  and the CFR policy — the energy pollution the fast engine only
  approximates) until the branch resolves;
* **dispatch** — up to ``decode_width``/cycle into the RUU (unified
  window, ``ruu_size``) and LSQ; architectural execution happens here via
  the shared :class:`~repro.cpu.functional.Executor`, which also exposes
  mispredictions (wrong-path fetch entries are dropped at dispatch);
* **issue** — oldest-first, ``issue_width``/cycle, gated by operand
  readiness and functional-unit availability; loads perform their dTLB and
  cache accesses here;
* **writeback** — branches resolve; a misprediction restores the scheme's
  CFR checkpoint (counters — energy already spent — are kept), redirects
  fetch, and squashes the queue;
* **commit** — in order, ``commit_width``/cycle; stores write the cache at
  commit.

The engine runs one iTLB policy per instance so timing interactions
(PI-PT's serialized lookups, VI-VT's miss-path lookups, iTLB miss stalls)
are modelled *inside* the pipeline rather than added afterwards; the fast
engine's additive approximation is validated against this.  Right after
each decision point (fetch-point lookup, VI-VT miss-path lookup,
fetch-time branch trigger) the engine replays the policy's lookup column
through its one iTLB and stalls for the latency the replay exposed.
"""

from __future__ import annotations

from heapq import heapreplace
from typing import List, Optional

from repro.branch.predictor import FrontEndPredictor, Prediction
from repro.config import CacheAddressing, MachineConfig, SchemeName
from repro.core.schemes import ITLBPolicy, SchemeCounters, build_policy
from repro.cpu.functional import StepResult
from repro.cpu.results import EngineResult, SharedStats, scheme_result
from repro.errors import SimulationError
from repro.isa.instructions import REGISTER_SLOTS, InstrKind, register_slots
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.vm.os_model import AddressSpace
from repro.vm.page_table import Protection
from repro.vm.tlb import TLB, build_itlb

_WAITING, _ISSUED, _DONE = 0, 1, 2
_DEADLOCK_LIMIT = 50_000  #: cycles without a commit before giving up


class _FetchEntry:
    __slots__ = ("seq", "pc", "instr", "prediction", "snapshot",
                 "ready_cycle")

    def __init__(self, seq: int, pc: int, instr, prediction, snapshot,
                 ready_cycle: int) -> None:
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.prediction = prediction
        self.snapshot = snapshot
        self.ready_cycle = ready_cycle


class _RUUEntry:
    __slots__ = ("seq", "pc", "instr", "step", "deps", "dst", "state",
                 "complete_cycle", "prediction", "snapshot", "is_mem")

    def __init__(self, seq: int, step: StepResult, deps, dst: int,
                 prediction, snapshot) -> None:
        self.seq = seq
        self.pc = step.pc
        self.instr = step.instr
        self.step = step
        self.deps = deps
        self.dst = dst  #: the register slot this entry renames
        self.state = _WAITING
        self.complete_cycle = 0
        self.prediction = prediction
        self.snapshot = snapshot
        self.is_mem = step.mem_addr is not None


class OutOfOrderEngine:
    """Detailed single-scheme engine."""

    def __init__(self, program: Program, config: MachineConfig,
                 scheme: SchemeName = SchemeName.IA) -> None:
        self.program = program
        self.config = config
        self.scheme_name = scheme
        self.addressing = config.mem.il1_addressing
        self.space = AddressSpace(program)
        self.executor = program.make_executor(self.space)
        self.hier = MemoryHierarchy(config.mem)
        self.predictor = FrontEndPredictor(config.branch)
        self.dtlb = TLB(config.dtlb, name="dtlb")
        defer = self.addressing is CacheAddressing.VIVT
        self.policy: ITLBPolicy = build_policy(
            scheme, config, self.space.page_table, defer=defer)
        self.policy.serial_penalty = (
            1 if self.addressing in (CacheAddressing.PIPT,
                                     CacheAddressing.VIVT) else 0)
        self.itlb = build_itlb(config.itlb, config.itlb_two_level,
                               name=f"itlb[{scheme.value}]")

        self.shared = SharedStats()
        self._page_shift = config.mem.page_bytes.bit_length() - 1
        self._offset_mask = config.mem.page_bytes - 1
        self._dtlb_penalty = config.dtlb.miss_penalty

        core = config.core
        self._fetch_width = core.fetch_width
        self._decode_width = core.decode_width
        self._issue_width = core.issue_width
        self._commit_width = core.commit_width
        self._ruu_size = core.ruu_size
        self._lsq_size = core.lsq_size
        self._fq_size = core.fetch_queue_size

        self.cycle = 0
        self._fetch_queue: List[_FetchEntry] = []
        self._ruu: List[_RUUEntry] = []
        self._lsq_count = 0
        self._seq = 0
        self._fetch_pc = program.entry
        self._fetch_busy_until = 0
        self._wrong_from_seq: Optional[int] = None
        self._redirect_cycle: Optional[int] = None
        self._redirect_pc = 0
        self._last_fetch_predicted_taken = False
        #: the in-flight producer of each register slot
        #: (:func:`~repro.isa.instructions.register_slots`)
        self._rename: List[Optional[_RUUEntry]] = [None] * REGISTER_SLOTS
        self._last_store: Optional[_RUUEntry] = None
        #: per kind code, a heap of the cycles each unit is next free
        self._fu_busy = {kind: [0] * count
                         for kind, count in core.unit_counts().items()}
        # commit-side stream tracking (page crossings on the true stream)
        self._last_commit_vpn = -1
        self._last_commit_taken = False
        self._last_commit_boundary = False
        self._last_pfn = -1
        self._last_fetch_vpn = -1
        self._fetched_instructions = 0

    # -- public API ------------------------------------------------------------

    def run(self, instructions: int, warmup: int = 0) -> EngineResult:
        if warmup:
            self._simulate(warmup)
        self._reset_measurement()
        cycle_start = self.cycle
        self._simulate(instructions)
        measured = self.cycle - cycle_start
        return self._collect(measured)

    # -- bookkeeping -------------------------------------------------------------

    def _reset_measurement(self) -> None:
        self.shared = SharedStats()
        self.hier.reset_stats()
        self.dtlb.stats.reset()
        self.predictor.stats.reset()
        self.policy.counters = SchemeCounters()
        self.policy.extra_cycles = 0
        self.itlb.reset_stats()
        self._fetched_instructions = 0

    def _translate(self) -> int:
        """Replay the lookups the policy just decided through the iTLB,
        empty its column, and return the latency the replay exposed."""
        column = self.policy.column
        if not column:
            return 0
        itlb, penalty = self.itlb, self.config.itlb.miss_penalty
        before = itlb.latency(penalty)
        itlb.replay(column, {}, self.space.page_table)
        del column[:]
        return itlb.latency(penalty) - before

    def _collect(self, measured_cycles: int) -> EngineResult:
        shared = self.shared
        shared.base_cycles = measured_cycles
        shared.il1 = self.hier.il1.stats
        shared.dl1 = self.hier.dl1.stats
        shared.l2 = self.hier.l2.stats
        shared.dtlb = self.dtlb.stats
        shared.predictor = self.predictor.stats
        self.policy.note_fetches(self._fetched_instructions)
        result = scheme_result(self.policy, self.itlb,
                               extra_cycles=self.policy.extra_cycles,
                               cycles=measured_cycles)
        return EngineResult(
            program_name=self.program.name,
            config=self.config,
            addressing=self.addressing,
            shared=shared,
            schemes={self.scheme_name: result},
            engine="ooo",
        )

    # -- main loop -------------------------------------------------------------

    def _simulate(self, budget: int) -> None:
        committed_target = self.shared.useful_instructions + budget
        idle_cycles = 0
        while (self.shared.useful_instructions < committed_target
               and not (self.executor.halted and not self._ruu)):
            committed = self._commit_stage()
            self._writeback_stage()
            self._issue_stage()
            self._dispatch_stage()
            self._fetch_stage()
            self.cycle += 1
            idle_cycles = 0 if committed else idle_cycles + 1
            if idle_cycles > _DEADLOCK_LIMIT:
                raise SimulationError(
                    f"no commit for {_DEADLOCK_LIMIT} cycles at cycle "
                    f"{self.cycle} (pc={self.executor.pc:#x})"
                )

    # -- stages -------------------------------------------------------------

    def _commit_stage(self) -> int:
        committed = 0
        shared = self.shared
        ruu = self._ruu
        while (committed < self._commit_width and ruu
               and ruu[0].state == _DONE
               and ruu[0].complete_cycle < self.cycle):
            entry = ruu.pop(0)
            committed += 1
            step = entry.step
            if entry.is_mem:
                self._lsq_count -= 1
                if step.is_store:
                    pa = self._data_pa(step.mem_addr, for_store=True)
                    self.hier.data(step.mem_addr, pa, write=True)
                    shared.stores += 1
                else:
                    shared.loads += 1
            shared.instructions += 1
            if step.instr.is_boundary_branch:
                shared.boundary_instructions += 1
            else:
                shared.useful_instructions += 1
            if step.instr.is_control:
                shared.dynamic_branches += 1
                if step.taken:
                    shared.taken_branches += 1
            # page crossings on the committed stream
            vpn = step.pc >> self._page_shift
            if vpn != self._last_commit_vpn and self._last_commit_vpn >= 0:
                if self._last_commit_taken and not self._last_commit_boundary:
                    shared.page_crossings_branch += 1
                else:
                    shared.page_crossings_boundary += 1
            self._last_commit_vpn = vpn
            self._last_commit_taken = step.instr.is_control and step.taken
            self._last_commit_boundary = step.instr.is_boundary_branch
            # clear the one rename slot this entry set, unless a later
            # producer of that register has taken it since
            if self._rename[entry.dst] is entry:
                self._rename[entry.dst] = None
            if self._last_store is entry:
                self._last_store = None
        return committed

    def _writeback_stage(self) -> None:
        for entry in self._ruu:
            if entry.state != _ISSUED or entry.complete_cycle > self.cycle:
                continue
            entry.state = _DONE
            instr = entry.instr
            if not instr.is_control:
                continue
            step = entry.step
            outcome = self.predictor.train(entry.pc, instr, entry.prediction,
                                           step.taken, step.next_pc)
            if outcome.path_diverged:
                # squash: restore the CFR checkpoint taken at this branch's
                # fetch, then apply the resolve-time trigger and redirect
                self.policy.restore(entry.snapshot)
                self.policy.on_resolve(outcome)
                self._redirect_cycle = self.cycle + 1
                self._redirect_pc = step.next_pc
            else:
                self.policy.on_resolve(outcome)

    def _issue_stage(self) -> None:
        issued = 0
        cycle = self.cycle
        for entry in self._ruu:
            if issued >= self._issue_width:
                break
            if entry.state != _WAITING:
                continue
            ready = True
            for dep in entry.deps:
                if dep.state == _WAITING or dep.complete_cycle > cycle:
                    ready = False
                    break
            if not ready:
                continue
            kind = entry.instr.kind_code
            pool = self._fu_busy.get(kind)
            if pool is not None:
                if pool[0] > cycle:
                    continue  # structural hazard: no unit free
                heapreplace(pool, cycle + 1)
            latency = entry.instr.op.latency
            if kind == int(InstrKind.LOAD):
                latency += self._load_latency(entry.step)
            elif kind == int(InstrKind.STORE):
                latency = 1
            entry.state = _ISSUED
            entry.complete_cycle = cycle + latency
            issued += 1

    def _load_latency(self, step: StepResult) -> int:
        """dTLB + dL1/L2/DRAM latency beyond the 1-cycle hit."""
        vaddr = step.mem_addr
        dvpn = vaddr >> self._page_shift
        extra = 0
        entry = self.dtlb.access(dvpn)
        if entry is None:
            pte = self.space.page_table.translate(dvpn, prot=Protection.READ)
            self.dtlb.fill(dvpn, pte.pfn, pte.prot)
            pfn = pte.pfn
            extra += self._dtlb_penalty
            self.shared.dtlb_miss_cycles += self._dtlb_penalty
        else:
            pfn = entry[0]
        pa = (pfn << self._page_shift) | (vaddr & self._offset_mask)
        outcome = self.hier.data(vaddr, pa, write=False)
        return extra + outcome.latency - 1

    def _data_pa(self, vaddr: int, for_store: bool) -> int:
        dvpn = vaddr >> self._page_shift
        entry = self.dtlb.access(dvpn)
        if entry is None:
            prot = Protection.WRITE if for_store else Protection.READ
            pte = self.space.page_table.translate(dvpn, prot=prot)
            self.dtlb.fill(dvpn, pte.pfn, pte.prot)
            pfn = pte.pfn
        else:
            pfn = entry[0]
        return (pfn << self._page_shift) | (vaddr & self._offset_mask)

    def _dispatch_stage(self) -> None:
        dispatched = 0
        cycle = self.cycle
        while dispatched < self._decode_width and self._fetch_queue:
            head = self._fetch_queue[0]
            if head.ready_cycle > cycle:
                break
            if (self._wrong_from_seq is not None
                    and head.seq > self._wrong_from_seq):
                # wrong-path instruction: consumes a dispatch slot, never
                # enters the window
                self._fetch_queue.pop(0)
                dispatched += 1
                continue
            if len(self._ruu) >= self._ruu_size:
                break
            if self.executor.halted:
                self._fetch_queue.pop(0)
                dispatched += 1
                continue
            if head.pc != self.executor.pc:
                raise SimulationError(
                    f"dispatch desync: fetch entry pc={head.pc:#x} but "
                    f"executor pc={self.executor.pc:#x}"
                )
            is_mem = head.instr.is_mem
            if is_mem and self._lsq_count >= self._lsq_size:
                break
            self._fetch_queue.pop(0)
            dispatched += 1
            step = self.executor.step()
            *sources, dst = register_slots(step.instr)
            rename = self._rename
            deps = [rename[slot] for slot in sources
                    if rename[slot] is not None]
            entry = _RUUEntry(head.seq, step, deps, dst, head.prediction,
                              head.snapshot)
            self._ruu.append(entry)
            if is_mem:
                self._lsq_count += 1
                if step.is_store:
                    self._last_store = entry
                elif self._last_store is not None:
                    entry.deps.append(self._last_store)
            rename[dst] = entry
            if step.instr.is_control and head.prediction is not None:
                predicted_next = (head.prediction.predicted_target
                                  if head.prediction.predicted_taken
                                  else step.pc + 4)
                if predicted_next != step.next_pc:
                    # misprediction discovered architecturally; the fetch
                    # engine keeps running down the predicted (wrong) path
                    # until this branch resolves in writeback
                    self._wrong_from_seq = head.seq

    def _fetch_stage(self) -> None:
        cycle = self.cycle
        if self._redirect_cycle is not None and cycle >= self._redirect_cycle:
            self._fetch_queue.clear()
            self._fetch_pc = self._redirect_pc
            self._wrong_from_seq = None
            self._redirect_cycle = None
            self._last_fetch_predicted_taken = True  # redirect starts a group
        if cycle < self._fetch_busy_until or self.executor.halted:
            return
        policy = self.policy
        vivt = self.addressing is CacheAddressing.VIVT
        slots = self._fetch_width
        while slots > 0 and len(self._fetch_queue) < self._fq_size:
            pc = self._fetch_pc
            if not self.program.contains_text(pc):
                break  # wrong path ran off the text segment; wait for redirect
            vpn = pc >> self._page_shift
            seq_boundary = not self._last_fetch_predicted_taken
            first_slot = slots == self._fetch_width
            stall = 0  #: group-ending stalls (cache/iTLB misses)
            serial_stall = 0  #: PI-PT translate-before-index bubble:
            # delays the next group but does not break this one
            # -- iTLB / CFR at the fetch point --
            if not vivt and policy.wants_lookup(vpn):
                policy.lookup(vpn, policy.fetch_reason(seq_boundary))
                stall += self._translate()
                if first_slot:
                    serial_stall = policy.serial_penalty
            pte = self.space.page_table.translate(vpn, prot=Protection.EXEC,
                                                  allocate=False)
            pa = (pte.pfn << self._page_shift) | (pc & self._offset_mask)
            outcome = self.hier.fetch(pc, pa)
            if not outcome.il1_hit:
                stall += outcome.latency - 1
                if vivt:
                    if policy.wants_lookup(vpn):
                        policy.lookup(vpn, policy.fetch_reason(seq_boundary))
                        stall += policy.serial_penalty + self._translate()
                    else:
                        policy.serve_from_cfr()
            ready = cycle + stall
            instr = self.program.fetch(pc)
            self._fetched_instructions += 1
            prediction: Optional[Prediction] = None
            snapshot = None
            predicted_taken = False
            if instr.is_control:
                snapshot = policy.snapshot()
                prediction = self.predictor.predict(pc, instr)
                before = policy.extra_cycles
                policy.on_predict(instr, prediction)
                policy.extra_cycles += self._translate()
                stall += policy.extra_cycles - before
                predicted_taken = prediction.predicted_taken
            entry = _FetchEntry(self._seq, pc, instr, prediction, snapshot,
                                ready)
            self._seq += 1
            self._fetch_queue.append(entry)
            slots -= 1
            self._last_fetch_predicted_taken = predicted_taken
            if stall or serial_stall:
                # stall cycles are bubbles: next fetch at cycle+1+stall
                self._fetch_busy_until = max(
                    self._fetch_busy_until,
                    cycle + 1 + stall + serial_stall)
            if predicted_taken:
                self._fetch_pc = prediction.predicted_target
                break  # taken prediction ends the fetch group
            self._fetch_pc = pc + 4
            if stall:
                break  # miss-type stalls end the group
