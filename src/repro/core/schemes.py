"""iTLB access policies (paper Section 3.3).

Every policy answers one question for the fetch engine: *does this fetch
need an iTLB lookup, or is the translation already known to be in the CFR?*
The policies differ only in how they know:

* **Base** never knows — the iTLB is exercised whenever a translation is
  due (every fetch for VI-PT/PI-PT, every iL1 miss for VI-VT).
* **OPT** knows by oracle: a lookup happens exactly on a page change.
* **HoA** compares the fetch VPN against the CFR VPN in hardware — same
  lookup stream as OPT, plus a comparator operation on every fetch.
* **SoCA** trusts only straight-line flow: any executed control
  instruction (and the compiler's page-boundary branch) invalidates its
  confidence, forcing a lookup at the next fetch.
* **SoLA** is SoCA except branches carrying the compiler's in-page bit do
  not invalidate.
* **IA** keeps compiler handling of the boundary case and consults the
  branch predictor for branches: a predicted-taken target whose BTB page
  differs from the CFR triggers an up-front lookup, and any misprediction
  triggers a lookup for the resolved path (Figure 3's cases A-D).

Deferral: with a VI-VT iL1 the trigger only marks the CFR stale
(``covered=False``); the physical lookup happens at the next iL1 fetch
miss (paper Section 3.3.1: "even if the page numbers do not match, the
iTLB is not looked up until an iL1 miss").  Policies are constructed with
``defer=True`` in that case and never look up inside ``on_control``.

Policies decide; they own no iTLB.  No decision reads whether a lookup
hit (the CFR and coverage state change the same way on a hit or a
miss), so :meth:`ITLBPolicy.lookup` only appends the looked-up VPN to
the policy's :attr:`~ITLBPolicy.column`, and the engine replays that
column through an iTLB (:meth:`repro.vm.tlb.TLB.replay`) for the misses,
level-2 probes and miss latency.  The out-of-order engine replays its
one iTLB right after each decision point, so the latency lands at the
real pipeline point; the fast engine replays once per window, through
every grid member's own iTLBs.  Lookup *streams* differ across schemes,
so each scheme's lookups go to iTLBs of its own.
"""

from __future__ import annotations

import dataclasses
from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Tuple

from repro.branch.predictor import BranchOutcome
from repro.config import MachineConfig, SchemeName
from repro.core.cfr import CFR
from repro.vm.page_table import PageTable, Protection


class LookupReason(IntEnum):
    """Why an iTLB lookup was forced (Table 3's BOUNDARY/BRANCH split)."""

    BRANCH = 0
    BOUNDARY = 1
    START = 2  #: program start / post-context-switch seed


@dataclass
class SchemeCounters:
    """Per-scheme event counters feeding the energy accounting."""

    lookups: int = 0
    branch_lookups: int = 0
    boundary_lookups: int = 0
    misses: int = 0
    l2_probes: int = 0  #: two-level iTLB only
    comparator_ops: int = 0  #: HoA's per-fetch compare
    cfr_reads: int = 0
    cfr_writes: int = 0
    btb_compares: int = 0  #: IA's compare on the BTB output
    deferred_cfr_hits: int = 0  #: VI-VT misses served by the CFR

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "SchemeCounters":
        return cls(**data)


class ITLBPolicy:
    """Common machinery; concrete schemes specialize the trigger logic."""

    name: SchemeName = SchemeName.BASE
    uses_cfr = True

    def __init__(self, config: MachineConfig, page_table: PageTable,
                 *, defer: bool = False) -> None:
        self.config = config
        self.page_table = page_table
        self.page_shift = config.mem.page_bytes.bit_length() - 1
        self.defer = defer
        self.cfr = CFR()
        self.counters = SchemeCounters()
        self.covered = False
        self.pending_reason = LookupReason.START
        #: accumulated timing cost unique to this scheme (the engines fold
        #: it into per-scheme cycle counts)
        self.extra_cycles = 0
        #: cycles a lookup adds because it serializes with the fetch path
        #: (set by the engine: 1 for PI-PT fetches and VI-VT miss-path
        #: lookups, 0 when the lookup is parallel as in VI-PT)
        self.serial_penalty = 0
        #: the looked-up VPNs, in order, for the engine to replay through
        #: an iTLB and empty; ``misses``, ``l2_probes`` and the miss
        #: latency are the replaying iTLB's to count
        self.column = array("q")

    # -- core operations -----------------------------------------------------

    def wants_lookup(self, vpn: int) -> bool:
        """Must the iTLB be consulted to translate a fetch from ``vpn``?"""
        raise NotImplementedError

    def lookup(self, vpn: int, reason: LookupReason) -> None:
        """Count an iTLB lookup, append it to :attr:`column` and refresh
        the CFR."""
        counters = self.counters
        counters.lookups += 1
        if reason is LookupReason.BOUNDARY:
            counters.boundary_lookups += 1
        else:
            counters.branch_lookups += 1
        self.column.append(vpn)
        # the frame the replay's refill will read: code pages are
        # premapped and never move
        self._refresh_cfr(vpn, self.page_table.lookup(vpn).pfn)

    def _refresh_cfr(self, vpn: int, pfn: int) -> None:
        self.cfr.load(vpn, pfn, Protection.RX)
        self.counters.cfr_writes += 1
        self.covered = True

    def serve_from_cfr(self) -> None:
        """A translation was needed and the CFR supplied it (VI-VT miss
        path with no iTLB access)."""
        self.counters.deferred_cfr_hits += 1

    def fetch_reason(self, seq_boundary: bool) -> LookupReason:
        """Why the lookup the engine is about to perform happens.  Software
        schemes carry the reason over from the invalidating branch
        (``pending_reason``); compare-based schemes derive it from how
        control arrived (overridden in :class:`OptPolicy`)."""
        return self.pending_reason

    # -- triggers ---------------------------------------------------------------
    #
    # Real hardware acts on a branch twice: when it is *fetched* (the BTB
    # prediction and the software schemes' "target incoming" signal are
    # available) and when it *resolves* (misprediction known).  The
    # out-of-order engine calls the two hooks at their real pipeline
    # points; in-order engines call :meth:`on_control`, which runs both
    # back to back.

    def on_predict(self, instr, prediction) -> None:
        """Fetch-time trigger (speculative: may run on wrong-path
        branches; squash is handled via snapshot/restore)."""

    def on_resolve(self, outcome: BranchOutcome) -> None:
        """Resolve-time trigger (misprediction outcome known)."""

    def on_control(self, outcome: BranchOutcome) -> None:
        """Called by in-order engines after every executed control
        instruction: fetch-time and resolve-time triggers back to back."""
        self.on_predict(outcome.instr, outcome.prediction)
        self.on_resolve(outcome)

    # -- speculation support -----------------------------------------------------

    def snapshot(self) -> tuple:
        """CFR-side state checkpointed with each predicted branch."""
        cfr = self.cfr
        return (cfr.vpn, cfr.pfn, cfr.valid, self.covered,
                self.pending_reason)

    def restore(self, snap: tuple) -> None:
        """Undo wrong-path pollution after a squash.  Counters are *not*
        restored: energy spent on the wrong path stays spent."""
        cfr = self.cfr
        cfr.vpn, cfr.pfn, cfr.valid, self.covered, self.pending_reason = (
            snap[0], snap[1], snap[2], snap[3], snap[4])

    def invalidate(self) -> None:
        """OS hook: page eviction or context switch makes the CFR stale."""
        self.cfr.invalidate()
        self.covered = False
        self.pending_reason = LookupReason.START

    # -- bulk accounting (fast-engine optimization) -----------------------------

    def note_repeat_hits(self, count: int) -> None:
        """Record ``count`` additional lookups that were guaranteed hits on
        the entry touched by the previous structural lookup (Base's
        same-page re-lookups).  Decision side only: the iTLB that
        translated the previous lookup counts the hits itself
        (:meth:`~repro.vm.tlb.TLB.repeat_hits`)."""
        self.counters.lookups += count
        self.counters.branch_lookups += count

    def note_fetches(self, count: int) -> None:
        """Per-fetch bookkeeping applied in bulk: CFR frame reads for
        every CFR-using scheme."""
        if self.uses_cfr:
            self.counters.cfr_reads += count


class BasePolicy(ITLBPolicy):
    """Unoptimized execution: no CFR, iTLB exercised for every due
    translation."""

    name = SchemeName.BASE
    uses_cfr = False

    def wants_lookup(self, vpn: int) -> bool:
        return True

    def _refresh_cfr(self, vpn: int, pfn: int) -> None:
        # Base has no CFR; lookups do not change coverage.
        self.covered = False


class OptPolicy(ITLBPolicy):
    """Oracle: looks up exactly when the fetched page differs from the
    CFR's page.  This is the paper's OPT lower bound — no code
    transformations, energy consumed only on an actual page change."""

    name = SchemeName.OPT

    def wants_lookup(self, vpn: int) -> bool:
        # cfr.matches(vpn), inlined: this runs per fetch-point decision
        cfr = self.cfr
        return not (cfr.valid and cfr.vpn == vpn)

    def fetch_reason(self, seq_boundary: bool) -> LookupReason:
        return (LookupReason.BOUNDARY if seq_boundary
                else LookupReason.BRANCH)


class HoAPolicy(OptPolicy):
    """Hardware-only approach: identical lookup stream to OPT, paid for
    with a VPN comparator operation on every translation decision — every
    instruction fetch under VI-PT/PI-PT (the difference between HoA and
    OPT in Figure 4), but only on the iL1 miss path under VI-VT, where
    the comparison is deferred along with the lookup (Section 3.3.1)."""

    name = SchemeName.HOA

    def wants_lookup(self, vpn: int) -> bool:
        if self.defer:
            # deferred mode: one comparison per miss-path decision
            self.counters.comparator_ops += 1
        return super().wants_lookup(vpn)

    def note_fetches(self, count: int) -> None:
        super().note_fetches(count)
        if not self.defer:
            self.counters.comparator_ops += count


class SoCAPolicy(ITLBPolicy):
    """Software-only conservative approach: every executed control
    instruction invalidates coverage, so the very next fetch (the branch's
    dynamic target — taken target or fall-through) performs a lookup.
    The compiler-inserted boundary branch funnels sequential page
    crossings through the same rule (reason=BOUNDARY)."""

    name = SchemeName.SOCA

    def wants_lookup(self, vpn: int) -> bool:
        return not self.covered

    def on_predict(self, instr, prediction) -> None:
        self.covered = False
        self.pending_reason = (LookupReason.BOUNDARY
                               if instr.is_boundary_branch
                               else LookupReason.BRANCH)


class SoLAPolicy(SoCAPolicy):
    """Software-only less conservative approach: branches whose in-page
    bit was set by the compiler are known to stay on the current page, so
    they do not invalidate coverage."""

    name = SchemeName.SOLA

    def on_predict(self, instr, prediction) -> None:
        if instr.inpage_hint:
            return
        # SoCA's trigger, inlined (this runs per executed control
        # instruction; the super() dispatch was measurable)
        self.covered = False
        self.pending_reason = (LookupReason.BOUNDARY
                               if instr.is_boundary_branch
                               else LookupReason.BRANCH)


class IAPolicy(ITLBPolicy):
    """Integrated hardware/software approach (Figures 2 and 3).

    Boundary case: compiler branch, handled like any branch below.
    Branch case, with the BTB-integrated comparator:

    * predicted taken and the BTB target's page differs from the CFR's
      VPN: look up the predicted target's page *up front* (non-deferred
      mode) — Figure 3's pre-resolution lookup;
    * any misprediction: the resolved path needs a lookup (cases B and D;
      the fetch following resolution performs it with the true VPN);
    * predicted taken, page matches, prediction correct (case A via BTB):
      nothing; predicted not-taken and correct (case A): nothing.
    """

    name = SchemeName.IA

    def wants_lookup(self, vpn: int) -> bool:
        return not self.covered

    def on_predict(self, instr, prediction) -> None:
        if not prediction.predicted_taken:
            return
        reason = (LookupReason.BOUNDARY if instr.is_boundary_branch
                  else LookupReason.BRANCH)
        self.counters.btb_compares += 1
        target_vpn = prediction.predicted_target >> self.page_shift
        if not self.cfr.matches(target_vpn):
            if self.defer:
                self.covered = False
                self.pending_reason = reason
            else:
                # the replay of this lookup supplies any miss latency
                self.extra_cycles += self.serial_penalty
                self.lookup(target_vpn, reason)

    def on_resolve(self, outcome: BranchOutcome) -> None:
        if outcome.mispredicted:
            self.covered = False
            self.pending_reason = (LookupReason.BOUNDARY
                                   if outcome.instr.is_boundary_branch
                                   else LookupReason.BRANCH)


_POLICY_CLASSES: Dict[SchemeName, type[ITLBPolicy]] = {
    SchemeName.BASE: BasePolicy,
    SchemeName.HOA: HoAPolicy,
    SchemeName.SOCA: SoCAPolicy,
    SchemeName.SOLA: SoLAPolicy,
    SchemeName.IA: IAPolicy,
    SchemeName.OPT: OptPolicy,
}


def build_policy(name: SchemeName, config: MachineConfig,
                 page_table: PageTable, *, defer: bool = False) -> ITLBPolicy:
    """Instantiate one policy."""
    return _POLICY_CLASSES[name](config, page_table, defer=defer)


def build_all_policies(config: MachineConfig, page_table: PageTable, *,
                       defer: bool = False,
                       names: Optional[Tuple[SchemeName, ...]] = None
                       ) -> List[ITLBPolicy]:
    """Instantiate a set of policies sharing one page table (the fast
    engine evaluates them side by side in a single pass)."""
    selected = names if names is not None else tuple(SchemeName)
    return [build_policy(name, config, page_table, defer=defer)
            for name in selected]
