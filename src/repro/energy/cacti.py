"""CACTI-like dynamic energy model for TLB-sized structures (0.1 micron).

CACTI 2.0 itself is a large C program; what the paper consumes from it is a
handful of per-access energies.  This module models the three structure
shapes that appear in the study and calibrates their coefficients against
the per-access energies implied by the paper's Table 6 (total mJ divided by
access counts at 250M instructions):

======================  ================  ==================
structure               implied E_a       model output
======================  ================  ==================
1-entry (reg + cmp)     ~26 pJ            26.4 pJ
8-entry fully assoc     ~395 pJ           395 pJ
16-entry 2-way          ~583 pJ           583 pJ
32-entry fully assoc    ~433 pJ           433 pJ
======================  ================  ==================

Shapes:

* **CAM** (fully associative, n >= 2): every access drives the match lines
  of all n entries — energy is affine in n (`E = base + n * per_entry`),
  scaled by tag width.  The same fit extrapolates the 96- and 128-entry
  structures Figure 6 needs (534 pJ and 584 pJ).
* **RAM** (set-associative): decoder + wordline per set + per-way bitline /
  sense-amp / tag-comparator energy (`E = base + sets*per_set +
  ways*per_way`).  Note the 16-entry 2-way point sits *above* the 32-entry
  CAM — a quirk present in the paper's numbers that the model reproduces
  (small CAMs beat small RAMs at these sizes in CACTI 2.0).
* **register + comparator** (1 entry): a flip-flop read plus one VPN-width
  comparator; also provides the HoA comparator (~11 pJ) and CFR read
  (~15 pJ) primitives.

All energies are in nanojoules.
"""

from __future__ import annotations

from repro.config import EnergyConfig, TLBConfig


class CactiLikeModel:
    """Calibrated dynamic-energy model (nJ per event)."""

    # CAM (fully associative) coefficients, 20-bit tags, 24-bit payload
    _CAM_BASE_NJ = 0.3824
    _CAM_PER_ENTRY_NJ = 0.001575

    # RAM (set-associative) coefficients
    _RAM_BASE_NJ = 0.350
    _RAM_PER_SET_NJ = 0.008
    _RAM_PER_WAY_NJ = 0.0845

    # primitives
    _COMPARATOR_NJ_PER_BIT = 0.00055  # 20-bit VPN comparator ~= 11 pJ
    _REGISTER_READ_NJ_PER_BIT = 0.00035  # 44-bit CFR read ~= 15.4 pJ

    # refill (miss) energy: one entry write (no match-line search) plus a
    # fixed walk-side overhead charged to the TLB
    _REFILL_WRITE_FRACTION = 0.20
    _REFILL_FIXED_NJ = 0.05

    def __init__(self, config: EnergyConfig | None = None) -> None:
        self.config = config or EnergyConfig()
        self._tag_bits = self.config.vpn_bits
        self._payload_bits = self.config.pfn_bits + self.config.protection_bits

    # -- structure access energies ----------------------------------------------

    def tlb_access_energy(self, tlb: TLBConfig) -> float:
        """E_a for one probe of a monolithic TLB."""
        tag_scale = self._tag_bits / 20.0
        if tlb.entries == 1:
            return (self.register_read_energy(self._tag_bits + self._payload_bits)
                    + self.comparator_energy(self._tag_bits))
        if tlb.is_fully_associative:
            return (self._CAM_BASE_NJ
                    + tlb.entries * self._CAM_PER_ENTRY_NJ * tag_scale)
        return (self._RAM_BASE_NJ
                + tlb.num_sets * self._RAM_PER_SET_NJ
                + tlb.assoc * self._RAM_PER_WAY_NJ * tag_scale)

    def tlb_refill_energy(self, tlb: TLBConfig) -> float:
        """E_m: energy charged per TLB miss (entry write + walk overhead)."""
        return (self._REFILL_FIXED_NJ
                + self._REFILL_WRITE_FRACTION * self.tlb_access_energy(tlb))

    # -- primitives ------------------------------------------------------------

    def comparator_energy(self, bits: int | None = None) -> float:
        """One equality comparator (HoA's per-fetch VPN compare)."""
        return (bits if bits is not None else self._tag_bits) \
            * self._COMPARATOR_NJ_PER_BIT

    def register_read_energy(self, bits: int | None = None) -> float:
        """One CFR-sized register read."""
        if bits is None:
            bits = self._tag_bits + self._payload_bits
        return bits * self._REGISTER_READ_NJ_PER_BIT

    def btb_compare_energy(self) -> float:
        """The IA scheme's page-number compare on the BTB output (Figure 2).
        Same circuit as the HoA comparator; the paper's accounting leaves
        it out, ours can optionally charge it."""
        return self.comparator_energy(self._tag_bits)
