"""Compiler support for the software schemes (paper Sections 3.3.2-3.3.4).

Three passes over programs:

* :mod:`repro.compiler.analysis` — static branch classification: which
  control instructions are statically analyzable, and which of those stay
  on their own page (the static half of the paper's Table 4);
* :mod:`repro.compiler.instrument` — produce the instrumented binary
  SoCA/SoLA/IA execute from the plain one: page-boundary branches (via
  the linker) and in-page bits on qualifying branches, and its
  committed stream, derived from the plain binary's;
* :mod:`repro.compiler.layout` — the future-work extension from the
  paper's conclusion: code layout transformations that place call-affine
  functions on the same page to increase CFR reuse.
"""

from repro.compiler.analysis import (
    BranchClass,
    StaticBranchStats,
    analyze_program,
    classify_branch,
)
from repro.compiler.instrument import (
    derive_stream,
    instrument_module,
    instrument_program,
    link_plain,
    mark_inpage_hints,
)
from repro.compiler.layout import layout_by_affinity

__all__ = [
    "BranchClass",
    "StaticBranchStats",
    "analyze_program",
    "classify_branch",
    "derive_stream",
    "instrument_module",
    "instrument_program",
    "layout_by_affinity",
    "link_plain",
    "mark_inpage_hints",
]
