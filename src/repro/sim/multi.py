"""The paper's methodology in one call.

Base, HoA, and OPT execute the plain binary; SoCA, SoLA, and IA execute
the compiler-instrumented binary (boundary branches + in-page bits).
:func:`run_all_schemes` performs the two passes over the same workload and
merges them into a :class:`CombinedRun`, which also remembers the *useful*
instruction count both passes share so energies and cycles are comparable
(the instrumented pass retires a few extra boundary branches for the same
work — the overhead the paper calls negligible, measured here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import MachineConfig, SchemeName
from repro.cpu.results import EngineResult, SchemeResult, SharedStats
from repro.sim.simulator import Simulator, run_program_grid
from repro.workloads.synthetic import SyntheticWorkload

PLAIN_SCHEMES = (SchemeName.BASE, SchemeName.HOA, SchemeName.OPT)
INSTRUMENTED_SCHEMES = (SchemeName.SOCA, SchemeName.SOLA, SchemeName.IA)


@dataclass
class CombinedRun:
    """Merged view over the plain-binary and instrumented-binary passes."""

    workload_name: str
    config: MachineConfig
    plain: EngineResult
    instrumented: EngineResult

    def scheme(self, name: SchemeName) -> SchemeResult:
        """The scheme's result from whichever binary it runs on."""
        if name in self.plain.schemes:
            return self.plain.schemes[name]
        return self.instrumented.schemes[name]

    @property
    def schemes(self) -> Dict[SchemeName, SchemeResult]:
        """Every scheme's canonical result (Base/HoA/OPT from the plain
        binary, SoCA/SoLA/IA from the instrumented one; the instrumented
        pass's normalization-only Base copy is shadowed)."""
        merged: Dict[SchemeName, SchemeResult] = {}
        merged.update(self.instrumented.schemes)
        merged.update(self.plain.schemes)
        return merged

    @property
    def shared(self) -> SharedStats:
        """Scheme-independent statistics (from the plain pass, matching
        the paper's Table 2 which characterizes the original binaries)."""
        return self.plain.shared

    @property
    def boundary_overhead_fraction(self) -> float:
        """Extra dynamic instructions the instrumentation added."""
        inst = self.instrumented.shared
        if not inst.useful_instructions:
            return 0.0
        return inst.boundary_instructions / inst.useful_instructions

    # -- normalized views (what Figures 4 and 5 plot) ----------------------

    def _base_for(self, name: SchemeName) -> SchemeResult:
        """Base from the *same binary* the scheme ran on.  The plain and
        instrumented binaries have slightly different layouts (hence cache
        behaviour); normalizing within a binary removes that layout noise
        from the scheme-vs-base comparison.  Both passes run Base for this
        purpose."""
        source = (self.instrumented if name.needs_instrumented_binary
                  else self.plain)
        if SchemeName.BASE in source.schemes:
            return source.schemes[SchemeName.BASE]
        return self.scheme(SchemeName.BASE)

    def normalized_energy(self, name: SchemeName) -> float:
        """iTLB energy of ``name`` relative to Base (same iL1 addressing,
        same binary)."""
        base = self._base_for(name).energy.total_nj
        if base == 0.0:
            return 0.0
        return self.scheme(name).energy.total_nj / base

    def normalized_cycles(self, name: SchemeName) -> float:
        base = self._base_for(name).cycles
        if base == 0:
            return 0.0
        return self.scheme(name).cycles / base

    # -- serialization (the runner's ResultStore persists these) -----------

    def to_dict(self) -> dict:
        """Plain-JSON view of the run (inverse of :meth:`from_dict`).

        When no instrumented scheme was requested ``instrumented`` aliases
        ``plain``; that aliasing is encoded as ``None`` and restored on
        reconstruction.
        """
        return {
            "workload_name": self.workload_name,
            "config": self.config.to_dict(),
            "plain": self.plain.to_dict(),
            "instrumented": (None if self.instrumented is self.plain
                             else self.instrumented.to_dict()),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CombinedRun":
        plain = EngineResult.from_dict(data["plain"])
        instrumented = data["instrumented"]
        return cls(
            workload_name=data["workload_name"],
            config=MachineConfig.from_dict(data["config"]),
            plain=plain,
            instrumented=(plain if instrumented is None
                          else EngineResult.from_dict(instrumented)),
        )


def run_all_schemes(
    workload: SyntheticWorkload,
    config: MachineConfig,
    *,
    instructions: int,
    warmup: int = 0,
    schemes: Optional[Sequence[SchemeName]] = None,
    engine: str = "fast",
) -> CombinedRun:
    """Two-pass evaluation of every scheme over one workload.

    ``workload`` is anything with a ``profile.name`` and a
    ``link(page_bytes=..., instrumented=...)`` — a generated
    :class:`SyntheticWorkload` or a replayed
    :class:`~repro.trace.replay.TraceWorkload`.

    ``engine`` is passed through to
    :meth:`~repro.sim.simulator.Simulator.run_program`.
    """
    selected = tuple(schemes) if schemes is not None else tuple(SchemeName)
    plain_set = tuple(s for s in selected if not s.needs_instrumented_binary)
    instr_set = tuple(s for s in selected if s.needs_instrumented_binary)
    simulator = Simulator(config)
    page_bytes = config.mem.page_bytes

    plain_program = workload.link(page_bytes=page_bytes, instrumented=False)
    plain_result = simulator.run_program(
        plain_program, instructions=instructions, warmup=warmup,
        schemes=plain_set or (SchemeName.BASE,), engine=engine)

    if instr_set:
        instr_program = workload.link(page_bytes=page_bytes,
                                      instrumented=True)
        # Base rides along on the instrumented binary purely as the
        # same-binary normalization reference (see CombinedRun._base_for)
        instr_result = simulator.run_program(
            instr_program, instructions=instructions, warmup=warmup,
            schemes=instr_set + (SchemeName.BASE,), engine=engine)
    else:
        instr_result = plain_result

    return CombinedRun(
        workload_name=workload.profile.name,
        config=config,
        plain=plain_result,
        instrumented=instr_result,
    )


def run_all_schemes_grid(
    workload: SyntheticWorkload,
    configs: Sequence[MachineConfig],
    *,
    instructions: int,
    warmup: int = 0,
    schemes: Optional[Sequence[SchemeName]] = None,
    engine: str = "fast",
) -> List[CombinedRun]:
    """:func:`run_all_schemes` for a whole config grid in shared passes.

    One plain-binary pass (and, when instrumented schemes are selected,
    one instrumented-binary pass) scores every member of ``configs``
    side by side via :func:`~repro.sim.simulator.run_program_grid`.
    Returns one :class:`CombinedRun` per config, in order, each
    bit-identical to an independent :func:`run_all_schemes` call —
    including the instrumented-aliases-plain object identity when no
    instrumented scheme is requested.
    """
    selected = tuple(schemes) if schemes is not None else tuple(SchemeName)
    plain_set = tuple(s for s in selected if not s.needs_instrumented_binary)
    instr_set = tuple(s for s in selected if s.needs_instrumented_binary)
    page_bytes = configs[0].mem.page_bytes if configs else 0

    plain_program = workload.link(page_bytes=page_bytes, instrumented=False)
    plain_results = run_program_grid(
        plain_program, configs, instructions=instructions, warmup=warmup,
        schemes=plain_set or (SchemeName.BASE,), engine=engine)

    if instr_set:
        instr_program = workload.link(page_bytes=page_bytes,
                                      instrumented=True)
        # Base rides along on the instrumented binary purely as the
        # same-binary normalization reference (see CombinedRun._base_for)
        instr_results = run_program_grid(
            instr_program, configs, instructions=instructions,
            warmup=warmup, schemes=instr_set + (SchemeName.BASE,),
            engine=engine)
    else:
        instr_results = plain_results

    return [
        CombinedRun(
            workload_name=workload.profile.name,
            config=config,
            plain=plain,
            instrumented=instr,
        )
        for config, plain, instr in zip(configs, plain_results,
                                        instr_results)
    ]
