"""The paper's methodology in one call.

Base, HoA, and OPT execute the plain binary; SoCA, SoLA, and IA execute
the compiler-instrumented binary (boundary branches + in-page bits).
:func:`run_all_schemes` executes a binary iff its scheme set names a
scheme of that binary, and merges the passes into a
:class:`CombinedRun`.  Every fast pass carries Base as its same-binary
normalization reference; both passes count the same *useful*
instructions, so energies and cycles are comparable (the instrumented
pass retires a few extra boundary branches for the same work — the
overhead the paper calls negligible, measured here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import MachineConfig, SchemeName
from repro.cpu.results import EngineResult, SchemeResult, SharedStats
from repro.errors import ConfigError, SimulationError
from repro.sim.simulator import run_program_grid
from repro.workloads.synthetic import SyntheticWorkload

PLAIN_SCHEMES = (SchemeName.BASE, SchemeName.HOA, SchemeName.OPT)
INSTRUMENTED_SCHEMES = (SchemeName.SOCA, SchemeName.SOLA, SchemeName.IA)


@dataclass
class CombinedRun:
    """Merged view over the plain-binary and instrumented-binary passes.

    A run that executed one binary holds its pass under both names:
    with no instrumented scheme, ``instrumented`` is ``plain``; with no
    plain scheme, ``plain`` is ``instrumented`` and :attr:`shared`
    refuses.  A fast pass holds Base beside its schemes, so each scheme
    normalizes against Base on its own binary; a detailed (``"ooo"``)
    pass holds its one scheme and no Base to normalize against."""

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
        binary, SoCA/SoLA/IA from the instrumented one; when both ran,
        the instrumented pass's normalization-only Base is shadowed)."""
        merged: Dict[SchemeName, SchemeResult] = {}
        merged.update(self.instrumented.schemes)
        merged.update(self.plain.schemes)
        return merged

    @property
    def shared(self) -> SharedStats:
        """Scheme-independent statistics (from the plain pass, matching
        the paper's Table 2 which characterizes the original binaries).
        Raises :class:`SimulationError` for a run without a plain
        binary."""
        if any(name.needs_instrumented_binary
               for name in self.plain.schemes):
            raise SimulationError(
                f"{self.workload_name}: this run executed only the "
                "instrumented binary; read instrumented.shared")
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
        from the scheme-vs-base comparison.  Every fast pass runs Base for
        this purpose; a detailed pass does not."""
        source = (self.instrumented if name.needs_instrumented_binary
                  else self.plain)
        if SchemeName.BASE not in source.schemes:
            raise SimulationError(
                f"{self.workload_name}: the {source.engine!r} pass for "
                f"{name.value} carries no Base to normalize against")
        return source.schemes[SchemeName.BASE]

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
    """Evaluation of ``schemes`` (default: every scheme) over one
    workload: a one-member :func:`run_all_schemes_grid`.

    ``workload`` is anything with a ``profile.name`` and a
    ``link(page_bytes=..., instrumented=...)`` — a generated
    :class:`SyntheticWorkload` or a replayed
    :class:`~repro.trace.replay.TraceWorkload`.  ``engine`` is passed
    through to :func:`~repro.sim.simulator.run_program_grid`.
    """
    return run_all_schemes_grid(
        workload, [config], instructions=instructions, warmup=warmup,
        schemes=schemes, engine=engine)[0]


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

    A binary is linked and executed iff ``schemes`` names a scheme of
    that binary; its pass (via
    :func:`~repro.sim.simulator.run_program_grid`) scores every member
    of ``configs`` side by side.  A fast pass also runs Base, appended
    when not selected, as its same-binary normalization reference; an
    ``"ooo"`` pass runs its one scheme.  Returns one :class:`CombinedRun`
    per config, in order, each bit-identical to a one-member call for
    its config — including the aliasing of a binary that did not run.
    """
    selected = tuple(schemes) if schemes is not None else tuple(SchemeName)
    if not selected:
        raise ConfigError("a run needs at least one scheme")
    page_bytes = configs[0].mem.page_bytes if configs else 0
    passes: Dict[bool, List[EngineResult]] = {}
    for instrumented in (False, True):
        chosen = tuple(s for s in selected
                       if s.needs_instrumented_binary == instrumented)
        if not chosen:
            continue
        if engine == "fast" and SchemeName.BASE not in chosen:
            chosen += (SchemeName.BASE,)
        program = workload.link(page_bytes=page_bytes,
                                instrumented=instrumented)
        passes[instrumented] = run_program_grid(
            program, configs, instructions=instructions, warmup=warmup,
            schemes=chosen, engine=engine)
    plain_results = passes.get(False) or passes[True]
    instr_results = passes.get(True) or plain_results

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
