"""The Simulator facade.

Wraps engine construction, execution, and energy attachment behind one
call.  Energy attachment applies the paper's accounting (Section 4.3.1):

* every scheme pays ``lookups * E_a + misses * E_m`` on its iTLB;
* HoA additionally pays one VPN comparator per fetched instruction;
* CFR register reads and IA's BTB-output compare are charged only when
  the corresponding :class:`~repro.config.EnergyConfig` switches are on
  (the paper leaves them out; the extensions experiment turns them on).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro import telemetry
from repro.config import MachineConfig, SchemeName, default_config
from repro.cpu.fast import FastEngine
from repro.cpu.grid import MultiConfigEngine
from repro.cpu.ooo import OutOfOrderEngine
from repro.cpu.results import EngineResult
from repro.energy.accounting import itlb_energy_nj
from repro.energy.cacti import CactiLikeModel
from repro.errors import ConfigError
from repro.isa.program import Program

#: engine names accepted by :meth:`Simulator.run_program` (and therefore
#: by :func:`~repro.sim.multi.run_all_schemes` and JobSpecs)
ENGINE_NAMES = ("fast", "ooo")


def unknown_engine(engine: str) -> str:
    """The message for an engine name outside :data:`ENGINE_NAMES`."""
    return (f"unknown engine {engine!r} (engines: "
            f"{', '.join(ENGINE_NAMES)})")


def attach_energy(result: EngineResult,
                  model: Optional[CactiLikeModel] = None) -> EngineResult:
    """Fill ``SchemeResult.energy`` for every scheme in ``result``."""
    config = result.config
    if model is None:
        model = CactiLikeModel(config.energy)
    for scheme in result.schemes.values():
        counters = scheme.counters
        if config.itlb_two_level is not None:
            scheme.energy = itlb_energy_nj(
                model,
                two_level=config.itlb_two_level,
                lookups=counters.lookups,
                l2_probes=counters.l2_probes,
                misses=counters.misses,
                comparator_ops=counters.comparator_ops,
                cfr_reads=counters.cfr_reads,
                btb_compares=counters.btb_compares,
            )
        else:
            scheme.energy = itlb_energy_nj(
                model,
                mono=config.itlb,
                lookups=counters.lookups,
                misses=counters.misses,
                comparator_ops=counters.comparator_ops,
                cfr_reads=counters.cfr_reads,
                btb_compares=counters.btb_compares,
            )
    return result


def run_program_grid(program: Program, configs: Sequence[MachineConfig], *,
                     instructions: int, warmup: int = 0,
                     schemes: Optional[Sequence[SchemeName]] = None,
                     engine: str = "fast") -> List[EngineResult]:
    """Simulate ``program`` once and score every config in ``configs``.

    The grid evaluator shares one fast-engine pass, so ``engine`` must
    be ``"fast"``.  Returns one energy-attached result per config, in
    order, each bit-identical to the result :meth:`Simulator.run_program`
    would produce for that config alone.
    """
    if engine != "fast":
        raise ConfigError(
            f"grid evaluation shares one fast-engine pass; engine "
            f"'{engine}' cannot share a pass across configs")
    if not configs:
        raise ConfigError("a config grid needs at least one member")
    if program.page_bytes != configs[0].mem.page_bytes:
        raise ConfigError(
            f"program linked for {program.page_bytes}-byte pages but "
            f"machine uses {configs[0].mem.page_bytes}-byte pages"
        )
    started = time.perf_counter()
    results = MultiConfigEngine(program, configs,
                                schemes=schemes).run_grid(instructions,
                                                          warmup)
    elapsed = time.perf_counter() - started
    retired = results[0].shared.instructions
    telemetry.note_engine("fast", elapsed, retired)
    telemetry.emit("engine.grid", level="debug", workload=program.name,
                   evaluator="fast", members=len(configs),
                   seconds=round(elapsed, 6), instructions=retired)
    for result in results:
        attach_energy(result, CactiLikeModel(result.config.energy))
    return results


class Simulator:
    """Run programs under a machine configuration."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config if config is not None else default_config()
        self.energy_model = CactiLikeModel(self.config.energy)

    def run_program(self, program: Program, *, instructions: int,
                    warmup: int = 0,
                    schemes: Optional[Sequence[SchemeName]] = None,
                    engine: str = "fast") -> EngineResult:
        """Simulate ``program`` and return a result with energy attached.

        ``engine`` selects the evaluator (see :data:`ENGINE_NAMES`):

        * ``"fast"`` — evaluate all requested schemes in one pass over
          the program's committed stream (a live program's functional
          execution, or a replay's recorded trace);
        * ``"ooo"`` — the detailed core; exactly one scheme per pass.
        """
        if program.page_bytes != self.config.mem.page_bytes:
            raise ConfigError(
                f"program linked for {program.page_bytes}-byte pages but "
                f"machine uses {self.config.mem.page_bytes}-byte pages"
            )
        if engine == "fast":
            started = time.perf_counter()
            result = FastEngine(program, self.config,
                                schemes=schemes).run(instructions, warmup)
        elif engine == "ooo":
            selected = tuple(schemes) if schemes else (SchemeName.IA,)
            if len(selected) != 1:
                raise ConfigError(
                    "the detailed engine runs exactly one scheme per pass")
            started = time.perf_counter()
            result = OutOfOrderEngine(program, self.config,
                                      scheme=selected[0]).run(instructions,
                                                              warmup)
        else:
            raise ConfigError(unknown_engine(engine))
        elapsed = time.perf_counter() - started
        retired = result.shared.instructions
        telemetry.note_engine(engine, elapsed, retired)
        telemetry.emit("engine.run", level="debug", workload=program.name,
                       evaluator=engine, seconds=round(elapsed, 6),
                       instructions=retired)
        return attach_energy(result, self.energy_model)
