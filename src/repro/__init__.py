"""repro — reproduction of Kadayif et al., "Generating Physical Addresses
Directly for Saving Instruction TLB Energy" (MICRO 2002).

The library provides, from the bottom up: a small RISC ISA with an
assembler/linker (:mod:`repro.isa`), virtual memory and TLBs
(:mod:`repro.vm`), a cache hierarchy with VI-VT/VI-PT/PI-PT iL1 addressing
(:mod:`repro.mem`), branch prediction (:mod:`repro.branch`), a CACTI-like
energy model (:mod:`repro.energy`), the paper's CFR-based iTLB policies
(:mod:`repro.core`), compiler support (:mod:`repro.compiler`), synthetic
SPEC2000-calibrated workloads with a name registry
(:mod:`repro.workloads`), two execution engines (:mod:`repro.cpu`), a
simulation facade (:mod:`repro.sim`), a parallel sweep runner with a
persistent result store (:mod:`repro.runner`), trace record/replay of
committed instruction streams (:mod:`repro.trace`), and the table/figure
reproduction harness (:mod:`repro.experiments`).

Quickstart::

    from repro import (SchemeName, default_config, load_benchmark,
                       run_all_schemes)

    config = default_config()
    run = run_all_schemes(load_benchmark("177.mesa"), config,
                          instructions=100_000, warmup=10_000)
    print(run.normalized_energy(SchemeName.IA))  # ~0.05 for VI-PT
"""

from repro.config import (
    ALL_SCHEMES,
    BranchPredictorConfig,
    CacheAddressing,
    CacheConfig,
    CoreConfig,
    EnergyConfig,
    FULL_ASSOC,
    ITLB_SWEEP,
    MachineConfig,
    MemoryConfig,
    SchemeName,
    TLBConfig,
    TwoLevelTLBConfig,
    TWO_LEVEL_MONOLITHIC_BASELINES,
    TWO_LEVEL_SWEEP,
    default_config,
    itlb_sweep_label,
)
from repro.errors import (
    AssemblyError,
    CalibrationError,
    ConfigError,
    ExecutionError,
    LayoutError,
    MemoryFault,
    ProtectionFault,
    RegistryError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.runner import JobResult, JobSpec, ResultStore, SweepRunner
from repro.trace import (
    TraceWorkload,
    load_trace,
    load_trace_workload,
    record_trace,
)
from repro.sim import CombinedRun, Simulator, attach_energy, run_all_schemes
from repro.cpu import (
    EngineResult,
    FastEngine,
    OutOfOrderEngine,
    SchemeResult,
    summarize_result,
)
from repro.workloads import (
    BENCHMARK_NAMES,
    PAPER_REFERENCE,
    SyntheticWorkload,
    WorkloadProfile,
    generate,
    load_benchmark,
    spec2000_suite,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_SCHEMES",
    "AssemblyError",
    "BENCHMARK_NAMES",
    "BranchPredictorConfig",
    "CacheAddressing",
    "CacheConfig",
    "CalibrationError",
    "CombinedRun",
    "ConfigError",
    "CoreConfig",
    "EnergyConfig",
    "EngineResult",
    "ExecutionError",
    "FULL_ASSOC",
    "FastEngine",
    "ITLB_SWEEP",
    "JobResult",
    "JobSpec",
    "LayoutError",
    "MachineConfig",
    "MemoryConfig",
    "MemoryFault",
    "OutOfOrderEngine",
    "PAPER_REFERENCE",
    "ProtectionFault",
    "RegistryError",
    "ReproError",
    "ResultStore",
    "SchemeName",
    "SchemeResult",
    "SimulationError",
    "Simulator",
    "SweepRunner",
    "SyntheticWorkload",
    "TLBConfig",
    "TWO_LEVEL_MONOLITHIC_BASELINES",
    "TWO_LEVEL_SWEEP",
    "TraceError",
    "TraceWorkload",
    "TwoLevelTLBConfig",
    "WorkloadProfile",
    "attach_energy",
    "default_config",
    "generate",
    "itlb_sweep_label",
    "load_benchmark",
    "load_trace",
    "load_trace_workload",
    "record_trace",
    "run_all_schemes",
    "spec2000_suite",
    "summarize_result",
    "__version__",
]
