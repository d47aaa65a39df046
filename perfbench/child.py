"""One fresh process of the benchmark.

Usage: ``python3 perfbench/child.py <spec.json> <spawn time>`` with
``PYTHONPATH`` naming the package's ``src``; the spawn time is the
parent's ``time.perf_counter()`` just before it started this process.
The spec's ``mode`` picks the work:

``setup``    generate the seeded stand-ins and record the traces the
             replay workloads read (one setup = one process);
``verify``   untimed reference results: grid members against solo
             jobs, eager decode of the long trace;
``iterate``  one timed run of the workload, digests of every result;
``ablate``   engine passes with parts switched off, best of a few,
             which split engine time in the traced run.

With ``traced`` set, :func:`layers.install` wraps the layer
boundaries first and the spans go out with the result.  The result is
written to ``spec["out"]`` as JSON; the process then ends with
``os._exit`` so interpreter teardown is not timed.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    GRID_ENTRIES,
    checkpoint,
    digest,
    register_seed,
    stand_ins,
)
from layers import Recorder, install  # noqa: E402

#: repeats per ablation pass; the best is kept
ABLATION_REPEATS = 3
#: the stand-ins the ablation measures (the rest take their mean)
ABLATION_PROGRAMS = ("177.mesa", "254.gap")
#: longest window an ablation pass replays
ABLATION_MAX_INSTRUCTIONS = 60000
#: shortest stretch of work between two host-speed checkpoints
CHECKPOINT_GAP_S = 2.0


class Context:
    """What every mode gets: the spec and an optional span recorder."""

    def __init__(self, spec: dict, recorder) -> None:
        self.spec = spec
        self.recorder = recorder
        self.window = spec["window"]
        #: host-speed checkpoints of a calibrated child
        self.calibrations: list = []

    def checkpoint(self) -> None:
        """Measure the host speed between two phases of a long child,
        at most once every :data:`CHECKPOINT_GAP_S`."""
        last = self.calibrations[-1][1] if self.calibrations else STARTED
        if (self.spec.get("calibrated")
                and time.perf_counter() - last >= CHECKPOINT_GAP_S):
            checkpoint(self.calibrations)

    @contextlib.contextmanager
    def span(self, name: str):
        if self.recorder is None:
            yield
            return
        index = self.recorder.open(name)
        try:
            yield
        finally:
            self.recorder.close(index)


# ---------------------------------------------------------------------------
# Result summaries shared by the modes
# ---------------------------------------------------------------------------


def _default_config():
    from repro.config import default_config
    return default_config()


def _passes(run):
    """The distinct engine passes of a CombinedRun."""
    if run.instrumented is run.plain:
        return (run.plain,)
    return (run.plain, run.instrumented)


def summarize(jobs) -> dict:
    """Instructions simulated and the model's own counts over freshly
    simulated ``(spec, run)`` pairs, plus the two headline ratios over
    the stand-ins' default-machine jobs."""
    from repro.config import SchemeName
    from repro.experiments.common import geometric_mean
    default = _default_config().to_dict()
    instructions = 0
    model = {"instructions": 0, "il1_misses": 0, "branch_mispredicts": 0,
             "itlb_lookups.base": 0, "itlb_lookups.ia": 0}
    ipc, ratio = {}, {}
    for spec, run in jobs:
        for result in _passes(run):
            instructions += result.shared.instructions + spec.warmup
            model["instructions"] += result.shared.instructions
            model["il1_misses"] += result.shared.il1.misses
            model["branch_mispredicts"] += result.shared.predictor.mispredicts
        schemes = run.schemes
        if SchemeName.BASE in schemes:
            model["itlb_lookups.base"] += schemes[SchemeName.BASE].lookups
        if SchemeName.IA in schemes:
            model["itlb_lookups.ia"] += schemes[SchemeName.IA].lookups
        if (spec.schemes is None and spec.config.to_dict() == default
                and SchemeName.IA in schemes):
            base = run.scheme(SchemeName.BASE)
            if base.cycles:
                ipc[run.workload_name] = (
                    run.plain.shared.useful_instructions / base.cycles)
            ratio[run.workload_name] = run.normalized_energy(SchemeName.IA)
    model["sim_ipc"] = geometric_mean(ipc.values())
    model["ia_itlb_energy_ratio"] = geometric_mean(ratio.values())
    return {"instructions": instructions, "model": model}


def _grid_config(entries: int):
    from repro.config import TLBConfig
    return _default_config().with_itlb(TLBConfig(entries=entries))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def setup(ctx: Context) -> dict:
    import repro.trace.record
    from repro.workloads import registry
    workload = ctx.spec["workload"]
    traces = {}
    for name in stand_ins(workload, ctx.window):
        program = registry.resolve(name)
        if workload == "paper_report":
            continue
        path = os.path.join(ctx.spec["dir"], f"{name}.trace.gz")
        repro.trace.record.record_trace(
            program, _default_config(),
            instructions=ctx.window["instructions"],
            warmup=ctx.window["warmup"], path=path)
        traces[name] = path
    return {"traces": traces}


def verify(ctx: Context) -> dict:
    """Reference digests from evaluators the timed runs do not use."""
    workload = ctx.spec["workload"]
    if workload == "paper_report":
        return {"ops": {}, "checks": []}
    from repro.sim.multi import run_all_schemes, run_all_schemes_grid
    from repro.trace.format import load_trace
    from repro.trace.replay import TraceWorkload
    window = {"instructions": ctx.window["instructions"],
              "warmup": ctx.window["warmup"]}
    ops, checks = {}, []
    traces = ctx.spec["traces"]
    if workload == "itlb_grid_sweep":
        # one stand-in, rotating with the seed, runs its grid and every
        # member solo
        names = sorted(traces)
        name = names[ctx.spec["seed"] % len(names)]
        trace = TraceWorkload(traces[name],
                              load_trace(traces[name], stream=False))
        configs = [_grid_config(e) for e in GRID_ENTRIES]
        members = run_all_schemes_grid(trace, configs, **window)
        for entries, config, member in zip(GRID_ENTRIES, configs, members):
            op = f"{name}/itlb{entries}"
            ops[op] = digest(member.to_dict())
            solo = digest(run_all_schemes(trace, config, **window).to_dict())
            if solo != ops[op]:
                checks.append(f"grid member {op} differs from its solo "
                              f"job: grid {ops[op]} solo {solo}")
        return {"ops": ops, "checks": checks}
    # long_trace_stream: the eager decode is the reference the windowed
    # timed runs must match byte for byte
    path = traces["177.mesa"]
    run = run_all_schemes(TraceWorkload(path, load_trace(path, stream=False)),
                          _default_config(), **window)
    ops["177.mesa"] = digest(run.to_dict())
    return {"ops": ops, "checks": checks}


def iterate(ctx: Context) -> dict:
    workload = ctx.spec["workload"]
    if workload == "paper_report":
        return _iterate_report(ctx)
    return _iterate_sweep(ctx)


def _iterate_report(ctx: Context) -> dict:
    """What ``repro report`` does, with a fresh in-memory store."""
    from repro.experiments import common as experiments
    from repro.experiments import report
    settings = experiments.default_settings(
        instructions=ctx.window["instructions"],
        warmup=ctx.window["warmup"],
        benchmarks=stand_ins("paper_report", ctx.window), workers=1,
        backend="serial")
    store = experiments.configure_store(None)
    current = {"name": None}
    sections, jobs = {}, []
    put = store.put

    def capture_put(spec, run, *args, **kwargs):
        jobs.append((current["name"], spec, run))
        return put(spec, run, *args, **kwargs)

    store.put = capture_put

    def capture(name, runner):
        def run(*args, **kwargs):
            current["name"] = name
            ctx.checkpoint()
            with ctx.span(f"experiments.{name}"):
                result = runner(*args, **kwargs)
            sections[name] = digest(result.to_markdown())
            return result
        return run

    names = [name for name, _ in report.ALL_EXPERIMENTS]
    report.ALL_EXPERIMENTS = tuple((name, capture(name, runner))
                                   for name, runner in report.ALL_EXPERIMENTS)
    errors = {}
    try:
        content = report.write_experiments_md(
            os.path.join(ctx.spec["dir"], "EXPERIMENTS.md"), settings,
            verbose=False)
    except Exception:
        # the experiment that raised, every one after it and the
        # document itself never completed
        failed = traceback.format_exc()
        for name in names + ["EXPERIMENTS.md"]:
            if name not in sections:
                errors[name] = failed
    else:
        sections["EXPERIMENTS.md"] = digest(content)
    with ctx.span("bench.check"):
        job_digests = {
            spec.key[:16]: {"digest": digest(run.to_dict()), "op": name,
                            "describe": spec.describe()}
            for name, spec, run in jobs}
        out = summarize([(spec, run) for _, spec, run in jobs])
    out.update(ops=sections, errors=errors, jobs=job_digests)
    return out


def _iterate_sweep(ctx: Context) -> dict:
    """A serial :class:`SweepRunner` over the recorded traces."""
    from repro.runner import JobSpec, ResultStore, SweepRunner
    workload = ctx.spec["workload"]
    traces = ctx.spec["traces"]
    window = {"instructions": ctx.window["instructions"],
              "warmup": ctx.window["warmup"]}
    with ctx.span("runner.specs"):
        if workload == "itlb_grid_sweep":
            ops = [(f"{name}/itlb{entries}",
                    JobSpec(workload=f"trace:{traces[name]}",
                            config=_grid_config(entries), **window))
                   for name in sorted(traces) for entries in GRID_ENTRIES]
            store = ResultStore(os.path.join(ctx.spec["dir"], "store"))
        else:
            ops = [("177.mesa",
                    JobSpec(workload=f"trace:{traces['177.mesa']}",
                            config=_default_config(), **window))]
            store = ResultStore()
    runner = SweepRunner(store=store, workers=1, backend="serial")
    results = runner.run([spec for _, spec in ops])
    with ctx.span("bench.check"):
        digests, errors, fresh = {}, {}, []
        windows, peak = 0, 0
        for (op, spec), result in zip(ops, results):
            if not result.ok:
                errors[op] = result.error
                continue
            digests[op] = digest(result.run.to_dict())
            if not result.cached:
                fresh.append((spec, result.run))
            if result.metrics is not None:
                windows += result.metrics.stream_windows
                peak = max(peak, result.metrics.stream_peak_bytes)
        out = summarize(fresh)
    budget = ctx.window.get("window_bytes")
    if budget is not None:
        # the forced window must really stream, and stay inside budget
        if windows == 0:
            errors["177.mesa"] = ("no streaming windows were decoded: "
                                  "the replay fell back to eager decode")
        elif peak > budget:
            errors["177.mesa"] = (f"a decoded window held {peak} bytes, "
                                  f"over the {budget}-byte budget")
    out.update(ops=digests, errors=errors,
               stream={"windows": windows, "peak_bytes": peak})
    return out


def ablate(ctx: Context) -> dict:
    """Best-of-N engine passes with parts switched off."""
    from repro.config import SchemeName
    from repro.sim.multi import INSTRUMENTED_SCHEMES, PLAIN_SCHEMES
    from repro.sim.simulator import Simulator, run_program_grid
    from repro.vm.os_model import AddressSpace
    workload = ctx.spec["workload"]
    instructions = min(ctx.window["instructions"],
                       ABLATION_MAX_INSTRUCTIONS)
    warmup = ctx.window["warmup"]
    config = _default_config()
    simulator = Simulator(config)
    if workload == "paper_report":
        from repro.workloads.registry import resolve
        sources = {name: resolve(name) for name in ABLATION_PROGRAMS
                   if name in stand_ins(workload, ctx.window)}
    else:
        from repro.trace.format import load_trace
        from repro.trace.replay import TraceWorkload
        traces = ctx.spec["traces"]
        sources = {name: TraceWorkload(traces[name],
                                       load_trace(traces[name],
                                                  stream=False))
                   for name in ABLATION_PROGRAMS if name in traces}

    def best(fn) -> float:
        times = []
        for _ in range(ABLATION_REPEATS):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    def one_pass(program, schemes):
        return lambda: simulator.run_program(
            program, instructions=instructions, warmup=warmup,
            schemes=schemes)

    out = {}
    for name, source in sources.items():
        for binary, schemes in (
                ("plain", PLAIN_SCHEMES),
                ("instrumented", INSTRUMENTED_SCHEMES + (SchemeName.BASE,))):
            program = source.link(page_bytes=config.mem.page_bytes,
                                  instrumented=binary == "instrumented")
            t = {"empty": best(one_pass(program, ())),
                 "all": best(one_pass(program, schemes))}
            for scheme in schemes:
                if binary == "instrumented" and scheme is SchemeName.BASE:
                    continue  # the normalization copy, costed on plain
                t[f"scheme.{scheme.value}"] = best(
                    one_pass(program, (scheme,)))
            if workload == "paper_report":
                t["functional"] = best(
                    lambda: program.make_executor(
                        AddressSpace(program)).run(instructions + warmup))
            if workload == "itlb_grid_sweep":
                members = [_grid_config(e) for e in GRID_ENTRIES]
                for label, configs in (("grid1", members[-1:]),
                                       ("gridN", members)):
                    t[label] = best(lambda: run_program_grid(
                        program, configs, instructions=instructions,
                        warmup=warmup, schemes=schemes))
                t["members"] = len(members)
            out[f"{name}|{binary}"] = t
    return {"ablation": out}


MODES = {"setup": setup, "verify": verify, "iterate": iterate,
         "ablate": ablate}


def main(spec_path: str, spawned: float) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = Recorder() if spec.get("traced") else None
    ctx = Context(spec, recorder)
    root = None
    if recorder is not None:
        # the interpreter's own start, from the parent's spawn to the
        # first line of this file, is a span of its own
        root = recorder.open("bench.process", start=spawned)
        recorder.add("bench.startup", spawned, STARTED)
    with ctx.span("bench.import"):
        import repro.experiments.report  # noqa: F401
        import repro.runner  # noqa: F401
    skipped = []
    if recorder is not None:
        with ctx.span("bench.install"):
            skipped = install(recorder)
        for target in skipped:
            print(f"perfbench: no {target} to trace", file=sys.stderr)
    register_seed(spec["seed"])
    result = MODES[spec["mode"]](ctx)
    result["calibrations"] = ctx.calibrations
    if recorder is not None:
        recorder.close(root)
        result["spans"] = recorder.spans
        result["skipped"] = skipped
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    code = 0
    try:
        main(sys.argv[1], float(sys.argv[2]))
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
