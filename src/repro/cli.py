"""Command-line interface: ``repro-itlb`` / ``python -m repro``.

Subcommands:

* ``report``       — run every experiment and write EXPERIMENTS.md
* ``experiment``   — run one experiment and print its table
* ``sweep``        — batch workloads x iTLB sizes through the parallel
  sweep runner (``--workers``, 0 = one per CPU), with a persistent
  result cache (``--cache-dir``), machine-readable output (``--json``),
  and a pluggable execution backend
  (``--backend serial|pool|queue:<dir>``)
* ``worker``       — long-running drain process for a ``queue:<dir>``
  backend: N workers on N machines feed one result store
* ``trace``        — ``record`` a workload's committed instruction
  stream to a trace file, ``import`` a foreign trace (SimpleScalar EIO
  / gem5) into the native format, list the importable ``formats``, or
  print a file's ``info``
* ``cache``        — ``list`` / ``stats`` / ``purge`` a result-store
  cache directory (``purge --keep-bytes N`` size-bounds it, LRU)
* ``bench``        — measure the fast engine's replay throughput
  (instr/sec, min-of-N) and the grid and streaming trade-offs, and
  write ``BENCH_<n>.json`` (the repository's performance trajectory;
  see ``docs/performance.md``)
* ``status``       — one-shot or ``--watch`` dashboard over a
  ``queue:<dir>`` fleet: queue depth, worker liveness/throughput,
  stale leases, error tail; ``--json`` for scripts,
  ``--metrics-out`` for a Prometheus textfile collector
* ``calibrate``    — print the workload-calibration table (measured
  characteristics beside the paper's)
* ``config``       — print the default (Table 1) machine
* ``simulate``     — one workload, all schemes, summary output

Global flags (before the subcommand): ``--log-level
off|error|info|debug`` and ``--log-json FILE`` turn on structured
JSONL event logging everywhere — sweeps, backends, workers, trace
decodes, engine runs (see ``docs/observability.md``).  ``simulate``
and ``sweep`` also accept ``--profile OUT.pstats``.

Workload arguments accept any registry name: the six SPEC stand-ins,
``micro.*`` microbenchmarks, recorded ``trace:<path>`` files, and
foreign ``import:<format>:<path>`` traces converted on the fly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__, faults, telemetry
from repro.config import (
    CacheAddressing,
    SchemeName,
    TLBConfig,
    default_config,
    itlb_sweep_label,
)
from repro.errors import ConfigError, ReproError
from repro.experiments import calibration
from repro.experiments.common import TableResult, default_settings
from repro.experiments.report import (
    ALL_EXPERIMENTS,
    run_experiment,
    write_experiments_md,
)
from repro.cpu.results import summarize_result
from repro.runner import (
    FileQueueBackend,
    JobSpec,
    ResultStore,
    SweepRunner,
    resolve_backend,
    resolve_workers,
    run_worker,
)
from repro.sim.multi import run_all_schemes
from repro.workloads.spec2000 import BENCHMARK_NAMES
from repro.workloads import registry


def to_json(payload, indent: int = 2) -> str:
    """Serialize CLI output as *strict* JSON.

    ``json.dumps`` defaults to ``allow_nan=True`` and happily emits bare
    ``NaN``/``Infinity`` tokens — which no strict parser (``jq``, other
    languages, ``json.loads(..., parse_constant=...)`` consumers)
    accepts.  Non-finite floats carry no information a downstream tool
    can use anyway, so every one is mapped to ``null`` here; all CLI
    ``--json`` paths must go through this helper.
    """
    def clean(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {key: clean(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(item) for item in value]
        return value

    return json.dumps(clean(payload), indent=indent, allow_nan=False)


def _add_trace_window_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-window", default=None, metavar="BYTES",
                        help="force windowed (streaming) trace decode "
                             "with this per-window column budget (k/m/g "
                             "suffixes: '4m', '512k'); exported as "
                             "REPRO_TRACE_WINDOW so pool/queue workers "
                             "inherit it.  Default: small traces decode "
                             "eagerly, large ones stream")


def _add_sim_args(parser: argparse.ArgumentParser, *,
                  benchmarks: bool = True, workers: bool = False) -> None:
    parser.add_argument("--instructions", type=int, default=120_000,
                        help="useful instructions to measure per pass")
    parser.add_argument("--warmup", type=int, default=20_000,
                        help="warmup instructions before measurement")
    if benchmarks:
        parser.add_argument("--benchmarks", nargs="*", default=None,
                            metavar="WORKLOAD",
                            help="registry workload names (SPEC "
                                 "stand-ins, micro.*, trace:<path>, "
                                 "import:<format>:<path>; default: the "
                                 "six SPEC stand-ins)")
    if workers:
        parser.add_argument("--workers", type=int, default=1,
                            help="worker processes for simulation batches "
                                 "(0 = auto-detect, one per CPU)")
        parser.add_argument("--backend", default=None,
                            metavar="serial|pool|queue:<dir>",
                            help="execution backend for simulation "
                                 "batches (default: serial for "
                                 "--workers 1, process pool otherwise; "
                                 "queue:<dir> hands jobs to 'repro "
                                 "worker' processes draining that "
                                 "directory)")


def _check_workloads(names, parser: argparse.ArgumentParser) -> None:
    """Fail fast on unresolvable workload names (including trace files
    that do not exist)."""
    for name in names:
        if not registry.is_registered(name):
            if name.startswith(registry.TRACE_PREFIX):
                parser.error(
                    f"trace file not found: "
                    f"'{name[len(registry.TRACE_PREFIX):]}'")
            if name.startswith(registry.IMPORT_PREFIX):
                from repro.trace.importers import available_formats
                try:
                    fmt, path = registry.split_import_name(name)
                except ReproError as exc:
                    parser.error(str(exc))
                if fmt not in available_formats():
                    parser.error(
                        f"unknown trace format '{fmt}' (available: "
                        f"{', '.join(available_formats())})")
                parser.error(f"foreign trace file not found: '{path}'")
            parser.error(
                f"unknown workload '{name}' (choose from "
                f"{', '.join(registry.available())}, trace:<path>, or "
                "import:<format>:<path>)")


def _settings(args: argparse.Namespace):
    return default_settings(instructions=args.instructions,
                            warmup=args.warmup,
                            benchmarks=getattr(args, "benchmarks", None),
                            workers=getattr(args, "workers", 1),
                            backend=getattr(args, "backend", None))


def _rate_note(rate: Optional[float]) -> str:
    """An aggregate's instr/s for the sweep table; ``None`` (the
    simulate time was too small to divide by) reads as n/a."""
    return "n/a" if rate is None else f"{rate:,.0f}"


def _run_sweep(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    # names were validated by main() before dispatch
    names = args.benchmarks if args.benchmarks else list(BENCHMARK_NAMES)
    schemes = (tuple(SchemeName(s) for s in args.schemes)
               if args.schemes else None)
    entries = args.itlb_entries if args.itlb_entries else None
    base = default_config(CacheAddressing(args.il1))
    try:
        configs = ([base] if entries is None else
                   [base.with_itlb(TLBConfig(entries=n)) for n in entries])
    except ConfigError as exc:
        parser.error(f"--itlb-entries: {exc}")
    specs = []
    for name in names:
        for config in configs:
            specs.append(JobSpec(workload=name, config=config,
                                 instructions=args.instructions,
                                 warmup=args.warmup, schemes=schemes))

    try:
        backend = resolve_backend(args.backend)
    except ValueError as exc:
        parser.error(f"--backend: {exc}")
    cache_dir = args.cache_dir
    if cache_dir is None and isinstance(backend, FileQueueBackend):
        # a queue sweep's natural cache is the store its workers feed:
        # repeat submissions then answer from it without re-enqueueing
        cache_dir = backend.store_root
    store = ResultStore(cache_dir)
    runner = SweepRunner(store=store,
                         workers=resolve_workers(args.workers),
                         backend=backend)
    results = runner.run(specs)
    stats = runner.last_stats

    if args.json:
        # "metrics" is a separate key (not part of "stats") so the
        # stats dict stays deterministic across identical runs
        print(to_json({
            "stats": dataclasses.asdict(stats),
            "metrics": runner.last_metrics,
            "jobs": [result.to_dict() for result in results],
        }))
        return 1 if stats.failed else 0

    table = TableResult(
        experiment_id="Sweep",
        title=f"{len(names)} workload(s) x "
              f"{len(specs) // len(names)} config(s), "
              f"{args.il1} iL1, {args.instructions:,} instructions",
        columns=["workload", "iTLB", "scheme", "lookups", "misses",
                 "cycles", "energy (nJ)"],
    )
    for result in results:
        label = itlb_sweep_label(result.spec.config.itlb)
        if not result.ok:
            table.notes.append(
                f"FAILED {result.spec.describe()}: "
                f"{result.error.strip().splitlines()[-1]}")
            continue
        for name, scheme in result.run.schemes.items():
            # each pass's Base reference rides along in the result;
            # only show what the user asked for
            if schemes is not None and name not in schemes:
                continue
            table.add_row(**{
                "workload": result.spec.workload,
                "iTLB": label,
                "scheme": name.value,
                "lookups": scheme.lookups,
                "misses": scheme.itlb_misses,
                "cycles": scheme.cycles,
                "energy (nJ)": (scheme.energy.total_nj
                                if scheme.energy else float("nan")),
            })
    table.notes.append(stats.describe())
    metrics = runner.last_metrics
    if metrics.get("jobs_measured"):
        table.notes.append(
            f"phases: {metrics['decode_seconds']:.2f}s decode "
            f"({metrics['decode_cold']} cold / "
            f"{metrics['decode_cached']} LRU), "
            f"{metrics['simulate_seconds']:.2f}s simulate, "
            f"{metrics['store_write_seconds']:.2f}s store; "
            f"{_rate_note(metrics['instr_per_sec'])} instr/s over "
            f"{metrics['wall_seconds']:.2f}s wall")
    if metrics.get("cached_jobs_measured"):
        table.notes.append(
            f"cached: {metrics['cached_jobs_measured']} job(s) recorded "
            f"{metrics['cached_simulate_seconds']:.2f}s simulate at "
            f"{_rate_note(metrics['cached_instr_per_sec'])} instr/s "
            "in earlier runs")
    if cache_dir:
        table.notes.append(f"cache: {store.describe()}")
    print(table.render())
    return 1 if stats.failed else 0


def _run_trace(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    from repro.trace import TraceReader, record_trace

    if args.trace_command == "formats":
        from repro.trace.importers import available_formats, get_importer
        for name in available_formats():
            print(f"{name:8s} {get_importer(name).description}")
        return 0
    if args.trace_command == "import":
        from repro.trace.importers import import_trace
        try:
            info = import_trace(
                args.format, args.input, args.output,
                page_bytes=args.page_bytes, page_sizes=args.page_sizes,
                max_instructions=args.max_instructions, skip=args.skip,
                workload_name=args.name)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        from repro.trace.format import file_digest
        print(f"imported {info['format']}:{info['source']} -> "
              f"{args.output} ({info['workload']})")
        print(f"  {info['steps']:,} steps over "
              f"{info['distinct_instructions']:,} distinct instructions, "
              f"page sizes {', '.join(str(s) for s in info['page_sizes'])}")
        print(f"  source sha256 {info['source_sha256']}")
        print(f"  output sha256 {file_digest(args.output)}")
        print(f"replay with: repro sweep --benchmarks trace:{args.output}")
        return 0
    if args.trace_command == "record":
        _check_workloads([args.workload], parser)
        try:
            record_trace(args.workload, default_config(),
                         instructions=args.instructions,
                         warmup=args.warmup, path=args.output,
                         page_sizes=args.page_sizes)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        info = TraceReader(args.output).info()
        print(f"recorded {args.workload} -> {args.output}")
        for segment in info["segments"]:
            print(f"  {segment['binary']} "
                  f"@{segment['meta'].get('page_bytes', '?')}B pages: "
                  f"{segment['steps']:,} steps, "
                  f"{segment['distinct_instructions']:,} distinct "
                  "instructions")
        print(f"  sha256 {info['digest']}")
        print(f"replay with: repro sweep --benchmarks trace:{args.output}")
        return 0
    # info
    try:
        info = TraceReader(args.file).info()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(to_json(info))
        return 0
    def count(value) -> str:
        return f"{value:,}" if isinstance(value, int) else str(value)

    header = info["header"]
    print(f"{info['path']} (trace format v{info['version']})")
    print(f"  workload     {header.get('workload', '?')}")
    print(f"  window       {count(header.get('instructions', '?'))} "
          f"instructions + {count(header.get('warmup', '?'))} warmup")
    print(f"  page size    {header.get('page_bytes', '?')} bytes")
    print(f"  sha256       {info['digest']}")
    for segment in info["segments"]:
        meta = segment["meta"]
        print(f"  segment      {segment['binary']} "
              f"@{meta.get('page_bytes', '?')}B pages: "
              f"{segment['steps']:,} steps, "
              f"{segment['distinct_instructions']:,} distinct "
              f"instructions, program '{meta.get('name', '?')}'")
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    if args.lease <= 0 or args.poll <= 0:
        print("error: --lease and --poll must be > 0", file=sys.stderr)
        return 2
    try:
        retry = faults.RetryPolicy(max_attempts=args.max_attempts,
                                   base_seconds=args.retry_base,
                                   cap_seconds=args.retry_cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # under --json the progress narration moves to stderr so stdout
    # carries exactly one parseable object
    stats = run_worker(
        args.queue_dir,
        drain=args.drain,
        max_jobs=args.max_jobs,
        lease_seconds=args.lease,
        poll_seconds=args.poll,
        idle_exit=args.idle_exit,
        retry=retry,
        log=(lambda line: print(line, file=sys.stderr)) if args.json
        else print,
    )
    if args.json:
        print(to_json(stats.to_dict()))
    # job failures are recorded in errors/ and belong to the submitter;
    # the worker's exit code reflects only the worker process itself
    return 0


def _run_status(args: argparse.Namespace) -> int:
    from repro.telemetry import status as fleet

    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2
    lease = (args.lease if args.lease is not None
             else fleet.DEFAULT_LEASE_SECONDS)
    tail = (args.error_tail if args.error_tail is not None
            else fleet.DEFAULT_ERROR_TAIL)
    if lease <= 0 or tail < 0:
        print("error: --lease must be > 0 and --error-tail >= 0",
              file=sys.stderr)
        return 2

    def one_shot() -> dict:
        snap = fleet.snapshot(args.queue_dir, lease_seconds=lease,
                              error_tail=tail)
        if args.metrics_out:
            fleet.write_prometheus(snap, args.metrics_out)
        print(to_json(snap) if args.json else fleet.render(snap))
        return snap

    def unavailable(exc: Exception) -> int:
        # the queue directory (or the --metrics-out target) vanished or
        # became unreadable — render one final human-readable frame
        # instead of a traceback, and exit non-zero so scripts notice
        print(f"queue unavailable: {args.queue_dir}: {exc}",
              file=sys.stderr)
        sys.stderr.flush()
        return 1

    if not args.watch:
        try:
            one_shot()
        except (ReproError, OSError) as exc:
            return unavailable(exc)
        return 0
    import time as _time
    try:
        while True:
            if not args.json:
                # clear + home, like watch(1); JSON gets plain frames
                print("\x1b[2J\x1b[H", end="")
            try:
                one_shot()
            except (ReproError, OSError) as exc:
                # a fleet being torn down mid-watch is an ending, not a
                # crash: one final frame, then a non-zero exit
                return unavailable(exc)
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0  # ^C is how a watch ends — not an error


def _run_queue(args: argparse.Namespace) -> int:
    from repro.runner import FileQueue

    root = Path(args.queue_dir)
    # like status: never create the directory being operated on — a
    # typo'd path must fail, not conjure a plausible empty queue
    if not root.is_dir():
        print(f"error: no such queue directory: {root}", file=sys.stderr)
        return 2
    queue = FileQueue(root)

    if args.queue_command == "inspect":
        jobs = []
        for path in queue.dead():
            key = path.name[:-len(".json")]
            record = queue.read_error_record(key) or {}
            try:
                size = path.stat().st_size
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError:
                continue  # retried from under us mid-scan
            tb = str(record.get("traceback", "")).strip()
            jobs.append({
                "key": key,
                "bytes": size,
                "recoverable": queue.recover_payload(key, text)
                is not None,
                "error_class": record.get("class"),
                "attempts": record.get("attempts"),
                "kind": record.get("kind"),
                "last_line": tb.splitlines()[-1] if tb else "?",
            })
        if args.json:
            print(to_json({"queue": str(root), "dead": jobs}))
        else:
            if not jobs:
                print(f"no dead-lettered jobs in {root}")
            for job in jobs:
                state = ("recoverable" if job["recoverable"]
                         else "UNRECOVERABLE")
                attempts = (f", {job['attempts']} attempt(s)"
                            if job["attempts"] else "")
                print(f"{job['key'][:16]}  {state}{attempts}: "
                      f"{job['last_line']}")
        return 0

    # retry
    keys = args.keys
    if args.all:
        keys = [path.name[:-len(".json")] for path in queue.dead()]
    elif not keys:
        print("error: give job KEYs or --all", file=sys.stderr)
        return 2
    failed = 0
    for key in keys:
        if queue.retry_dead(key):
            print(f"requeued {key[:16]}")
        else:
            failed += 1
            print(f"UNRECOVERABLE {key[:16]} (no such dead job, or its "
                  f"payload no longer parses) — left in dead/",
                  file=sys.stderr)
    return 1 if failed else 0


def _run_bench(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    from repro.bench import (
        DEFAULT_WORKLOADS,
        MESA,
        RATIO_DROP_LIMIT,
        compare_reports,
        run_bench,
    )

    workloads = args.workloads
    if workloads is None:
        workloads = [MESA] if args.quick else list(DEFAULT_WORKLOADS)
    if not workloads:
        # an empty list (e.g. an unset shell variable expanding to
        # nothing) must not produce a vacuous report
        parser.error("--workloads needs at least one workload name")
    _check_workloads(workloads, parser)
    instructions = (args.instructions if args.instructions is not None
                    else (30_000 if args.quick else 60_000))
    warmup = args.warmup if args.warmup is not None else (
        5_000 if args.quick else 10_000)
    repeats = args.repeats if args.repeats is not None else (
        3 if args.quick else 5)
    if repeats <= 0 or instructions <= 0 or warmup < 0:
        parser.error("--repeats/--instructions must be > 0, --warmup >= 0")
    previous = None
    if args.compare is not None:
        with open(args.compare, encoding="utf-8") as fh:
            previous = json.load(fh)
        window = {"instructions": instructions, "warmup": warmup}
        if previous.get("window") != window:
            # refused before any benching: the ratios would not compare
            parser.error(f"--compare {args.compare} was taken at window "
                         f"{previous.get('window')}, this run is at "
                         f"{window}")

    payload = run_bench(workloads=workloads, instructions=instructions,
                        warmup=warmup, repeats=repeats,
                        trace_dir=args.trace_dir, log=print)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(to_json(payload) + "\n")
    print(f"\nwrote {args.output}")
    for workload, entry in sorted(payload["speedups"].items()):
        views = "  ".join(f"{mode} {ratio:.2f}x"
                          for mode, ratio in sorted(entry.items()))
        print(f"  {workload:24s} {views}")
    if previous is None:
        return 0
    lines, regressions = compare_reports(payload, previous)
    print(f"\nratio change from {args.compare}:")
    for line in lines:
        print(f"  {line}")
    if regressions:
        print(f"{len(regressions)} view(s) fell more than "
              f"{RATIO_DROP_LIMIT:.0%} below {args.compare}",
              file=sys.stderr)
        return 1
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    import os
    if not os.path.isdir(args.cache_dir):
        # inspection must never create the directory it inspects: a
        # typo'd path should fail, not report a plausible empty cache
        print(f"error: no such cache directory: {args.cache_dir}",
              file=sys.stderr)
        return 1
    store = ResultStore(args.cache_dir)
    if args.cache_command == "purge":
        if args.keep_bytes is not None:
            if args.keep_bytes < 0:
                print("error: --keep-bytes must be >= 0", file=sys.stderr)
                return 1
            removed, freed = store.evict(args.keep_bytes)
            stats = store.disk_stats()
            print(f"evicted {removed} file(s) ({freed:,} bytes) from "
                  f"{args.cache_dir}; {stats['entries']} entr"
                  f"{'y' if stats['entries'] == 1 else 'ies'} "
                  f"({stats['bytes']:,} bytes) kept")
            return 0
        removed = store.purge()
        print(f"purged {removed} file(s) from {args.cache_dir}")
        return 0
    if args.cache_command == "stats":
        stats = store.disk_stats()
        print(f"cache {stats['root']}: {stats['entries']} entries, "
              f"{stats['bytes']:,} bytes"
              + (f", {stats['unreadable']} unreadable"
                 if stats["unreadable"] else "")
              + (f", {stats['orphaned_tmp_files']} orphaned temp file(s)"
                 if stats["orphaned_tmp_files"] else ""))
        for workload, count in stats["by_workload"].items():
            print(f"  {workload}: {count} entr{'y' if count == 1 else 'ies'}")
        return 0
    # list
    entries = store.disk_entries()
    if not entries:
        print(f"cache {args.cache_dir}: empty")
        return 0
    table = TableResult(
        experiment_id="Cache",
        title=str(args.cache_dir),
        columns=["workload", "instructions", "engine", "key", "bytes",
                 "ok"],
    )
    for entry in entries:
        table.add_row(**{
            "workload": entry["workload"] or "?",
            "instructions": entry["instructions"] or "?",
            "engine": entry["engine"] or "?",
            "key": (entry["key"] or "?")[:16],
            "bytes": entry["bytes"],
            "ok": "yes" if entry["ok"] else "NO",
        })
    print(table.render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-itlb",
        description="Reproduction of Kadayif et al., MICRO 2002 "
                    "(iTLB energy via direct physical-address generation)")
    parser.add_argument("--version", action="version",
                        version=f"repro-itlb {__version__}")
    parser.add_argument("--log-level", default=None,
                        choices=list(telemetry.LEVELS),
                        help="structured event logging threshold "
                             "(default: off, or $REPRO_LOG_LEVEL)")
    parser.add_argument("--log-json", default=None, metavar="FILE",
                        help="append events as JSON lines to FILE "
                             "instead of stderr (implies --log-level "
                             "info unless one is given)")
    parser.add_argument("--faults", default=None, metavar="PLAN.json",
                        help="inject faults from a deterministic fault "
                             "plan (testing/chaos only; exported as "
                             "$REPRO_FAULTS so pool/queue subprocess "
                             "workers inherit it — see "
                             "docs/robustness.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    _add_sim_args(p_report, workers=True)
    p_report.add_argument("--output", default="EXPERIMENTS.md")

    p_exp = sub.add_parser("experiment", help="run a single experiment")
    p_exp.add_argument("name", choices=[n for n, _ in ALL_EXPERIMENTS])
    _add_sim_args(p_exp, workers=True)

    p_sweep = sub.add_parser(
        "sweep", help="batch workloads x iTLB sizes through the runner")
    p_sweep.add_argument("--benchmarks", nargs="*", default=None,
                         metavar="WORKLOAD",
                         help="registry workload names (SPEC stand-ins, "
                              "micro.* microbenches; default: all six "
                              "SPEC stand-ins)")
    p_sweep.add_argument("--itlb-entries", nargs="*", type=int, default=None,
                         metavar="N",
                         help="iTLB sizes to sweep (fully associative; "
                              "default: the Table 1 machine's 32)")
    p_sweep.add_argument("--schemes", nargs="*", default=None,
                         choices=[s.value for s in SchemeName],
                         help="scheme subset (default: all)")
    p_sweep.add_argument("--il1", default="vi-pt",
                         choices=[a.value for a in CacheAddressing])
    p_sweep.add_argument("--instructions", type=int, default=120_000)
    p_sweep.add_argument("--warmup", type=int, default=20_000)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial, 0 = "
                              "auto-detect one per CPU)")
    p_sweep.add_argument("--backend", default=None,
                         metavar="serial|pool|queue:<dir>",
                         help="execution backend (default: serial for "
                              "--workers 1, process pool otherwise; "
                              "queue:<dir> enqueues into a shared "
                              "directory drained by 'repro worker' "
                              "processes, caching results in "
                              "<dir>/store unless --cache-dir is given)")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="persist results here and reuse them on "
                              "repeat invocations")
    p_sweep.add_argument("--json", action="store_true",
                         help="machine-readable output (full simulation "
                              "records, including each pass's Base "
                              "normalization reference even under "
                              "--schemes)")
    _add_trace_window_arg(p_sweep)
    p_sweep.add_argument("--profile", default=None, metavar="OUT.pstats",
                         help="profile the whole sweep with cProfile "
                              "and write a pstats dump (read with: "
                              "python -m pstats OUT.pstats)")

    p_trace = sub.add_parser(
        "trace", help="record and inspect instruction traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    t_record = trace_sub.add_parser(
        "record", help="record a workload's committed stream to a file")
    t_record.add_argument("workload",
                          help="registry workload name to record")
    t_record.add_argument("-o", "--output", required=True,
                          help="trace file to write (.gz compresses)")
    t_record.add_argument("--instructions", type=int, default=120_000,
                          help="useful instructions to record per binary "
                               "(replays can use any window up to "
                               "warmup + instructions)")
    t_record.add_argument("--warmup", type=int, default=20_000)
    t_record.add_argument("--page-sizes", nargs="*", type=int, default=None,
                          metavar="BYTES",
                          help="record extra binary pairs at these page "
                               "sizes too (needed for the page-size "
                               "sensitivity sweep)")
    t_info = trace_sub.add_parser("info", help="describe a trace file")
    t_info.add_argument("file")
    t_info.add_argument("--json", action="store_true")
    t_import = trace_sub.add_parser(
        "import", help="convert a foreign trace (SimpleScalar EIO / "
                       "gem5) into the native format")
    t_import.add_argument("input", help="foreign trace file (gzip ok)")
    t_import.add_argument("-o", "--output", required=True,
                          help="native trace file to write "
                               "(.gz compresses)")
    t_import.add_argument("--format", required=True, dest="format",
                          help="foreign format name (see "
                               "'repro trace formats')")
    t_import.add_argument("--page-bytes", type=int, default=4096,
                          help="primary page size to synthesize the "
                               "replay geometry for")
    t_import.add_argument("--page-sizes", nargs="*", type=int,
                          default=None, metavar="BYTES",
                          help="emit extra segment pairs at these page "
                               "sizes too (for the page-size "
                               "sensitivity sweep)")
    t_import.add_argument("--max-instructions", type=int, default=None,
                          help="truncate the converted window to this "
                               "many instructions")
    t_import.add_argument("--skip", type=int, default=0,
                          help="skip this many leading instructions "
                               "(fast-forward past startup)")
    t_import.add_argument("--name", default=None,
                          help="workload name recorded in the trace "
                               "(default: <format>:<input basename>)")
    trace_sub.add_parser(
        "formats", help="list the importable foreign trace formats")

    p_worker = sub.add_parser(
        "worker",
        help="drain jobs from a file-queue directory (see "
             "'sweep --backend queue:<dir>'); run one per core/machine")
    p_worker.add_argument("queue_dir",
                          help="the queue directory (created if missing, "
                               "so workers may start before the sweep)")
    p_worker.add_argument("--drain", action="store_true",
                          help="exit once the queue is idle (no pending "
                               "jobs, no live claims) instead of "
                               "waiting for more work")
    p_worker.add_argument("--max-jobs", type=int, default=None,
                          metavar="N", help="exit after claiming N jobs")
    p_worker.add_argument("--lease", type=float, default=60.0,
                          metavar="SECONDS",
                          help="claim lease: a worker silent this long "
                               "is presumed dead and its job requeued "
                               "(default: 60)")
    p_worker.add_argument("--poll", type=float, default=0.2,
                          metavar="SECONDS",
                          help="delay between queue polls when idle "
                               "(default: 0.2)")
    p_worker.add_argument("--idle-exit", type=float, default=None,
                          metavar="SECONDS",
                          help="exit after this long with nothing to do "
                               "(default: wait forever)")
    p_worker.add_argument("--max-attempts", type=int,
                          default=faults.DEFAULT_MAX_ATTEMPTS,
                          metavar="N",
                          help="attempts a transiently failing job gets "
                               "before it dead-letters (default: "
                               f"{faults.DEFAULT_MAX_ATTEMPTS})")
    p_worker.add_argument("--retry-base", type=float,
                          default=faults.DEFAULT_RETRY_BASE_SECONDS,
                          metavar="SECONDS",
                          help="first retry backoff; doubles per attempt "
                               "(deterministic, no jitter; default: "
                               f"{faults.DEFAULT_RETRY_BASE_SECONDS:g})")
    p_worker.add_argument("--retry-cap", type=float,
                          default=faults.DEFAULT_RETRY_CAP_SECONDS,
                          metavar="SECONDS",
                          help="backoff ceiling (default: "
                               f"{faults.DEFAULT_RETRY_CAP_SECONDS:g})")
    p_worker.add_argument("--json", action="store_true",
                          help="print the end-of-run summary (claimed/"
                               "executed/cached/failed/retried/"
                               "reclaimed/seconds) as one JSON object "
                               "on stdout")

    p_status = sub.add_parser(
        "status",
        help="dashboard over a queue:<dir> fleet — queue depth, worker "
             "liveness/throughput, stale leases, error tail")
    p_status.add_argument("queue_dir",
                          help="the queue directory being drained "
                               "(never created by status: a typo'd "
                               "path fails instead of reporting a "
                               "plausible empty fleet)")
    p_status.add_argument("--json", action="store_true",
                          help="print the snapshot as JSON (one object; "
                               "with --watch, one object per interval)")
    p_status.add_argument("--watch", action="store_true",
                          help="redraw every --interval seconds until "
                               "interrupted")
    p_status.add_argument("--interval", type=float, default=2.0,
                          metavar="SECONDS",
                          help="refresh period for --watch "
                               "(default: 2)")
    p_status.add_argument("--lease", type=float, default=None,
                          metavar="SECONDS",
                          help="claim-staleness threshold (default: the "
                               "workers' 60s default lease)")
    p_status.add_argument("--error-tail", type=int, default=None,
                          metavar="N",
                          help="recent failures to include (default: 5)")
    p_status.add_argument("--metrics-out", default=None, metavar="FILE",
                          help="also write the snapshot as a "
                               "Prometheus-style textfile (atomic "
                               "rename; point a node-exporter textfile "
                               "collector at it)")

    p_queue = sub.add_parser(
        "queue",
        help="operate on a queue's dead-letter directory (jobs that "
             "exhausted their retries or arrived corrupted)")
    queue_sub = p_queue.add_subparsers(dest="queue_command",
                                       required=True)
    q_inspect = queue_sub.add_parser(
        "inspect",
        help="list dead-lettered jobs with their failure records")
    q_inspect.add_argument("queue_dir",
                           help="the queue directory (never created: a "
                                "typo'd path fails loudly)")
    q_inspect.add_argument("--json", action="store_true",
                           help="print the listing as one JSON object")
    q_retry = queue_sub.add_parser(
        "retry",
        help="re-enqueue dead-lettered jobs (clears their failure "
             "records; unrecoverable payloads are reported and left "
             "in dead/)")
    q_retry.add_argument("queue_dir",
                         help="the queue directory (never created)")
    q_retry.add_argument("keys", nargs="*", metavar="KEY",
                         help="job keys to retry (default: with --all, "
                              "every dead job)")
    q_retry.add_argument("--all", action="store_true",
                         help="retry every dead-lettered job")

    p_cache = sub.add_parser(
        "cache", help="inspect or clean a result-store cache directory")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for verb, text in (("list", "one line per cached result"),
                       ("stats", "aggregate size and per-workload counts"),
                       ("purge", "delete every entry and temp file, or "
                                 "size-bound the cache with "
                                 "--keep-bytes")):
        p_verb = cache_sub.add_parser(verb, help=text)
        p_verb.add_argument("--cache-dir", required=True,
                            help="the directory given to sweep/report")
        if verb == "purge":
            p_verb.add_argument(
                "--keep-bytes", type=int, default=None, metavar="N",
                help="instead of deleting everything, keep the most "
                     "recently written entries that fit in N bytes and "
                     "evict the rest (LRU by mtime)")

    p_cal = sub.add_parser("calibrate",
                           help="workload calibration vs paper targets")
    _add_sim_args(p_cal)

    sub.add_parser("config", help="print the Table 1 machine")

    p_sim = sub.add_parser("simulate", help="simulate one workload")
    p_sim.add_argument("benchmark", metavar="WORKLOAD",
                       help="registry workload name (SPEC stand-in, "
                            "micro.*, trace:<path>, or "
                            "import:<format>:<path>)")
    p_sim.add_argument("--il1", default="vi-pt",
                       choices=[a.value for a in CacheAddressing])
    p_sim.add_argument("--profile", default=None, metavar="OUT.pstats",
                       help="profile the run with cProfile and write a "
                            "pstats dump (read with: "
                            "python -m pstats OUT.pstats)")
    _add_trace_window_arg(p_sim)
    _add_sim_args(p_sim, benchmarks=False)

    p_lint = sub.add_parser(
        "lint",
        help="run the AST invariant linter "
             "(see docs/static-analysis.md)")
    from repro.analysis.lint import add_lint_arguments
    add_lint_arguments(p_lint)

    p_bench = sub.add_parser(
        "bench",
        help="measure fast-engine replay throughput and write "
             "BENCH_<n>.json (see docs/performance.md)")
    p_bench.add_argument("-o", "--output", required=True,
                         help="JSON report to write (required, so a bare "
                              "run never overwrites a committed "
                              "BENCH_<n>.json)")
    p_bench.add_argument("--compare", default=None, metavar="PREVIOUS",
                         help="a previous report at the same window: "
                              "print each view's ratio change and exit "
                              "1 if a ratio fell more than 15%% below it")
    p_bench.add_argument("--quick", action="store_true",
                         help="mesa only, smaller window, fewer repeats "
                              "(the CI smoke configuration)")
    p_bench.add_argument("--workloads", nargs="*", default=None,
                         metavar="WORKLOAD",
                         help="registry workloads to record and bench "
                              "(default: 177.mesa, micro.straight_line, "
                              "micro.taken_pattern)")
    p_bench.add_argument("--instructions", type=int, default=None,
                         help="measured window per pass (default: "
                              "60,000; 30,000 with --quick)")
    p_bench.add_argument("--warmup", type=int, default=None,
                         help="warmup per pass (default: 10,000; 5,000 "
                              "with --quick)")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="timed runs per measurement, best kept "
                              "(default: 5; 3 with --quick)")
    p_bench.add_argument("--trace-dir", default=".bench-traces",
                         help="where bench traces are recorded/reused "
                              "(default: .bench-traces)")
    _add_trace_window_arg(p_bench)

    args = parser.parse_args(argv)

    # environment first (a parent sweep/CI job may have exported its
    # settings), explicit flags override
    telemetry.configure_from_env()
    if args.log_level is not None or args.log_json is not None:
        telemetry.configure(level=args.log_level,
                            json_path=args.log_json)
    try:
        faults.configure_from_env()
    except (ReproError, ValueError) as exc:
        parser.error(f"$REPRO_FAULTS: {exc}")
    if args.faults is not None:
        try:
            # exported as inline JSON in $REPRO_FAULTS, so pool/queue
            # subprocess workers inherit the plan like the log settings
            faults.configure(faults.FaultPlan.load(args.faults))
        except ReproError as exc:
            parser.error(f"--faults: {exc}")

    if getattr(args, "workers", 1) < 0:
        parser.error("--workers must be >= 0 (0 = auto-detect)")
    if getattr(args, "trace_window", None) is not None:
        from repro.trace.format import parse_byte_size
        if parse_byte_size(args.trace_window) is None:
            parser.error(
                f"--trace-window: not a positive byte size: "
                f"'{args.trace_window}' (try '4m', '512k', or a plain "
                "byte count)")
        # environment, not a parameter: pool/queue workers inherit it,
        # so one flag sizes the whole fleet
        os.environ["REPRO_TRACE_WINDOW"] = args.trace_window
    if getattr(args, "backend", None) is not None:
        # fail fast for report/experiment too, where the string would
        # otherwise only reach resolve_backend deep inside the plan
        try:
            resolve_backend(args.backend)
        except ValueError as exc:
            parser.error(f"--backend: {exc}")
    if getattr(args, "benchmarks", None):
        _check_workloads(args.benchmarks, parser)

    try:
        return _dispatch(args, parser)
    except ReproError as exc:
        # user-input failures (exhausted/corrupt traces, inconsistent
        # configs) get one clean line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # sweeps persist their finished results before re-raising, and
        # workers requeue their in-flight job — ^C is a clean exit
        print("interrupted", file=sys.stderr)
        return 130


def _dispatch(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> int:
    if args.command == "report":
        write_experiments_md(args.output, _settings(args))
        return 0
    if args.command == "experiment":
        result = run_experiment(args.name, _settings(args))
        print(result.render())
        return 0
    if args.command == "sweep":
        if args.profile:
            from repro.telemetry.profile import profiled
            with profiled(args.profile,
                          log=lambda line: print(line, file=sys.stderr)):
                return _run_sweep(args, parser)
        return _run_sweep(args, parser)
    if args.command == "trace":
        return _run_trace(args, parser)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "queue":
        return _run_queue(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "bench":
        return _run_bench(args, parser)
    if args.command == "lint":
        from repro.analysis.lint import run_lint_cli
        return run_lint_cli(args)
    if args.command == "calibrate":
        print(calibration.run(_settings(args)).render())
        return 0
    if args.command == "config":
        print(default_config().describe())
        return 0
    if args.command == "simulate":
        _check_workloads([args.benchmark], parser)
        config = default_config(CacheAddressing(args.il1))
        settings = _settings(args)

        def simulate():
            run = run_all_schemes(registry.resolve(args.benchmark),
                                  config,
                                  instructions=settings.instructions,
                                  warmup=settings.warmup)
            print(summarize_result(run.plain))
            print()
            print(summarize_result(run.instrumented))
            return 0

        if args.profile:
            from repro.telemetry.profile import profiled
            with profiled(args.profile,
                          log=lambda line: print(line, file=sys.stderr)):
                return simulate()
        return simulate()
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
