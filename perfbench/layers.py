"""Spans around calls into the package, and the per-layer metrics.

The traced run never edits the package: :func:`install` wraps each
layer-boundary function at the name its callers look it up by (every
``repro`` module global bound to the function, or the class attribute
for a method) and records a span per call.  Spans are plain lists kept
in memory, ``[name, start, end, parent, attrs]``, written out once the
child process finishes.  A span's self time is its duration minus its
children's.

Targets that a later refactor removes are skipped with a note on
stderr: their time then lands in the enclosing span's self time, and
the add-up check still sees it.

Code inside the simulation hot loop (iTLB policies, predictor, caches)
gets no span; :func:`layer_metrics` splits engine-pass time with the
ablation passes ``child.py`` measures instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

EXPERIMENTS = ("table1", "table2", "fig4", "fig5", "table3", "table4",
               "table5", "table6", "table7", "fig6", "table8",
               "sensitivity", "extensions", "validation")

SCHEMES = ("base", "hoa", "opt", "soca", "sola", "ia")

#: every per-layer metric the traced run emits, with its unit
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.generate_s", "s"),
    ("workloads.link_s", "s"),
    ("compiler.instrument_s", "s"),
    ("trace.record_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.decode_cold", "count"),
    ("trace.lru_hit_ratio", "ratio"),
    ("trace.stream_windows", "count"),
    ("trace.stream_peak_bytes", "B"),
    ("trace.window_decode_s", "s"),
    ("cpu.pass_s", "s"),
    ("cpu.passes", "count"),
    ("cpu.host_ns_per_instr", "ns"),
    ("cpu.functional_s", "s"),
    ("cpu.pipeline_s", "s"),
    ("cpu.grid_member_s", "s"),
    ("cpu.init_s", "s"),
    ("cpu.ooo_s", "s"),
    ("core.policy_s", "s"),
    ("core.policy_share", "ratio"),
    *((f"core.scheme.{scheme}_s", "s") for scheme in SCHEMES),
    ("energy.attach_s", "s"),
    ("energy.attach_calls", "count"),
    ("runner.store_get_s", "s"),
    ("runner.store_put_s", "s"),
    ("runner.store_hits", "count"),
    ("runner.store_misses", "count"),
    ("runner.store_writes", "count"),
    ("runner.hit_ratio", "ratio"),
    ("runner.jobs", "count"),
    ("runner.jobs_simulated", "count"),
    ("runner.grids", "count"),
    ("runner.grid_members", "count"),
    ("runner.self_s", "s"),
    ("sim.self_s", "s"),
    *((f"experiments.{name}_s", "s") for name in EXPERIMENTS),
    *((f"experiments.{name}.jobs_simulated", "count")
      for name in EXPERIMENTS),
    ("model.instructions", "count"),
    ("model.il1_misses", "count"),
    ("model.branch_mispredicts", "count"),
    ("model.itlb_lookups.base", "count"),
    ("model.itlb_lookups.ia", "count"),
    ("model.sim_ipc", "IPC"),
    ("model.ia_itlb_energy_ratio", "ratio"),
    ("bench.import_s", "s"),
    ("bench.tracing_overhead_s", "s"),
    ("bench.unattributed_frac", "ratio"),
)

#: the largest share of the traced wall that may fall outside every span
UNATTRIBUTED_LIMIT = 0.10


class Recorder:
    """Nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    def open(self, name: str, attrs: Optional[dict] = None,
             start: Optional[float] = None) -> int:
        index = self.add(name, time.perf_counter() if start is None
                         else start, 0.0, attrs)
        self._open.append(index)
        return index

    def add(self, name: str, start: float, end: float,
            attrs: Optional[dict] = None) -> int:
        """Record a span, under the innermost open one."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, attrs])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.  ``before(args, kwargs)``
        gives the span's attributes; ``after(attrs, args, result)``
        may add to them once the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            index = self.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                span = self.spans[index]
                if span[4] is None:
                    span[4] = {}
                after(span[4], args, result)
            return result
        return traced


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _pass_attrs(args, kwargs) -> dict:
    engine = args[0]
    program = getattr(engine, "program", None)
    instructions = args[1] if len(args) > 1 else kwargs.get(
        "instructions", 0)
    warmup = args[2] if len(args) > 2 else kwargs.get("warmup", 0)
    return {
        "program": str(getattr(program, "name", "")).split("+")[0],
        "n": instructions + warmup,
        "members": len(getattr(engine, "member_configs", ()) or (0,)),
        "instrumented": bool(getattr(program, "instrumented", False)),
        "kind": "ooo" if type(engine).__name__ == "OutOfOrderEngine"
        else "fast",
    }


def _store_hit(attrs, args, result) -> None:
    attrs["hit"] = result is not None


def _sweep_stats(attrs, args, result) -> None:
    stats = getattr(args[0], "last_stats", None)
    for field in ("jobs", "grids", "grid_members"):
        attrs[field] = getattr(stats, field, 0)


def _grid_members(args, kwargs) -> dict:
    return {"members": len(getattr(args[0], "members", ()))}


def _load_kind(attrs, args, result) -> None:
    attrs["stream"] = not hasattr(result, "records") and not any(
        hasattr(segment, "records")
        for segment in getattr(result, "segments", ()))


#: (span name, module, attribute path, before, after).  A one-part
#: path names a module-level function and is rebound in every loaded
#: ``repro`` module that holds it; a two-part path names a method.
TARGETS = (
    ("workloads.generate", "repro.workloads.registry", "generate",
     None, None),
    ("workloads.link", "repro.compiler.instrument", "link_plain",
     None, None),
    ("compiler.instrument", "repro.compiler.instrument",
     "instrument_module", None, None),
    ("trace.record", "repro.trace.record", "record_trace", None, None),
    ("trace.load", "repro.trace.format", "load_trace", None, _load_kind),
    ("trace.decode", "repro.trace.format", "TraceReader.read", None, None),
    ("trace.window_decode", "repro.trace.format",
     "_StreamWindowSource.next_window", None, None),
    ("cpu.init", "repro.cpu.fast", "FastEngine.__init__", None, None),
    ("cpu.init", "repro.cpu.ooo", "OutOfOrderEngine.__init__", None, None),
    ("cpu.pass", "repro.cpu.fast", "FastEngine.run", _pass_attrs, None),
    ("cpu.pass", "repro.cpu.fast", "FastEngine.run_grid", _pass_attrs,
     None),
    ("cpu.pass", "repro.cpu.ooo", "OutOfOrderEngine.run", _pass_attrs,
     None),
    ("energy.attach", "repro.sim.simulator", "attach_energy", None, None),
    ("sim", "repro.sim.multi", "run_all_schemes", None, None),
    ("sim", "repro.sim.multi", "run_all_schemes_grid", None, None),
    ("sim", "repro.sim.simulator", "Simulator.run_program", None, None),
    ("sim", "repro.sim.simulator", "run_program_grid", None, None),
    ("runner.sweep", "repro.runner.sweep", "SweepRunner.run", None,
     _sweep_stats),
    ("runner.store_get", "repro.runner.store", "ResultStore.get", None,
     _store_hit),
    ("runner.store_put", "repro.runner.store", "ResultStore.put", None,
     None),
    ("runner.job", "repro.runner.jobspec", "JobSpec.run", None, None),
    ("runner.grid", "repro.runner.gridspec", "GridSpec.run",
     _grid_members, None),
)


def install(recorder: Recorder) -> List[str]:
    """Wrap every target that exists; returns the ones skipped."""
    # load every experiment module first, so their imported names are
    # among the module globals rebound below
    importlib.import_module("repro.experiments.report")
    skipped = []
    for name, module_name, path, before, after in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            skipped.append(f"{module_name}.{path}")
            continue
        traced = recorder.wrap(name, original, before, after)
        if owner_name:
            setattr(owner, attr, traced)
            continue
        for loaded_name, loaded in list(sys.modules.items()):
            if (loaded_name.split(".")[0] == "repro"
                    and getattr(loaded, attr, None) is original):
                setattr(loaded, attr, traced)
    return skipped


# ---------------------------------------------------------------------------
# From spans to metrics
# ---------------------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestor_experiment(spans: List[list]) -> List[Optional[str]]:
    found: List[Optional[str]] = []
    for name, _, _, parent, _ in spans:
        if name.startswith("experiments."):
            found.append(name[len("experiments."):])
        else:
            found.append(found[parent] if parent >= 0 else None)
    return found


def split_shares(ablation: Dict[str, dict]) -> Dict[str, dict]:
    """Turn ablation timings into shares of one engine pass.

    ``ablation`` maps ``"<program>|<binary>"`` to best-of-N seconds for
    ``functional`` (live programs only), ``empty`` (no scheme),
    ``scheme.<name>`` (one scheme alone), ``all`` (the binary's scheme
    set) and, for replays, ``grid1``/``gridN`` with ``members``.  The
    reference pass is ``gridN`` when present (the traced passes are
    grids), else ``all``."""
    shares = {}
    for key, t in ablation.items():
        # a noisy reference faster than the no-scheme pass would make
        # the parts sum past one
        ref = max(t.get("gridN") or t["all"], t["empty"])
        functional = min(t.get("functional", 0.0), t["empty"])
        policy = max(ref - t["empty"], 0.0)
        costs = {scheme: max(t.get(f"scheme.{scheme}", t["empty"])
                             - t["empty"], 0.0) for scheme in SCHEMES}
        total_cost = sum(costs.values())
        members = t.get("members", 1)
        member = (max(t["gridN"] - t["grid1"], 0.0) / (members - 1)
                  if "gridN" in t and members > 1 else 0.0)
        shares[key] = {
            "functional": functional / ref,
            "pipeline": (t["empty"] - functional) / ref,
            "policy": policy / ref,
            "member": member / ref,
            **{f"scheme.{scheme}": (policy / ref * cost / total_cost
                                    if total_cost else 0.0)
               for scheme, cost in costs.items()},
        }
    return shares


def layer_metrics(spans: List[list], setup_spans: List[list],
                  traced_wall: float, untraced_wall: float,
                  ablation: Dict[str, dict], iteration: dict
                  ) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics of one traced iteration, plus the add-up
    report (``attributed``/``unattributed``/``largest``)."""
    own = self_times(spans)
    sums: Dict[str, float] = {}
    durations: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for (name, start, end, _, _), self_s in zip(spans, own):
        sums[name] = sums.get(name, 0.0) + self_s
        durations[name] = durations.get(name, 0.0) + end - start
        counts[name] = counts.get(name, 0) + 1

    def attr_sum(name: str, field: str) -> float:
        return sum((attrs or {}).get(field, 0)
                   for span_name, _, _, _, attrs in spans
                   if span_name == name)

    m: Dict[str, float] = {name: 0 if unit in ("count", "B") else 0.0
                           for name, unit in PER_LAYER}
    m["workloads.generate_s"] = durations.get("workloads.generate", 0.0)
    m["workloads.link_s"] = durations.get("workloads.link", 0.0)
    m["compiler.instrument_s"] = max(
        durations.get("compiler.instrument", 0.0) - m["workloads.link_s"],
        0.0)
    m["trace.record_s"] = sum(end - start
                              for name, start, end, _, _ in setup_spans
                              if name == "trace.record")
    m["trace.decode_s"] = sums.get("trace.decode", 0.0)
    m["trace.decode_cold"] = counts.get("trace.decode", 0)
    eager_loads = sum(1 for name, _, _, _, attrs in spans
                      if name == "trace.load"
                      and not (attrs or {}).get("stream"))
    if eager_loads:
        m["trace.lru_hit_ratio"] = max(
            eager_loads - m["trace.decode_cold"], 0) / eager_loads
    stream = iteration.get("stream", {})
    m["trace.stream_windows"] = stream.get("windows", 0)
    m["trace.stream_peak_bytes"] = stream.get("peak_bytes", 0)
    m["trace.window_decode_s"] = sums.get("trace.window_decode", 0.0)

    # programs the ablation did not measure take the mean shares of the
    # ones it did, per binary
    shares = split_shares(ablation)
    for binary in ("plain", "instrumented"):
        shares[f"*|{binary}"] = _mean_shares(
            {key: s for key, s in shares.items()
             if key.endswith(f"|{binary}")})
    fallback = _mean_shares(shares)
    stepped = 0
    fast_pass_s = 0.0
    for (name, _, _, _, attrs), self_s in zip(spans, own):
        if name != "cpu.pass":
            continue
        attrs = attrs or {}
        stepped += attrs.get("n", 0)
        m["cpu.pass_s"] += self_s
        m["cpu.passes"] += 1
        if attrs.get("kind") == "ooo":
            m["cpu.ooo_s"] += self_s
            continue
        fast_pass_s += self_s
        binary = "instrumented" if attrs.get("instrumented") else "plain"
        share = shares.get(f"{attrs.get('program', '')}|{binary}") \
            or shares.get(f"*|{binary}") or fallback
        if not share:
            continue
        m["cpu.functional_s"] += self_s * share["functional"]
        m["cpu.pipeline_s"] += self_s * share["pipeline"]
        m["core.policy_s"] += self_s * share["policy"]
        if attrs.get("members", 1) > 1:
            m["cpu.grid_member_s"] += self_s * share["member"]
        for scheme in SCHEMES:
            m[f"core.scheme.{scheme}_s"] += self_s * share[f"scheme.{scheme}"]
    if stepped:
        m["cpu.host_ns_per_instr"] = m["cpu.pass_s"] * 1e9 / stepped
    if fast_pass_s:
        m["core.policy_share"] = m["core.policy_s"] / fast_pass_s
    m["cpu.init_s"] = sums.get("cpu.init", 0.0)

    m["energy.attach_s"] = sums.get("energy.attach", 0.0)
    m["energy.attach_calls"] = counts.get("energy.attach", 0)

    m["runner.store_get_s"] = sums.get("runner.store_get", 0.0)
    m["runner.store_put_s"] = sums.get("runner.store_put", 0.0)
    hits = sum(1 for name, _, _, _, attrs in spans
               if name == "runner.store_get" and (attrs or {}).get("hit"))
    m["runner.store_hits"] = hits
    m["runner.store_misses"] = counts.get("runner.store_get", 0) - hits
    m["runner.store_writes"] = counts.get("runner.store_put", 0)
    if counts.get("runner.store_get"):
        m["runner.hit_ratio"] = hits / counts["runner.store_get"]
    m["runner.jobs"] = attr_sum("runner.sweep", "jobs")
    m["runner.grids"] = attr_sum("runner.sweep", "grids")
    m["runner.grid_members"] = attr_sum("runner.sweep", "grid_members")
    m["runner.jobs_simulated"] = (counts.get("runner.job", 0)
                                  + attr_sum("runner.grid", "members"))
    m["runner.self_s"] = sum(sums.get(name, 0.0) for name in (
        "runner.sweep", "runner.job", "runner.grid", "runner.specs"))
    m["sim.self_s"] = sums.get("sim", 0.0)

    owner = _ancestor_experiment(spans)
    for (name, start, end, _, attrs), experiment in zip(spans, owner):
        if experiment is None or experiment not in EXPERIMENTS:
            continue
        if name == f"experiments.{experiment}":
            m[f"experiments.{experiment}_s"] += end - start
        elif name == "runner.job":
            m[f"experiments.{experiment}.jobs_simulated"] += 1
        elif name == "runner.grid":
            m[f"experiments.{experiment}.jobs_simulated"] += (
                (attrs or {}).get("members", 0))

    for key, value in iteration.get("model", {}).items():
        m[f"model.{key}"] = value
    m["bench.import_s"] = durations.get("bench.import", 0.0)
    m["bench.tracing_overhead_s"] = traced_wall - untraced_wall

    # add-up: every span but the process root is a named place the time
    # went; the root's self time and the interpreter's start and exit
    # are what no span explains
    attributed = sum(self_s for (name, *_), self_s in zip(spans, own)
                     if name != "bench.process")
    unattributed = 1.0 - attributed / traced_wall if traced_wall else 1.0
    m["bench.unattributed_frac"] = unattributed
    roots = [(self_s, name) for (name, *_), self_s in zip(spans, own)
             if name == "bench.process"]
    by_layer = sorted(((value, name) for name, value in sums.items()),
                      reverse=True)
    report = {
        "attributed_s": attributed,
        "unattributed_frac": unattributed,
        "root_self_s": roots[0][0] if roots else 0.0,
        "outside_root_s": traced_wall - sum(
            end - start for name, start, end, _, _ in spans
            if name == "bench.process"),
        "largest_self": [[name, value] for value, name in by_layer[:8]],
    }
    return m, report


def _mean_shares(shares: Dict[str, dict]) -> dict:
    if not shares:
        return {}
    keys = next(iter(shares.values())).keys()
    return {key: sum(s[key] for s in shares.values()) / len(shares)
            for key in keys}
