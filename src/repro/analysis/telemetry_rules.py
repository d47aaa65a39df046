"""TEL001 — telemetry stays out of hot loops.

PR 6's observability layer is cheap because it is *amortized*: one
``emit``/``count``/``span`` per phase, never per instruction.  The
fast engine (``cpu/fast.py``, and ``cpu/grid.py`` on top of it)
processes millions of stream records per second through tight
inner loops; a single telemetry call lexically inside one of those
loop bodies turns an O(phases) cost into an O(instructions) cost and
destroys the throughput the bench harness pins.

The rule is lexical by design: a call to ``telemetry.emit`` /
``telemetry.count`` / ``telemetry.span`` (or the bare imported names)
anywhere inside a ``for``/``while`` body in one of the hot-loop
modules is a finding, even if a human can argue the loop is short.
Hot-loop modules earn their place on the list by being in the
measured path of ``bench_repro.py``; telemetry belongs before and
after those loops, not inside them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    dotted_name,
    in_loop,
    register,
)

#: path suffixes of the hot-loop modules (the measured replay path)
HOT_LOOP_MODULES = (
    ("cpu", "fast.py"),
    ("cpu", "grid.py"),
)

#: telemetry entry points that must stay O(phases), not O(instructions)
TELEMETRY_CALLS = frozenset({"emit", "count", "span"})


def _telemetry_call_name(node: ast.Call) -> str:
    """The matched telemetry entry point name, or ``""``."""
    name = dotted_name(node.func)
    if name is None:
        return ""
    parts = name.split(".")
    if parts[-1] not in TELEMETRY_CALLS:
        return ""
    if len(parts) == 1:
        return name  # bare imported emit/count/span
    if "telemetry" in parts[:-1]:
        return name
    return ""


@register
class HotLoopTelemetryRule(Rule):
    id = "TEL001"
    title = "no telemetry calls inside hot replay loops"
    contract = (
        "telemetry is O(phases), not O(instructions) (PR 5/6): an "
        "emit/count/span inside a fast/grid engine loop body "
        "multiplies a per-job cost by the instruction count and "
        "regresses the benched replay throughput")

    def applies(self, module: ModuleSource) -> bool:
        return any(module.parts[-len(suffix):] == suffix
                   for suffix in HOT_LOOP_MODULES
                   if len(module.parts) >= len(suffix))

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node, parents in module.walk():
            if not isinstance(node, ast.Call):
                continue
            name = _telemetry_call_name(node)
            if not name:
                continue
            if not in_loop(parents):
                continue
            yield module.finding(
                self.id, node,
                f"{name}() lexically inside a loop body in a hot "
                "replay module — telemetry here runs per record, not "
                "per phase; hoist it out of the loop")
