"""Code-layout transformation (paper Section 5, future work).

"We are also looking to perform code layout transformations ... to benefit
from the reuse of the translation within the CFR."  Page crossings — and
therefore every scheme's iTLB lookups — are a function of where the linker
places functions.  This pass reorders function chunks with a
Pettis-Hansen-style greedy chain merge over the weighted call graph so
frequent caller/callee pairs share pages, then rebuilds the module in the
new order.

The registry names each generated workload's affinity layout
``<name>@affinity``; the extensions experiment runs it beside the
workload itself and reports the page-crossing and IA-lookup reduction.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.isa.assembler import DataItem, Module, SymInstr

FunctionChunk = Tuple[str, List[Union[str, SymInstr]]]
CallGraph = Mapping[Tuple[str, str], int]


def _merge_chains(functions: Sequence[str], call_graph: CallGraph
                  ) -> List[List[str]]:
    """Greedy chain merge: process call edges heaviest-first, appending the
    callee's chain to the caller's when they differ."""
    chain_of: Dict[str, int] = {name: i for i, name in enumerate(functions)}
    chains: Dict[int, List[str]] = {i: [name]
                                    for i, name in enumerate(functions)}
    edges = sorted(
        ((weight, caller, callee)
         for (caller, callee), weight in call_graph.items()
         if caller in chain_of and callee in chain_of and caller != callee),
        key=lambda e: (-e[0], e[1], e[2]),
    )
    for weight, caller, callee in edges:
        if weight <= 0:
            break
        a, b = chain_of[caller], chain_of[callee]
        if a == b:
            continue
        merged = chains.pop(b)
        chains[a].extend(merged)
        for name in merged:
            chain_of[name] = a
    # heaviest chains first: approximate chain weight by internal edge mass
    def chain_weight(chain: List[str]) -> int:
        members = set(chain)
        return sum(w for (u, v), w in call_graph.items()
                   if u in members and v in members)

    ordered = sorted(chains.values(), key=chain_weight, reverse=True)
    return ordered


def layout_by_affinity(chunks: Sequence[FunctionChunk],
                       call_graph: CallGraph,
                       data: Sequence[DataItem] = (),
                       entry_label: str = "main") -> Module:
    """Rebuild a module with functions reordered by call affinity.

    ``chunks`` are (function name, text items) pairs in original order;
    the function holding ``entry_label`` is always placed first so the
    program's entry point is unaffected.
    """
    by_name = {name: items for name, items in chunks}
    names = [name for name, _ in chunks]
    entry_fn = next(
        (name for name, items in chunks
         if any(item == entry_label for item in items if isinstance(item, str))),
        names[0] if names else None,
    )
    ordered_chains = _merge_chains(names, call_graph)
    order: List[str] = []
    # hoist the chain containing the entry function to the front, rotated
    # so the entry function leads it (no chunks: no chains, no entry)
    for chain in ordered_chains:
        if entry_fn in chain:
            at = chain.index(entry_fn)
            order.extend(chain[at:] + chain[:at])
            break
    for chain in ordered_chains:
        if entry_fn not in chain:
            order.extend(chain)

    module = Module(entry_label=entry_label)
    for name in order:
        module.text.extend(by_name[name])
    module.data.extend(data)
    return module

