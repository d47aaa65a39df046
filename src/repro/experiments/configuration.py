"""Table 1: the default configuration.

Not a simulation — renders the machine the other experiments run and
asserts it matches the paper parameter-for-parameter.
"""

from __future__ import annotations

from typing import Optional

from repro.config import default_config
from repro.experiments.common import (
    Answers,
    Cells,
    ExperimentSettings,
    TableResult,
    planned,
)

def cells(settings: ExperimentSettings) -> Cells:
    return {}  # not a simulation


def build(settings: Optional[ExperimentSettings] = None,
          answers: Optional[Answers] = None) -> TableResult:
    config = default_config()
    result = TableResult(
        experiment_id="Table 1",
        title="Default configuration parameters",
        columns=["parameter", "value", "matches paper"],
    )
    core, mem = config.core, config.mem
    checks = [
        ("RUU size", f"{core.ruu_size} instructions", core.ruu_size == 64),
        ("LSQ size", f"{core.lsq_size} instructions", core.lsq_size == 32),
        ("Fetch queue size", f"{core.fetch_queue_size} instructions",
         core.fetch_queue_size == 8),
        ("Fetch/decode/issue/commit width",
         f"{core.fetch_width}/{core.decode_width}/{core.issue_width}/"
         f"{core.commit_width} per cycle",
         (core.fetch_width, core.decode_width, core.issue_width,
          core.commit_width) == (4, 4, 4, 4)),
        ("iL1", mem.il1.describe(),
         (mem.il1.size_bytes, mem.il1.assoc, mem.il1.block_bytes,
          mem.il1.hit_latency) == (8192, 1, 32, 1)),
        ("dL1", mem.dl1.describe(),
         (mem.dl1.size_bytes, mem.dl1.assoc, mem.dl1.block_bytes,
          mem.dl1.hit_latency) == (8192, 2, 32, 1)),
        ("L2", mem.l2.describe(),
         (mem.l2.size_bytes, mem.l2.assoc, mem.l2.block_bytes,
          mem.l2.hit_latency) == (1048576, 2, 128, 10)),
        ("iTLB", config.itlb.describe(),
         (config.itlb.entries, config.itlb.is_fully_associative,
          config.itlb.miss_penalty) == (32, True, 50)),
        ("dTLB", config.dtlb.describe(),
         (config.dtlb.entries, config.dtlb.is_fully_associative,
          config.dtlb.miss_penalty) == (128, True, 50)),
        ("Page size", f"{mem.page_bytes // 1024}KB", mem.page_bytes == 4096),
        ("DRAM", f"{mem.dram_latency} cycle latency, "
                 f"{mem.dram_banks} x 32MB banks", mem.dram_latency == 100),
        ("Branch predictor",
         f"{config.branch.kind}, {config.branch.counter_bits}-bit counters, "
         f"{config.branch.ras_entries}-entry RAS",
         config.branch.kind == "bimodal" and config.branch.counter_bits == 2),
        ("BTB", f"{config.branch.btb_entries} entries, "
                f"{config.branch.btb_assoc}-way",
         (config.branch.btb_entries, config.branch.btb_assoc) == (1024, 2)),
        ("Misprediction penalty", f"{config.branch.mispredict_penalty} cycles",
         config.branch.mispredict_penalty == 7),
    ]
    for parameter, value, ok in checks:
        result.add_row(parameter=parameter, value=value,
                       **{"matches paper": "yes" if ok else "NO"})
    result.notes.append(
        "The 8-entry return-address stack is SimpleScalar's bimodal default "
        "(not listed in the paper's Table 1 but required to reach its "
        "Table 5 predictor accuracies)."
    )
    return result


run = planned(cells, build)
