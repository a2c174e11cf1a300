"""Fig. 10: memory-system concurrency mechanisms (Section 9).

Starting from the Section 8 design point (write-only policy, split L2, 8 W
L1 lines), three mechanisms are added cumulatively:

1. *I refill during WB drain* — with a split L2, an L1-I miss refills from
   L2-I while the write buffer keeps draining into L2-D (paper: -0.011 CPI);
2. *loads pass stores* — data reads bypass buffered writes; the paper's
   dirty-bit scheme (flush only when a dirty L1-D line is replaced) is
   compared against full associative matching, achieving ~95 % of its
   benefit (paper: -0.008 CPI);
3. *L2-D dirty buffer* — a one-line victim buffer lets a dirty miss read the
   requested line from memory before writing the victim back
   (paper: -0.008 CPI).

The paper notes the total (-0.027 CPI) is small next to the size/speed
optimizations, questioning whether the last two are worth their hardware.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import (
    BypassMode,
    ConcurrencyConfig,
    SystemConfig,
    fetch8_architecture,
)
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


def steps(machine: Optional[SystemConfig] = None):
    """The cumulative configurations of Fig. 10 plus the associative control."""
    base = fetch8_architecture(machine)
    with_refill = base.with_(
        name="+i-refill",
        concurrency=ConcurrencyConfig(i_refill_during_wb_drain=True),
    )
    with_bypass = base.with_(
        name="+dwb-bypass",
        concurrency=ConcurrencyConfig(i_refill_during_wb_drain=True,
                                      bypass=BypassMode.DIRTY_BIT),
    )
    with_assoc = base.with_(
        name="+dwb-assoc",
        concurrency=ConcurrencyConfig(i_refill_during_wb_drain=True,
                                      bypass=BypassMode.ASSOCIATIVE),
    )
    with_dirty_buffer = base.with_(
        name="+l2-dirty-buffer",
        concurrency=ConcurrencyConfig(i_refill_during_wb_drain=True,
                                      bypass=BypassMode.DIRTY_BIT,
                                      l2_dirty_buffer=True),
    )
    return [
        ("section-8 design", base),
        ("+ I refill during WB drain", with_refill),
        ("+ loads pass stores (dirty bit)", with_bypass),
        ("+ loads pass stores (associative)", with_assoc),
        ("+ L2-D dirty buffer", with_dirty_buffer),
    ]


@register("fig10",
          description="Fig. 10: memory-system concurrency mechanisms")
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Regenerate Fig. 10."""
    rows: List[List] = []
    cpis = {}
    design_points = steps(params.machine)
    grid = run_systems([config for _, config in design_points], scale)
    for (label, _), stats in zip(design_points, grid):
        cpis[label] = stats.cpi()
        rows.append([label, stats.cpi(), stats.memory_cpi])
    base_cpi = cpis["section-8 design"]
    refill_gain = base_cpi - cpis["+ I refill during WB drain"]
    bypass_gain = (cpis["+ I refill during WB drain"]
                   - cpis["+ loads pass stores (dirty bit)"])
    assoc_gain = (cpis["+ I refill during WB drain"]
                  - cpis["+ loads pass stores (associative)"])
    dirty_gain = (cpis["+ loads pass stores (dirty bit)"]
                  - cpis["+ L2-D dirty buffer"])
    return ExperimentResult(
        experiment_id="fig10",
        title="Performance gained from memory-system concurrency",
        headers=["design point", "CPI", "memory CPI"],
        rows=rows,
        findings={
            "i_refill_gain": refill_gain,
            "dwb_bypass_gain_dirty_bit": bypass_gain,
            "dwb_bypass_gain_associative": assoc_gain,
            "dirty_bit_fraction_of_associative": (
                bypass_gain / assoc_gain if assoc_gain > 0 else 1.0
            ),
            "l2_dirty_buffer_gain": dirty_gain,
            "total_gain": base_cpi - cpis["+ L2-D dirty buffer"],
        },
        notes=("paper: gains of 0.011 / 0.008 / 0.008 CPI; dirty-bit scheme "
               "reaches ~95% of associative matching; total 0.027 CPI is "
               "small next to size/speed optimizations"),
    )
