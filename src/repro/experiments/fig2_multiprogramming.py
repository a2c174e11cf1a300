"""Fig. 2: the effect of multiprogramming level on cache performance.

The paper sweeps the number of concurrently running processes over
{1, 2, 4, 8, 16} with a 500,000-cycle time slice and reports L1-I, L1-D and
L2 miss ratios.  Expected shape: the L1 caches are too small to retain state
across a slice, so their miss ratios barely move; the L2 is large enough to
hold several processes' working sets, so its miss ratio climbs substantially
(the paper reports ~70 %, of a very small base) as the level rises, then
saturates — performance is essentially unaffected beyond level eight.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


@register("fig2",
          description="Fig. 2: multiprogramming level vs. CPI",
          axes=("levels",))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Regenerate Fig. 2."""
    config = params.machine
    levels = params.axis("levels")
    rows = []
    l2_ratios = {}
    grid = run_systems([config] * len(levels), scale, levels=levels)
    for level, stats in zip(levels, grid):
        rows.append([
            level,
            stats.l1i_miss_ratio,
            stats.l1d_miss_ratio,
            stats.l2_miss_ratio,
            stats.cpi(),
        ])
        l2_ratios[level] = stats.l2_miss_ratio
    low_levels = [level for level in levels if level <= 2] or [levels[0]]
    high_levels = [level for level in levels if level >= 8] or [levels[-1]]
    lo = min(l2_ratios[level] for level in low_levels)
    hi = max(l2_ratios[level] for level in high_levels)
    rise = (hi - lo) / lo * 100.0 if lo else 0.0
    return ExperimentResult(
        experiment_id="fig2",
        title="Effect of multiprogramming level on cache performance",
        headers=["level", "L1-I miss ratio", "L1-D miss ratio",
                 "L2 miss ratio", "CPI"],
        rows=rows,
        findings={
            "l2_miss_rise_percent": rise,
            "l1i_span": max(r[1] for r in rows) - min(r[1] for r in rows),
            "l1d_span": max(r[2] for r in rows) - min(r[2] for r in rows),
        },
        notes=("paper: L1 ratios nearly flat; L2 miss ratio grows ~70% from "
               "low to high levels (of a small absolute value)"),
    )
