"""Reproduction-scale convergence study.

The paper runs ~2.5 billion references; this repository defaults to a few
million.  This experiment quantifies what that costs: it runs the base
architecture at a ladder of trace lengths (with the time slice scaled in
proportion, holding slices-per-benchmark constant) and reports how the miss
ratios move.  Expected behaviour: L1 ratios stabilize quickly; the L2 ratio
— dominated by compulsory first-touches at small scale — keeps falling
toward the paper's ~1 % as traces lengthen, without changing any of the
qualitative comparisons the other experiments make.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


@register("scaling",
          description="Scale convergence: trace length vs. reported metrics",
          axes=("factors",))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Sweep trace length around the requested scale."""
    config = params.machine
    rows: List[List] = []
    l2_ratios = []
    points = [
        ExperimentScale(
            instructions_per_benchmark=max(
                10_000, int(scale.instructions_per_benchmark * factor)),
            level=scale.level,
            time_slice=max(5_000, int(scale.time_slice * factor)),
            warmup_fraction=scale.warmup_fraction,
        )
        for factor in params.axis("factors")
    ]
    grid = run_systems([config] * len(points), scale, scales=points)
    for point, stats in zip(points, grid):
        global_l2 = 1000.0 * stats.l2_misses / max(stats.instructions, 1)
        rows.append([
            point.instructions_per_benchmark,
            stats.l1i_miss_ratio,
            stats.l1d_miss_ratio,
            stats.l2_miss_ratio,
            global_l2,
            stats.cpi(),
        ])
        l2_ratios.append(global_l2)
    return ExperimentResult(
        experiment_id="scaling",
        title="Reproduction-scale convergence (base architecture)",
        headers=["instructions/benchmark", "L1-I miss", "L1-D miss",
                 "L2 local miss", "L2 misses/1k instr", "CPI"],
        rows=rows,
        findings={
            "l2_per_kinstr_smallest": l2_ratios[0],
            "l2_per_kinstr_largest": l2_ratios[-1],
            "l2_shrink_factor": (l2_ratios[0] / l2_ratios[-1]
                                 if l2_ratios[-1] else 0.0),
        },
        notes=("global L2 misses per instruction fall as traces lengthen "
               "(compulsory misses amortize) and CPI approaches the "
               "paper's 1.7; the *local* L2 ratio can rise because its "
               "denominator (L1 misses) falls even faster"),
    )
