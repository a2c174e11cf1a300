"""Fig. 3: the effect of the context-switch interval on cache performance.

The paper sweeps the scheduler time slice (its x-axis spans roughly 10k to
10M cycles) at multiprogramming level 8 and shows performance improving
significantly with longer slices: more of a process's lines survive in the
caches long enough to be reused.  Section 3 settles on 500,000 cycles as a
realistic compromise (about 310,000 cycles between switches once voluntary
system calls are counted).
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


@register("fig3",
          description="Fig. 3: context-switch interval vs. CPI",
          axes=("time_slices",))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Regenerate Fig. 3."""
    config = params.machine
    rows = []
    time_slices = params.axis("time_slices")
    grid = run_systems([config] * len(time_slices), scale,
                       time_slices=time_slices)
    for time_slice, stats in zip(time_slices, grid):
        rows.append([
            time_slice,
            stats.l1i_miss_ratio,
            stats.l1d_miss_ratio,
            stats.l2_miss_ratio,
            stats.cpi(),
        ])
    shortest_cpi = rows[0][4]
    longest_cpi = rows[-1][4]
    return ExperimentResult(
        experiment_id="fig3",
        title="Effect of context-switch interval on cache performance",
        headers=["time slice (cycles)", "L1-I miss ratio", "L1-D miss ratio",
                 "L2 miss ratio", "CPI"],
        rows=rows,
        findings={
            "cpi_shortest_slice": shortest_cpi,
            "cpi_longest_slice": longest_cpi,
            "cpi_gain": shortest_cpi - longest_cpi,
        },
        notes=("paper: performance improves significantly as the slice "
               "lengthens; too-short slices give poor cache performance"),
    )
