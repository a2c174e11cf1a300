"""Section 3's closing observation: faster machines miss less.

Interrupts and OS scheduling are paced by wall-clock time (the paper works
from the VAX 8800's measured 0.9 ms between interrupts), so a faster CPU
executes more cycles — and more instructions — between context switches.
Since longer slices mean more reuse before eviction (Fig. 3), "faster
machines may achieve lower cache miss rates".

This experiment fixes the wall-clock switch interval and sweeps the CPU
clock: the time slice in cycles is ``interval / cycle_time``.  The 250 MHz
GaAs machine is the fastest point; the slower points stand in for the
contemporary CMOS parts the paper is implicitly comparing against.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


def clocks_from(values: Sequence) -> Tuple[Tuple[str, float], ...]:
    """Convert scenario axis tables to ``(label, cycle ns)`` tuples."""
    out = []
    for value in values:
        if isinstance(value, dict):
            out.append((str(value["label"]), float(value["cycle_ns"])))
        else:
            out.append((str(value[0]), float(value[1])))
    return tuple(out)


@register("clockrate",
          description="CPU clock rate vs. memory CPI at a fixed wall-clock switch interval",
          axes=("clocks",))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Sweep the CPU clock at a fixed wall-clock switch interval.

    The wall-clock interval is chosen so the 250 MHz machine lands on the
    requested scale's time slice, keeping this experiment consistent with
    the others at any ``--time-slice``.
    """
    clocks = clocks_from(params.axis("clocks"))
    config = params.machine
    interval_ns = scale.time_slice * 4.0
    rows: List[List] = []
    miss_by_clock = {}
    slices = [max(1000, int(interval_ns / cycle_ns))
              for _, cycle_ns in clocks]
    grid = run_systems([config] * len(clocks), scale, time_slices=slices)
    for (label, _), slice_cycles, stats in zip(clocks, slices, grid):
        miss_by_clock[label] = stats.l1d_miss_ratio
        rows.append([label, slice_cycles, stats.l1i_miss_ratio,
                     stats.l1d_miss_ratio, stats.l2_miss_ratio,
                     stats.cpi()])
    return ExperimentResult(
        experiment_id="clockrate",
        title="Fixed wall-clock switch interval, swept CPU clock "
              "(Section 3's observation)",
        headers=["clock", "slice (cycles)", "L1-I miss", "L1-D miss",
                 "L2 miss", "CPI"],
        rows=rows,
        findings={
            "l1d_slowest_clock": miss_by_clock[clocks[0][0]],
            "l1d_fastest_clock": miss_by_clock[clocks[-1][0]],
            "faster_is_lower": float(
                miss_by_clock[clocks[-1][0]] < miss_by_clock[clocks[0][0]]),
        },
        notes=("paper: 'faster machines may achieve lower cache miss rates "
               "because they execute more cycles between context switches'"),
    )
