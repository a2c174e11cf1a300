"""Fig. 7: the L2-I speed-size tradeoff (with a 4 KW L1-I).

Starting from the base architecture with the L2 split so the instruction
side can be isolated, the L2-I size is swept from 8 KW to 512 KW and, for
each size, the instruction-side CPI contribution is computed for access
times of 1 to 10 cycles.  Following Section 7, write effects are ignored;
because hits and misses do not depend on the access time, each size needs
one simulation and the access-time family is recombined analytically
(:mod:`repro.analysis.cpi`).

Paper's findings checked here: the curves flatten for sizes above ~64 KW
(the instruction footprint saturates), with the whole family spanning
roughly 0.19 CPI down to 0.02 CPI.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.cpi import instruction_side_cpi
from repro.core.config import L2Config, SystemConfig, base_architecture
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


def config_for(i_size_kw: int,
               base: Optional[SystemConfig] = None) -> SystemConfig:
    """Split L2 with the instruction half of the given size."""
    if base is None:
        base = base_architecture()
    return base.with_(
        name=f"l2i-{i_size_kw}kw",
        l2=L2Config(size_words=256 * 1024, line_words=32, ways=1,
                    access_time=6, split=True,
                    i_size_words=i_size_kw * 1024,
                    d_size_words=256 * 1024,
                    i_access_time=2),
    )


@register("fig7",
          description="Fig. 7: L2-I speed-size tradeoff",
          axes=("sizes_kw", "access_times"))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Regenerate Fig. 7."""
    sizes_kw = params.axis("sizes_kw")
    access_times = params.axis("access_times")
    line_words = params.machine.icache.line_words
    stats_by_size = list(zip(sizes_kw, run_systems(
        [config_for(size_kw, base=params.machine) for size_kw in sizes_kw],
        scale)))
    rows: List[List] = []
    for size_kw, stats in stats_by_size:
        rows.append(
            [f"{size_kw}K"]
            + [instruction_side_cpi(stats, a, line_words)
               for a in access_times]
        )
    # Flatness: marginal gain of doubling beyond 64 KW vs. below it.
    mid_access = 6 if 6 in access_times else \
        access_times[len(access_times) // 2]

    def cpi_at(size_kw: int, access: int = mid_access) -> float:
        for s, stats in stats_by_size:
            if s == size_kw:
                return instruction_side_cpi(stats, access, line_words)
        raise KeyError(size_kw)

    lo = 8 if 8 in sizes_kw else sizes_kw[0]
    knee = 64 if 64 in sizes_kw else sizes_kw[len(sizes_kw) // 2]
    hi = 512 if 512 in sizes_kw else sizes_kw[-1]
    findings = {
        "gain_8K_to_64K": cpi_at(lo) - cpi_at(knee),
        "gain_64K_to_512K": cpi_at(knee) - cpi_at(hi),
        "max_cpi": max(row[-1] for row in rows),
        "min_cpi": min(row[1] for row in rows),
    }
    return ExperimentResult(
        experiment_id="fig7",
        title="L2-I speed-size tradeoff (instruction-side CPI, writes "
              "ignored)",
        headers=["L2-I size"] + [f"A={a}" for a in access_times],
        rows=rows,
        findings=findings,
        notes=("paper: curves fairly flat beyond 64KW; family spans "
               "~0.19 to ~0.02 CPI"),
    )
