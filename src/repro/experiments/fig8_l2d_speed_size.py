"""Fig. 8: the L2-D speed-size tradeoff (with a 4 KW L1-D).

The data-side mirror of Fig. 7: L2-D sizes 8 KW to 512 KW, access times 1 to
10 cycles, write effects ignored (Section 7).  Paper's findings checked
here: unlike the instruction side, the data-side curves are still improving
at 512 KW (family spanning roughly 0.72 down to 0.06 CPI); comparing with
Fig. 7, the optimum data cache is roughly eight times the optimum
instruction cache.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.cpi import data_side_cpi
from repro.core.config import L2Config, SystemConfig, base_architecture
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


def config_for(d_size_kw: int,
               base: Optional[SystemConfig] = None) -> SystemConfig:
    """Split L2 with the data half of the given size."""
    if base is None:
        base = base_architecture()
    return base.with_(
        name=f"l2d-{d_size_kw}kw",
        l2=L2Config(size_words=256 * 1024, line_words=32, ways=1,
                    access_time=6, split=True,
                    i_size_words=32 * 1024,
                    d_size_words=d_size_kw * 1024,
                    i_access_time=2),
    )


@register("fig8",
          description="Fig. 8: L2-D speed-size tradeoff",
          axes=("sizes_kw", "access_times"))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Regenerate Fig. 8."""
    sizes_kw = params.axis("sizes_kw")
    access_times = params.axis("access_times")
    line_words = params.machine.dcache.line_words
    stats_by_size = list(zip(sizes_kw, run_systems(
        [config_for(size_kw, base=params.machine) for size_kw in sizes_kw],
        scale)))
    rows: List[List] = []
    for size_kw, stats in stats_by_size:
        rows.append(
            [f"{size_kw}K"]
            + [data_side_cpi(stats, a, line_words) for a in access_times]
        )

    mid_access = 6 if 6 in access_times else \
        access_times[len(access_times) // 2]

    def cpi_at(size_kw: int, access: int = mid_access) -> float:
        for s, stats in stats_by_size:
            if s == size_kw:
                return data_side_cpi(stats, access, line_words)
        raise KeyError(size_kw)

    lo = 8 if 8 in sizes_kw else sizes_kw[0]
    knee = 64 if 64 in sizes_kw else sizes_kw[len(sizes_kw) // 2]
    hi = 512 if 512 in sizes_kw else sizes_kw[-1]
    penult = 256 if 256 in sizes_kw else \
        sizes_kw[-2] if len(sizes_kw) > 1 else sizes_kw[-1]
    findings = {
        "gain_8K_to_64K": cpi_at(lo) - cpi_at(knee),
        "gain_64K_to_512K": cpi_at(knee) - cpi_at(hi),
        "still_improving_at_512K": cpi_at(penult) - cpi_at(hi),
        "max_cpi": max(row[-1] for row in rows),
        "min_cpi": min(row[1] for row in rows),
    }
    return ExperimentResult(
        experiment_id="fig8",
        title="L2-D speed-size tradeoff (data-side CPI, writes ignored)",
        headers=["L2-D size"] + [f"A={a}" for a in access_times],
        rows=rows,
        findings=findings,
        notes=("paper: still decreasing at 512KW; optimum data cache ~8x "
               "the optimum instruction cache"),
    )
