"""Fig. 9: gains from the split L2 (fast L2-I on the MCM) and 8 W L1 fetch.

Three cumulative design points:

1. the base architecture (write-back, unified 256 KW L2 at 6 cycles);
2. Section 7's design: write-only L1-D policy, physically split L2 — a 32 KW
   two-cycle L2-I on the MCM and a 256 KW six-cycle L2-D off it (the paper
   reports a 34 % memory-system improvement at this point, memory CPI 0.242);
3. Section 8's design: additionally lengthen the L1 fetch/line size to 8
   words (the paper reports a further 0.026 CPI).

Also reproduced: the paper's sanity check that *swapping* the sizes/speeds
(fast 32 KW L2-D, large slow L2-I) costs ~21 % — it is L2-I that belongs on
the MCM.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.cpi import percent_improvement
from repro.core.config import (
    L2Config,
    SystemConfig,
    fetch8_architecture,
    split_l2_architecture,
)
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


def swapped_architecture(base: Optional[SystemConfig] = None):
    """The control: fast small L2-D on the MCM, big slow L2-I off it."""
    config = split_l2_architecture(base)
    return config.with_(
        name="swapped",
        l2=L2Config(size_words=256 * 1024, line_words=32, ways=1,
                    access_time=2, split=True,
                    i_size_words=256 * 1024, d_size_words=32 * 1024,
                    i_access_time=6),
    )


@register("fig9",
          description="Fig. 9: split L2 on the MCM plus 8-word fetch")
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Regenerate Fig. 9 (plus the swap control)."""
    base = params.machine
    steps = [
        ("base", base),
        ("split L2 (32KW 2-cyc L2-I)", split_l2_architecture(base)),
        ("+ 8W L1 fetch/line", fetch8_architecture(base)),
        ("swapped I/D (control)", swapped_architecture(base)),
    ]
    rows: List[List] = []
    results = {}
    grid = run_systems([config for _, config in steps], scale)
    for (label, _), stats in zip(steps, grid):
        results[label] = stats
        rows.append([label, stats.cpi(), stats.memory_cpi])
    base_mem = results["base"].memory_cpi
    split_mem = results["split L2 (32KW 2-cyc L2-I)"].memory_cpi
    fetch_cpi_gain = (results["split L2 (32KW 2-cyc L2-I)"].cpi()
                      - results["+ 8W L1 fetch/line"].cpi())
    swap_loss = percent_improvement(
        results["swapped I/D (control)"].memory_cpi, split_mem
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="Gains from the split L2 on the MCM and 8W L1 fetch size",
        headers=["design point", "CPI", "memory CPI"],
        rows=rows,
        findings={
            "split_memory_improvement_pct": percent_improvement(base_mem,
                                                                split_mem),
            "fetch8_cpi_gain": fetch_cpi_gain,
            "swap_penalty_pct": swap_loss,
        },
        notes=("paper: split L2 gives a 34% memory-system improvement "
               "(memory CPI 0.242); 8W fetch adds 0.026 CPI; swapping "
               "I/D sizes/speeds costs ~21%"),
    )
