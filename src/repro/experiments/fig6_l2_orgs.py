"""Fig. 6 and Table 2: secondary cache size and organization.

Four L2 organizations — unified/split x direct-mapped/2-way — over sizes
16 KW to 1024 KW.  Making a cache 2-way associative costs one extra CPU cycle
of access time (6 -> 7).  Fig. 6 reports CPI; Table 2 reports the L2 miss
ratios of the same 28 runs.

Paper's findings checked here:

* miss ratio falls with size for every organization;
* 2-way beats direct-mapped at equal size (miss-ratio-wise);
* splitting hurts small caches (halved capacity per side) but improves
  direct-mapped caches of 64 KW or more, by removing I/D mapping conflicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import L2Config, SystemConfig, base_architecture
from repro.core.stats import SimStats
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


def organizations_from(values: Sequence) -> Tuple[Tuple[str, bool, int], ...]:
    """Convert scenario axis tables to ``(label, split, ways)`` tuples."""
    out = []
    for value in values:
        if isinstance(value, dict):
            extra = set(value) - {"label", "split", "ways"}
            if extra or not {"label", "split", "ways"} <= set(value):
                raise ConfigurationError(
                    "sweep axis 'organizations' tables need exactly the "
                    "keys label, split, ways; got "
                    f"{', '.join(sorted(value)) or 'nothing'}")
            out.append((str(value["label"]), bool(value["split"]),
                        int(value["ways"])))
        else:
            out.append(tuple(value))
    return tuple(out)


def config_for(size_kw: int, split: bool, ways: int,
               base: Optional[SystemConfig] = None) -> SystemConfig:
    """Base architecture with one L2 organization."""
    if base is None:
        base = base_architecture()
    access_time = 6 if ways == 1 else 7
    return base.with_(
        name=f"l2-{size_kw}kw-{'split' if split else 'unified'}-{ways}w",
        l2=L2Config(size_words=size_kw * 1024, line_words=32, ways=ways,
                    access_time=access_time, split=split),
    )


def run_grid(scale: ExperimentScale,
             organizations: Sequence[Tuple[str, bool, int]],
             sizes_kw: Sequence[int],
             base: Optional[SystemConfig] = None
             ) -> Dict[Tuple[str, int], SimStats]:
    """Simulate the full grid; keyed by (org label, size KW)."""
    points = [(label, split, ways, size_kw)
              for label, split, ways in organizations
              for size_kw in sizes_kw]
    stats = run_systems([config_for(size_kw, split, ways, base=base)
                         for _, split, ways, size_kw in points], scale)
    return {(label, size_kw): point_stats
            for (label, _, _, size_kw), point_stats in zip(points, stats)}


@register("fig6",
          description="Fig. 6 + Table 2: L2 size and organization grid",
          axes=("organizations", "sizes_kw"))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Regenerate Fig. 6 (CPI) and Table 2 (miss ratios) from one grid."""
    organizations = organizations_from(params.axis("organizations"))
    sizes_kw = params.axis("sizes_kw")
    grid = run_grid(scale, organizations, sizes_kw, base=params.machine)
    org_labels = [label for label, _, _ in organizations]

    cpi_rows: List[List] = []
    miss_rows: List[List] = []
    for size_kw in sizes_kw:
        cpi_rows.append([f"{size_kw}K"]
                        + [grid[(label, size_kw)].cpi()
                           for label in org_labels])
        miss_rows.append([f"{size_kw}K"]
                         + [grid[(label, size_kw)].l2_miss_ratio
                            for label in org_labels])

    from repro.analysis.tables import format_table
    table2 = format_table(
        ["size (words)"] + org_labels, miss_rows,
        title="Table 2: L2 miss ratios for the sizes and organizations "
              "of Fig. 6",
    )

    big = sizes_kw[-1]
    small = sizes_kw[0]
    findings = {
        "unified_1way_decline": (
            grid[("unified 1-way", small)].l2_miss_ratio
            / max(grid[("unified 1-way", big)].l2_miss_ratio, 1e-9)
        ),
        "assoc_gain_at_1024K": (
            grid[("unified 1-way", big)].l2_miss_ratio
            - grid[("unified 2-way", big)].l2_miss_ratio
        ),
        "split_gain_at_64K": (
            grid[("unified 1-way", 64 if 64 in sizes_kw else big)]
            .l2_miss_ratio
            - grid[("split 1-way", 64 if 64 in sizes_kw else big)]
            .l2_miss_ratio
        ),
        "split_loss_at_16K": (
            grid[("split 1-way", 16 if 16 in sizes_kw else small)]
            .l2_miss_ratio
            - grid[("unified 1-way", 16 if 16 in sizes_kw else small)]
            .l2_miss_ratio
        ),
    }
    return ExperimentResult(
        experiment_id="fig6",
        title="Performance of L2 sizes and organizations (CPI)",
        headers=["size (words)"] + org_labels,
        rows=cpi_rows,
        extra_text=table2,
        findings=findings,
        notes=("paper: splitting helps direct-mapped caches >= 64KW and "
               "hurts small ones; 2-way adds a cycle but lowers miss ratios"),
    )
