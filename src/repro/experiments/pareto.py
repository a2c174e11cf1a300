"""Power-performance Pareto frontier: CPI vs energy-per-instruction.

The paper buys speed with technology — GaAs DCFL SRAMs on an MCM — and
pays in standby watts (Section 2 quotes over a watt per L1 chip).  This
experiment makes that bill explicit: each technology point derives *both*
the L2 access time (:func:`repro.tech.timing.derive_cache_access`) and
the per-event energy model (:func:`repro.energy.derive_energy_model`)
from the same part/mounting choice, then sweeps L2 geometry under every
technology and reports which (technology, size, ways) points are
Pareto-optimal in (CPI, EPI).

The measured shape: ``all-gaas`` owns the low-CPI end of the frontier
(fast arrays close to the CPU, paid for in watts of DCFL standby
current), the paper's mixed machine owns the low-EPI end, and
``bicmos`` is dominated everywhere — its L2 is the paper's L2, so it
matches the paper's CPI point for point, but a board-mounted BiCMOS L1
pays more per access in PCB wire energy than the GaAs L1's standby
power costs per cycle.  The paper's partition (GaAs close to the CPU,
BiCMOS behind the connector) is recovered as a Pareto argument rather
than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import L2Config, SystemConfig, base_architecture
from repro.core.stats import SimStats
from repro.energy import resolve_technology
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams
from repro.tech.timing import derive_cache_access


@dataclass(frozen=True)
class ParetoPoint:
    """One (technology, geometry) design point and its two coordinates."""

    technology: str
    size_kw: int
    ways: int
    access_cycles: int
    cpi: float
    epi_pj: float
    stats: SimStats

    @property
    def label(self) -> str:
        return f"{self.technology}/{self.size_kw}KW/{self.ways}w"


def config_for(technology: str, size_kw: int, ways: int,
               base: Optional[SystemConfig] = None) -> SystemConfig:
    """Base architecture with the L2 this technology actually builds.

    The access time is *derived* from the technology's part and mounting,
    not copied from the paper's table — an all-GaAs L2 on the MCM is
    genuinely faster than the paper's board-mounted BiCMOS array, and
    that speed difference is what the energy axis trades against.
    """
    tech = resolve_technology(technology)
    access = derive_cache_access(
        f"L2 ({size_kw}KW, {technology})", size_kw * 1024,
        tech.l2_part, tech.l2_mounting, ways=ways)
    return (base if base is not None else base_architecture()).with_(
        name=f"pareto-{technology}-{size_kw}kw-{ways}w",
        l2=L2Config(size_words=size_kw * 1024, line_words=32, ways=ways,
                    access_time=access.cycles, split=False),
    )


def sweep(scale: ExperimentScale,
          params: Optional[ScenarioParams] = None) -> List[ParetoPoint]:
    """Run the full technology x geometry grid with energy accounting.

    ``params`` defaults to the committed ``scenarios/pareto.toml``
    resolution, so direct callers (tests, notebooks) sweep the same grid
    the CLI does.
    """
    if params is None:
        from repro.scenario.driver import default_params

        params = default_params("pareto")
    grid = [(technology, size_kw, ways)
            for technology in params.axis("technologies")
            for size_kw in params.axis("sizes_kw")
            for ways in params.axis("ways")]
    configs = [config_for(technology, size_kw, ways, base=params.machine)
               for technology, size_kw, ways in grid]
    stats_list = run_systems(configs, scale,
                             energies=[technology for technology, _, _
                                       in grid])
    return [ParetoPoint(technology=technology, size_kw=size_kw, ways=ways,
                        access_cycles=config.l2.access_time,
                        cpi=stats.cpi(), epi_pj=stats.epi_pj, stats=stats)
            for (technology, size_kw, ways), config, stats
            in zip(grid, configs, stats_list)]


def pareto_frontier(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """The non-dominated subset: no other point is <= on both axes and
    strictly better on one.  Returned in ascending-CPI order."""
    frontier = [
        p for p in points
        if not any(q.cpi <= p.cpi and q.epi_pj <= p.epi_pj
                   and (q.cpi < p.cpi or q.epi_pj < p.epi_pj)
                   for q in points)
    ]
    return sorted(frontier, key=lambda p: (p.cpi, p.epi_pj))


@register("pareto",
          description="CPI-vs-EPI Pareto frontier over energy technologies",
          axes=("technologies", "sizes_kw", "ways"))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Sweep technology x L2 geometry; report the CPI-vs-EPI frontier."""
    from repro.analysis.ascii_plot import scatter_chart

    points = sweep(scale, params)
    frontier = pareto_frontier(points)
    on_frontier = {p.label for p in frontier}

    rows: List[List] = []
    for p in sorted(points, key=lambda p: (p.cpi, p.epi_pj)):
        rows.append([
            "*" if p.label in on_frontier else "",
            p.technology, f"{p.size_kw}K", p.ways, p.access_cycles,
            round(p.cpi, 4), round(p.epi_pj, 1),
        ])

    series: Dict[str, List[Tuple[float, float]]] = {
        technology: [(p.cpi, p.epi_pj) for p in points
                     if p.technology == technology]
        for technology in params.axis("technologies")
    }
    series["frontier"] = [(p.cpi, p.epi_pj) for p in frontier]
    chart = scatter_chart(series, title="CPI vs energy per instruction",
                          x_label="CPI", y_label="EPI (pJ)")

    frontier_lines = ["frontier (ascending CPI):"]
    for p in frontier:
        frontier_lines.append(
            f"  {p.label:<20} CPI {p.cpi:.4f}, EPI {p.epi_pj:.1f} pJ")

    best_cpi = min(points, key=lambda p: p.cpi)
    best_epi = min(points, key=lambda p: p.epi_pj)
    techs_on_frontier = {p.technology for p in frontier}
    findings = {
        "points": float(len(points)),
        "frontier_size": float(len(frontier)),
        "frontier_technologies": float(len(techs_on_frontier)),
        "best_cpi": best_cpi.cpi,
        "best_cpi_epi_pj": best_cpi.epi_pj,
        "best_epi_pj": best_epi.epi_pj,
        "best_epi_cpi": best_epi.cpi,
        "paper_on_frontier": float(any(p.technology == "paper"
                                       for p in frontier)),
    }
    return ExperimentResult(
        experiment_id="pareto",
        title="Power-performance frontier over energy technologies",
        headers=["", "technology", "L2 size", "ways", "L2 cycles",
                 "CPI", "EPI (pJ)"],
        rows=rows,
        extra_text="\n".join(frontier_lines) + "\n\n" + chart,
        findings=findings,
        notes=("* marks Pareto-optimal points; both L2 access time and the "
               "energy model are derived from each technology's part and "
               "mounting, so the axes trade off through shared physics"),
    )

