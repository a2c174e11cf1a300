"""Design-choice ablations.

The paper fixes several design parameters by argument rather than sweep;
these ablations check that the simulator agrees with the argument:

* ``wbdepth`` — write-buffer depth for the write-through machine.  Section 6
  picks 8 entries of one word (the same storage as the write-back machine's
  4x4 W buffer, at a quarter of the I/O pins).  Too shallow a buffer stalls
  stores; beyond a handful of entries the returns vanish.
* ``wboverlap`` — how many cycles of L2 latency a stream of buffered writes
  can overlap ("one or both", Section 6).  More overlap drains faster and
  trims write-buffer waits.
* ``coloring`` — page coloring [TDF90] versus a random frame allocator.
  Coloring keeps contiguous virtual regions from self-conflicting in the
  physically-indexed L2, which is why the paper can rely on untranslated
  index bits.
"""

from __future__ import annotations

from typing import List

from repro.core.config import (
    WriteBufferConfig,
    WritePolicy,
    split_l2_architecture,
)
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    run_systems,
)
from repro.scenario.params import ScenarioParams


@register("wbdepth",
          description="Write-buffer depth ablation for the write-through policies",
          axes=("depths",))
def run_wb_depth(scale: ExperimentScale,
                 params: ScenarioParams) -> ExperimentResult:
    """Sweep the write-through write-buffer depth (Section 6's choice: 8)."""
    depths = params.axis("depths")
    rows: List[List] = []
    cpis = {}
    grid = run_systems([
        split_l2_architecture(params.machine).with_(
            name=f"wb-depth-{depth}",
            write_buffer=WriteBufferConfig(depth=depth, width_words=1),
        ) for depth in depths], scale)
    for depth, stats in zip(depths, grid):
        cpis[depth] = stats.cpi()
        rows.append([depth, stats.cpi(),
                     stats.stall_wb / max(stats.instructions, 1)])
    return ExperimentResult(
        experiment_id="wbdepth",
        title="Write-buffer depth ablation (write-only policy)",
        headers=["depth", "CPI", "WB stall CPI"],
        rows=rows,
        findings={
            "gain_1_to_8": cpis[depths[0]]
            - cpis[8 if 8 in depths else depths[-1]],
            "gain_8_to_16": cpis[8 if 8 in depths else depths[0]]
            - cpis[depths[-1]],
        },
        notes=("deepening past the paper's 8 entries buys almost nothing; "
               "a 1-2 entry buffer stalls stores"),
    )


@register("wboverlap",
          description="Write-buffer drain-pipelining overlap ablation",
          axes=("overlaps",))
def run_wb_overlap(scale: ExperimentScale,
                   params: ScenarioParams) -> ExperimentResult:
    """Sweep the drain-pipelining overlap (Section 6: 'one or both')."""
    overlaps = params.axis("overlaps")
    rows: List[List] = []
    cpis = {}
    grid = run_systems([
        split_l2_architecture(params.machine).with_(
            name=f"wb-overlap-{overlap}",
            write_buffer=WriteBufferConfig(depth=8, width_words=1,
                                           overlap_cycles=overlap),
        ) for overlap in overlaps], scale)
    for overlap, stats in zip(overlaps, grid):
        cpis[overlap] = stats.cpi()
        rows.append([overlap, stats.cpi(),
                     stats.stall_wb / max(stats.instructions, 1)])
    return ExperimentResult(
        experiment_id="wboverlap",
        title="Write-drain latency-overlap ablation",
        headers=["overlap (cycles)", "CPI", "WB stall CPI"],
        rows=rows,
        findings={"gain_0_to_2": cpis[overlaps[0]] - cpis[overlaps[-1]]},
        notes="overlapping both latency cycles drains fastest (paper's model)",
    )


@register("coloring",
          description="Page coloring vs. pseudo-random frame allocation")
def run_coloring(scale: ExperimentScale,
                 params: ScenarioParams) -> ExperimentResult:
    """Page coloring vs. a pseudo-random frame allocator."""
    from repro.core.simulator import Simulation
    from repro.experiments.common import workload
    from repro.mmu.page_table import PageTable

    class RandomPageTable(PageTable):
        """First-touch allocator ignoring colors (hash-scattered frames)."""

        def translate_page(self, pid: int, vpage: int) -> int:
            key = (pid, vpage)
            frame = self._map.get(key)
            if frame is None:
                color = (vpage * 2654435761 + pid * 40503) % self.colors
                frame = color + self.colors * self._next_in_color[color]
                self._next_in_color[color] += 1
                self._map[key] = frame
            return frame

    config = params.machine
    rows: List[List] = []
    results = {}
    for label, table_cls in (("page coloring", PageTable),
                             ("random allocation", RandomPageTable)):
        sim = Simulation(config=config, profiles=workload(scale),
                         time_slice=scale.time_slice,
                         warmup_instructions=scale.warmup_instructions())
        # Swap the page table before any translation happens.
        table = table_cls()
        table.follow(sim.memsys)
        for process in sim.scheduler.ready_processes:
            process.page_table = table
        stats = sim.run()
        results[label] = stats
        rows.append([label, stats.cpi(), stats.l2_miss_ratio])
    return ExperimentResult(
        experiment_id="coloring",
        title="Page coloring vs. random frame allocation",
        headers=["allocator", "CPI", "L2 miss ratio"],
        rows=rows,
        findings={
            "coloring_cpi": results["page coloring"].cpi(),
            "random_cpi": results["random allocation"].cpi(),
        },
        notes=("coloring keeps contiguous regions from self-conflicting in "
               "the direct-mapped L2 (TDF90)"),
    )
