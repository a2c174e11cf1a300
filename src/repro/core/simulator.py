"""High-level simulation driver: configuration + workload -> statistics.

This is the public entry point most users want::

    from repro import base_architecture, default_suite, simulate

    stats = simulate(base_architecture(),
                     default_suite(instructions_per_benchmark=200_000),
                     level=8)
    print(stats.cpi(), stats.breakdown())

Long runs can be made restartable and self-checking (see
:mod:`repro.robust`)::

    sim = Simulation(config, profiles)
    sim.run(checkpoint_every=1_000_000, checkpoint_path="run.ckpt")
    # ... after a crash ...
    from repro.robust.checkpoint import resume
    sim = resume("run.ckpt")
    stats = sim.run(checkpoint_every=1_000_000, checkpoint_path="run.ckpt")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.engine import DEFAULT_ENGINE
from repro.core.hierarchy import MemorySystem
from repro.core.stats import SimStats
from repro.errors import CheckpointError
from repro.mmu.page_table import PageTable
from repro.params import DEFAULT_TIME_SLICE
from repro.sched.process import Process
from repro.sched.scheduler import Scheduler
from repro.trace.synthetic import BenchmarkProfile, SyntheticBenchmark

#: Simulation snapshot schema.  Version 2 added the explicit version field
#: and the engine name; version-1 snapshots (no version key) still load.
#: Version 3 added the energy-model selection — written only when a model
#: is attached, so energy-free checkpoints stay readable by older builds.
STATE_VERSION = 2
ENERGY_STATE_VERSION = 3
_KNOWN_STATE_VERSIONS = (1, 2, 3)


@dataclass
class Simulation:
    """A configured simulation, ready to run.

    Attributes:
        config: the memory-system configuration under test.
        profiles: the benchmark mix (admission order = paper's process order).
        time_slice: scheduler slice in cycles.
        level: multiprogramming level (defaults to every profile at once).
        warmup_instructions: statistics cleared after this many instructions.
    """

    config: SystemConfig
    profiles: Sequence[BenchmarkProfile]
    time_slice: int = DEFAULT_TIME_SLICE
    level: Optional[int] = None
    warmup_instructions: int = 0
    #: Attribute activity to individual processes (slice-granular).
    track_per_process: bool = False
    #: ``"raise"`` rejects corrupt trace batches; ``"skip"`` drops and counts
    #: the offending records (``SimStats.trace_records_skipped``).
    trace_errors: str = "raise"
    #: Execution engine: ``"native"`` (the compiled hot path, default) or
    #: ``"reference"`` (the Python loop that explains it); engines are
    #: bit-identical.
    engine: str = DEFAULT_ENGINE
    #: Optional runtime invariant auditing
    #: (:class:`repro.robust.audit.AuditConfig`).
    audit: Optional[object] = None
    #: Energy accounting: ``None`` (disabled, free), a technology name
    #: from :data:`repro.energy.ENERGY_TECHNOLOGIES`, or an
    #: :class:`~repro.energy.EnergyModel`.
    energy: Optional[object] = None
    memsys: MemorySystem = field(init=False)
    scheduler: Scheduler = field(init=False)
    page_table: PageTable = field(init=False)

    def __post_init__(self) -> None:
        self.memsys = MemorySystem(self.config, engine=self.engine,
                                   energy=self.energy)
        self.page_table = PageTable()
        self.page_table.follow(self.memsys)
        processes: List[Process] = [
            Process(pid=i + 1, name=profile.name,
                    source=SyntheticBenchmark(profile),
                    page_table=self.page_table,
                    trace_errors=self.trace_errors)
            for i, profile in enumerate(self.profiles)
        ]
        auditor = None
        if self.audit is not None:
            from repro.robust.audit import InvariantAuditor

            auditor = InvariantAuditor(self.memsys, self.audit)
        self.scheduler = Scheduler(self.memsys, processes,
                                   time_slice=self.time_slice,
                                   level=self.level,
                                   track_per_process=self.track_per_process,
                                   auditor=auditor)

    def run(self, max_instructions: Optional[int] = None,
            checkpoint_every: Optional[int] = None,
            checkpoint_path=None) -> SimStats:
        """Run to completion (or budget); returns the statistics.

        Args:
            max_instructions: optional global instruction budget.
            checkpoint_every: checkpoint roughly every this many instructions
                (at slice granularity).  Requires ``checkpoint_path``.
            checkpoint_path: where to write the atomic, checksummed
                checkpoint file; a final checkpoint is written when the run
                ends, so a completed run resumes as a no-op.
        """
        on_slice = None
        if checkpoint_every is not None or checkpoint_path is not None:
            if checkpoint_every is None or checkpoint_path is None:
                raise CheckpointError(
                    "checkpoint_every and checkpoint_path must be given "
                    "together")
            if checkpoint_every <= 0:
                raise CheckpointError("checkpoint_every must be positive")
            from repro.robust.checkpoint import save_checkpoint

            last_checkpoint = self.scheduler.instructions_run

            def on_slice(scheduler: Scheduler) -> None:
                nonlocal last_checkpoint
                if (scheduler.instructions_run - last_checkpoint
                        >= checkpoint_every):
                    save_checkpoint(self, checkpoint_path)
                    last_checkpoint = scheduler.instructions_run

        from repro.obs import runtime as _obs
        from repro.obs.tracing import current_trace, span

        if _obs.enabled or current_trace() is not None:
            with span("simulate", cat="sim",
                      level=self.level or len(list(self.profiles)),
                      benchmarks=len(list(self.profiles))):
                stats = self.scheduler.run(
                    max_instructions=max_instructions,
                    warmup_instructions=self.warmup_instructions,
                    on_slice=on_slice)
        else:
            stats = self.scheduler.run(
                max_instructions=max_instructions,
                warmup_instructions=self.warmup_instructions,
                on_slice=on_slice)
        if _obs.enabled and self.memsys.energy is not None:
            record = {cls: round(pj, 1)
                      for cls, pj in stats.energy_breakdown_pj().items()}
            _obs.tracer.emit(
                "energy", epi_pj=round(stats.epi_pj, 4),
                total_pj=round(stats.energy_total_fj / 1000.0, 1),
                technology=self.memsys.energy.model.technology, **record)
        if checkpoint_path is not None:
            from repro.robust.checkpoint import save_checkpoint

            save_checkpoint(self, checkpoint_path)
        return stats

    @property
    def per_process_stats(self):
        """Per-benchmark statistics (requires ``track_per_process=True``)."""
        return self.scheduler.process_stats

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Complete simulation snapshot (see
        :mod:`repro.robust.checkpoint` for the on-disk envelope)."""
        from repro.core.serialization import config_to_dict, profile_to_dict

        if self.audit is not None and getattr(self.audit, "lockstep", False):
            raise CheckpointError(
                "cannot checkpoint a lockstep-audited run: the functional "
                "mirror's state is not serializable; use structural-only "
                "auditing (lockstep=False) with checkpointing"
            )
        simulation = {
            "time_slice": self.time_slice,
            "level": self.level,
            "warmup_instructions": self.warmup_instructions,
            "track_per_process": self.track_per_process,
            "trace_errors": self.trace_errors,
            "engine": self.engine,
        }
        version = STATE_VERSION
        if self.energy is not None:
            from repro.energy import energy_spec

            simulation["energy"] = energy_spec(self.energy)
            version = ENERGY_STATE_VERSION
        return {
            "version": version,
            "config": config_to_dict(self.config),
            "profiles": [profile_to_dict(p) for p in self.profiles],
            "simulation": simulation,
            "page_table": self.page_table.state_dict(),
            "memsys": self.memsys.state_dict(),
            "scheduler": self.scheduler.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this simulation.

        The simulation must have been constructed with the same
        configuration and profiles (``resume`` handles that); ordering
        matters: the page table is restored before the scheduler so that
        in-flight batches re-translate identically.
        """
        version = state.get("version", 1)
        if version not in _KNOWN_STATE_VERSIONS:
            raise CheckpointError(
                f"simulation snapshot has unknown state version {version!r} "
                f"(this build understands {_KNOWN_STATE_VERSIONS}); "
                "it was probably written by a newer build")
        try:
            self.page_table.load_state(state["page_table"])
            self.memsys.load_state(state["memsys"])
            self.scheduler.load_state(state["scheduler"])
        except KeyError as exc:
            raise CheckpointError(
                f"simulation snapshot is missing section {exc}") from exc


def simulate(config: SystemConfig, profiles: Sequence[BenchmarkProfile],
             time_slice: int = DEFAULT_TIME_SLICE,
             level: Optional[int] = None,
             warmup_instructions: int = 0,
             max_instructions: Optional[int] = None,
             engine: str = DEFAULT_ENGINE,
             energy: Optional[object] = None) -> SimStats:
    """One-call convenience wrapper around :class:`Simulation`."""
    sim = Simulation(config=config, profiles=profiles, time_slice=time_slice,
                     level=level, warmup_instructions=warmup_instructions,
                     engine=engine, energy=energy)
    return sim.run(max_instructions=max_instructions)
