"""Sweep points as farm tasks: specify, address, execute, memoize.

A :class:`PointSpec` bundles everything a sweep point needs; its
:meth:`~PointSpec.payload` is the canonical dict that (a) hashes to the
cache key and (b) ships to a pool worker, which rebuilds the simulation
from it via :mod:`repro.core.serialization`.  Because worker and key share
one description, a cached result is by construction the result of the
keyed computation.

:func:`run_points` is the farm's main entry: cache-probe every point,
execute the misses as one batch through :func:`repro.farm.pool.run_tasks`
(warm forked workers when ``jobs > 1``), store and
narrate each result, and return stats **in input order** — callers cannot
observe whether a point came from silicon or disk.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.engine import DEFAULT_ENGINE
from repro.core.stats import SimStats
from repro.farm.cache import ResultCache, payload_key, point_payload
from repro.farm.pool import run_tasks
from repro.farm.telemetry import RunTelemetry
from repro.params import DEFAULT_TIME_SLICE
from repro.trace.synthetic import BenchmarkProfile


@dataclass(frozen=True)
class PointSpec:
    """One sweep point, fully specified."""

    label: str
    config: SystemConfig
    profiles: Tuple[BenchmarkProfile, ...]
    time_slice: int = DEFAULT_TIME_SLICE
    level: Optional[int] = None
    warmup_instructions: int = 0
    max_instructions: Optional[int] = None
    engine: str = DEFAULT_ENGINE
    #: Energy accounting technology name (``None`` = disabled); the
    #: *derived model* joins the payload, so it is part of the cache key.
    energy: Optional[str] = None
    #: ``scenario_sha256`` of the resolved scenario document this point
    #: was launched from (``None`` = no scenario).  Inert for execution,
    #: but part of the payload and therefore the cache key — a scenario's
    #: results are addressed under the scenario's own content identity.
    scenario: Optional[str] = None

    def payload(self) -> Dict[str, Any]:
        """Canonical dict: cache-key preimage and worker input."""
        return point_payload(self.config, self.profiles, self.time_slice,
                             self.level, self.warmup_instructions,
                             self.max_instructions, self.engine,
                             self.energy, self.scenario)

    def key(self) -> str:
        """Content address of this point."""
        return payload_key(self.payload())


def execute_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one canonical point payload; the pool's task function.

    Returns a picklable dict: the stats snapshot plus wall-clock so the
    parent's telemetry can attribute time spent in workers, and an ``obs``
    snapshot of this process's global metrics registry so forked workers
    ship their counters back over the existing result channel (the parent
    folds them in; see :func:`run_points`).

    This is the farm's process-fault boundary: when the chaos harness arms
    :data:`repro.robust.faults.WORKER_FAULT_ENV`, the injected crash/stall
    happens here — before any result exists — so a killed worker can only
    ever cost a retry, never corrupt a result.
    """
    import repro.obs as obs
    from repro.core.serialization import config_from_dict, profile_from_dict
    from repro.core.simulator import Simulation

    # In a traced run a forked worker inherits runtime.enabled=True and the
    # tracer rebinds to a per-pid sibling file on first emit; a spawned
    # worker starts cold and picks tracing up from the environment here.
    obs.enable_from_env()

    if os.environ.get("REPRO_WORKER_FAULTS"):
        from repro.robust.faults import maybe_worker_fault

        maybe_worker_fault(label="execute_point")

    config_dict = dict(payload["config"])
    config_dict.setdefault("name", "farm-point")
    config = config_from_dict(config_dict)
    profiles = [profile_from_dict(p) for p in payload["profiles"]]
    # An "obs_trace" key is out-of-band (the serve layer adds it to a copy
    # of the payload; cache keys are computed from the pristine one): the
    # simulation's spans are collected under that trace ID and shipped back
    # so the caller can stitch the cross-process trace together.
    trace = (obs.Trace(payload["obs_trace"])
             if payload.get("obs_trace") else None)
    # The payload carries the *derived* energy model, not just its name:
    # the worker runs exactly the cost vector the cache key hashed.
    energy = payload.get("energy")
    if energy is not None:
        from repro.energy import EnergyModel

        energy = EnergyModel.from_params(energy)
    # Likewise out-of-band: "trace_store" names the store the workload's
    # traces replay from (see with_trace_store); the batches are identical
    # either way, so it is no part of the key.
    store = None
    if payload.get("trace_store"):
        from repro.trace.store import TraceStore

        store = TraceStore(payload["trace_store"])
    started = time.monotonic()
    try:
        sim = Simulation(config=config, profiles=profiles,
                         time_slice=payload["time_slice"],
                         level=payload["level"],
                         warmup_instructions=payload["warmup_instructions"],
                         engine=payload.get("engine", DEFAULT_ENGINE),
                         energy=energy, trace_store=store)
        if trace is not None:
            with obs.activate_trace(trace):
                stats = sim.run(max_instructions=payload["max_instructions"])
        else:
            stats = sim.run(max_instructions=payload["max_instructions"])
    finally:
        if store is not None:
            store.close()
    wall_s = time.monotonic() - started
    # Per-task registry, not the global one: a forked worker inherits the
    # parent's global counters and the inline pool *is* the parent, so
    # shipping a delta-free global snapshot would double-count.  The
    # receiving side merges this exactly once.
    task_metrics = obs.Registry()
    task_metrics.counter("sim_runs_total", "simulations executed").inc()
    task_metrics.counter("sim_instructions_total",
                         "instructions simulated").inc(stats.instructions)
    task_metrics.histogram("sim_wall_seconds",
                           "wall-clock seconds per simulation"
                           ).observe(wall_s)
    if energy is not None:
        task_metrics.counter("sim_energy_pj_total",
                             "accounted energy (picojoules)"
                             ).inc(stats.energy_total_fj // 1000)
    if store is not None:
        lookups = task_metrics.counter(
            "sim_trace_store_total", "trace store lookups by outcome",
            labels=("outcome",))
        for outcome, count in store.counts.items():
            if count:
                lookups.labels(outcome).inc(count)
    result = {
        "stats": stats.to_dict(),
        "wall_s": wall_s,
        "obs": task_metrics.snapshot(),
    }
    if trace is not None:
        result["trace_spans"] = trace.spans
    return result


def with_trace_store(payload: Dict[str, Any],
                     cache: Optional[ResultCache]) -> Dict[str, Any]:
    """``payload`` with the out-of-band ``trace_store`` key pointing into
    ``cache`` (a copy; unchanged when there is no cache): a cached run
    synthesizes each workload trace once and replays it at every point."""
    if cache is None:
        return payload
    return dict(payload, trace_store=str(cache.traces_root))


def run_points(specs: Sequence[PointSpec],
               jobs: int = 1,
               cache: Optional[ResultCache] = None,
               telemetry: Optional[RunTelemetry] = None,
               timeout: Optional[float] = None,
               retries: int = 1,
               on_point=None,
               stop_event=None,
               dispatcher=None,
               journal=None,
               durable=None) -> List[SimStats]:
    """Execute every point (cache first, then the pool); input order out.

    Args:
        specs: the points to produce results for.
        jobs: warm forked workers the misses fan out across, all in one
            :class:`~repro.farm.pool.WorkerPool` for the call (1 =
            in-process, serially).
        cache: optional result cache probed/filled per point.
        telemetry: optional sink for per-point events.
        timeout: per-point wall-clock limit (parallel mode).
        retries: crash/timeout re-run budget per point.
        on_point: called with each label as its processing starts, in
            input order (the legacy ``progress`` hook of ``run_sweep``).
        stop_event: optional cancellation token forwarded to the pool
            (see :func:`repro.farm.pool.run_tasks`).
        dispatcher: a :class:`repro.grid.GridDispatcher`; when set, the
            whole call delegates to it (the dispatcher honors the same
            cache/telemetry/ordering contract, against its own session
            handles) and every other execution knob is ignored — except
            ``journal``/``durable``, which are forwarded.
        journal: a :class:`repro.durable.RunJournal`, journal file path,
            or journal directory; when set, the whole sweep runs under a
            write-ahead journal (see :mod:`repro.durable`) and is
            resumable exactly-once after a crash of any process,
            including this one.  Requires ``cache``.
        durable: optional :class:`repro.durable.DurableSettings`
            overriding lease/heartbeat/retry-budget timing.
    """
    if dispatcher is not None:
        return dispatcher.run_points(specs, on_point=on_point,
                                     journal=journal, durable=durable)
    if journal is not None:
        return _run_points_durable(specs, jobs, cache, telemetry, timeout,
                                   on_point, stop_event, journal, durable)
    results: List[Optional[SimStats]] = [None] * len(specs)
    todo: List[int] = []
    keys: List[Optional[str]] = [None] * len(specs)
    for i, spec in enumerate(specs):
        if on_point is not None:
            on_point(spec.label)
        if cache is not None:
            keys[i] = spec.key()
            hit = cache.get(keys[i])
            if hit is not None:
                results[i] = hit
                if telemetry is not None:
                    telemetry.record_point(spec.label, hit.instructions,
                                           0.0, cached=True)
                continue
        todo.append(i)

    def finish(j: int, value: Dict[str, Any]) -> None:
        i = todo[j]
        stats = SimStats.from_dict(value["stats"])
        results[i] = stats
        if cache is not None:
            key = keys[i] if keys[i] is not None else specs[i].key()
            cache.put(key, stats, meta={
                "label": specs[i].label,
                "config": specs[i].config.name,
                "instructions": stats.instructions,
                "wall_s": round(value["wall_s"], 3),
                "created_unix": int(time.time()),
            })
        if telemetry is not None:
            telemetry.record_point(specs[i].label, stats.instructions,
                                   value["wall_s"], cached=False)
            if value.get("obs"):
                telemetry.registry.merge(value["obs"])

    run_tasks(execute_point,
              [with_trace_store(specs[i].payload(), cache) for i in todo],
              jobs=jobs,
              timeout=timeout,
              retries=retries,
              labels=[specs[i].label for i in todo],
              on_result=finish,
              stop_event=stop_event)
    return results  # type: ignore[return-value]


def _retry_reason(what: str) -> str:
    return "lease_expired" if "lease expired" in what else "worker_crashed"


def _run_points_durable(specs: Sequence[PointSpec], jobs, cache, telemetry,
                        timeout, on_point, stop_event, journal,
                        durable) -> List[SimStats]:
    """The journaled twin of :func:`run_points`'s local path.

    Same contract (cache first, input order out, callers cannot tell
    silicon from disk) plus the WAL: recovery replays ``point_done``
    records validated against the cache, every execution attempt is
    journaled as a lease before it starts, every stored result is
    journaled after the cache holds it, and the pool's heartbeat/lease
    machinery feeds the journal's watchdog counters.  The per-point
    retry budget comes from ``durable.max_point_retries`` and is counted
    *across resumes* — the pool's own retry knob is slaved to it.
    """
    from repro.durable import DurableRun, DurableSettings

    settings = durable if durable is not None else DurableSettings()
    run = DurableRun(journal, cache, settings,
                     registry=telemetry.registry if telemetry else None)
    try:
        recovered = run.begin(specs)
        results: List[Optional[SimStats]] = [None] * len(specs)
        todo: List[int] = []
        for i, spec in enumerate(specs):
            if on_point is not None:
                on_point(spec.label)
            hit = recovered.get(i)
            if hit is None and i not in run.state.done:
                # A cache entry with no done record is the signature of a
                # crash between cache.put and the journal append — the
                # result is durable, only the record is missing.
                hit = cache.get(spec.key())
                if hit is not None:
                    run.done(i, hit)
            if hit is not None:
                results[i] = hit
                if telemetry is not None:
                    telemetry.record_point(spec.label, hit.instructions,
                                           0.0, cached=True)
                continue
            todo.append(i)

        parallel = jobs > 1

        def on_start(j: int) -> None:
            run.claim(todo[j])

        def on_heartbeat(j: int) -> None:
            run.heartbeat(todo[j])

        def on_retry(j: int, what: str) -> None:
            run.reclaim(todo[j], reason=_retry_reason(what))

        def finish(j: int, value: Dict[str, Any]) -> None:
            i = todo[j]
            stats = SimStats.from_dict(value["stats"])
            results[i] = stats
            cache.put(specs[i].key(), stats, meta={
                "label": specs[i].label,
                "config": specs[i].config.name,
                "instructions": stats.instructions,
                "wall_s": round(value["wall_s"], 3),
                "created_unix": int(time.time()),
            })
            run.done(i, stats)   # after the put: done asserts durability
            if telemetry is not None:
                telemetry.record_point(specs[i].label, stats.instructions,
                                       value["wall_s"], cached=False)
                if value.get("obs"):
                    telemetry.registry.merge(value["obs"])

        run_tasks(execute_point,
                  [with_trace_store(specs[i].payload(), cache)
                   for i in todo],
                  jobs=jobs,
                  timeout=timeout,
                  retries=settings.max_point_retries,
                  labels=[specs[i].label for i in todo],
                  on_result=finish,
                  stop_event=stop_event,
                  heartbeat_s=settings.heartbeat_s if parallel else None,
                  lease_s=settings.lease_s if parallel else None,
                  on_heartbeat=on_heartbeat if parallel else None,
                  on_start=on_start,
                  on_retry=on_retry)
        run.seal()
        return results  # type: ignore[return-value]
    finally:
        run.close()
