"""Chaos storms: prove the service, the grid and the journal degrade,
never lie.

The paper's conclusions rest on small CPI differences, so no fault may
ever produce a wrong one.  Each storm computes its ground truth first,
with the bare :func:`~repro.core.simulator.simulate` (nothing shared with
the system under test, no fault armed), then attacks the system and
checks every answer against it:

``serve``
    Boots a :class:`~repro.serve.server.SimServer` and hammers it from
    concurrent :class:`~repro.serve.client.ServeClient` threads while a
    saboteur byte-flips its cache entries and
    :data:`~repro.robust.faults.WORKER_FAULT_ENV` makes forked workers
    crash or stall.  Contract: every 200 is bit-identical to ground
    truth; every failure is a classified 429/5xx; requests with a
    hopeless deadline come back 504; a full-length storm under fork
    isolation sheds at least once; ``/metrics`` stays well-formed; the
    drain ends within its grace and leaves no worker alive.
``grid``
    Launches real backends (:class:`~repro.grid.backends.BackendPool`),
    SIGKILLs one mid-sweep, SIGSTOPs another and corrupts a third's
    cache.  Contract: zero lost points; every result bit-identical to
    serial; the killed backend is quarantined; the stalled one is
    re-admitted after SIGCONT.
``durable``
    Counts the ``R`` journal appends of an uninterrupted run, then for
    each offset ``k`` in ``1..R`` SIGKILLs a fresh coordinator right after
    its ``k``-th fsynced append (:data:`~repro.durable.journal.CRASH_ENV`)
    and resumes it.  Contract per offset: the coordinator died by
    SIGKILL; the resumed results are bit-identical; the final journal is
    sealed with exactly one ``point_done`` per point; the cache holds one
    entry per point.  A ``jobs=2`` crash and a stalled worker (SIGSTOPped
    past its lease, reaped by the watchdog) ride along.

Every storm returns a :class:`ChaosReport`; ``report.passed`` is the one
bit CI cares about.  ``python -m repro.chaos {serve,grid,durable}`` (or
``repro-chaos``) runs one storm and exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import collections
import json
import multiprocessing
import os
import random
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import base_architecture
from repro.core.simulator import simulate
from repro.durable.journal import CRASH_ENV, read_records, replay_records
from repro.errors import (
    ConfigurationError,
    GridError,
    JournalError,
    ServeError,
    cli_errors,
)
from repro.farm.cache import ResultCache
from repro.farm.points import PointSpec
from repro.robust.faults import (
    WORKER_FAULT_ENV,
    FaultInjector,
    worker_fault_spec,
)
from repro.serve.protocol import wire_body
from repro.trace.benchmarks import default_suite


@dataclass
class ChaosReport:
    """What a storm produced: event counts, context, contract breaches."""

    storm: str
    counts: Dict[str, int] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """Counts and flat details, one per line (nested details are in
        :meth:`to_dict` only), then every violation."""
        lines = [f"== {self.storm} chaos report =="]
        for key, value in {**self.counts, **self.details}.items():
            items = value if isinstance(value, list) else [value]
            if not any(isinstance(v, (dict, list)) for v in items):
                lines.append(f"{key:<21}: {value}")
        lines.append(f"{'violations':<21}: {len(self.violations)}")
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {"storm": self.storm, "passed": self.passed,
                "counts": self.counts, "details": self.details,
                "violations": self.violations}


def _require_positive(settings: Any, *names: str) -> None:
    for name in names:
        value = getattr(settings, name)
        if not value > 0:
            raise ConfigurationError(
                f"{name} must be positive, got {value!r}")


def _specs(points: int, instructions: int, label: str) -> List[PointSpec]:
    """``points`` one-benchmark specs of distinct workload sizes, so
    distinct content addresses."""
    config = base_architecture()
    return [PointSpec(label=f"{label}-{i}", config=config,
                      profiles=tuple(default_suite(instructions + 250 * i)
                                     [:1]),
                      time_slice=2000)
            for i in range(points)]


def _ground_truth(specs: List[PointSpec]) -> List[Dict[str, int]]:
    """Fault-free, cache-free stats of every spec from the bare
    simulator: service-vs-silicon, nothing shared."""
    return [simulate(spec.config, list(spec.profiles),
                     time_slice=spec.time_slice, level=spec.level).to_dict()
            for spec in specs]


class _Background(threading.Thread):
    """A daemon thread that runs for the length of a ``with`` block."""

    def __init__(self, name: str):
        super().__init__(name=name, daemon=True)
        self.stop = threading.Event()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.join(timeout=2.0)


class _Saboteur(_Background):
    """Byte-flips random cache entries under ``cache_root``."""

    def __init__(self, cache_root: Path, period_s: float, seed: int):
        super().__init__("chaos-saboteur")
        self.cache_root = Path(cache_root)
        self.period_s = period_s
        self.injector = FaultInjector(seed=seed)
        self.rng = random.Random(seed)
        self.corruptions = 0

    def run(self) -> None:
        while not self.stop.wait(self.period_s):
            entries = list(self.cache_root.glob("*.json"))
            if not entries:
                continue
            try:
                self.injector.corrupt_file(
                    self.rng.choice(entries),
                    offset=self.rng.randrange(64),
                    kind="corrupt_cache_entry")
                self.corruptions += 1
            except (OSError, IndexError, ValueError):
                continue  # entry vanished or shrank mid-flip: fine


# --------------------------------------------------------------- serve


@dataclass
class ServeChaosSettings:
    """Knobs for the serve storm; defaults are CI-sized."""

    duration_s: float = 6.0
    clients: int = 4
    #: Distinct points the clients draw from (repeats exercise the cache;
    #: corruption then exercises its verification).
    points: int = 3
    instructions: int = 6000
    #: Every Nth request per client has a deadline far below its
    #: simulation time, and must come back as an explicit 504.
    hopeless_every: int = 8
    worker_crash_p: float = 0.25
    #: Stalls pin the single executor, which is what fills the queue and
    #: forces 429 shedding.
    worker_stall_p: float = 0.35
    worker_stall_s: float = 1.2
    queue_depth: int = 2
    retries: int = 3
    drain_grace_s: float = 30.0
    isolation: str = "auto"
    seed: int = 0

    def __post_init__(self):
        _require_positive(self, "duration_s", "clients", "points",
                          "instructions")


#: Classified failure statuses (0: the client never reached the server).
_SERVE_FAILURES = {429: "shed", 504: "deadline_expired", 503: "unavailable",
                   500: "server_error", 0: "gave_up"}


def _ask(client, body: Dict[str, Any], truth: Optional[Dict[str, int]],
         index: int, budget_s: float, report: ChaosReport,
         lock: threading.Lock) -> None:
    """One request, counted and checked; ``truth`` is ``None`` for a
    hopeless one, which must never come back 200."""
    with lock:
        report.counts["requests"] += 1
        report.counts["hopeless_sent"] += int(truth is None)
    try:
        result = client.simulate(body, budget_s=budget_s)
    except ServeError as exc:
        with lock:
            if exc.status in _SERVE_FAILURES:
                report.counts[_SERVE_FAILURES[exc.status]] += 1
            else:
                report.violations.append(
                    f"unclassified failure status {exc.status}: {exc}")
        return
    with lock:
        if truth is None:
            report.violations.append(
                "hopeless request (deadline far below simulation time) "
                "returned 200 — deadline not enforced")
            return
        report.counts["ok"] += 1
        report.counts["ok_cached"] += int(bool(result.get("cached")))
        if result.get("stats") != truth:
            report.violations.append(
                f"point {index}: 200 response diverged from ground "
                f"truth (cached={result.get('cached')})")


def _client_loop(client, bodies: List[Dict[str, Any]],
                 truths: List[Dict[str, int]], hopeless: Dict[str, Any],
                 hopeless_every: int, stop_at: float, rng: random.Random,
                 report: ChaosReport, lock: threading.Lock) -> None:
    sent = 0
    while time.monotonic() < stop_at:
        sent += 1
        index = rng.randrange(len(bodies))
        if hopeless_every > 0 and sent % hopeless_every == 0:
            # A short budget: every attempt is a guaranteed 504, so
            # retrying at length proves nothing.
            _ask(client, hopeless, None, index, 1.0, report, lock)
        else:
            _ask(client, bodies[index], truths[index], index, 10.0,
                 report, lock)
    client.close()


def run_serve(settings: Optional[ServeChaosSettings] = None) -> ChaosReport:
    """The serve storm against an in-process server; see the module doc."""
    from repro.serve.client import CircuitBreaker, RetryPolicy, ServeClient
    from repro.serve.server import ServeSettings, SimServer

    settings = settings or ServeChaosSettings()
    report = ChaosReport("serve", counts=dict.fromkeys(
        ("requests", "ok", "ok_cached", "hopeless_sent",
         *_SERVE_FAILURES.values(), "corruptions"), 0))
    started = time.monotonic()
    lock = threading.Lock()
    specs = _specs(settings.points, settings.instructions, "serve")
    truths = _ground_truth(specs)
    bodies = [wire_body(spec) for spec in specs]
    # Sized for the native engine (several Minstr/s): well over ten times
    # the deadline even before trace synthesis, so it never finishes and
    # never lands in the cache; the kill at the deadline bounds its cost.
    hopeless = dict(wire_body(_specs(
        1, max(5_000_000, settings.instructions * 500), "hopeless")[0]),
        deadline_s=0.05)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as cache_dir:
        server = SimServer(
            ServeSettings(port=0, queue_depth=settings.queue_depth,
                          workers=1, default_deadline_s=15.0,
                          max_deadline_s=30.0,
                          drain_grace_s=settings.drain_grace_s,
                          retries=settings.retries,
                          isolation=settings.isolation),
            cache=ResultCache(Path(cache_dir)))
        server.start()
        url = f"http://127.0.0.1:{server.port}"
        # One hopeless request on the idle server, before any load or
        # fault: under load the storm's own hopeless requests may all be
        # shed or retried out of budget, so only this probe makes "some
        # hopeless request came back 504" a deterministic check.
        probe = ServeClient(url, retry=RetryPolicy(max_attempts=1),
                            timeout_s=20.0)
        _ask(probe, hopeless, None, -1, 20.0, report, lock)
        probe.close()
        previous_faults = os.environ.get(WORKER_FAULT_ENV)
        os.environ[WORKER_FAULT_ENV] = worker_fault_spec(
            crash=settings.worker_crash_p, stall=settings.worker_stall_p,
            stall_s=settings.worker_stall_s)
        try:
            with _Saboteur(Path(cache_dir), 0.2, settings.seed) as saboteur:
                stop_at = time.monotonic() + settings.duration_s
                threads = []
                for i in range(settings.clients):
                    client = ServeClient(
                        url,
                        retry=RetryPolicy(max_attempts=4, base_delay_s=0.05,
                                          max_delay_s=0.5),
                        breaker=CircuitBreaker(failure_threshold=10,
                                               cooldown_s=0.5),
                        timeout_s=20.0, rng=random.Random(settings.seed + i))
                    thread = threading.Thread(
                        target=_client_loop,
                        args=(client, bodies, truths, hopeless,
                              settings.hopeless_every, stop_at,
                              random.Random(1000 + settings.seed + i),
                              report, lock),
                        name=f"chaos-client-{i}", daemon=True)
                    thread.start()
                    threads.append(thread)
                for thread in threads:
                    thread.join(timeout=settings.duration_s + 60.0)

                # Metrics must be a well-formed snapshot while serving.
                metrics = json.loads(json.dumps(server.status_snapshot()))
                for key in ("requests_total", "responses", "executor",
                            "queue", "farm", "draining"):
                    if key not in metrics:
                        report.violations.append(
                            f"/metrics is missing '{key}'")
                report.details["isolation"] = metrics.get("isolation")
                report.details["metrics"] = metrics

                # Drain while the tail of the load may still be in flight.
                drain_started = time.monotonic()
                summary = server.drain()
                drain_wall = time.monotonic() - drain_started
                report.details.update(
                    drain_clean=summary["clean"],
                    drain_cancelled=summary["cancelled"],
                    drain_wall_s=round(drain_wall, 3))
                if drain_wall > settings.drain_grace_s + 5.0:
                    report.violations.append(
                        f"drain took {drain_wall:.1f}s, grace was "
                        f"{settings.drain_grace_s:g}s")
                leftover = multiprocessing.active_children()
                if leftover:
                    report.violations.append(
                        f"{len(leftover)} worker process(es) left alive "
                        "after drain")
        finally:
            if previous_faults is None:
                os.environ.pop(WORKER_FAULT_ENV, None)
            else:
                os.environ[WORKER_FAULT_ENV] = previous_faults
    report.counts["corruptions"] = saboteur.corruptions
    report.details["wall_s"] = round(time.monotonic() - started, 1)
    if report.counts["ok"] == 0:
        report.violations.append(
            "no request succeeded at all — the service never degraded "
            "gracefully, it just failed")
    if report.counts["hopeless_sent"] and not report.counts[
            "deadline_expired"]:
        report.violations.append(
            f"{report.counts['hopeless_sent']} hopeless request(s) sent but "
            "no 504 ever came back — deadlines are not being enforced")
    # Under fork isolation the injected stalls pin the single executor,
    # so a full-length storm must fill the queue and shed at least once.
    if (report.details["isolation"] == "fork"
            and settings.duration_s >= 4.0 and report.counts["shed"] == 0):
        report.violations.append(
            "full-length storm with stalling workers never produced a "
            "429 — load shedding is not working")
    return report


# ---------------------------------------------------------------- grid


@dataclass
class GridChaosSettings:
    """Knobs for the grid storm; defaults are CI-sized."""

    backends: int = 3
    #: Distinct points; each is dispatched twice (the repeat rides the
    #: backends' caches, which is what the saboteur is corrupting).
    points: int = 6
    instructions: int = 5000
    #: Resolved points before backend 0 is SIGKILLed and backend 1 is
    #: SIGSTOPped, so both faults land mid-sweep.
    kill_after_points: int = 2
    stall_after_points: int = 3
    isolation: str = "auto"
    seed: int = 0

    def __post_init__(self):
        _require_positive(self, "points", "instructions")
        if self.backends < 3:
            raise ConfigurationError(
                f"the grid storm needs at least 3 backends (one to kill, "
                f"one to stall, one to corrupt), got {self.backends}")


class _FaultScheduler(_Background):
    """Kills backend 0 and stalls backend 1 once the dispatcher has
    resolved enough points; ``killed``/``stalled`` hold the victims'
    URLs once fired."""

    def __init__(self, dispatcher, pool, settings: GridChaosSettings):
        super().__init__("chaos-faults")
        self.dispatcher = dispatcher
        self.pool = pool
        self.settings = settings
        self.killed: Optional[str] = None
        self.stalled: Optional[str] = None

    def run(self) -> None:
        while not (self.killed and self.stalled) and not self.stop.wait(0.05):
            resolved = sum(self.dispatcher.metrics.snapshot()[
                "grid_points_total"]["values"].values())
            if not self.killed and resolved >= self.settings.kill_after_points:
                self.pool.kill(0)
                self.killed = self.pool.backends[0].url
            if (not self.stalled
                    and resolved >= self.settings.stall_after_points):
                self.pool.stall(1)
                self.stalled = self.pool.backends[1].url


def run_grid(settings: Optional[GridChaosSettings] = None) -> ChaosReport:
    """The multi-node storm over real backends; see the module doc."""
    from repro.grid.backends import BackendPool
    from repro.grid.dispatcher import GridDispatcher, GridSettings

    settings = settings or GridChaosSettings()
    report = ChaosReport("grid", counts=dict.fromkeys(
        ("points", "resolved", "lost", "divergent", "corruptions"), 0))
    started = time.monotonic()
    unique = _specs(settings.points, settings.instructions, "grid")
    specs = unique + [replace(spec, label=f"{spec.label}-again")
                      for spec in unique]
    truths = _ground_truth(unique) * 2
    report.counts["points"] = len(specs)

    # Sized for a fast storm: quick quarantine, quick hedges, short
    # stuck-socket timeouts.
    grid_settings = GridSettings(
        quarantine_after=2, readmit_after_s=20.0, probe_interval_s=0.5,
        probe_timeout_s=2.0, request_timeout_s=10.0, attempt_budget_s=12.0,
        hedge_after_s=1.5)
    with BackendPool(settings.backends, isolation=settings.isolation,
                     deadline_s=60.0) as pool, \
            GridDispatcher(pool.urls, settings=grid_settings) as dispatcher, \
            _Saboteur(pool.backends[2].cache_dir, 0.1,
                      settings.seed) as saboteur, \
            _FaultScheduler(dispatcher, pool, settings) as faults:
        try:
            results = dispatcher.run_points(specs)
        except GridError as exc:
            report.violations.append(f"sweep raised: {exc}")
            results = []
        report.details["killed"] = faults.killed
        report.details["stalled"] = faults.stalled
        report.counts["resolved"] = sum(1 for r in results if r is not None)
        report.counts["lost"] = len(specs) - report.counts["resolved"]
        for spec, stats, truth in zip(specs, results, truths):
            if stats is not None and stats.to_dict() != truth:
                report.counts["divergent"] += 1
                report.violations.append(
                    f"point {spec.label} diverged from the serial ground "
                    "truth")
        if report.counts["lost"]:
            report.violations.append(
                f"{report.counts['lost']} point(s) lost — the sweep did not "
                "complete")
        if not faults.killed:
            report.violations.append(
                "the kill fault never fired — the sweep finished before "
                "reaching kill_after_points")
        if not faults.stalled:
            report.violations.append(
                "the stall fault never fired — the sweep finished before "
                "reaching stall_after_points")

        # Drive probes until the health model has seen the corpse.
        for _ in range(grid_settings.quarantine_after + 1):
            dispatcher.registry.poll_once()
        states = {n["url"]: n["state"] for n in dispatcher.registry.snapshot()}
        if faults.killed and states[faults.killed] != "quarantined":
            report.violations.append(
                "killed backend was never quarantined — health checking "
                "is not working")

        # The stalled backend must recover: SIGCONT, then one good probe
        # re-admits it.  Probe directly rather than waiting out the
        # quarantine cooldown, which is not what is under test.
        if faults.stalled:
            pool.resume(1)
            node = next(n for n in dispatcher.registry.nodes
                        if n.url == faults.stalled)
            deadline = time.monotonic() + 10.0
            while not (dispatcher.registry.probe(node)
                       and not node.quarantined):
                if time.monotonic() >= deadline:
                    report.violations.append(
                        "stalled backend did not return to healthy after "
                        "SIGCONT — re-admission is not working")
                    break
                time.sleep(0.2)

        values = dispatcher.metrics.snapshot()["grid_points_total"]["values"]
        for source in ("cached", "remote", "local"):
            report.counts[f"{source}_points"] = values.get(f'["{source}"]', 0)
        report.details["nodes"] = dispatcher.registry.snapshot()
    report.counts["corruptions"] = saboteur.corruptions
    report.details["wall_s"] = round(time.monotonic() - started, 1)
    return report


# ------------------------------------------------------------- durable


@dataclass
class DurableChaosSettings:
    """Knobs for the kill-anywhere storm; defaults are CI-sized."""

    points: int = 3
    instructions: int = 4000
    #: Crash offsets to test; ``None`` = every append of the reference
    #: run (``1..R``), ``stride`` thins that to every n-th offset.
    offsets: Optional[List[int]] = None
    stride: int = 1
    #: Also crash a ``jobs=2`` coordinator at one mid-run offset.
    parallel_crash: bool = True
    #: Also run the stalled-worker (SIGSTOP past lease) scenario.
    stalled_worker: bool = True
    #: Lease timing for the stalled worker: tight, so the watchdog's
    #: verdict lands in CI time.
    lease_s: float = 3.0
    heartbeat_s: float = 0.5

    def __post_init__(self):
        _require_positive(self, "points", "instructions", "stride")


def _coordinator_child(settings: DurableChaosSettings, workdir: Path,
                       jobs: int, crash_after: Optional[int],
                       worker_faults: Optional[str]) -> None:
    """Body of one coordinator subprocess (fork target).

    Runs the journaled sweep over ``workdir``'s journal and cache and
    writes the results to its ``out.json``, unless the armed crash kills
    it first.  Exceptions go to the out file too, so the parent can tell
    "crashed as planned" (no file, exitcode ``-SIGKILL``) from "failed".
    """
    from repro.durable import DurableSettings
    from repro.farm.points import run_points
    from repro.farm.telemetry import RunTelemetry
    from repro.robust.atomic import atomic_write_text

    if crash_after:
        os.environ[CRASH_ENV] = str(crash_after)
    if worker_faults:
        os.environ[WORKER_FAULT_ENV] = worker_faults
    telemetry = RunTelemetry(stream=None, tag="durable-chaos")
    out: Dict[str, Any] = {}
    try:
        results = run_points(
            _specs(settings.points, settings.instructions, "durable"),
            jobs=jobs, cache=ResultCache(workdir / "cache"),
            telemetry=telemetry, timeout=120.0,
            journal=workdir / "journal",
            durable=DurableSettings(lease_s=settings.lease_s,
                                    heartbeat_s=settings.heartbeat_s))
        out["results"] = [stats.to_dict() for stats in results]
        out["telemetry_points"] = sum(
            1 for e in telemetry.events if e["kind"] == "point")
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        out["error"] = f"{type(exc).__name__}: {exc}"
    atomic_write_text(workdir / "out.json", json.dumps(out))


def _coordinator(settings: DurableChaosSettings, workdir: Path, jobs: int,
                 crash_after: Optional[int] = None,
                 worker_faults: Optional[str] = None):
    """Fork-run one coordinator over ``workdir``; returns its exitcode
    (negative = killed by that signal, ``None`` = hung for two minutes
    and killed by us) and what it wrote to ``out.json`` (``{}`` if
    nothing)."""
    out_path = workdir / "out.json"
    out_path.unlink(missing_ok=True)
    (workdir / "journal").mkdir(parents=True, exist_ok=True)
    proc = multiprocessing.get_context("fork").Process(
        target=_coordinator_child,
        args=(settings, workdir, jobs, crash_after, worker_faults))
    proc.start()
    proc.join(120.0)
    code = proc.exitcode
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)
        code = None
    try:
        return code, json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return code, {}


def _check_final_journal(journal_dir: Path, n_points: int, where: str,
                         violations: List[str]) -> int:
    """Exactly-once invariants on the surviving journal; returns the
    number of ``point_reclaimed`` records (the watchdog's evidence)."""
    wals = sorted(journal_dir.glob("*.wal"))
    if len(wals) != 1:
        violations.append(
            f"{where}: expected exactly one journal file, found "
            f"{len(wals)}")
        return 0
    try:
        records, torn = read_records(wals[0])
        state = replay_records(records)
    except JournalError as exc:
        violations.append(f"{where}: final journal unreadable: {exc}")
        return 0
    if torn:
        # Legal mid-crash, but the *final* journal was written by a
        # coordinator that exited cleanly.
        violations.append(f"{where}: final journal ends in a torn line")
    if not state.sealed:
        violations.append(f"{where}: final journal is not sealed")
    done_counts = collections.Counter(
        r["index"] for r in records if r["rec"] == "point_done")
    if sorted(done_counts) != list(range(n_points)):
        violations.append(
            f"{where}: point_done indices {sorted(done_counts)} != "
            f"expected 0..{n_points - 1}")
    doubled = {i: c for i, c in done_counts.items() if c != 1}
    if doubled:
        violations.append(
            f"{where}: points done more than once (double-counted): "
            f"{doubled}")
    return sum(1 for r in records if r["rec"] == "point_reclaimed")


def _crash_and_resume(settings: DurableChaosSettings, truths: List[dict],
                      offset: int, jobs: int, workdir: Path,
                      report: ChaosReport) -> None:
    """One full crash-at-offset cycle: kill, resume, verify."""
    where = workdir.name
    code, _ = _coordinator(settings, workdir, jobs, crash_after=offset)
    if code != -signal.SIGKILL:
        report.violations.append(
            f"{where}: armed crash at append {offset} did not SIGKILL "
            f"the coordinator (exitcode={code})")
        return
    report.counts["crashes"] += 1

    # Resume with no crash armed until the run seals.  One resume should
    # suffice; three bounds a resume loop that itself keeps crashing.
    for _ in range(3):
        code, final = _coordinator(settings, workdir, jobs)
        report.counts["resumes"] += 1
        if code == 0 and "results" in final:
            break
    else:
        report.violations.append(
            f"{where}: run never completed within 3 resumes "
            f"(last exitcode={code}, error={final.get('error')!r})")
        return

    if final["results"] != truths:
        report.violations.append(
            f"{where}: resumed results diverge from the serial ground "
            "truth")
    if final.get("telemetry_points") != settings.points:
        report.violations.append(
            f"{where}: resumed run reported "
            f"{final.get('telemetry_points')} telemetry points, "
            f"expected {settings.points} (lost or double-counted)")
    _check_final_journal(workdir / "journal", settings.points, where,
                         report.violations)
    cache_entries = len(list((workdir / "cache").glob("*.json")))
    if cache_entries != settings.points:
        report.violations.append(
            f"{where}: cache holds {cache_entries} entries, expected "
            f"{settings.points}")


def _durable_storm(settings: DurableChaosSettings, truths: List[dict],
                   tmp: Path, report: ChaosReport) -> None:
    # Reference run, uninterrupted: counts the journal's appends so the
    # crash scan covers every offset that can actually occur.
    code, ref = _coordinator(settings, tmp / "reference", jobs=1)
    if code != 0 or "results" not in ref:
        report.violations.append(
            f"reference run failed (exitcode={code}, "
            f"error={ref.get('error')!r}) — nothing to crash")
        return
    if ref["results"] != truths:
        report.violations.append(
            "reference journaled run diverges from the serial ground "
            "truth — the durable path is wrong before any fault")
    records, _ = read_records(
        sorted((tmp / "reference" / "journal").glob("*.wal"))[0])
    appends = report.counts["journal_records"] = len(records)
    offsets = settings.offsets
    if offsets is None:
        offsets = list(range(1, appends + 1, settings.stride))
    outside = [k for k in offsets if not 1 <= k <= appends]
    if outside:
        raise ConfigurationError(
            f"crash offsets {outside} outside 1..{appends}: the reference "
            f"run made {appends} journal appends")
    report.details["offsets_tested"] = offsets

    for k in offsets:
        _crash_and_resume(settings, truths, k, jobs=1,
                          workdir=tmp / f"offset-{k}", report=report)
    if settings.parallel_crash:
        # One mid-run offset with a 2-worker pool: recovery must not
        # depend on the serial pool's deterministic append order.
        _crash_and_resume(settings, truths, max(2, appends // 2), jobs=2,
                          workdir=tmp / "parallel-crash", report=report)
        report.details["parallel_crash_tested"] = True
    if settings.stalled_worker:
        workdir = tmp / "stalled-worker"
        marker = workdir / "freeze.marker"
        code, out = _coordinator(
            settings, workdir, jobs=2,
            worker_faults=worker_fault_spec(freeze_once=str(marker)))
        report.details["stalled_worker_tested"] = True
        if code != 0 or "results" not in out:
            report.violations.append(
                f"stalled-worker: run failed (exitcode={code}, "
                f"error={out.get('error')!r})")
            return
        if out["results"] != truths:
            report.violations.append(
                "stalled-worker: results diverge from the serial ground "
                "truth")
        if not marker.exists():
            report.violations.append(
                "stalled-worker: the freeze fault never fired")
        reclaims = _check_final_journal(
            workdir / "journal", settings.points, "stalled-worker",
            report.violations)
        report.counts["watchdog_reclaims"] = reclaims
        if reclaims < 1:
            report.violations.append(
                "stalled-worker: no point_reclaimed record — the lease "
                "watchdog never declared the frozen worker stuck")


def run_durable(settings: Optional[DurableChaosSettings] = None
                ) -> ChaosReport:
    """The kill-anywhere storm; see the module doc."""
    settings = settings or DurableChaosSettings()
    report = ChaosReport("durable", counts=dict.fromkeys(
        ("points", "journal_records", "crashes", "resumes",
         "watchdog_reclaims"), 0))
    report.counts["points"] = settings.points
    report.details.update(parallel_crash_tested=False,
                          stalled_worker_tested=False)
    started = time.monotonic()
    truths = _ground_truth(
        _specs(settings.points, settings.instructions, "durable"))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        _durable_storm(settings, truths, Path(tmp), report)
    report.details["wall_s"] = round(time.monotonic() - started, 1)
    return report


# ----------------------------------------------------------------- CLI


_STORMS = {"serve": (ServeChaosSettings, run_serve),
           "grid": (GridChaosSettings, run_grid),
           "durable": (DurableChaosSettings, run_durable)}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--points", type=int,
                        help="distinct sweep points")
    common.add_argument("--instructions", type=int,
                        help="instructions of the first point (each next "
                             "point adds 250)")
    common.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Fault storms that prove no fault yields a wrong CPI; "
                    "exit 1 on any violation.")
    sub = parser.add_subparsers(dest="storm", required=True)
    serve = sub.add_parser(
        "serve", parents=[common],
        help="one server: cache corruption, worker crashes and stalls")
    serve.add_argument("--duration", dest="duration_s", type=float,
                       metavar="S", help="seconds of client load")
    grid = sub.add_parser(
        "grid", parents=[common],
        help="real backends: SIGKILL one, SIGSTOP one, corrupt one")
    grid.add_argument("--backends", type=int, help="backends (>= 3)")
    durable = sub.add_parser(
        "durable", parents=[common],
        help="SIGKILL the coordinator at every journal offset")
    durable.add_argument("--offsets", type=int, nargs="+", metavar="K",
                         help="crash only after these journal appends "
                              "(default: every offset)")
    durable.add_argument("--no-parallel", dest="parallel_crash",
                         action="store_false", default=None,
                         help="skip the jobs=2 crash scenario")
    durable.add_argument("--no-stall", dest="stalled_worker",
                         action="store_false", default=None,
                         help="skip the stalled-worker (SIGSTOP) scenario")
    return parser


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = vars(build_parser().parse_args(argv))
    settings_cls, run = _STORMS[args.pop("storm")]
    as_json = args.pop("json")
    report = run(settings_cls(**{k: v for k, v in args.items()
                                 if v is not None}))
    print(json.dumps(report.to_dict(), indent=1) if as_json
          else report.render(), flush=True)
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
