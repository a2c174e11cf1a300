"""Chaos harness: prove the service degrades, never lies.

The harness boots a real :class:`~repro.serve.server.SimServer`, hammers
it from concurrent :class:`~repro.serve.client.ServeClient` threads, and
meanwhile attacks it on three fronts:

* **cache corruption** — a saboteur thread byte-flips random cache
  entries on disk (via :meth:`~repro.robust.faults.FaultInjector
  .corrupt_file`) while requests are being served from them;
* **worker crashes** — :data:`~repro.robust.faults.WORKER_FAULT_ENV` is
  armed so forked simulation workers randomly ``os._exit`` mid-task;
* **worker stalls** — the same hook randomly puts workers to sleep,
  driving requests into their deadlines.

The contract it asserts, request by request:

1. every 200 carries statistics **bit-identical** to a direct
   :func:`~repro.analysis.sweep.run_point` of the same spec (the ground
   truth is computed up front, before any fault is armed) — corruption
   and crashes may cost retries and misses, never a wrong CPI;
2. every failure is an *explicit, classified* status (429/5xx with a
   JSON error body) — no hangs, no tracebacks, no silent drops;
3. after the storm, a drain started while requests are still in flight
   completes within its grace period and leaves no live worker
   processes behind.

:func:`run_chaos` returns a :class:`ChaosReport`; ``report.passed`` is
the single bit CI cares about.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import base_architecture
from repro.errors import ServeError
from repro.farm.cache import ResultCache
from repro.robust.faults import (
    WORKER_FAULT_ENV,
    FaultInjector,
    worker_fault_spec,
)
from repro.serve.client import CircuitBreaker, RetryPolicy, ServeClient
from repro.serve.server import ServeSettings, SimServer
from repro.trace.benchmarks import default_suite


@dataclass
class ChaosSettings:
    """Knobs for one chaos run; defaults are CI-sized (seconds, not
    minutes)."""

    duration_s: float = 6.0
    clients: int = 4
    #: Distinct sweep points the clients draw from (repeats exercise the
    #: cache; corruption then exercises its verification).
    points: int = 3
    instructions: int = 6000
    level: int = 1
    time_slice: int = 2000
    deadline_s: float = 15.0
    #: Every Nth request per client is a *hopeless* one: a heavy, never
    #: cached point with a deadline far below its simulation time.  These
    #: must come back as explicit 504s, proving deadline enforcement.
    hopeless_every: int = 8
    hopeless_deadline_s: float = 0.05
    #: Saboteur interval between cache-entry corruptions.
    corrupt_every_s: float = 0.2
    worker_crash_p: float = 0.25
    #: Stalls pin the (single) executor, which is what fills the queue
    #: and forces 429 shedding.
    worker_stall_p: float = 0.35
    worker_stall_s: float = 1.2
    queue_depth: int = 2
    workers: int = 1
    retries: int = 3
    drain_grace_s: float = 30.0
    isolation: str = "auto"
    seed: int = 0


@dataclass
class ChaosReport:
    """What the storm produced."""

    requests: int = 0
    ok: int = 0
    ok_cached: int = 0
    shed: int = 0
    hopeless_sent: int = 0
    deadline_expired: int = 0
    unavailable: int = 0
    server_error: int = 0
    gave_up: int = 0
    transport_errors: int = 0
    corruptions_injected: int = 0
    violations: List[str] = field(default_factory=list)
    drain: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            "== chaos report ==",
            f"requests          : {self.requests}",
            f"  ok / cached     : {self.ok} / {self.ok_cached}",
            f"  shed (429)      : {self.shed}",
            f"  hopeless sent   : {self.hopeless_sent}",
            f"  deadline (504)  : {self.deadline_expired}",
            f"  unavailable     : {self.unavailable}",
            f"  server error    : {self.server_error}",
            f"  client gave up  : {self.gave_up}",
            f"  transport       : {self.transport_errors}",
            f"corruptions       : {self.corruptions_injected}",
            f"drain clean       : {self.drain.get('clean')}",
            f"drain cancelled   : {self.drain.get('cancelled')}",
            f"violations        : {len(self.violations)}",
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)


def _chaos_requests(settings: ChaosSettings) -> List[Dict[str, Any]]:
    """The request bodies clients draw from: one config, ``points``
    distinct workload sizes (distinct content addresses)."""
    config = base_architecture()
    from repro.core.serialization import config_to_dict, profile_to_dict

    bodies = []
    for i in range(settings.points):
        instructions = settings.instructions + 500 * i
        profiles = default_suite(instructions)[:settings.level]
        bodies.append({
            "config": config_to_dict(config),
            "workload": {"profiles": [profile_to_dict(p) for p in profiles]},
            "time_slice": settings.time_slice,
            "level": settings.level,
            "deadline_s": settings.deadline_s,
        })
    return bodies


def _hopeless_request(settings: ChaosSettings) -> Dict[str, Any]:
    """A request whose deadline is far below its simulation time.

    It can never finish (and therefore never lands in the cache), so the
    service has exactly one honest answer: an explicit 504.  Anything
    else — a 200, a hang, a traceback — is a contract violation.
    """
    config = base_architecture()
    from repro.core.serialization import config_to_dict, profile_to_dict

    # Sized for the native engine (several Minstr/s): well over ten times
    # the deadline even before trace synthesis; the kill at the deadline
    # bounds what it costs.
    instructions = max(5_000_000, settings.instructions * 500)
    profiles = default_suite(instructions)[:settings.level]
    return {
        "config": config_to_dict(config),
        "workload": {"profiles": [profile_to_dict(p) for p in profiles]},
        "time_slice": settings.time_slice,
        "level": settings.level,
        "deadline_s": settings.hopeless_deadline_s,
    }


def _ground_truth(settings: ChaosSettings,
                  bodies: List[Dict[str, Any]]) -> List[Dict[str, int]]:
    """Direct, fault-free, cache-free simulations of every point —
    computed before any fault is armed.  Uses the bare simulator (not the
    farm), so the comparison is service-vs-silicon, nothing shared."""
    from repro.core.serialization import config_from_dict, profile_from_dict
    from repro.core.simulator import simulate

    truths = []
    for body in bodies:
        config = config_from_dict(dict(body["config"]))
        profiles = [profile_from_dict(p)
                    for p in body["workload"]["profiles"]]
        stats = simulate(config, profiles, time_slice=body["time_slice"],
                         level=body["level"])
        truths.append(stats.to_dict())
    return truths


class _Saboteur(threading.Thread):
    """Byte-flips random cache entries until told to stop."""

    def __init__(self, cache_root: Path, period_s: float, seed: int):
        super().__init__(name="chaos-saboteur", daemon=True)
        self.cache_root = cache_root
        self.period_s = period_s
        self.injector = FaultInjector(seed=seed)
        self.rng = random.Random(seed)
        self.stop = threading.Event()
        self.corruptions = 0

    def run(self) -> None:
        while not self.stop.wait(self.period_s):
            entries = list(self.cache_root.glob("*.json"))
            if not entries:
                continue
            target = self.rng.choice(entries)
            try:
                self.injector.corrupt_file(
                    target, offset=self.rng.randrange(64),
                    kind="corrupt_cache_entry")
                self.corruptions += 1
            except (OSError, IndexError, ValueError):
                continue  # entry vanished or shrank mid-flip: fine


def _client_loop(client: ServeClient, bodies: List[Dict[str, Any]],
                 truths: List[Dict[str, int]], hopeless: Dict[str, Any],
                 hopeless_every: int, stop_at: float,
                 rng: random.Random, report: ChaosReport,
                 lock: threading.Lock) -> None:
    sent = 0
    while time.monotonic() < stop_at:
        sent += 1
        is_hopeless = hopeless_every > 0 and sent % hopeless_every == 0
        index = rng.randrange(len(bodies))
        body = dict(hopeless) if is_hopeless else dict(bodies[index])
        with lock:
            report.requests += 1
            if is_hopeless:
                report.hopeless_sent += 1
        try:
            # Hopeless requests get a short budget: every attempt is a
            # guaranteed 504, so retrying them at length proves nothing.
            result = client.simulate(
                body, budget_s=1.0 if is_hopeless else 10.0)
        except ServeError as exc:
            with lock:
                if exc.status == 429:
                    report.shed += 1
                elif exc.status == 504:
                    report.deadline_expired += 1
                elif exc.status == 503:
                    report.unavailable += 1
                elif exc.status == 500:
                    report.server_error += 1
                elif exc.status == 0:
                    report.transport_errors += 1
                    report.gave_up += 1
                else:
                    report.violations.append(
                        f"unclassified failure status {exc.status}: {exc}")
            continue
        with lock:
            if is_hopeless:
                report.violations.append(
                    "hopeless request (deadline far below simulation time) "
                    "returned 200 — deadline not enforced")
                continue
            report.ok += 1
            if result.get("cached"):
                report.ok_cached += 1
            if result.get("stats") != truths[index]:
                report.violations.append(
                    f"point {index}: 200 response diverged from ground "
                    f"truth (cached={result.get('cached')})")


def run_chaos(settings: Optional[ChaosSettings] = None,
              cache_dir: Optional[Path] = None,
              stream=None) -> ChaosReport:
    """Run the full storm against an in-process server; see module doc."""
    settings = settings or ChaosSettings()
    report = ChaosReport()
    lock = threading.Lock()

    bodies = _chaos_requests(settings)
    truths = _ground_truth(settings, bodies)
    hopeless = _hopeless_request(settings)

    if cache_dir is None:
        import tempfile

        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-cache-")
        cache_dir = Path(tmp.name)
    else:
        tmp = None
        cache_dir = Path(cache_dir)
    cache = ResultCache(cache_dir)

    server = SimServer(
        ServeSettings(port=0,
                      queue_depth=settings.queue_depth,
                      workers=settings.workers,
                      default_deadline_s=settings.deadline_s,
                      max_deadline_s=max(settings.deadline_s, 30.0),
                      drain_grace_s=settings.drain_grace_s,
                      retries=settings.retries,
                      isolation=settings.isolation),
        cache=cache)
    server.start()
    base_url = f"http://127.0.0.1:{server.port}"

    saboteur = _Saboteur(cache_dir, settings.corrupt_every_s, settings.seed)
    previous_faults = os.environ.get(WORKER_FAULT_ENV)
    os.environ[WORKER_FAULT_ENV] = worker_fault_spec(
        crash=settings.worker_crash_p,
        stall=settings.worker_stall_p,
        stall_s=settings.worker_stall_s)
    try:
        saboteur.start()
        stop_at = time.monotonic() + settings.duration_s
        threads = []
        for i in range(settings.clients):
            client = ServeClient(
                base_url,
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.05,
                                  max_delay_s=0.5),
                breaker=CircuitBreaker(failure_threshold=10, cooldown_s=0.5),
                timeout_s=settings.deadline_s + 5.0,
                rng=random.Random(settings.seed + i))
            thread = threading.Thread(
                target=_client_loop,
                args=(client, bodies, truths, hopeless,
                      settings.hopeless_every, stop_at,
                      random.Random(1000 + settings.seed + i), report, lock),
                name=f"chaos-client-{i}", daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=settings.duration_s + 60.0)

        # Metrics must be a well-formed snapshot while still serving.
        metrics = json.loads(json.dumps(server.status_snapshot()))
        for key in ("requests_total", "responses", "executor", "queue",
                    "farm", "draining"):
            if key not in metrics:
                report.violations.append(f"/metrics is missing '{key}'")
        report.metrics = metrics

        # Drain while the tail of the load may still be in flight.
        drain_started = time.monotonic()
        summary = server.drain()
        drain_wall = time.monotonic() - drain_started
        report.drain = {"clean": summary["clean"],
                        "cancelled": summary["cancelled"],
                        "wall_s": round(drain_wall, 3)}
        if drain_wall > settings.drain_grace_s + 5.0:
            report.violations.append(
                f"drain took {drain_wall:.1f}s, grace was "
                f"{settings.drain_grace_s:g}s")
        leftover = multiprocessing.active_children()
        if leftover:
            report.violations.append(
                f"{len(leftover)} worker process(es) left alive after drain")
    finally:
        saboteur.stop.set()
        saboteur.join(timeout=2.0)
        if previous_faults is None:
            os.environ.pop(WORKER_FAULT_ENV, None)
        else:
            os.environ[WORKER_FAULT_ENV] = previous_faults
        if tmp is not None:
            tmp.cleanup()
    report.corruptions_injected = saboteur.corruptions
    if report.ok == 0:
        report.violations.append(
            "no request succeeded at all — the service never degraded "
            "gracefully, it just failed")
    if report.hopeless_sent > 0 and report.deadline_expired == 0:
        report.violations.append(
            f"{report.hopeless_sent} hopeless request(s) sent but no 504 "
            f"ever came back — deadlines are not being enforced")
    # Under fork isolation the injected stalls pin the single executor,
    # so a full-length storm must fill the queue and shed at least once.
    if (report.metrics.get("isolation") == "fork"
            and settings.duration_s >= 4.0 and report.shed == 0):
        report.violations.append(
            "full-length storm with stalling workers never produced a "
            "429 — load shedding is not working")
    if stream is not None:
        print(report.render(), file=stream, flush=True)
    return report
