"""The four benchmark workloads.

Each workload is a committed scenario plus at most one overlay from
``perfbench/overlays``.  A workload function takes the seed, the
measuring time and the recorded digests, and returns an :class:`Outcome`:
operations attempted and failed, samples for every end-to-end metric
(untraced mode), or the per-layer metrics (traced mode).

Every simulated statistic is deterministic, so correctness is exact:
each simulation's full ``SimStats`` is hashed with
``repro.durable.journal.stats_sha256`` and compared with the digest
recorded in ``perfbench/digests.json`` for that workload and input set,
or, for a set with no record, with an untimed in-process run on the
reference engine.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import threading
import time
from array import array
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from layers import (
    forked_spans,
    install_farm_layers,
    install_serve_layers,
    install_sim_layers,
    layer_metrics,
    model_metrics,
    summed,
)
from spans import Tracer, layer_totals, merge_spans, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Worker processes, server workers and client threads: the benchmark is
#: sized for a two-core host.
JOBS = max(1, min(2, os.cpu_count() or 1))
#: Input sets measured per run: ``--seed n`` selects sets
#: ``n * INPUT_SETS .. n * INPUT_SETS + INPUT_SETS - 1`` and the passes of
#: a run cycle through them, so a run's medians average over several
#: independent traces instead of one.
INPUT_SETS = 4
#: Input set ``k`` adds ``k * SEED_STRIDE`` to every synthetic profile seed.
SEED_STRIDE = 10007
#: Requests in one pass of the serve_mixed stream.
SERVE_REQUESTS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overlay: Optional[str]
    run: Callable


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: End-to-end metric -> samples calibrated to a fixed host speed, and
    #: the same samples as measured (untraced runs).
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    raw: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: Per-layer metric -> value (traced runs).
    layers: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)


@dataclass(frozen=True)
class Sizes:
    """Run-length knobs; the defaults are the benchmark.  Tests shrink
    them, and recorded digests only apply at the defaults."""

    #: Overrides ``workload.instructions_per_benchmark`` when set.
    instructions: Optional[int] = None
    serve_requests: int = SERVE_REQUESTS

    @property
    def default(self) -> bool:
        return self == Sizes()


# ----------------------------------------------------------------- helpers


def resolve(workload: Workload, sizes: Sizes, resolve_fn=None):
    """The workload's resolved scenario, with ``sizes`` applied."""
    from repro.scenario import resolve_scenario

    overlays = [HERE / "overlays" / workload.overlay] \
        if workload.overlay else []
    resolved = (resolve_fn or resolve_scenario)(
        ROOT / "scenarios" / workload.scenario, overlays)
    if sizes.instructions is not None:
        resolved = replace(resolved, scale=replace(
            resolved.scale, instructions_per_benchmark=sizes.instructions))
    return resolved


def seeded(profiles: Sequence, input_set: int) -> List:
    """``profiles`` with every seed offset by ``input_set * SEED_STRIDE``."""
    return [replace(p, seed=p.seed + SEED_STRIDE * input_set)
            for p in profiles]


@contextmanager
def seeded_suites(input_set: int):
    """Make the experiments' workload builder return seeded profiles."""
    import repro.experiments.common as common

    original = common.default_suite
    common.default_suite = lambda n=0: seeded(original(n), input_set)
    try:
        yield
    finally:
        common.default_suite = original


def digest(stats) -> str:
    from repro.durable.journal import stats_sha256

    return stats_sha256(stats.to_dict())


def grid(resolved) -> List[Tuple[str, object]]:
    """``(label, config)`` for every fig5 grid point, in sweep order."""
    from repro.experiments.fig5_write_policy import config_for, policies_from

    configs = [config_for(policy, access_time, base=resolved.machine)
               for policy in policies_from(resolved.axes["policies"])
               for access_time in resolved.axes["access_times"]]
    return [(config.name, config) for config in configs]


def grid_reference(resolved, input_set: int) -> Dict[str, object]:
    """In-process reference-engine stats of every grid point."""
    from repro.core.simulator import simulate
    from repro.experiments.common import workload

    scale = resolved.scale
    profiles = seeded(workload(scale), input_set)
    return {label: simulate(config, profiles, time_slice=scale.time_slice,
                            level=scale.level,
                            warmup_instructions=scale.warmup_instructions(),
                            engine="reference")
            for label, config in grid(resolved)}


def crossover(points: Dict[str, object], resolved) -> float:
    """The fig5 write-back/write-only crossover of per-label stats."""
    from repro.experiments.fig5_write_policy import (
        interpolated_crossover,
        policies_from,
    )

    access_times = resolved.axes["access_times"]
    table = {p: {a: points[f"{p.value}@{a}"].cpi() for a in access_times}
             for p in policies_from(resolved.axes["policies"])}
    return interpolated_crossover(table, access_times)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def fresh_dir(prefix: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def traced_totals(name: str, tracer: Tracer,
                  fork_dir: Optional[Path] = None) -> Dict[str, Dict]:
    """Per-span-name totals of ``tracer``'s spans and of those forked
    workers wrote to ``fork_dir`` (which is then removed); the merged
    spans are saved to ``OUT_DIR/spans-<name>.npz``."""
    names = list(tracer.names)
    spans = tracer.spans()
    if fork_dir is not None:
        spans = merge_spans(spans, names, forked_spans(fork_dir))
        shutil.rmtree(fork_dir, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"spans-{name}.npz", spans, names)
    return layer_totals(spans, names)


class Expected:
    """Expected digest(s) per input set: the recorded ones, or, for an
    unrecorded set, those of an in-process reference-engine run, computed
    on first use and outside any timed window."""

    def __init__(self, workload: Workload, digests: Dict, sizes: Sizes):
        self.workload = workload
        self.sizes = sizes
        self.recorded = digests.get(workload.name, {}) if sizes.default \
            else {}
        self._cache: Dict[int, object] = {}

    def __call__(self, input_set: int):
        if input_set not in self._cache:
            recorded = self.recorded.get(str(input_set))
            self._cache[input_set] = recorded if recorded is not None \
                else reference_digests(self.workload, input_set, self.sizes)
        return self._cache[input_set]


def reference_digests(workload: Workload, input_set: int, sizes: Sizes):
    """Digest(s) of an in-process reference-engine run of the workload:
    one string for a simulation, ``{label: digest}`` for a grid."""
    if workload.run is run_sim:
        return digest(_build_sim(workload, input_set, sizes,
                                 engine="reference").run())
    return {label: digest(stats) for label, stats
            in grid_reference(resolve(workload, sizes), input_set).items()}


def host_speed() -> float:
    """Seconds a fixed mix of interpreter work takes right now.

    The shared host's speed swings by up to 1.7x over tens of seconds,
    which would swamp any change worth measuring.  This times arithmetic,
    reads scattered over a 512 KB table (built here and freed on return,
    so it adds nothing to a pass's memory), calls and dict updates; a
    pass's host times are scaled by ``CALIBRATION_S`` over the mean of
    the measurements taken just before and just after it, which reports
    them at one fixed host speed.
    """
    mask = (1 << 16) - 1
    table = array("q", range(mask + 1))
    counts: Dict[int, int] = {}

    def bump(key: int, by: int) -> None:
        counts[key] = counts.get(key, 0) + by

    t0 = time.perf_counter()
    acc, j = 0, 1
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(200_000):
        j = (j * 1103515245 + 12345) & mask
        acc += table[j]
    for i in range(100_000):
        bump(i & 4095, i)
    return time.perf_counter() - t0


#: Seconds :func:`host_speed` takes on the 2-core host the baseline was
#: recorded on, at its usual speed; host times are reported as if the
#: host always ran at that speed.
CALIBRATION_S = 0.094
#: End-to-end samples that are host times (scaled up when the host runs
#: slow) and host rates (scaled down); the rest are not host times.
TIMES = ("setup_s", "wall_s", "p50_ms")
RATES = ("minstr_per_s", "ops_per_s")


def passes(out: Outcome, seed: int, seconds: float,
           one_pass: Callable[[int], Dict[str, List[float]]]) -> None:
    """Call ``one_pass(input_set)`` for input sets ``seed * INPUT_SETS +
    (j mod INPUT_SETS)``, j = 0, 1, ..., until ``seconds`` have elapsed
    (at least once).  Each pass returns its raw samples; they are kept in
    ``out.raw`` and, calibrated to the fixed host speed, in
    ``out.samples``."""
    stop = time.perf_counter() + seconds
    before = host_speed()
    for j in itertools.count():
        raw = one_pass(seed * INPUT_SETS + j % INPUT_SETS)
        after = host_speed()
        scale = 2 * CALIBRATION_S / (before + after)
        for name, values in raw.items():
            out.raw[name].extend(values)
            factor = scale if name in TIMES else \
                1 / scale if name in RATES else 1
            out.samples[name].extend(v * factor for v in values)
        before = after
        if time.perf_counter() >= stop:
            break
    out.samples["peak_rss_mb"].append(peak_rss_mb())


def trace_overhead(untraced: float, traced: float,
                   marks: Sequence[float]) -> float:
    """Traced over untraced wall time, each at the fixed host speed;
    ``marks`` are :func:`host_speed` before, between and after
    the two sections."""
    return (traced / (marks[1] + marks[2])) \
        / (untraced / (marks[0] + marks[1]))


# ------------------------------------------------- base_l8 and short_slice


def _build_sim(workload: Workload, input_set: int, sizes: Sizes,
               engine: Optional[str] = None, resolve_fn=None):
    from repro.core.simulator import Simulation
    from repro.experiments.common import workload as suite

    resolved = resolve(workload, sizes, resolve_fn)
    scale = resolved.scale
    return Simulation(config=resolved.machine,
                      profiles=seeded(suite(scale), input_set),
                      time_slice=scale.time_slice, level=scale.level,
                      warmup_instructions=scale.warmup_instructions(),
                      engine=engine or resolved.engine)


def run_sim(workload: Workload, seed: int, seconds: float, trace: bool,
            digests: Dict, sizes: Sizes) -> Outcome:
    """One in-process ``Simulation`` per operation."""
    out = Outcome()
    expected = Expected(workload, digests, sizes)
    if trace:
        return _traced_sim(workload, seed * INPUT_SETS, sizes, expected,
                           out)
    results: List[Tuple[int, str]] = []

    def one_pass(input_set: int) -> Dict[str, List[float]]:
        t0 = time.perf_counter()
        sim = _build_sim(workload, input_set, sizes)
        t1 = time.perf_counter()
        stats = sim.run()
        run_s = time.perf_counter() - t1
        results.append((input_set, digest(stats)))
        return {"setup_s": [t1 - t0], "wall_s": [run_s],
                "p50_ms": [run_s * 1e3], "ops_per_s": [1.0 / run_s],
                "minstr_per_s": [
                    sim.scheduler.instructions_run / run_s / 1e6]}

    passes(out, seed, seconds, one_pass)
    for input_set, got in results:
        out.attempted += 1
        if got != expected(input_set):
            out.fail(f"{workload.name} input set {input_set}: stats digest "
                     "mismatch")
    return out


def _traced_sim(workload: Workload, input_set: int, sizes: Sizes,
                expected: Expected, out: Outcome) -> Outcome:
    """Every engine once untraced, then once traced."""
    from repro.core.engine import ENGINE_NAMES
    from repro.scenario import resolve_scenario

    want = expected(input_set)
    marks = [host_speed()]
    extra: Dict[str, float] = {}
    untraced = 0.0
    runs = []
    for engine in ENGINE_NAMES:
        t0 = time.perf_counter()
        sim = _build_sim(workload, input_set, sizes, engine=engine)
        t1 = time.perf_counter()
        runs.append((engine, sim.run()))
        t2 = time.perf_counter()
        marks.append(host_speed())
        extra[f"engine.{engine}.run_s"] = \
            (t2 - t1) * 2 * CALIBRATION_S / (marks[-2] + marks[-1])
        untraced += t2 - t0

    tracer = Tracer()
    install_sim_layers(tracer, ENGINE_NAMES)
    resolve_fn = tracer.wrap(resolve_scenario, "scenario.resolve")
    sims = []
    try:
        t0 = time.perf_counter()
        for engine in ENGINE_NAMES:
            sims.append(_build_sim(workload, input_set, sizes, engine,
                                   resolve_fn))
            sims[-1].run()
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    marks = [marks[0], marks[-1], host_speed()]
    runs += [(engine, sim.memsys.stats)
             for engine, sim in zip(ENGINE_NAMES, sims)]
    for engine, stats in runs:
        out.attempted += 1
        if digest(stats) != want:
            out.fail(f"{workload.name} input set {input_set}: engine "
                     f"{engine} stats digest mismatch")
    totals = traced_totals(workload.name, tracer)
    extra.update(model_metrics(sims[0].memsys.stats))
    extra["sched.context_switches"] = summed(
        sim.memsys.stats for sim in sims).context_switches
    out.layers = layer_metrics(
        totals, traced,
        trace_overhead(untraced, traced, marks), extra)
    return out


# -------------------------------------------------------------- fig5_sweep


def _sweep_once(workload: Workload, input_set: int, sizes: Sizes,
                tracer: Optional[Tracer] = None):
    """One fig5 sweep in a fresh cache; returns timings, the resolved
    scenario, the per-point stats read back from the cache, and the
    farm telemetry."""
    from repro.core.stats import SimStats
    from repro.farm import farm_session
    from repro.farm.cache import ResultCache
    from repro.farm.telemetry import RunTelemetry
    from repro.scenario import resolve_scenario, run_scenario

    cache_dir = fresh_dir("fig5-")
    telemetry = RunTelemetry(stream=None)
    run = run_scenario
    resolve_fn = None
    if tracer is not None:
        run = tracer.wrap(run_scenario, "scenario.run")
        resolve_fn = tracer.wrap(resolve_scenario, "scenario.resolve")
    try:
        with ExitStack() as stack:
            t0 = time.perf_counter()
            resolved = resolve(workload, sizes, resolve_fn)
            stack.enter_context(seeded_suites(input_set))
            stack.enter_context(farm_session(
                jobs=JOBS, cache_dir=cache_dir, telemetry=telemetry,
                engine=resolved.engine, energy=resolved.energy,
                scenario=resolved.scenario_sha256))
            t1 = time.perf_counter()
            run(resolved)
            t2 = time.perf_counter()
        points = {}
        for path, meta in ResultCache(cache_dir).entries():
            envelope = json.loads(path.read_text(encoding="utf-8"))
            points[meta.get("label")] = SimStats.from_dict(
                envelope["payload"]["stats"])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return (t0, t1, t2), resolved, points, telemetry


def _check_points(out: Outcome, points: Dict, expected: Dict[str, str],
                  where: str) -> None:
    out.attempted += len(expected)
    for label, want in expected.items():
        stats = points.get(label)
        if stats is None:
            out.fail(f"{where}: point {label} missing")
        elif digest(stats) != want:
            out.fail(f"{where}: point {label} stats digest mismatch")
    extra = set(points) - set(expected)
    if extra:
        out.fail(f"{where}: unexpected points {sorted(extra)}", len(extra))


def run_sweep(workload: Workload, seed: int, seconds: float, trace: bool,
              digests: Dict, sizes: Sizes) -> Outcome:
    """The fig5 grid through ``resolve_scenario`` + ``run_scenario`` in a
    ``farm_session`` with a fresh, empty cache."""
    out = Outcome()
    expected = Expected(workload, digests, sizes)
    if trace:
        return _traced_sweep(workload, seed * INPUT_SETS, sizes, expected,
                             out)
    results: List[Tuple[int, Dict]] = []

    def one_pass(input_set: int) -> Dict[str, List[float]]:
        (t0, t1, t2), resolved, points, _ = _sweep_once(
            workload, input_set, sizes)
        results.append((input_set, points))
        wall = t2 - t1
        executed = len(points) * resolved.scale.level \
            * resolved.scale.instructions_per_benchmark
        return {"setup_s": [t1 - t0], "wall_s": [wall],
                "p50_ms": [wall * 1e3], "ops_per_s": [len(points) / wall],
                "minstr_per_s": [executed / wall / 1e6]}

    passes(out, seed, seconds, one_pass)
    for input_set, points in results:
        _check_points(out, points, expected(input_set),
                      f"{workload.name} input set {input_set}")
    return out


def _traced_sweep(workload: Workload, input_set: int, sizes: Sizes,
                  expected: Expected, out: Outcome) -> Outcome:
    from repro.core.engine import ENGINE_NAMES

    want = expected(input_set)
    marks = [host_speed()]
    (t0, t1, t2), _, _, telemetry = _sweep_once(workload, input_set, sizes)
    marks.append(host_speed())
    untraced = t2 - t0
    simulate_s = sum(e["wall_s"] for e in telemetry.events
                     if e["kind"] == "point" and not e["cached"])
    efficiency = simulate_s / ((t2 - t1) * JOBS)

    tracer = Tracer()
    fork_dir = fresh_dir("forked-")
    install_sim_layers(tracer, ENGINE_NAMES)
    install_farm_layers(tracer, fork_dir)
    try:
        (t0, _, t2), resolved, points, _ = _sweep_once(
            workload, input_set, sizes, tracer)
    finally:
        tracer.restore()
    marks.append(host_speed())
    _check_points(out, points, want, f"{workload.name} input set "
                                     f"{input_set}")
    totals = traced_totals(workload.name, tracer, fork_dir)
    if points and not any(totals.get(f"engine.{name}", {}).get("calls")
                          for name in ENGINE_NAMES):
        print(f"warning: {workload.name}: {len(points)} points ran but no "
              "engine span was recorded; the simulator's layers read 0",
              file=sys.stderr)
    total = summed(points.values())
    extra = model_metrics(total, crossover(points, resolved))
    extra["sched.context_switches"] = total.context_switches
    extra["farm.points"] = len(points)
    extra["farm.parallel_efficiency"] = efficiency
    out.layers = layer_metrics(
        totals, t2 - t0, trace_overhead(untraced, t2 - t0, marks), extra)
    return out


# ------------------------------------------------------------- serve_mixed


def serve_stream(input_set: int, labels: Sequence[str],
                 length: int) -> List[str]:
    """Seeded request order: every grid label once, then repeats drawn
    uniformly, shuffled together."""
    rng = random.Random(input_set)
    stream = list(labels) + [rng.choice(labels)
                             for _ in range(length - len(labels))]
    rng.shuffle(stream)
    return stream


class _ServePass:
    """One server with a fresh cache, driven by ``JOBS`` closed-loop
    client threads through one request stream."""

    def __init__(self, requests: Dict[str, dict], stream: List[str],
                 tracer: Optional[Tracer] = None):
        self.requests = requests
        self.stream = stream
        self.tracer = tracer
        first: Dict[str, int] = {}
        for i, label in enumerate(stream):
            first.setdefault(label, i)
        self.first = first
        self.answered = {label: threading.Event() for label in first}
        self.results: List[Optional[Tuple[float, dict]]] = [None] * len(
            stream)
        self.errors: Dict[int, str] = {}
        self.retries = 0
        self.metrics: Dict = {}
        self._next = 0
        self._lock = threading.Lock()

    def _sleep(self, seconds: float) -> None:
        with self._lock:
            self.retries += 1
        time.sleep(seconds)

    def _client(self, base_url: str) -> None:
        from repro.serve.client import ServeClient

        client = ServeClient(base_url, sleep=self._sleep)
        simulate = client.simulate
        if self.tracer is not None:
            simulate = self.tracer.wrap(
                simulate, "client.request",
                count=lambda body, args: int(body["cached"]))
        while True:
            with self._lock:
                i = self._next
                self._next += 1
            if i >= len(self.stream):
                return
            label = self.stream[i]
            miss = self.first[label] == i
            if not miss:
                # A repeat waits for the first answer, so exactly the first
                # request of each config simulates.
                self.answered[label].wait(timeout=120)
            if self.tracer is not None:
                self.tracer.set_request(i)
            try:
                t0 = time.perf_counter()
                body = simulate(self.requests[label])
                self.results[i] = (time.perf_counter() - t0, body)
            except Exception as exc:  # a failed request; the loop goes on
                self.errors[i] = f"{type(exc).__name__}: {exc}"
            finally:
                if miss:
                    self.answered[label].set()

    def run(self, cache_dir: Path) -> Tuple[float, float, float]:
        from repro.farm.cache import ResultCache
        from repro.serve.client import ServeClient
        from repro.serve.server import ServeSettings, SimServer

        t0 = time.perf_counter()
        server = SimServer(ServeSettings(port=0, workers=JOBS),
                           cache=ResultCache(cache_dir))
        server.start()
        try:
            base_url = f"http://127.0.0.1:{server.port}"
            probe = ServeClient(base_url)
            while not probe.ready():
                time.sleep(0.002)
            t1 = time.perf_counter()
            threads = [threading.Thread(target=self._client,
                                        args=(base_url,))
                       for _ in range(JOBS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            t2 = time.perf_counter()
            self.metrics = probe.metrics()
        finally:
            server.drain(grace_s=5.0)
        return t0, t1, t2


class _ServeInput:
    """One input set of serve_mixed: the requests, their seeded order,
    and the in-process reference stats every response must match."""

    def __init__(self, resolved, input_set: int, length: int):
        from repro.core.serialization import config_to_dict, profile_to_dict
        from repro.experiments.common import workload as suite

        scale = resolved.scale
        profiles = [profile_to_dict(p)
                    for p in seeded(suite(scale), input_set)]
        self.requests = {
            label: {"config": config_to_dict(config),
                    "workload": {"profiles": profiles},
                    "time_slice": scale.time_slice,
                    "level": scale.level,
                    "warmup_instructions": scale.warmup_instructions()}
            for label, config in grid(resolved)}
        self.stream = serve_stream(input_set, list(self.requests), length)
        self.reference = grid_reference(resolved, input_set)
        self.digests = {label: digest(stats)
                        for label, stats in self.reference.items()}


def _check_responses(out: Outcome, serve_pass: _ServePass,
                     expected: Dict[str, str], where: str) -> None:
    from repro.durable.journal import stats_sha256

    out.attempted += len(serve_pass.stream)
    for i, (label, result) in enumerate(zip(serve_pass.stream,
                                            serve_pass.results)):
        if result is None:
            out.fail(f"{where}: request {i} ({label}) failed: "
                     f"{serve_pass.errors.get(i, 'no answer')}")
        elif stats_sha256(result[1]["stats"]) != expected[label]:
            out.fail(f"{where}: response for {label} digest mismatch")


def _serve_pass(inputs: _ServeInput, tracer: Optional[Tracer] = None):
    serve_pass = _ServePass(inputs.requests, inputs.stream, tracer)
    cache_dir = fresh_dir("serve-")
    try:
        times = serve_pass.run(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return serve_pass, times


def run_serve(workload: Workload, seed: int, seconds: float, trace: bool,
              digests: Dict, sizes: Sizes) -> Outcome:
    """A seeded request stream over the fig5 grid against an in-process
    ``SimServer``; first requests simulate (forked), repeats hit."""
    out = Outcome()
    resolved = resolve(workload, sizes)
    # Outside the timed window: every response must match an in-process
    # simulation of the same request, and the recorded digest if any.
    sets = [seed * INPUT_SETS + j for j in range(1 if trace else INPUT_SETS)]
    recorded = Expected(workload, digests, sizes).recorded
    inputs: Dict[int, _ServeInput] = {}
    for input_set in sets:
        inputs[input_set] = _ServeInput(resolved, input_set,
                                        sizes.serve_requests)
        want = recorded.get(str(input_set))
        if want is not None and want != inputs[input_set].digests:
            out.fail(f"{workload.name} input set {input_set}: in-process "
                     "reference differs from the recorded digests")
    if trace:
        return _traced_serve(inputs[sets[0]], resolved, out,
                             f"{workload.name} input set {sets[0]}")
    executed = resolved.scale.level * resolved.scale.instructions_per_benchmark

    def one_pass(input_set: int) -> Dict[str, List[float]]:
        serve_pass, (t0, t1, t2) = _serve_pass(inputs[input_set])
        _check_responses(out, serve_pass, inputs[input_set].digests,
                         f"{workload.name} input set {input_set}")
        done = [r for r in serve_pass.results if r is not None]
        return {"setup_s": [t1 - t0], "wall_s": [t2 - t1],
                "ops_per_s": [len(done) / (t2 - t1)],
                "p50_ms": [lat * 1e3 for lat, _ in done],
                "minstr_per_s": [executed / lat / 1e6 for lat, body in done
                                 if not body["cached"]]}

    passes(out, seed, seconds, one_pass)
    return out


def _histogram_sum(metrics: Dict, name: str, label: str) -> float:
    values = metrics["obs"][name]["values"]
    return values.get(f'["{label}"]', {}).get("sum", 0.0)


def _traced_serve(inputs: _ServeInput, resolved, out: Outcome,
                  where: str) -> Outcome:
    from statistics import median

    from report import tail
    from repro.core.engine import ENGINE_NAMES

    _serve_pass(inputs)  # warm-up: the first fork and connections
    marks = [host_speed()]
    _, (t0, _, t2) = _serve_pass(inputs)
    untraced = t2 - t0
    marks.append(host_speed())

    tracer = Tracer()
    fork_dir = fresh_dir("forked-")
    install_sim_layers(tracer, ENGINE_NAMES)
    install_farm_layers(tracer, fork_dir)
    install_serve_layers(tracer)
    try:
        serve_pass, (t0, _, t2) = _serve_pass(inputs, tracer)
    finally:
        tracer.restore()
    marks.append(host_speed())
    _check_responses(out, serve_pass, inputs.digests, where)
    totals = traced_totals("serve_mixed", tracer, fork_dir)

    done = [r for r in serve_pass.results if r is not None]
    hits = [lat * 1e3 for lat, body in done if body["cached"]]
    misses = [lat * 1e3 for lat, body in done if not body["cached"]]
    metrics = serve_pass.metrics
    server_s = _histogram_sum(metrics, "serve_request_seconds", "simulate")
    client_s = sum(lat for lat, _ in done)
    extra = model_metrics(summed(inputs.reference.values()),
                          crossover(inputs.reference, resolved))
    extra.update({
        "sched.context_switches": summed(
            inputs.reference.values()).context_switches,
        "farm.points": totals.get("farm.execute_point", {}).get("calls", 0),
        "serve.request_s": server_s,
        "serve.http_overhead_ms": (client_s - server_s) / len(done) * 1e3,
        "serve.shed": metrics["responses"]["shed"],
        "serve.forks": metrics["executor"]["simulated"],
        "client.retries": serve_pass.retries,
        "client.hit_p50_ms": median(hits) if hits else 0.0,
        "client.hit_tail_ms": tail(hits, "lower") if hits else 0.0,
        "client.miss_p50_ms": median(misses) if misses else 0.0,
    })
    out.layers = layer_metrics(
        totals, t2 - t0, trace_overhead(untraced, t2 - t0, marks), extra)
    return out


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("base_l8", "base.toml", None, run_sim),
    Workload("short_slice", "base.toml", "short_slice.toml", run_sim),
    Workload("fig5_sweep", "fig5.toml", "fig5_sweep.toml", run_sweep),
    Workload("serve_mixed", "fig5.toml", "serve_mixed.toml", run_serve),
)}
