"""Bench the farm: a real scaling curve, local and distributed.

Runs the Fig. 5 write-policy sweep (20 independent points at
``BENCH_SCALE``) through :func:`repro.analysis.sweep.run_sweep` at each
requested job count, twice per count — once with local worker processes
(``jobs=N``) and once distributed over N freshly launched
``repro-serve`` backends (:class:`repro.grid.backends.BackendPool`) —
with caching disabled everywhere so every run pays full simulation
cost.  At each job count it also runs the grid locally through an empty
result cache three times: with the trace store switched off (every point
synthesizes its workload traces), with a cold store (the first point on
each worker synthesizes and records the traces, the rest replay them)
and with a warm one (the same cache with its results removed, so every
point runs again and every trace replays).  Every cell is timed
:data:`SAMPLES` times and reported as the median wall with its spread
(max - min) across the samples.  Every run's results must be
**bit-identical** to the ``jobs=1`` baseline; the wall-clock curve goes
to ``BENCH_farm.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_farm.py \\
        [--jobs-list 1,2,4] [--out PATH] [--smoke]

``--smoke`` shrinks the grid and the curve for CI.  The speedup columns
are only meaningful on a multi-core machine (``cpu_count`` is recorded
so readers can judge); ``losing_regimes`` lists every parallel point
whose median is slower than the ``jobs=1`` baseline's, and every store
run whose median is slower than the cached run's without the store at
the same job count; the bit-identical gate is meaningful everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import repro.farm.points as points
from repro.analysis.sweep import run_sweep
from repro.experiments.common import BENCH_SCALE, workload
from repro.experiments.fig5_write_policy import config_for, policies_from
from repro.farm.cache import ResultCache
from repro.farm.context import farm_session
from repro.farm.pool import fork_available
from repro.grid.backends import BackendPool
from repro.scenario.driver import default_params


#: Timed runs per cell; medians damp the one-off stalls of a shared host.
SAMPLES = 3


def fig5_grid():
    params = default_params("fig5")
    policies = policies_from(params.axis("policies"))
    access_times = params.axis("access_times")
    return [(f"{policy.value}@{access}", config_for(policy, access))
            for policy in policies for access in access_times]


def serialized(points):
    return [json.dumps(point.stats.to_dict(), sort_keys=True).encode()
            for point in points]


def timed_local(configs, profiles, jobs, cache=None):
    start = time.perf_counter()
    points = run_sweep(configs, profiles,
                       time_slice=BENCH_SCALE.time_slice,
                       level=BENCH_SCALE.level,
                       warmup_instructions=BENCH_SCALE.warmup_instructions(),
                       jobs=jobs, cache=cache)
    return time.perf_counter() - start, serialized(points)


def timed_stored(configs, profiles, jobs):
    """``(off, cold, warm)`` cached runs, each ``(wall_s, bytes)``: the
    trace store switched off, cold, and warm."""
    with tempfile.TemporaryDirectory(prefix="bench-farm-") as root:
        with_store = points.with_trace_store
        points.with_trace_store = lambda payload, cache: payload
        try:
            off = timed_local(configs, profiles, jobs,
                              ResultCache(Path(root) / "off"))
        finally:
            points.with_trace_store = with_store
        cache = ResultCache(Path(root) / "store")
        cold = timed_local(configs, profiles, jobs, cache)
        for path in cache.root.glob("*.json"):
            path.unlink()  # results go, traces stay
        warm = timed_local(configs, profiles, jobs, cache)
    return off, cold, warm


def timed_distributed(configs, profiles, backends):
    """One sweep over a fresh pool of ``backends`` serve processes.

    The pool is launched (and torn down) outside the timed window —
    the curve measures dispatch, not process startup — and runs without
    caches so repeats stay honest.
    """
    with BackendPool(backends, no_cache=True) as pool:
        with farm_session(nodes=pool.urls, no_cache=True, quiet=True):
            start = time.perf_counter()
            points = run_sweep(
                configs, profiles,
                time_slice=BENCH_SCALE.time_slice,
                level=BENCH_SCALE.level,
                warmup_instructions=BENCH_SCALE.warmup_instructions())
            wall = time.perf_counter() - start
    return wall, serialized(points)


def sampled(run):
    """``SAMPLES`` calls of ``run() -> (wall_s, output)``, as
    ``(walls, outputs)``."""
    walls, outputs = zip(*(run() for _ in range(SAMPLES)))
    return list(walls), list(outputs)


def summary(walls):
    """``(median, spread)`` of a cell's walls."""
    return statistics.median(walls), max(walls) - min(walls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs-list", default=None, metavar="N[,N...]",
                        help="job counts for the curve (default: 1,2,.. "
                             "doubling up to the CPU count, minimum 1,2)")
    parser.add_argument("--out", default="BENCH_farm.json",
                        help="output path (default: BENCH_farm.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized: 6-point grid, jobs 1,2")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    if args.jobs_list:
        jobs_list = sorted({int(n) for n in args.jobs_list.split(",")})
        if any(n < 1 for n in jobs_list):
            parser.error("--jobs-list entries must be >= 1")
    elif args.smoke:
        jobs_list = [1, 2]
    else:
        jobs_list = [1, 2]
        while jobs_list[-1] * 2 <= cpus:
            jobs_list.append(jobs_list[-1] * 2)

    configs = fig5_grid()
    if args.smoke:
        configs = configs[:6]
    profiles = workload(BENCH_SCALE)
    print(f"[bench_farm] {len(configs)} points, "
          f"{BENCH_SCALE.instructions_per_benchmark} instr/benchmark, "
          f"level {BENCH_SCALE.level}, jobs {jobs_list}, "
          f"{cpus} cpu(s)", file=sys.stderr)

    def local(jobs):
        return sampled(lambda: timed_local(configs, profiles, jobs))

    def stored(jobs):
        # One (off, cold, warm) triple per sample -> per tier lists.
        triples = [timed_stored(configs, profiles, jobs)
                   for _ in range(SAMPLES)]
        return {tier: ([run[i][0] for run in triples],
                       [run[i][1] for run in triples])
                for i, tier in enumerate(("off", "cold", "warm"))}

    baseline_walls, baseline_outputs = local(1)
    baseline_s, baseline_spread = summary(baseline_walls)
    baseline_bytes = baseline_outputs[0]
    print(f"[bench_farm] local jobs=1 (baseline): {baseline_s:.2f}s "
          f"(spread {baseline_spread:.2f}s)", file=sys.stderr)

    outputs = list(baseline_outputs)
    curve = []
    for jobs in jobs_list:
        if jobs == 1:
            local_walls = baseline_walls
        else:
            local_walls, local_outputs = local(jobs)
            outputs += local_outputs
        local_s, local_spread = summary(local_walls)
        print(f"[bench_farm] local jobs={jobs}: {local_s:.2f}s",
              file=sys.stderr)
        tiers = stored(jobs)
        store = {}
        for tier, (walls, tier_outputs) in tiers.items():
            store[tier] = summary(walls)
            outputs += tier_outputs
        print(f"[bench_farm] local jobs={jobs}, cached, trace store off: "
              f"{store['off'][0]:.2f}s, cold: {store['cold'][0]:.2f}s, "
              f"warm: {store['warm'][0]:.2f}s", file=sys.stderr)
        dist_walls, dist_outputs = sampled(
            lambda: timed_distributed(configs, profiles, jobs))
        outputs += dist_outputs
        dist_s, dist_spread = summary(dist_walls)
        print(f"[bench_farm] distributed backends={jobs}: {dist_s:.2f}s",
              file=sys.stderr)
        off_s = store["off"][0]
        curve.append({
            "jobs": jobs,
            "local_wall_s": round(local_s, 3),
            "local_spread_s": round(local_spread, 3),
            "local_speedup": round(baseline_s / local_s, 3)
            if local_s else None,
            "store_off_wall_s": round(off_s, 3),
            "store_off_spread_s": round(store["off"][1], 3),
            "store_cold_wall_s": round(store["cold"][0], 3),
            "store_cold_spread_s": round(store["cold"][1], 3),
            "store_cold_gain": round(off_s / store["cold"][0], 3),
            "store_warm_wall_s": round(store["warm"][0], 3),
            "store_warm_spread_s": round(store["warm"][1], 3),
            "store_warm_gain": round(off_s / store["warm"][0], 3),
            "distributed_backends": jobs,
            "distributed_wall_s": round(dist_s, 3),
            "distributed_spread_s": round(dist_spread, 3),
            "distributed_speedup": round(baseline_s / dist_s, 3)
            if dist_s else None,
        })
    identical = all(out == baseline_bytes for out in outputs)

    # A regime where the parallel path is slower than the serial baseline
    # is reported as such, in the JSON itself.
    losing = [f"{kind} jobs={point['jobs']}: {point[f'{kind}_speedup']}x "
              f"of the jobs=1 baseline"
              for point in curve for kind in ("local", "distributed")
              if point["jobs"] > 1 and point[f"{kind}_speedup"] is not None
              and point[f"{kind}_speedup"] < 1.0]
    losing += [f"trace store {tier} jobs={point['jobs']}: "
               f"{point[f'store_{tier}_gain']}x of the store off"
               for point in curve for tier in ("cold", "warm")
               if point[f"store_{tier}_gain"] < 1.0]
    report = {
        "benchmark": "farm_scaling_curve",
        "grid": "fig5" if not args.smoke else "fig5[:6]",
        "points": len(configs),
        "instructions_per_benchmark": BENCH_SCALE.instructions_per_benchmark,
        "level": BENCH_SCALE.level,
        "time_slice": BENCH_SCALE.time_slice,
        "fork_available": fork_available(),
        "cpu_count": cpus,
        "samples": SAMPLES,
        "baseline_wall_s": round(baseline_s, 3),
        "baseline_spread_s": round(baseline_spread, 3),
        "curve": curve,
        "losing_regimes": losing,
        "bit_identical": identical,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[bench_farm] wrote {args.out}: bit_identical={identical}",
          file=sys.stderr)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
