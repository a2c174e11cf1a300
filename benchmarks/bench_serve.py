"""Bench the service: cold simulation vs. warm cached round-trip.

Boots a real :class:`~repro.serve.server.SimServer` on a loopback port
with a fresh result cache, runs one Fig. 5 write-policy point through
``POST /v1/simulate`` cold (pays the simulation), then repeats the same
request warm (pays a cache read plus HTTP overhead) on the same
kept-alive client, verifies every response is bit-identical to a direct
in-process simulation, and writes the comparison to
``BENCH_serve.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--repeats N] [--out PATH]

The headline figure is ``speedup`` — cold wall over best warm wall; the
service earns its keep when a repeated configuration→CPI query costs a
file read instead of a simulation.  ``warm_p50_s`` is the median warm
round-trip, and ``connections`` the TCP connections the server accepted
for the whole run (1 when the client's connection is kept alive).
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

from repro.core.serialization import config_to_dict, profile_to_dict
from repro.core.simulator import simulate
from repro.experiments.common import BENCH_SCALE, workload
from repro.experiments.fig5_write_policy import config_for, policies_from
from repro.farm.cache import ResultCache
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.server import ServeSettings, SimServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="warm round-trips to time (default: 20)")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="output path (default: BENCH_serve.json)")
    args = parser.parse_args(argv)

    from repro.scenario.driver import default_params

    params = default_params("fig5")
    policies = policies_from(params.axis("policies"))
    config = config_for(policies[0], params.axis("access_times")[0])
    profiles = workload(BENCH_SCALE)
    request = {
        "config": config_to_dict(config),
        "workload": {"profiles": [profile_to_dict(p) for p in profiles]},
        "time_slice": BENCH_SCALE.time_slice,
        "level": BENCH_SCALE.level,
        "warmup_instructions": BENCH_SCALE.warmup_instructions(),
    }
    print(f"[bench_serve] fig5 point '{config.name}', "
          f"{BENCH_SCALE.instructions_per_benchmark} instr/benchmark, "
          f"level {BENCH_SCALE.level}", file=sys.stderr)

    truth_start = time.perf_counter()
    truth = simulate(config, list(profiles),
                     time_slice=BENCH_SCALE.time_slice,
                     level=BENCH_SCALE.level,
                     warmup_instructions=BENCH_SCALE.warmup_instructions())
    direct_s = time.perf_counter() - truth_start
    print(f"[bench_serve] direct simulation: {direct_s:.3f}s",
          file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="bench-serve-cache-") as tmp:
        server = SimServer(ServeSettings(port=0, workers=2, queue_depth=4,
                                         default_deadline_s=300.0,
                                         max_deadline_s=600.0),
                           cache=ResultCache(Path(tmp)))
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}",
                                 retry=RetryPolicy(max_attempts=2),
                                 timeout_s=300.0)
            cold_start = time.perf_counter()
            cold = client.simulate(request, budget_s=600.0)
            cold_s = time.perf_counter() - cold_start
            print(f"[bench_serve] cold round-trip: {cold_s:.3f}s "
                  f"(cached={cold['cached']})", file=sys.stderr)

            warm_walls = []
            warms = []
            for _ in range(max(1, args.repeats)):
                warm_start = time.perf_counter()
                warms.append(client.simulate(request, budget_s=60.0))
                warm_walls.append(time.perf_counter() - warm_start)
            warm_s = min(warm_walls)
            warm_p50_s = statistics.median(warm_walls)
            print(f"[bench_serve] warm round-trip: best "
                  f"{warm_s * 1e3:.2f}ms, p50 {warm_p50_s * 1e3:.2f}ms "
                  f"over {len(warm_walls)}", file=sys.stderr)
            obs = server.status_snapshot()["obs"]
            connections = sum(
                obs["serve_connections_total"]["values"].values())
        finally:
            summary = server.drain(grace_s=10.0)

    identical = all(answer["stats"] == truth.to_dict()
                    for answer in [cold, *warms])
    ok = (identical and not cold["cached"]
          and all(answer["cached"] for answer in warms)
          and summary["clean"])
    report = {
        "benchmark": "serve_warm_vs_cold",
        "grid": "fig5",
        "point": config.name,
        "instructions_per_benchmark": BENCH_SCALE.instructions_per_benchmark,
        "level": BENCH_SCALE.level,
        "time_slice": BENCH_SCALE.time_slice,
        "cpu_count": os.cpu_count(),
        "isolation": server.settings.effective_isolation(),
        "direct_sim_s": round(direct_s, 4),
        "cold_roundtrip_s": round(cold_s, 4),
        "warm_roundtrip_s": round(warm_s, 6),
        "warm_p50_s": round(warm_p50_s, 6),
        "warm_repeats": len(warm_walls),
        "connections": connections,
        "speedup_cold_over_warm": round(cold_s / warm_s, 1) if warm_s else None,
        "bit_identical_to_direct_sim": identical,
        "drain_clean": summary["clean"],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[bench_serve] wrote {args.out}: warm is "
          f"{report['speedup_cold_over_warm']}x faster than cold, "
          f"bit_identical={identical}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
