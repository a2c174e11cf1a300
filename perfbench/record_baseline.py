"""Record the benchmark's baseline: every workload over several seeds.

    python3 perfbench/record_baseline.py --seeds 10

Runs ``run.py`` untraced for seeds ``0..N-1`` and traced for seeds 0
and 1 on every workload, and writes ``perfbench/baseline.json``: per
end-to-end metric the median, quartiles and spread (interquartile range
over median) of the per-run values, the traced per-layer metrics, the host's
``cpu_count``, each workload's reason, the layer map and the findings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_SEEDS = (0, 1)

#: Layer -> (per-layer metric prefixes, end-to-end metrics it should move).
LAYER_MAP = {
    "trace": (["trace."], "minstr_per_s on base_l8 and serve_mixed"),
    "mmu": (["mmu."], "minstr_per_s on base_l8"),
    "sched": (["sched."], "minstr_per_s on short_slice"),
    "core.engine": (["engine."], "minstr_per_s on base_l8 most, "
                                 "short_slice less"),
    "core.engine.policies/timing": (
        ["policies.", "timing."],
        "minstr_per_s on short_slice; wall_s on fig5_sweep"),
    "core.l2/write_buffer": (["l2.", "write_buffer."],
                             "minstr_per_s on short_slice; wall_s on "
                             "fig5_sweep"),
    "scenario": (["scenario."], "setup_s; wall_s on fig5_sweep"),
    "farm": (["farm."], "wall_s on fig5_sweep; p50_ms on serve_mixed"),
    "serve": (["serve.", "client."], "p50_ms and ops_per_s on serve_mixed"),
    "model": (["model."], "nothing: a simulator-speed change must leave "
                          "them identical"),
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        runs = [_run(name, seed, seconds, 0) for seed in range(args.seeds)]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1,
                "q3": q3, "spread": (q3 - q1) / median, "runs": values}
        traced = {str(seed): {k: v["value"] for k, v
                              in _run(name, seed, seconds, 1)[
                                  "metrics"].items()}
                  for seed in TRACED_SEEDS}
        workloads[name] = {
            "why": entry["why"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": traced,
        }

    def engines(workload: str) -> dict:
        """Per traced seed and engine: ns_per_instr and run_s."""
        return {seed: {engine: {key: layer[f"engine.{engine}.{key}"]
                                for key in ("ns_per_instr", "run_s")}
                       for engine in ("reference", "batched")}
                for seed, layer in workloads[workload]["per_layer"].items()}

    baseline = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": list(range(args.seeds)),
        "workloads": workloads,
        "layer_map": {layer: {"metric_prefixes": prefixes, "moves": moves}
                      for layer, (prefixes, moves) in LAYER_MAP.items()},
        "findings": {
            "fig5_parallel_efficiency": {
                "value": {seed: layer["farm.parallel_efficiency"]
                          for seed, layer in workloads["fig5_sweep"][
                              "per_layer"].items()},
                "note": "about 1/jobs at jobs=2: every experiment point "
                        "goes through run_point, one point at a time "
                        "in-process; measured, not fixed"},
            "batched_vs_reference": {
                "short_slice": engines("short_slice"),
                "base_l8": engines("base_l8"),
                "note": "per traced seed: engine self time per "
                        "instruction and untraced Simulation.run seconds; "
                        "measured, not fixed"},
        },
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1)
                                        + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
