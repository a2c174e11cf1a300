"""Guard: observability and energy accounting must be free when off.

Measures simulator throughput on the same prepared workload — with
tracing disabled (the default for every benchmark and sweep), with a
live JSONL tracer plus sampler, and with energy accounting enabled —
for **every** engine in ``ENGINE_NAMES``, then

* fails (exit 1) if the baseline (obs off, energy off) throughput falls
  below a floor, which is the regression CI actually cares about: the
  obs gate is one module-attribute lookup and the energy gate is one
  ``is not None`` per slice, and both must stay that way;
* fails (exit 1) if the native engine's baseline throughput is below the
  reference engine's: a fast engine that loses to the one it replaces
  must not pass on an absolute floor alone;
* reports the obs-enabled and energy-enabled ratios so overhead creep
  in either path is visible in CI logs, and writes every number to
  ``BENCH_obs.json``.  With tracing on, a native run falls back to the
  reference engine (the only one with instrumentation points); its
  enabled row records that fallback.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead_guard.py [--out PATH]

The floor defaults to 150,000 instr/s — comfortably below any host this
repo has run on — and can be tuned per-machine with
``REPRO_OBS_SPEED_FLOOR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import repro.obs as obs
from repro.core.config import base_architecture
from repro.core.engine import ENGINE_NAMES
from repro.core.simulator import Simulation
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 150_000
DEFAULT_FLOOR = 150_000.0
FLOOR_ENV = "REPRO_OBS_SPEED_FLOOR"


def timed_run(engine: str = "reference", energy=None):
    """One full simulation (scheduler + hierarchy); returns instr/s and
    the engine that actually ran."""
    sim = Simulation(config=base_architecture(),
                     profiles=default_suite(INSTRUCTIONS)[:2],
                     time_slice=2_000, engine=engine, energy=energy)
    start = time.perf_counter()
    stats = sim.run(max_instructions=INSTRUCTIONS)
    elapsed = time.perf_counter() - start
    return stats.instructions / elapsed, sim.memsys.engine.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_obs.json",
                        help="output path (default: BENCH_obs.json)")
    args = parser.parse_args(argv)
    floor = float(os.environ.get(FLOOR_ENV, DEFAULT_FLOOR))

    for engine in ENGINE_NAMES:  # warm caches, imports, the kernel build
        timed_run(engine)

    report = {"instructions": INSTRUCTIONS, "floor_instr_per_s": floor,
              "cpu_count": os.cpu_count(), "engines": {}}
    failed = False
    for engine in ENGINE_NAMES:
        disabled_rate, ran = timed_run(engine)
        if ran != engine:
            print(f"FAIL: {engine} fell back to {ran} with tracing off",
                  file=sys.stderr)
            failed = True

        with tempfile.TemporaryDirectory() as tmp:
            trace_path = Path(tmp) / "guard.jsonl"
            obs.enable(trace_path, sample_interval=100_000)
            try:
                enabled_rate, enabled_engine = timed_run(engine)
            finally:
                obs.disable()
            records = len(obs.read_events(trace_path))

        energy_rate, _ = timed_run(engine, energy="paper")

        ratio = (disabled_rate / enabled_rate if enabled_rate
                 else float("inf"))
        energy_ratio = (disabled_rate / energy_rate if energy_rate
                        else float("inf"))
        report["engines"][engine] = {
            "disabled_instr_per_s": round(disabled_rate),
            "enabled_instr_per_s": round(enabled_rate),
            "enabled_overhead_x": round(ratio, 3),
            "enabled_engine": enabled_engine,
            "energy_instr_per_s": round(energy_rate),
            "energy_overhead_x": round(energy_ratio, 3),
            "trace_records": records,
        }
        print(f"[{engine}] obs+energy off : {disabled_rate:,.0f} instr/s "
              f"(floor {floor:,.0f})")
        print(f"[{engine}] obs on         : {enabled_rate:,.0f} instr/s "
              f"({ratio:.2f}x slower, {records} trace records, ran "
              f"{enabled_engine})")
        print(f"[{engine}] energy on      : {energy_rate:,.0f} instr/s "
              f"({energy_ratio:.2f}x slower)")
        if disabled_rate < floor:
            print(f"FAIL: {engine} disabled-mode (obs off, energy off) "
                  f"throughput {disabled_rate:,.0f} is below the floor "
                  f"{floor:,.0f} — an always-on gate has gotten expensive "
                  f"(or set {FLOOR_ENV} for this machine)", file=sys.stderr)
            failed = True

    engines = report["engines"]
    native_rate = engines["native"]["disabled_instr_per_s"]
    reference_rate = engines["reference"]["disabled_instr_per_s"]
    if native_rate < reference_rate:
        print(f"FAIL: native ({native_rate:,} instr/s) is slower than "
              f"reference ({reference_rate:,} instr/s) with obs and "
              f"energy off", file=sys.stderr)
        failed = True

    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if failed:
        return 1
    print("PASS: observability and energy accounting are free "
          "when disabled (both engines), and native >= reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
