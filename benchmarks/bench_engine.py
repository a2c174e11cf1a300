"""Bench the engines: ``native`` vs ``reference`` wall-clock, plus the
bit-identical check that makes the comparison meaningful.

Three workloads, all run end-to-end through :class:`Simulation` with obs
tracing disabled (the default):

* ``hot_loop`` — a single process whose code and data fit the L1s, so
  nearly every instruction takes the all-hit path.
* ``base_l8`` — ``scenarios/base.toml`` as every figure runs it: the base
  machine, multiprogramming level 8, 100k-cycle slices.
* ``fig3_10k`` — the same at fig. 3's shortest slice, 10k cycles: ten
  times the slices and context switches, so per-call overheads show.

For each run the engine's own time (``MemorySystem.run_slice``) is
measured separately from total wall clock, and so is batch prep: trace
synthesis (``trace_s``, the sources' ``next_batch``) plus address
translation (``translate_s``, ``PageTable.translate_batch``), summed in
``prep_s``.  Synthesis is identical work for both engines; translation
is not, because the page lookup follows the engine (compiled under
``native``, NumPy under ``reference``).  ``engine_speedup`` is the figure
the engine controls, ``prep_speedup`` the one its page lookup controls,
and ``end_to_end_speedup`` what a full simulation gains.  Runs are
interleaved (reference, native, reference, …) and the best of ``--reps``
is kept, which is the standard defense against noisy hosts.

The gate is relative, not an absolute floor: on every workload the
native engine must be no slower than the reference engine, both in
engine time and end to end, and every run must be bit-identical.  Exit
status 0 when that holds, 1 otherwise.  Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke]
        [--reps N] [--out PATH]

``--smoke`` shrinks the workloads for CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import repro.obs as obs
from repro.core.config import base_architecture
from repro.core.engine import ENGINE_NAMES
from repro.core.simulator import Simulation
from repro.scenario import resolve_scenario
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import BenchmarkProfile, CodeProfile, DataProfile

ROOT = Path(__file__).resolve().parent.parent


def hot_loop_profile(instructions: int) -> BenchmarkProfile:
    """A resident working set: ~3 KW of code, 2 KW of hot data."""
    return BenchmarkProfile(
        name="hot_loop", category="I", instructions=instructions,
        syscalls=4,
        code=CodeProfile(code_words=3072, phase_regions=2,
                         loops_per_phase=8),
        data=DataProfile(hot_words=2048, p_warm=0.0, p_stream=0.0,
                         p_cold=0.0),
        seed=7)


def workloads(smoke: bool):
    hot = 200_000 if smoke else 800_000
    per_benchmark = 40_000 if smoke else 200_000
    base = resolve_scenario(ROOT / "scenarios" / "base.toml")
    suite = default_suite(per_benchmark)
    level = base.scale.level
    return {
        "hot_loop": dict(config=base_architecture(),
                         profiles=[hot_loop_profile(hot)], level=1,
                         time_slice=100_000),
        "base_l8": dict(config=base.machine, profiles=suite, level=level,
                        time_slice=base.scale.time_slice),
        "fig3_10k": dict(config=base.machine, profiles=suite, level=level,
                         time_slice=10_000),
    }


def _timed(fn, spent: dict, key: str):
    """``fn``, adding its wall time to ``spent[key]``."""
    def wrapped(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        spent[key] += time.perf_counter() - t0
        return result

    return wrapped


def timed_run(engine: str, workload: dict):
    """One full simulation; returns (seconds by part, stats).  The parts
    are ``engine_s``, ``trace_s``, ``translate_s`` and ``total_s``."""
    sim = Simulation(engine=engine, **workload)
    assert sim.memsys.engine.name == engine, "engine fell back"
    spent = dict.fromkeys(("engine_s", "trace_s", "translate_s"), 0.0)
    engine_impl = sim.memsys.engine
    engine_impl.run_slice = _timed(engine_impl.run_slice, spent, "engine_s")
    sim.page_table.translate_batch = _timed(sim.page_table.translate_batch,
                                            spent, "translate_s")
    for process in sim.scheduler._all_processes:
        process.source.next_batch = _timed(process.source.next_batch,
                                           spent, "trace_s")
    t0 = time.perf_counter()
    stats = sim.run()
    spent["total_s"] = time.perf_counter() - t0
    return spent, stats


_PARTS = ("engine_s", "trace_s", "translate_s", "total_s")


def bench_workload(workload: dict, reps: int) -> dict:
    best = {engine: dict.fromkeys(_PARTS, float("inf"))
            for engine in ENGINE_NAMES}
    stats = {}
    for _ in range(reps):
        for engine in ENGINE_NAMES:  # interleaved against host drift
            spent, run_stats = timed_run(engine, workload)
            for part in _PARTS:
                best[engine][part] = min(best[engine][part], spent[part])
            stats[engine] = dataclasses.asdict(run_stats)
    identical = all(stats[e] == stats["reference"] for e in ENGINE_NAMES)
    instructions = stats["reference"]["instructions"]
    result = {"instructions": instructions, "bit_identical": identical}
    for engine in ENGINE_NAMES:
        times = best[engine]
        result[engine] = {
            "engine_s": round(times["engine_s"], 4),
            "prep_s": round(times["trace_s"] + times["translate_s"], 4),
            "trace_s": round(times["trace_s"], 4),
            "translate_s": round(times["translate_s"], 4),
            "total_s": round(times["total_s"], 4),
            "engine_instr_per_s": round(instructions / times["engine_s"])}
    ref, nat = result["reference"], result["native"]
    result["engine_speedup"] = round(ref["engine_s"] / nat["engine_s"], 3)
    result["prep_speedup"] = round(ref["prep_s"] / nat["prep_s"], 3)
    result["end_to_end_speedup"] = round(ref["total_s"] / nat["total_s"], 3)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads for CI")
    parser.add_argument("--reps", type=int, default=None,
                        help="interleaved repetitions (default: 5, or 3 "
                             "with --smoke)")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output path (default: BENCH_engine.json)")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (3 if args.smoke else 5)
    if obs.is_enabled():
        print("FAIL: obs tracing is enabled; the bench measures the "
              "tracing-disabled fast path", file=sys.stderr)
        return 1

    report = {"smoke": args.smoke, "reps": reps,
              "cpu_count": os.cpu_count(),
              "gate": "native no slower than reference on every workload",
              "workloads": {}}
    slower = []
    for name, workload in workloads(args.smoke).items():
        result = bench_workload(workload, reps)
        report["workloads"][name] = result
        print(f"[{name}] engine {result['engine_speedup']}x  "
              f"prep {result['prep_speedup']}x  "
              f"end-to-end {result['end_to_end_speedup']}x  "
              f"bit_identical={result['bit_identical']}")
        for metric in ("engine_speedup", "end_to_end_speedup"):
            if result[metric] < 1.0:
                slower.append(f"{name}.{metric} = {result[metric]}x")

    identical = all(w["bit_identical"] for w in report["workloads"].values())
    report["slower_than_reference"] = slower
    report["passed"] = identical and not slower
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if not identical:
        print("FAIL: engines diverged — timings are meaningless until the "
              "lockstep suite passes", file=sys.stderr)
        return 1
    if slower:
        print("FAIL: native is slower than reference: " + ", ".join(slower),
              file=sys.stderr)
        return 1
    print("PASS: native >= reference on every workload, bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
