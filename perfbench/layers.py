"""Which calls are traced, and the per-layer metrics derived from them.

Each ``install_*`` function wraps public functions of one group of
layers (see ``README.md`` for the layer map).  Every span name has a
self-time metric in :data:`SELF_METRICS`; those metrics plus
``unattributed_s`` add up to ``traced_wall_s``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from spans import read_spans, write_spans

#: Per-layer metrics printed by a traced run: ``(name, unit, better)``.
#: ``BENCHMARK.json`` lists the same names (checked by the tests).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("trace.self_s", "s", "lower"),
    ("trace.calls", "count", "lower"),
    ("trace.records", "count", "lower"),
    ("mmu.translate_s", "s", "lower"),
    ("mmu.translate_calls", "count", "lower"),
    ("mmu.tlb_access_s", "s", "lower"),
    ("mmu.tlb_accesses", "count", "lower"),
    ("sched.prep_self_s", "s", "lower"),
    ("sched.slice_self_s", "s", "lower"),
    ("sched.run_self_s", "s", "lower"),
    ("sched.slices", "count", "lower"),
    ("sched.context_switches", "count", "lower"),
    ("engine.reference.self_s", "s", "lower"),
    ("engine.reference.calls", "count", "lower"),
    ("engine.reference.ns_per_instr", "ns", "lower"),
    ("engine.reference.run_s", "s", "lower"),
    ("engine.batched.self_s", "s", "lower"),
    ("engine.batched.calls", "count", "lower"),
    ("engine.batched.ns_per_instr", "ns", "lower"),
    ("engine.batched.run_s", "s", "lower"),
    ("policies.store_self_s", "s", "lower"),
    ("policies.stores", "count", "lower"),
    ("policies.load_miss_self_s", "s", "lower"),
    ("policies.load_misses", "count", "lower"),
    ("timing.ifetch_miss_self_s", "s", "lower"),
    ("timing.ifetch_misses", "count", "lower"),
    ("l2.self_s", "s", "lower"),
    ("l2.accesses", "count", "lower"),
    ("write_buffer.self_s", "s", "lower"),
    ("write_buffer.ops", "count", "lower"),
    ("scenario.resolve_s", "s", "lower"),
    ("scenario.run_self_s", "s", "lower"),
    ("farm.execute_self_s", "s", "lower"),
    ("farm.cache.get_s", "s", "lower"),
    ("farm.cache.gets", "count", "lower"),
    ("farm.cache.hit_ratio", "ratio", "higher"),
    ("farm.cache.put_s", "s", "lower"),
    ("farm.cache.puts", "count", "lower"),
    ("farm.points", "count", "higher"),
    ("farm.parallel_efficiency", "ratio", "higher"),
    ("serve.request_s", "s", "lower"),
    ("serve.http_overhead_ms", "ms", "lower"),
    ("serve.admit_s", "s", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.forks", "count", "lower"),
    ("client.request_self_s", "s", "lower"),
    ("client.retries", "count", "lower"),
    ("client.hit_p50_ms", "ms", "lower"),
    ("client.hit_tail_ms", "ms", "lower"),
    ("client.miss_p50_ms", "ms", "lower"),
    ("model.cpi", "cycles/instr", "lower"),
    ("model.l1i_miss_ratio", "ratio", "lower"),
    ("model.l1d_miss_ratio", "ratio", "lower"),
    ("model.l2_miss_ratio", "ratio", "lower"),
    ("model.stall_cpi.l1i_miss", "cycles/instr", "lower"),
    ("model.stall_cpi.l1d_miss", "cycles/instr", "lower"),
    ("model.stall_cpi.l1_writes", "cycles/instr", "lower"),
    ("model.stall_cpi.wb", "cycles/instr", "lower"),
    ("model.stall_cpi.l2i_miss", "cycles/instr", "lower"),
    ("model.stall_cpi.l2d_miss", "cycles/instr", "lower"),
    ("model.stall_cpi.tlb", "cycles/instr", "lower"),
    ("model.fig5_crossover", "cycles", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
]

#: Self-time metric -> the span name whose self time it reports.  Every
#: span the benchmark records appears here exactly once.
SELF_METRICS: Dict[str, str] = {
    "trace.self_s": "trace.next_batch",
    "mmu.translate_s": "mmu.translate",
    "mmu.tlb_access_s": "mmu.tlb_access",
    "sched.prep_self_s": "sched.prep",
    "sched.slice_self_s": "sched.slice",
    "sched.run_self_s": "sim.run",
    "engine.reference.self_s": "engine.reference",
    "engine.batched.self_s": "engine.batched",
    "policies.store_self_s": "policies.store",
    "policies.load_miss_self_s": "policies.load_miss",
    "timing.ifetch_miss_self_s": "timing.ifetch_miss",
    "l2.self_s": "l2.access",
    "write_buffer.self_s": "write_buffer.op",
    "scenario.resolve_s": "scenario.resolve",
    "scenario.run_self_s": "scenario.run",
    "farm.execute_self_s": "farm.execute_point",
    "farm.cache.get_s": "farm.cache.get",
    "farm.cache.put_s": "farm.cache.put",
    "serve.admit_s": "serve.admit",
    "client.request_self_s": "client.request",
}

#: Count metric -> (span name, ``"calls"`` or ``"value"``).
COUNT_METRICS: Dict[str, Tuple[str, str]] = {
    "trace.calls": ("trace.next_batch", "calls"),
    "trace.records": ("trace.next_batch", "value"),
    "mmu.translate_calls": ("mmu.translate", "calls"),
    "mmu.tlb_accesses": ("mmu.tlb_access", "calls"),
    "sched.slices": ("sched.slice", "calls"),
    "engine.reference.calls": ("engine.reference", "calls"),
    "engine.batched.calls": ("engine.batched", "calls"),
    "policies.stores": ("policies.store", "calls"),
    "policies.load_misses": ("policies.load_miss", "calls"),
    "timing.ifetch_misses": ("timing.ifetch_miss", "calls"),
    "l2.accesses": ("l2.access", "calls"),
    "write_buffer.ops": ("write_buffer.op", "calls"),
    "farm.cache.gets": ("farm.cache.get", "calls"),
    "farm.cache.puts": ("farm.cache.put", "calls"),
}


def _length(result, args) -> int:
    return 0 if result is None else len(result)


def install_sim_layers(tracer, engines: Iterable[str]) -> None:
    """Wrap the simulator's layers.  Must run before a ``Simulation`` is
    built: the memory system binds its miss and store handlers at
    construction."""
    import repro.core.hierarchy as hierarchy
    from repro.core.engine import resolve_engine
    from repro.core.l2 import SecondaryCache
    from repro.core.simulator import Simulation
    from repro.core.write_buffer import WriteBuffer
    from repro.mmu.page_table import PageTable
    from repro.mmu.tlb import TLB
    from repro.sched.process import PreparedBatch
    from repro.sched.scheduler import Scheduler
    from repro.trace.synthetic import SyntheticBenchmark

    tracer.patch(Simulation, "run", "sim.run")
    tracer.patch(SyntheticBenchmark, "next_batch", "trace.next_batch",
                 count=_length)
    tracer.patch(PageTable, "translate_batch", "mmu.translate")
    tracer.patch(TLB, "access", "mmu.tlb_access")
    tracer.patch(PreparedBatch, "from_batch", "sched.prep")
    tracer.patch(Scheduler, "run_one_slice", "sched.slice")
    for name in engines:
        tracer.patch(resolve_engine(name), "run_slice", f"engine.{name}",
                     count=lambda result, args: result.consumed)
    for method in ("access_instruction", "access_data_read",
                   "access_data_write"):
        tracer.patch(SecondaryCache, method, "l2.access")
    for method in ("push", "wait_empty", "flush_through"):
        tracer.patch(WriteBuffer, method, "write_buffer.op")
    tracer.patch(hierarchy, "ifetch_miss", "timing.ifetch_miss")
    resolve_policy = hierarchy.resolve_policy

    def traced_policy(policy):
        store, load_miss = resolve_policy(policy)
        return (tracer.wrap(store, "policies.store"),
                tracer.wrap(load_miss, "policies.load_miss"))

    tracer.substitute(hierarchy, "resolve_policy", traced_policy)


def install_farm_layers(tracer, fork_dir: Path) -> None:
    """Wrap the result cache, and the point executor where the farm pool
    and the server call it.

    A forked worker records spans in its own copy of the tracer: its
    ``execute_point`` wrapper first drops the spans copied from the
    parent and, before returning, writes the ones it recorded to
    ``fork_dir``, where :func:`forked_spans` finds them.
    """
    import repro.farm.points as points
    import repro.serve.server as server
    from repro.farm.cache import ResultCache

    tracer.patch(ResultCache, "get", "farm.cache.get",
                 count=lambda result, args: int(result is not None))
    tracer.patch(ResultCache, "put", "farm.cache.put")
    parent = os.getpid()
    traced = tracer.wrap(points.execute_point, "farm.execute_point")

    def execute_point(payload):
        if os.getpid() == parent:
            return traced(payload)
        tracer.forget()
        try:
            return traced(payload)
        finally:
            write_spans(fork_dir / f"spans-{os.getpid()}-"
                                   f"{time.monotonic_ns()}.npz",
                        tracer.spans(), tracer.names)

    tracer.substitute(points, "execute_point", execute_point)
    tracer.substitute(server, "execute_point", execute_point)


def forked_spans(fork_dir: Path) -> List[Tuple[Dict, List[str]]]:
    """The span tables forked workers wrote to ``fork_dir``."""
    return [read_spans(path) for path in sorted(fork_dir.glob("*.npz"))]


def install_serve_layers(tracer) -> None:
    """Wrap admission; the value is the queue depth after admitting."""
    from repro.serve.server import SimServer

    tracer.patch(SimServer, "admit", "serve.admit",
                 count=lambda result, args: args[0].queue.qsize())


def model_metrics(stats, crossover: Optional[float] = None
                  ) -> Dict[str, float]:
    """Simulated-time figures of one (possibly summed) ``SimStats``."""
    n = max(1, stats.instructions)
    out = {
        "model.cpi": stats.cpi(),
        "model.l1i_miss_ratio": stats.l1i_miss_ratio,
        "model.l1d_miss_ratio": stats.l1d_miss_ratio,
        "model.l2_miss_ratio": stats.l2_miss_ratio,
        "model.stall_cpi.tlb": stats.stall_tlb / n,
    }
    for component, cpi in stats.stall_components().items():
        out[f"model.stall_cpi.{component}"] = cpi
    if crossover is not None:
        out["model.fig5_crossover"] = crossover
    return out


def summed(stats_list: Sequence):
    """One ``SimStats`` holding the sum of several."""
    from repro.core.stats import SimStats

    total = SimStats()
    for stats in stats_list:
        total.add(stats)
    return total


def layer_metrics(totals: Dict[str, Dict[str, float]], traced_wall_s: float,
                  trace_overhead: float, extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric; layers that did not run read 0."""
    def get(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0)

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, span in SELF_METRICS.items():
        out[metric] = get(span, "self_s")
    for metric, (span, key) in COUNT_METRICS.items():
        out[metric] = get(span, key)
    for name in ("reference", "batched"):
        instructions = get(f"engine.{name}", "value")
        if instructions:
            out[f"engine.{name}.ns_per_instr"] = (
                get(f"engine.{name}", "self_s") * 1e9 / instructions)
    gets = get("farm.cache.get", "calls")
    if gets:
        out["farm.cache.hit_ratio"] = get("farm.cache.get", "value") / gets
    out["serve.queue_depth_max"] = totals.get("serve.admit", {}).get(
        "max_value", 0)
    out.update(extra)
    out["traced_wall_s"] = traced_wall_s
    out["trace_overhead"] = trace_overhead
    out["unattributed_s"] = traced_wall_s - sum(
        out[metric] for metric in SELF_METRICS)
    return out
