"""Tests of the benchmark itself: tiny-scale smoke runs of every
workload, self-time arithmetic, and the correctness gate.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import workloads
from layers import PER_LAYER, SELF_METRICS
from report import END_TO_END, summarise, tail
from spans import Tracer, layer_totals, merge_spans, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = workloads.Sizes(instructions=1500, serve_requests=26)


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path / "out")


def _table(rows):
    """Span columns from ``(name, parent, start, end, thread)`` rows."""
    columns = list(zip(*rows))
    n = len(rows)
    return {"name": np.array(columns[0], dtype=np.int64),
            "parent": np.array(columns[1], dtype=np.int64),
            "start": np.array(columns[2], dtype=np.int64),
            "end": np.array(columns[3], dtype=np.int64),
            "value": np.zeros(n, dtype=np.int64),
            "rid": np.zeros(n, dtype=np.int64),
            "thread": np.array(columns[4], dtype=np.int64)}


def test_self_time_single_thread_tree():
    # root [0,100] > a [10,40] > b [20,25]; root > c [50,90]
    spans = _table([(0, -1, 0, 100, 0), (1, 0, 10, 40, 0),
                    (2, 1, 20, 25, 0), (3, 0, 50, 90, 0)])
    own = self_times(spans) * 1e9
    assert np.allclose(own, [30, 25, 5, 40])
    assert np.isclose(own.sum(), 100)


def test_self_time_shared_between_threads():
    # Thread 0: x [0,100] > y [40,60].  Thread 1: z [50,150].
    spans = _table([(0, -1, 0, 100, 0), (1, 0, 40, 60, 0),
                    (2, -1, 50, 150, 1)])
    own = self_times(spans) * 1e9
    # [0,40] x alone; [40,50] y alone; [50,60] y|z; [60,100] x|z;
    # [100,150] z alone.
    assert np.allclose(own, [40 + 20, 10 + 5, 5 + 20 + 50])
    assert np.isclose(own.sum(), 150)


def test_merged_child_spans_share_time_with_the_parent():
    # Parent thread: x [0,100] > y [40,60].  A forked child, saved with
    # its own name list: z [50,150] > y [60,70].
    parent = _table([(0, -1, 0, 100, 0), (1, 0, 40, 60, 0)])
    child = _table([(0, -1, 50, 150, 0), (1, 0, 60, 70, 0)])
    names = ["x", "y"]
    spans = merge_spans(parent, names, [(child, ["z", "y"])])
    assert names == ["x", "y", "z"]
    assert list(spans["name"]) == [0, 1, 2, 1]
    assert list(spans["parent"]) == [-1, 0, -1, 2]
    assert list(spans["thread"]) == [0, 0, 1, 1]
    totals = layer_totals(spans, names)
    # [50,100] is shared by the two processes; z's child y takes [60,70].
    assert totals["y"]["calls"] == 2
    assert totals["y"]["self_s"] * 1e9 == pytest.approx(10 + 5 + 5)
    assert totals["z"]["self_s"] * 1e9 == pytest.approx(25 + 50 - 5)
    assert sum(t["self_s"] for t in totals.values()) * 1e9 == \
        pytest.approx(150)


def test_layer_totals_and_tracer_round_trip():
    tracer = Tracer()

    def leaf(n):
        return list(range(n))

    def outer():
        return traced_leaf(3) + traced_leaf(4)

    traced_leaf = tracer.wrap(leaf, "leaf", count=lambda r, a: len(r))
    traced_outer = tracer.wrap(outer, "outer")
    worker = threading.Thread(target=traced_outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    traced_outer()
    spans = tracer.spans()
    totals = layer_totals(spans, tracer.names)
    assert totals["leaf"]["calls"] == 4
    assert totals["leaf"]["value"] == 14
    assert totals["outer"]["calls"] == 2
    assert set(spans["thread"]) == {0, 1}


def test_tail_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert tail(samples, "lower") == 90
    assert tail(samples, "higher") == 11
    assert tail([3, 1, 2], "lower") == 3


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == \
        [name for name, *_ in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name):
    workload = workloads.WORKLOADS[name]
    outcome = workload.run(workload, 3, 0.0, False, {}, TINY)
    assert outcome.errors == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    for row in summarise(outcome.samples, outcome.raw):
        assert row["value"] > 0, row


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_ledger_sums_to_wall(name):
    from repro.mmu.tlb import TLB

    access = TLB.access
    workload = workloads.WORKLOADS[name]
    outcome = workload.run(workload, 3, 0.0, True, {}, TINY)
    assert outcome.errors == []
    layers = outcome.layers
    assert set(layers) == {metric for metric, _, _ in PER_LAYER}
    ledger = sum(layers[m] for m in SELF_METRICS) + layers["unattributed_s"]
    assert ledger == pytest.approx(layers["traced_wall_s"])
    assert 0 <= layers["unattributed_s"] < layers["traced_wall_s"]
    assert layers["trace_overhead"] > 0
    assert TLB.access is access  # wrappers removed
    assert (workloads.OUT_DIR / f"spans-{name}.npz").exists()


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _copy_benchmark(root):
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_perturbed_digest_fails_and_exits_nonzero(tmp_path):
    _copy_benchmark(tmp_path)
    for name in ("src", "scenarios"):
        (tmp_path / name).symlink_to(ROOT / name)
    path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    recorded = digests["base_l8"]["0"]
    digests["base_l8"]["0"] = ("0" if recorded[0] != "0" else "1") \
        + recorded[1:]
    path.write_text(json.dumps(digests))
    done = _run(["--workload", "base_l8", "--seed", "0", "--seconds", "0",
                 "--trace", "0"], tmp_path)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "digest mismatch" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    done = _run(["--workload", "base_l8", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
