"""The trace store: record a workload trace once, replay it everywhere.

A replayed trace must be indistinguishable from synthesis — the same
batches at the same boundaries, the same generator snapshots — so every
result and checkpoint is unchanged whether the store is cold, warm or
corrupt.  Lookups are counted (``sim_trace_store_total``), and a bad
entry is removed and synthesized again.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import base_architecture
from repro.core.simulator import Simulation, simulate
from repro.experiments.common import workload
from repro.experiments.fig5_write_policy import config_for, policies_from
from repro.farm.cache import ResultCache
from repro.farm.cli import main as farm_main
from repro.farm.points import PointSpec, run_points
from repro.farm.pool import fork_available
from repro.farm.telemetry import RunTelemetry
from repro.robust.faults import FaultInjector
from repro.scenario import resolve_scenario
from repro.trace.benchmarks import default_suite
from repro.trace.store import (
    RecordingBenchmark,
    ReplaySource,
    TraceStore,
    load_entry,
    trace_key,
)
from repro.trace.synthetic import SyntheticBenchmark

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("pc", "kind", "addr", "partial", "syscall")
#: Three batches: two full ones and a short last one.
INSTRUCTIONS = 150_000


def pulls(source):
    """``(state before the pull, batch)`` for every batch, then the final
    state."""
    out = []
    while True:
        state = source.state_dict()
        batch = source.next_batch()
        if batch is None:
            return out, state
        out.append((state, batch))


def assert_same_pulls(got, want):
    (got_pulls, got_end), (want_pulls, want_end) = got, want
    assert len(got_pulls) == len(want_pulls)
    for (got_state, got_batch), (want_state, want_batch) in zip(
            got_pulls, want_pulls):
        assert got_state == want_state
        for name in COLUMNS:
            a, b = getattr(got_batch, name), getattr(want_batch, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got_end == want_end


@pytest.mark.parametrize("offset", [0, 10007])
def test_replay_equals_synthesis_for_every_profile(tmp_path, offset):
    for profile in default_suite(INSTRUCTIONS):
        profile = replace(profile, seed=profile.seed + offset)
        want = pulls(SyntheticBenchmark(profile))
        cold = TraceStore(tmp_path)
        recorder = cold.source(profile)
        assert isinstance(recorder, RecordingBenchmark)
        assert_same_pulls(pulls(recorder), want)
        warm = TraceStore(tmp_path)
        replay = warm.source(profile)
        assert isinstance(replay, ReplaySource)
        assert_same_pulls(pulls(replay), want)
        assert (cold.counts, warm.counts) == (
            {"hit": 0, "miss": 1, "corrupt": 0},
            {"hit": 1, "miss": 0, "corrupt": 0})
    assert not list(tmp_path.glob(".*.tmp"))


def test_replay_off_the_recorded_boundaries_goes_live(tmp_path):
    profile = default_suite(INSTRUCTIONS)[2]
    pulls(TraceStore(tmp_path).source(profile))

    def cut(source):
        # One recorded batch, one cut short of a boundary, then the rest.
        first = [source.next_batch(), source.next_batch(max_len=1000)]
        return first + [batch for _, batch in pulls(source)[0]]

    got = cut(TraceStore(tmp_path).source(profile))
    want = cut(SyntheticBenchmark(profile))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert all(np.array_equal(getattr(a, c), getattr(b, c))
                   for c in COLUMNS)


# ------------------------------------------------------------ the fig5 grid


def fig5_specs(tmp_path):
    overlay = tmp_path / "small.toml"
    overlay.write_text("[workload]\ninstructions_per_benchmark = 6000\n"
                       "level = 4\ntime_slice = 3000\n")
    resolved = resolve_scenario(ROOT / "scenarios" / "fig5.toml",
                                overlays=[overlay])
    scale = resolved.scale
    profiles = tuple(workload(scale))
    return [PointSpec(label=config.name, config=config, profiles=profiles,
                      time_slice=scale.time_slice, level=scale.level,
                      warmup_instructions=scale.warmup_instructions())
            for config in (config_for(policy, access_time,
                                      base=resolved.machine)
                           for policy in policies_from(
                               resolved.axes["policies"])
                           for access_time in resolved.axes["access_times"])]


def store_counts(telemetry):
    counter = telemetry.registry.get("sim_trace_store_total")
    if counter is None:
        return {}
    return {outcome: counter.value_of(outcome)
            for outcome in ("hit", "miss", "corrupt")
            if counter.value_of(outcome)}


def run_grid(specs, cache, jobs):
    telemetry = RunTelemetry(stream=None)
    stats = run_points(specs, jobs=jobs, cache=cache, telemetry=telemetry)
    return [s.to_dict() for s in stats], store_counts(telemetry)


@pytest.mark.parametrize("jobs", [1, 2])
def test_fig5_grid_is_identical_cold_warm_and_corrupt(tmp_path, jobs):
    if jobs > 1 and not fork_available():
        pytest.skip("platform cannot fork")
    specs = fig5_specs(tmp_path)
    n_profiles = len(specs[0].profiles)
    want, counts = run_grid(specs, None, 1)
    assert counts == {}  # no cache, no store

    cache = ResultCache(tmp_path / "cache")
    cold, counts = run_grid(specs, cache, jobs)
    assert cold == want
    assert counts["miss"] >= n_profiles and "corrupt" not in counts
    assert sum(counts.values()) == len(specs) * n_profiles
    assert len(list(cache.traces_root.glob("*.npy"))) == n_profiles

    # Result entries cleared: every point runs again, every trace replays.
    for path in cache.root.glob("*.json"):
        path.unlink()
    warm, counts = run_grid(specs, cache, jobs)
    assert warm == want
    assert counts == {"hit": len(specs) * n_profiles}

    for path in cache.root.glob("*.json"):
        path.unlink()
    entries = sorted(cache.traces_root.glob("*.npy"))
    FaultInjector().corrupt_file(entries[0])
    entries[1].write_bytes(entries[1].read_bytes()[:-100])  # truncated
    corrupt, counts = run_grid(specs, cache, jobs)
    assert corrupt == want
    assert counts["corrupt"] >= 2
    for path in cache.traces_root.glob("*.npy"):
        load_entry(path)  # re-synthesized and valid again


# --------------------------------------------------------------- publishing


def _record(root, profile, barrier):
    barrier.wait()
    store = TraceStore(root)
    source = store.source(profile)
    while source.next_batch() is not None:
        pass
    store.close()


@pytest.mark.skipif(not fork_available(), reason="platform cannot fork")
def test_racing_recorders_publish_one_valid_file(tmp_path):
    profile = default_suite(INSTRUCTIONS)[0]
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(4)  # more recorders than cores
    workers = [ctx.Process(target=_record, args=(tmp_path, profile, barrier))
               for _ in range(4)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(60)
        assert not worker.is_alive() and worker.exitcode == 0
    assert [p.name for p in tmp_path.iterdir()] \
        == [f"{trace_key(profile)}.npy"]
    load_entry(tmp_path / f"{trace_key(profile)}.npy")


def test_unfinished_recording_leaves_nothing(tmp_path):
    store = TraceStore(tmp_path)
    sim = Simulation(base_architecture(), default_suite(INSTRUCTIONS)[:2],
                     time_slice=5_000, trace_store=store)
    sim.run(max_instructions=10_000)
    assert list(tmp_path.iterdir())  # temp files in flight
    store.close()
    assert list(tmp_path.iterdir()) == []


def test_corrupt_entries_are_counted_removed_and_rerecorded(tmp_path):
    profile = default_suite(INSTRUCTIONS)[1]
    want = pulls(SyntheticBenchmark(profile))
    pulls(TraceStore(tmp_path).source(profile))
    path = tmp_path / f"{trace_key(profile)}.npy"
    blob = path.read_bytes()
    for bad in (blob[:-1], blob + b"\0", blob[:len(blob) // 2], b"",
                blob[:200] + bytes([blob[200] ^ 1]) + blob[201:],
                blob[:-30] + bytes([blob[-30] ^ 1]) + blob[-29:]):
        path.write_bytes(bad)
        store = TraceStore(tmp_path)
        source = store.source(profile)
        assert store.counts["corrupt"] == 1
        assert isinstance(source, RecordingBenchmark)
        assert_same_pulls(pulls(source), want)
        assert path.read_bytes() == blob  # re-published


def test_a_hit_touches_the_entry(tmp_path):
    profile = default_suite(20_000)[0]
    pulls(TraceStore(tmp_path).source(profile))
    path = tmp_path / f"{trace_key(profile)}.npy"
    old = time.time() - 10 * 86400
    os.utime(path, (old, old))
    assert isinstance(TraceStore(tmp_path).source(profile), ReplaySource)
    assert path.stat().st_mtime > time.time() - 60


# -------------------------------------------------------------- checkpoints


@pytest.mark.parametrize("first,second", [("replay", "synth"),
                                          ("synth", "replay")])
def test_checkpoint_resumes_across_sources(tmp_path, first, second):
    profiles = default_suite(90_000)[:3]
    store = TraceStore(tmp_path)
    for profile in profiles:
        pulls(store.source(profile))

    def make(kind):
        store = TraceStore(tmp_path) if kind == "replay" else None
        return Simulation(base_architecture(), profiles, time_slice=7_000,
                          trace_store=store)

    want = make("synth").run().to_dict()
    interrupted = make(first)
    interrupted.run(max_instructions=100_000)  # mid-batch for every process
    state = interrupted.state_dict()
    assert any(p["has_batch"] and p["pos"]
               for p in state["scheduler"]["processes"])
    resumed = make(second)
    resumed.load_state(state)
    kinds = {type(p.source) for p in resumed.scheduler._all_processes}
    assert kinds == ({ReplaySource} if second == "replay"
                     else {SyntheticBenchmark})
    assert resumed.run().to_dict() == want


def test_bare_simulate_never_touches_the_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FARM_CACHE", str(tmp_path))
    simulate(base_architecture(), default_suite(5_000)[:2], time_slice=2_000)
    run_points([PointSpec("p", base_architecture(),
                          tuple(default_suite(5_000)[:2]), 2_000)])
    assert not (tmp_path / "traces").exists()


# ------------------------------------------------------------- management


def test_farm_cli_manages_trace_entries(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    for profile in default_suite(10_000)[:3]:
        pulls(TraceStore(cache.traces_root).source(profile))
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["trace_entries"] == 3
    assert stats["trace_bytes"] > 3 * 10_000 * 9

    entries = sorted(cache.traces_root.glob("*.npy"))
    FaultInjector().corrupt_file(entries[0])
    assert farm_main(["--cache-dir", str(tmp_path), "scrub"]) == 1
    assert "2 ok, 1 corrupt" in capsys.readouterr().out
    assert (cache.quarantine_dir / entries[0].name).exists()

    old = time.time() - 10 * 86400
    os.utime(entries[1], (old, old))
    stale = cache.traces_root / f".{entries[1].stem}.1.0.tmp"
    stale.write_bytes(b"x")
    os.utime(stale, (old, old))
    assert farm_main(["--cache-dir", str(tmp_path), "gc",
                      "--max-age-days", "1"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert [p.name for p in cache.traces_root.iterdir()] == [entries[2].name]

    assert farm_main(["--cache-dir", str(tmp_path), "clear"]) == 0
    assert cache.stats()["trace_entries"] == 0
