"""The native engine's build, load and fallback paths, and the retired
``batched`` engine name on every surface that accepts engine names.

Full-``SimStats`` equality between ``native`` and ``reference`` lives in
the lockstep batteries (``test_engine_lockstep.py`` and siblings); here
the concern is everything around the kernel: a cached library that is
missing, truncated or corrupt; concurrent first builds; runs that must go
to the reference engine (build failure, no compiler, obs tracing) and
must say so; and trace columns that are not what the kernel expects.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import base_architecture
from repro.core.engine import native
from repro.core.hierarchy import MemorySystem
from repro.core.simulator import Simulation
from repro.errors import CheckpointError, ConfigurationError
from repro.obs.metrics import global_registry
from repro.robust.checkpoint import resume, save_checkpoint
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 8_000
TIME_SLICE = 2_000


@pytest.fixture(scope="module")
def suite():
    return default_suite(instructions_per_benchmark=INSTRUCTIONS)[:2]


def run(suite, engine, **kwargs):
    sim = Simulation(config=base_architecture(), profiles=suite,
                     time_slice=TIME_SLICE, engine=engine, **kwargs)
    return sim, sim.run()


def fallbacks(reason):
    counter = global_registry().get("sim_engine_fallbacks_total")
    return 0 if counter is None else counter.value_of(reason)


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """Forget the process's loaded kernel and build into ``tmp_path``."""
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
    return tmp_path


class TestBuildCache:
    def test_builds_into_an_empty_directory(self, tmp_path):
        run_slice = native.load_kernel(tmp_path)
        assert run_slice is not None
        assert [p.name for p in tmp_path.iterdir()] == \
            [native.library_name()]

    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    def test_damaged_library_is_rebuilt_once(self, tmp_path, damage):
        good = tmp_path / "good"
        native.load_kernel(good)
        library = native.library_name()
        broken = tmp_path / "broken"
        broken.mkdir()
        data = (good / library).read_bytes()
        (broken / library).write_bytes(
            data[:len(data) // 3] if damage == "truncate"
            else b"\x7fELF not really a library")
        assert native.load_kernel(broken) is not None
        assert (broken / library).read_bytes() != b"\x7fELF not really " \
                                                 b"a library"
        assert [p.name for p in broken.iterdir()] == [library]

    def test_concurrent_spawned_builds_all_succeed(self, tmp_path):
        # More building processes than cores, racing into one empty directory.
        target = tmp_path / "shared"
        context = multiprocessing.get_context("spawn")
        workers = [context.Process(target=native.load_kernel,
                                   args=(target,)) for _ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=180)
        try:
            for worker in workers:
                assert not worker.is_alive()
                assert worker.exitcode == 0
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.kill()
        # Each published atomically; no build directory is left behind.
        assert [p.name for p in target.iterdir()] == [native.library_name()]
        assert native.load_kernel(target) is not None


class TestFallbacks:
    def test_build_failure_falls_back_and_counts(self, suite, fresh_kernel,
                                                 monkeypatch):
        broken = fresh_kernel / "broken.c"
        broken.write_text("this is not C;\n")
        monkeypatch.setattr(native, "_SOURCE", broken)
        before = fallbacks("build_failed")
        sim, stats = run(suite, "native")
        assert sim.memsys.engine.name == "reference"
        assert fallbacks("build_failed") == before + 1
        _, truth = run(suite, "reference")
        assert dataclasses.asdict(stats) == dataclasses.asdict(truth)

    def test_missing_compiler_falls_back_and_counts(self, suite,
                                                    fresh_kernel,
                                                    monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        before = fallbacks("no_compiler")
        sim, stats = run(suite, "native")
        assert sim.memsys.engine.name == "reference"
        assert fallbacks("no_compiler") == before + 1
        _, truth = run(suite, "reference")
        assert dataclasses.asdict(stats) == dataclasses.asdict(truth)

    def test_unsupported_line_width_falls_back(self, suite):
        from repro.core.config import (CacheConfig, L2Config,
                                       WriteBufferConfig)

        wide = base_architecture().with_(
            name="wide-lines",
            dcache=CacheConfig(size_words=4096, line_words=64),
            write_buffer=WriteBufferConfig(depth=4, width_words=64),
            l2=L2Config(size_words=64 * 1024, line_words=64))
        before = fallbacks("unsupported")
        sims = [Simulation(config=wide, profiles=suite,
                           time_slice=TIME_SLICE, engine=engine)
                for engine in ("native", "reference")]
        assert sims[0].memsys.engine.name == "reference"
        assert fallbacks("unsupported") == before + 1
        native_stats, truth = (sim.run() for sim in sims)
        assert dataclasses.asdict(native_stats) == dataclasses.asdict(truth)

    def test_tracing_run_uses_reference_and_counts(self, suite, tmp_path):
        _, truth = run(suite, "reference")
        before = fallbacks("tracing")
        obs.enable(tmp_path / "trace.jsonl", sample_interval=None)
        try:
            sim, stats = run(suite, "native")
        finally:
            obs.disable()
        assert sim.memsys.engine.name == "reference"
        assert fallbacks("tracing") == before + 1
        assert dataclasses.asdict(stats) == dataclasses.asdict(truth)
        events = obs.read_events(tmp_path / "trace.jsonl")
        assert any(event["ev"] == "l1i_miss" for event in events)

    def test_tracing_switched_on_mid_run(self, suite, tmp_path):
        _, truth = run(suite, "reference")
        before = fallbacks("tracing")
        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=TIME_SLICE, engine="native")
        sim.run(max_instructions=INSTRUCTIONS // 2)
        assert sim.memsys.engine.name == "native"
        obs.enable(tmp_path / "trace.jsonl", sample_interval=None)
        try:
            stats = sim.run()
        finally:
            obs.disable()
        assert sim.memsys.engine.name == "reference"
        assert isinstance(sim.memsys._dtags, list)
        assert fallbacks("tracing") == before + 1
        assert dataclasses.asdict(stats) == dataclasses.asdict(truth)

    def test_fallback_warns_once_per_reason(self, suite, fresh_kernel,
                                            monkeypatch, caplog):
        import repro.core.engine as engine_module

        monkeypatch.setattr(engine_module, "_warned", set())
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        with caplog.at_level("WARNING", logger="repro.engine"):
            run(suite, "native")
            run(suite, "native")
        warnings = [r for r in caplog.records if r.name == "repro.engine"]
        assert len(warnings) == 1
        assert "no_compiler" in warnings[0].getMessage()


class TestColumns:
    def test_lists_and_arrays_agree(self):
        config = base_architecture()
        pcs = list(range(0, 3000, 3))
        kinds = [i % 3 for i in range(len(pcs))]
        addrs = [(i * 97) % 20000 for i in range(len(pcs))]
        partials = [i % 5 == 0 for i in range(len(pcs))]
        syscalls = [False] * len(pcs)
        results = []
        for engine, columns in (
                ("reference", (pcs, kinds, addrs, partials, syscalls)),
                ("native", (pcs, kinds, addrs, partials, syscalls)),
                ("native", (np.array(pcs), np.array(kinds, np.uint8),
                            np.array(addrs), np.array(partials),
                            np.array(syscalls)))):
            ms = MemorySystem(config, engine=engine)
            result = ms.run_slice(*columns, 0, 1 << 62)
            results.append((result, ms.stats.to_dict(), ms.state_dict()))
        for result, stats, state in results[1:]:
            assert result == results[0][0]
            assert stats == results[0][1]
            state.pop("engine")
            expected = dict(results[0][2])
            expected.pop("engine")
            assert state == expected

    def test_ragged_columns_rejected(self):
        ms = MemorySystem(base_architecture(), engine="native")
        with pytest.raises(ValueError, match="kinds"):
            ms.run_slice([0, 1, 2], [0, 0], [0, 0, 0], [False] * 3,
                         [False] * 3, 0, 100)

    def test_replaced_state_array_is_readopted(self):
        ms = MemorySystem(base_architecture(), engine="native")
        ms._itags = list(ms._itags)  # a caller swapped the array out
        ms.run_slice([0, 4], [0, 0], [0, 0], [False] * 2, [False] * 2,
                     0, 1 << 40)
        assert isinstance(ms._itags, np.ndarray)
        assert ms._itags[:2].tolist() == [0, 1]


class TestBatchPrepPaths:
    """The page lookup follows the engine that runs: compiled under the
    native engine, NumPy under the reference engine.  Page-table state is
    shared, so a checkpoint taken mid-batch under one engine replays the
    in-flight batch under the other into identical columns."""

    @pytest.fixture(scope="class")
    def long_suite(self):
        # Three 64k batches per process, so the checkpoint falls after
        # the first batch and the replayed batch meets known pages.
        return default_suite(instructions_per_benchmark=150_000)[:2]

    @pytest.mark.parametrize("first,second", [("native", "reference"),
                                              ("reference", "native")])
    def test_mid_batch_checkpoint_resumes_across_paths(self, long_suite,
                                                       tmp_path, first,
                                                       second):
        truth = Simulation(config=base_architecture(), profiles=long_suite,
                           time_slice=30_000, engine=first).run()
        sim = Simulation(config=base_architecture(), profiles=long_suite,
                         time_slice=30_000, engine=first)
        assert sim.page_table.compiled == (first == "native")
        sim.run(max_instructions=150_000)
        in_flight = {p.pid: p._batch.arrays
                     for p in sim.scheduler._all_processes
                     if p._batch is not None
                     and 0 < p._pos < len(p._batch)}
        assert in_flight, "the checkpoint must fall inside a batch"
        path = tmp_path / "run.ckpt"
        save_checkpoint(sim, path)

        resumed = resume(path, engine=second)
        assert resumed.memsys.engine.name == second
        assert resumed.page_table.compiled == (second == "native")
        replayed = {p.pid: p._batch.arrays
                    for p in resumed.scheduler._all_processes
                    if p.pid in in_flight}
        assert replayed.keys() == in_flight.keys()
        for pid, columns in in_flight.items():
            for got, want in zip(replayed[pid], columns):
                np.testing.assert_array_equal(got, want)
        stats = resumed.run()
        assert dataclasses.asdict(stats) == dataclasses.asdict(truth)

    def test_tracing_fallback_switches_the_lookup(self, suite, tmp_path):
        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=TIME_SLICE, engine="native")
        sim.run(max_instructions=INSTRUCTIONS // 2)
        assert sim.page_table.compiled
        obs.enable(tmp_path / "trace.jsonl", sample_interval=None)
        try:
            sim.run()
        finally:
            obs.disable()
        assert sim.memsys.engine.name == "reference"
        assert not sim.page_table.compiled


class TestRetiredBatchedName:
    def test_simulation_rejects_it_with_a_hint(self, suite):
        with pytest.raises(ConfigurationError,
                           match="did you mean 'native'"):
            Simulation(config=base_architecture(), profiles=suite,
                       engine="batched")

    def test_scenario_schema_did_you_mean(self, tmp_path):
        from repro.scenario import resolve_scenario

        path = tmp_path / "s.toml"
        path.write_text('[scenario]\nname = "s"\n'
                        '[engine]\nname = "batched"\n')
        with pytest.raises(ConfigurationError,
                           match="engine.name 'batched'.*did you mean "
                                 "'native'"):
            resolve_scenario(path)

    def test_cli_did_you_mean(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["tech", "--engine", "batched"])
        assert excinfo.value.code == 2
        assert "did you mean 'native'" in capsys.readouterr().err

    def test_checkpoint_naming_it_points_at_resume(self, suite, tmp_path):
        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=TIME_SLICE, engine="reference")
        sim.run(max_instructions=INSTRUCTIONS // 2)
        state = sim.state_dict()
        state["simulation"]["engine"] = "batched"
        state["memsys"]["engine"] = "batched"

        class Written:  # a snapshot as a batched-era build wrote it
            def state_dict(self):
                return state

        path = tmp_path / "run.ckpt"
        save_checkpoint(Written(), path)
        with pytest.raises(CheckpointError,
                           match=r"resume\(path, engine='native'\)"):
            resume(path)
        # The state itself is engine-agnostic: overriding continues it.
        resumed = resume(path, engine="native")
        _, truth = run(suite, "reference")
        assert dataclasses.asdict(resumed.run()) == \
            dataclasses.asdict(truth)

    def test_journal_naming_it_points_at_resume(self, tmp_path):
        from repro.durable.journal import RunJournal

        path = tmp_path / "run.wal"
        with RunJournal(path) as journal:
            journal.open_run(["k0"], ["p0"], meta={"engine": "batched"})
        with RunJournal(path) as journal:
            with pytest.raises(CheckpointError,
                               match=r"resume\(path, engine='native'\)"):
                journal.open_run(["k0"], ["p0"])
