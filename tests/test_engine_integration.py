"""The engine seam through the outer layers: checkpoints carry a
versioned snapshot schema and resume across engines; the farm's
content-addressed cache separates engines; the serve wire protocol
validates the ``engine`` field.
"""

import dataclasses

import pytest

from repro.core.config import base_architecture
from repro.core.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.core.simulator import STATE_VERSION, Simulation
from repro.core.stats import SimStats
from repro.errors import CheckpointError, ServeError
from repro.farm.cache import ResultCache, point_key
from repro.robust.checkpoint import resume, save_checkpoint
from repro.serve.protocol import parse_simulate_request
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 10_000
TIME_SLICE = 2_000


@pytest.fixture(scope="module")
def suite():
    return default_suite(instructions_per_benchmark=INSTRUCTIONS)[:2]


class TestStateVersioning:
    def test_state_dict_carries_version(self, suite):
        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=TIME_SLICE)
        state = sim.state_dict()
        assert state["version"] == STATE_VERSION

    def test_unknown_version_rejected(self, suite):
        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=TIME_SLICE)
        state = sim.state_dict()
        state["version"] = STATE_VERSION + 100
        fresh = Simulation(config=base_architecture(), profiles=suite,
                           time_slice=TIME_SLICE)
        with pytest.raises(CheckpointError, match="unknown state version"):
            fresh.load_state(state)

    def test_versionless_snapshot_still_loads(self, suite):
        # Version 1 snapshots predate the field; absence means 1.
        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=TIME_SLICE)
        state = sim.state_dict()
        del state["version"]
        fresh = Simulation(config=base_architecture(), profiles=suite,
                           time_slice=TIME_SLICE)
        fresh.load_state(state)  # must not raise


class TestCrossEngineResume:
    @pytest.mark.parametrize("first,second", [
        ("reference", "native"),
        ("native", "reference"),
    ])
    def test_resume_under_other_engine(self, tmp_path, suite, first, second):
        config = base_architecture()
        uninterrupted = Simulation(config=config, profiles=suite,
                                   time_slice=TIME_SLICE, engine=first).run()

        budget = len(suite) * INSTRUCTIONS
        sim = Simulation(config=config, profiles=suite,
                         time_slice=TIME_SLICE, engine=first)
        sim.run(max_instructions=budget // 2)
        ckpt = tmp_path / "run.ckpt"
        save_checkpoint(sim, ckpt)

        resumed = resume(ckpt, engine=second)
        assert resumed.engine == second
        final = resumed.run()
        assert dataclasses.asdict(final) == dataclasses.asdict(uninterrupted)


class TestFarmCacheSeparation:
    def test_point_key_differs_by_engine(self, suite):
        config = base_architecture()
        keys = {point_key(config, suite, TIME_SLICE, engine=engine)
                for engine in ENGINE_NAMES}
        assert len(keys) == len(ENGINE_NAMES)

    def test_warm_cache_does_not_cross_engines(self, tmp_path, suite):
        config = base_architecture()
        cache = ResultCache(tmp_path / "cache")
        ref_key = point_key(config, suite, TIME_SLICE, engine="reference")
        nat_key = point_key(config, suite, TIME_SLICE, engine="native")
        cache.put(ref_key, SimStats(), meta={"engine": "reference"})
        assert cache.get(ref_key) is not None
        assert cache.get(nat_key) is None


class TestServeEngineField:
    @staticmethod
    def _raw(extra):
        import json

        from repro.core.serialization import config_to_dict

        body = {
            "config": config_to_dict(base_architecture()),
            "workload": {"suite": {"instructions_per_benchmark": 2_000}},
        }
        return json.dumps({**body, **extra}).encode()

    def test_unknown_engine_is_400(self):
        with pytest.raises(ServeError) as excinfo:
            parse_simulate_request(self._raw({"engine": "bogus"}))
        assert excinfo.value.status == 400

    def test_non_string_engine_is_400(self):
        with pytest.raises(ServeError) as excinfo:
            parse_simulate_request(self._raw({"engine": 3}))
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_valid_engine_accepted(self, engine):
        spec, _, _ = parse_simulate_request(self._raw({"engine": engine}))
        assert spec.engine == engine

    def test_engine_defaults_when_omitted(self):
        spec, _, _ = parse_simulate_request(self._raw({}))
        assert spec.engine == DEFAULT_ENGINE
