"""bench-diff: trajectory extractors, the portable/rate split, and
regression verdicts — including against the repo's committed files."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import FleetError
from repro.fleet.bench import (diff_trajectory, extract_metrics,
                               load_bench_file)
from repro.fleet.cli import main as fleet_main

REPO = Path(__file__).resolve().parent.parent

ENGINE_DOC = {
    "workloads": {
        "hot_loop": {
            "bit_identical": True,
            "engine_speedup": 3.0,
            "end_to_end_speedup": 1.9,
            "reference": {"engine_instr_per_s": 4_000_000},
            "native": {"engine_instr_per_s": 12_000_000},
        },
    },
    "passed": True,
}

OBS_DOC = {
    "floor_instr_per_s": 150_000.0,
    "engines": {
        "reference": {"disabled_instr_per_s": 400_000,
                      "enabled_overhead_x": 2.0,
                      "energy_overhead_x": 1.5},
    },
}


class TestExtractors:
    def test_engine_shape(self):
        keys = {m.key for m in extract_metrics(ENGINE_DOC)}
        assert "hot_loop.engine_speedup" in keys
        assert "hot_loop.bit_identical" in keys

    def test_rates_are_marked_machine_bound(self):
        by_key = {m.key: m for m in extract_metrics(ENGINE_DOC)}
        assert by_key["hot_loop.engine_speedup"].portable
        assert not by_key["hot_loop.native.engine_instr_per_s"].portable

    def test_obs_overheads_regress_upward(self):
        by_key = {m.key: m for m in extract_metrics(OBS_DOC)}
        assert by_key["reference.enabled_overhead_x"].better == "lower"

    def test_generic_fallback_is_conservative(self):
        metrics = extract_metrics({"speed": 3.5, "ok": True, "name": "x"})
        by_key = {m.key: m for m in metrics}
        assert by_key["ok"].kind == "flag"
        assert not by_key["speed"].portable


class TestDiff:
    def test_identity_diff_is_clean(self):
        assert diff_trajectory(ENGINE_DOC, ENGINE_DOC)["ok"]

    def test_flag_flip_is_a_hard_regression(self):
        fresh = copy.deepcopy(ENGINE_DOC)
        fresh["workloads"]["hot_loop"]["bit_identical"] = False
        outcome = diff_trajectory(ENGINE_DOC, fresh)
        assert not outcome["ok"]
        assert "hot_loop.bit_identical" in outcome["regressions"]

    def test_speedup_drop_beyond_threshold_regresses(self):
        fresh = copy.deepcopy(ENGINE_DOC)
        fresh["workloads"]["hot_loop"]["engine_speedup"] = 1.5  # -50%
        outcome = diff_trajectory(ENGINE_DOC, fresh, threshold=0.25)
        assert "hot_loop.engine_speedup" in outcome["regressions"]

    def test_drop_within_threshold_is_noise(self):
        fresh = copy.deepcopy(ENGINE_DOC)
        fresh["workloads"]["hot_loop"]["engine_speedup"] = 2.7  # -10%
        assert diff_trajectory(ENGINE_DOC, fresh, threshold=0.25)["ok"]

    def test_overhead_increase_regresses_in_the_other_direction(self):
        fresh = copy.deepcopy(OBS_DOC)
        fresh["engines"]["reference"]["enabled_overhead_x"] = 4.0
        outcome = diff_trajectory(OBS_DOC, fresh, threshold=0.25)
        assert "reference.enabled_overhead_x" in outcome["regressions"]

    def test_rates_skipped_by_default_compared_on_request(self):
        fresh = copy.deepcopy(ENGINE_DOC)
        fresh["workloads"]["hot_loop"]["native"][
            "engine_instr_per_s"] = 1_000_000  # 12x slower
        lenient = diff_trajectory(ENGINE_DOC, fresh)
        assert lenient["ok"]
        assert any("instr_per_s" in row["key"]
                   for row in lenient["skipped"])
        strict = diff_trajectory(ENGINE_DOC, fresh, include_rates=True)
        assert not strict["ok"]

    def test_missing_metric_is_a_regression(self):
        fresh = copy.deepcopy(ENGINE_DOC)
        del fresh["workloads"]["hot_loop"]["engine_speedup"]
        outcome = diff_trajectory(ENGINE_DOC, fresh)
        assert "hot_loop.engine_speedup" in outcome["regressions"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(FleetError):
            diff_trajectory(ENGINE_DOC, ENGINE_DOC, threshold=-1)

    def test_load_bench_file_errors(self, tmp_path):
        with pytest.raises(FleetError, match="cannot read"):
            load_bench_file(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(FleetError, match="not JSON"):
            load_bench_file(str(bad))


class TestCommittedTrajectories:
    """The repo's own BENCH_*.json files must keep extracting cleanly."""

    @pytest.mark.parametrize("name", ["BENCH_engine.json",
                                      "BENCH_farm.json",
                                      "BENCH_serve.json",
                                      "BENCH_obs.json"])
    def test_committed_file_self_diffs_clean(self, name):
        path = REPO / name
        if not path.exists():
            pytest.skip(f"{name} not committed")
        doc = load_bench_file(str(path))
        outcome = diff_trajectory(doc, doc, include_rates=True)
        assert outcome["ok"], outcome["regressions"]
        assert outcome["comparisons"], f"no metrics extracted from {name}"


class TestCli:
    def test_bench_diff_exit_codes(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        fresh = tmp_path / "fresh.json"
        committed.write_text(json.dumps(ENGINE_DOC))
        regressed = copy.deepcopy(ENGINE_DOC)
        regressed["workloads"]["hot_loop"]["bit_identical"] = False
        fresh.write_text(json.dumps(regressed))
        assert fleet_main(["bench-diff", str(committed),
                           str(committed)]) == 0
        assert fleet_main(["bench-diff", str(committed), str(fresh)]) == 1
        out = capsys.readouterr().out
        assert "bit_identical" in out

    def test_bench_diff_json_output(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        committed.write_text(json.dumps(ENGINE_DOC))
        assert fleet_main(["bench-diff", "--json", str(committed),
                           str(committed)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_smoke_mode_checks_named_files(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(OBS_DOC))
        assert fleet_main(["bench-diff", "--smoke", str(path)]) == 0
        assert "self-diff clean" in capsys.readouterr().out

    def test_smoke_mode_fails_on_missing_named_file(self, capsys):
        assert fleet_main(["bench-diff", "--smoke",
                           "/nonexistent/BENCH.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_arity_is_an_error(self, capsys):
        assert fleet_main(["bench-diff", "one.json"]) == 1
        assert "COMMITTED and FRESH" in capsys.readouterr().err
