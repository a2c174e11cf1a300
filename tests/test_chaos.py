"""The three chaos storms, CI-sized, and the harness's input checks.

The full storms run in CI via ``python -m repro.chaos``; here trimmed
storms keep the unit suite fast while still forking a real server's
workers, SIGKILLing a real coordinator and SIGSTOPping a real worker
past its lease.
"""

from __future__ import annotations

import functools
import json

import pytest

import repro.chaos as chaos
from repro.chaos import (
    ChaosReport,
    DurableChaosSettings,
    ServeChaosSettings,
    main,
    run_durable,
    run_serve,
)
from repro.farm.pool import fork_available

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="chaos storms need forked workers")


#: A short storm that reliably sends hopeless requests and sees their
#: 504s; duration < 4s keeps the statistical shed assertion out of play
#: (the deterministic 429 path is covered by test_serve_server).
SHORT_SERVE = functools.partial(
    ServeChaosSettings, duration_s=2.0, clients=2, points=2,
    instructions=4_000, hopeless_every=3, worker_stall_s=0.5, retries=2,
    drain_grace_s=20.0, seed=11)


def test_serve_storm_passes():
    report = run_serve(SHORT_SERVE())
    assert report.passed, report.render()
    assert report.counts["requests"] > 0
    assert report.counts["ok"] > 0
    assert report.counts["hopeless_sent"] > 0
    # Hopeless requests got their 504s.
    assert report.counts["deadline_expired"] > 0
    assert report.details["drain_clean"] is True
    metrics = report.details["metrics"]
    assert metrics["draining"] is False  # snapshot precedes drain
    assert "responses" in metrics and "executor" in metrics


def test_serve_cli_json(capsys, monkeypatch):
    monkeypatch.setitem(chaos._STORMS, "serve", (SHORT_SERVE, run_serve))
    code = main(["serve", "--instructions", "3000", "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0, doc["violations"]
    assert doc["storm"] == "serve" and doc["passed"] is True
    assert doc["counts"]["requests"] > 0
    assert doc["details"]["drain_clean"] is True


def test_report_renders_violations():
    report = ChaosReport("serve", counts={"ok": 3},
                         details={"isolation": "fork", "nodes": [{"a": 1}]})
    assert report.passed
    report.violations.append("something bad")
    assert not report.passed
    text = report.render()
    assert "something bad" in text and "isolation" in text
    assert "nodes" not in text  # nested details are JSON-only
    assert report.to_dict()["details"]["nodes"] == [{"a": 1}]


def test_durable_crash_and_resume_small():
    report = run_durable(DurableChaosSettings(
        points=2, instructions=3000, offsets=[1, 2, 4],
        parallel_crash=True, stalled_worker=False))
    assert report.passed, report.render()
    assert report.counts["crashes"] == 4          # 3 serial + 1 parallel
    assert report.counts["resumes"] >= 4
    assert report.details["parallel_crash_tested"]


def test_durable_stalled_worker_is_reaped_and_rerun():
    report = run_durable(DurableChaosSettings(
        points=2, instructions=3000, offsets=[],
        parallel_crash=False, stalled_worker=True,
        lease_s=2.0, heartbeat_s=0.4))
    assert report.passed, report.render()
    assert report.details["stalled_worker_tested"]
    assert report.counts["watchdog_reclaims"] >= 1


def test_durable_cli_json(capsys):
    code = main(["durable", "--points", "2", "--offsets", "3",
                 "--no-parallel", "--no-stall", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"passed": true' in out


def _must_not_run(specs):
    raise AssertionError("the storm started before its input was checked")


_SMALL_DURABLE = ["durable", "--points", "1", "--instructions", "2000",
                  "--no-parallel", "--no-stall", "--offsets"]


@pytest.mark.parametrize("argv, message", [
    (["serve", "--points", "0"], "points must be positive"),
    (["serve", "--duration", "0"], "duration_s must be positive"),
    (["grid", "--instructions", "-5"], "instructions must be positive"),
    (["grid", "--backends", "2"], "at least 3 backends"),
    (["durable", "--points", "-1"], "points must be positive"),
    (_SMALL_DURABLE + ["0"], "crash offsets [0] outside 1.."),
    (_SMALL_DURABLE + ["1", "999"], "crash offsets [999] outside 1.."),
], ids=["serve-points", "serve-duration", "grid-instructions",
        "grid-backends", "durable-points", "durable-offset-0",
        "durable-offset-past-R"])
def test_bad_storm_input_is_a_one_line_error(argv, message, capsys,
                                             monkeypatch):
    if "--offsets" not in argv:
        # Rejected up front: not even the ground truth may run.
        monkeypatch.setattr(chaos, "_ground_truth", _must_not_run)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
