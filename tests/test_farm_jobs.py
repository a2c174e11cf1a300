"""``--jobs`` parallelises within a figure: a figure's grid goes to the
warm worker pool as one batch, and the report does not change."""

import os

import pytest

import repro.farm.points as points
from repro.experiments import ExperimentScale, run_experiment
from repro.farm import farm_session
from repro.farm.pool import fork_available

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform cannot fork")

SMOKE = ExperimentScale(instructions_per_benchmark=8_000, level=2,
                        time_slice=4_000, warmup_fraction=0.25)


def test_fig5_grid_runs_on_two_workers_bit_identically(tmp_path,
                                                      monkeypatch):
    execute = points.execute_point

    def recording(payload):
        (tmp_path / f"pid-{os.getpid()}").touch()
        return execute(payload)

    monkeypatch.setattr(points, "execute_point", recording)
    with farm_session(jobs=1, no_cache=True, quiet=True):
        serial = run_experiment("fig5", SMOKE).render()
    assert [p.name for p in tmp_path.iterdir()] == [f"pid-{os.getpid()}"]
    (tmp_path / f"pid-{os.getpid()}").unlink()

    with farm_session(jobs=2, no_cache=True, quiet=True):
        parallel = run_experiment("fig5", SMOKE).render()
    pids = {int(p.name.split("-")[1]) for p in tmp_path.iterdir()}
    assert len(pids) == 2 and os.getpid() not in pids
    assert parallel == serial


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="--jobs is clamped to the CPU count")
def test_cli_jobs_fans_out_one_figure(tmp_path, monkeypatch, capsys):
    from repro.experiments.runner import main

    execute = points.execute_point
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()

    def recording(payload):
        (pid_dir / str(os.getpid())).touch()
        return execute(payload)

    monkeypatch.setattr(points, "execute_point", recording)
    flags = ["fig5", "--instructions", "6000", "--time-slice", "3000",
             "--level", "2", "--no-cache"]
    assert main(flags + ["--out", str(tmp_path / "serial")]) == 0
    assert main(flags + ["--jobs", "2",
                         "--out", str(tmp_path / "parallel")]) == 0
    capsys.readouterr()
    pids = {int(p.name) for p in pid_dir.iterdir()} - {os.getpid()}
    assert len(pids) == 2
    assert ((tmp_path / "parallel" / "fig5.txt").read_bytes()
            == (tmp_path / "serial" / "fig5.txt").read_bytes())
