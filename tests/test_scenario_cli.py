"""The ``run`` and ``validate`` subcommands of repro-experiments.

Routing goes through :func:`repro.experiments.runner.main`, so these
also pin the cli_errors contract: schema problems are one ``error:``
line on stderr and a non-zero exit.
"""

import json

import pytest

from repro.experiments.runner import main

TINY_WORKLOAD = """
[workload]
instructions_per_benchmark = 2000
level = 2
time_slice = 2000
warmup_fraction = 0.25
"""


@pytest.fixture()
def tiny_overlay(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_WORKLOAD)
    return path


class TestValidate:
    def test_committed_scenario_validates(self, capsys):
        assert main(["validate", "scenarios/fig5.toml"]) == 0
        out = capsys.readouterr().out
        assert "scenario: fig5" in out
        assert "scenario_sha256: " in out
        assert "diff vs base" in out
        assert out.rstrip().endswith("ok")

    def test_overlay_changes_sha_and_diff(self, capsys, tiny_overlay):
        assert main(["validate", "scenarios/fig5.toml"]) == 0
        plain = capsys.readouterr().out
        assert main(["validate", "scenarios/fig5.toml",
                     "--overlay", str(tiny_overlay)]) == 0
        overlaid = capsys.readouterr().out
        sha = [line for line in plain.splitlines()
               if line.startswith("scenario_sha256")]
        sha2 = [line for line in overlaid.splitlines()
                if line.startswith("scenario_sha256")]
        assert sha != sha2
        assert "workload.instructions_per_benchmark" in overlaid

    def test_schema_error_is_nonzero_one_liner(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[scenario]\nname = 'x'\n[machne]\nfoo = 1\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "did you mean 'machine'" in err
        assert "Traceback" not in err

    def test_axis_mismatch_caught_at_validate(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("""
[scenario]
name = "fig2ish"
experiment = "fig2"
[sweep.axes]
levls = [1, 2]
""")
        assert main(["validate", str(bad)]) == 1
        assert "did you mean 'levels'" in capsys.readouterr().err

    def test_missing_file_is_nonzero(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.toml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_standalone_document_notes_no_base(self, tmp_path, capsys):
        path = tmp_path / "s.toml"
        path.write_text("[scenario]\nname = 'alone'\n")
        assert main(["validate", str(path)]) == 0
        assert "standalone document" in capsys.readouterr().out


class TestRun:
    def test_registered_experiment_via_scenario(self, tmp_path, capsys,
                                                tiny_overlay):
        code = main(["run", "scenarios/fig2.toml",
                     "--overlay", str(tiny_overlay),
                     "--out", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        report = (tmp_path / "out" / "fig2.txt").read_text()
        assert "== fig2" in report

    def test_generic_sweep_without_experiment(self, tmp_path, capsys):
        path = tmp_path / "sweep.toml"
        path.write_text("""
[scenario]
name = "l2probe"
description = "generic L2 access-time probe"
""" + TINY_WORKLOAD + """
[sweep.axes]
"machine.l2.access_time" = [4, 8]
""")
        code = main(["run", str(path), "--no-cache",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "l2probe.txt").read_text()
        assert "machine.l2.access_time" in report
        assert "CPI" in report
        # One row per grid point.
        assert len([l for l in report.splitlines() if l.lstrip()[:1].isdigit()]) >= 2

    def test_generic_axis_must_be_machine_or_workload(self, tmp_path,
                                                      capsys):
        path = tmp_path / "sweep.toml"
        path.write_text("""
[scenario]
name = "bad"
""" + TINY_WORKLOAD + """
[sweep.axes]
"engine.name" = ["reference", "native"]
""")
        assert main(["run", str(path), "--no-cache"]) == 1
        assert "machine" in capsys.readouterr().err

    def test_manifest_written(self, tmp_path, capsys, tiny_overlay):
        manifest = tmp_path / "manifest.json"
        code = main(["run", "scenarios/fig2.toml",
                     "--overlay", str(tiny_overlay), "--no-cache",
                     "--manifest", str(manifest)])
        assert code == 0
        data = json.loads(manifest.read_text())
        assert data["summary"]["points"] > 0

    def test_bad_jobs_rejected(self, capsys):
        assert main(["run", "scenarios/fig2.toml", "--jobs", "0"]) == 2

    def test_journal_requires_cache(self, capsys):
        assert main(["run", "scenarios/fig2.toml", "--no-cache",
                     "--journal", "/tmp/nowhere"]) == 2
