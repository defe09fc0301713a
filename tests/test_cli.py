"""End-to-end checks of the command-line front end.

Runs commands in-process through main(argv) for speed; one subprocess
test proves the module entry point works.  Output trees go to tmp_path.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from dbarlab import cli
from dbarlab.dbar import profile_exact
from dbarlab.grid import ComplexField, make_grid, save_field
from dbarlab.util import config_digest


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    # a leaked output override would redirect every run below
    monkeypatch.delenv("DBARLAB_OUT", raising=False)


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def run_solve(tmp_path, overrides, sub="run"):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / sub
    code = cli.main(["solve-dbar", "--config", cfg, "--out", str(out)])
    return code, out


class TestPrintConfig:
    def test_defaults_dumped(self, capsys):
        assert cli.main(["solve-dbar", "--print-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped == cli.SOLVE_DEFAULTS

    def test_overrides_merged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"resolution": 65})
        assert cli.main(["ode", "--print-config"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert base["g0"] == 0.01
        cfg = write_config(tmp_path, {"g0": 0.5})
        assert cli.main(["ode", "--config", cfg, "--print-config"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["g0"] == 0.5 and merged["steps"] == base["steps"]


class TestSolveCommand:
    def test_run_writes_record_figures_and_summary(self, tmp_path):
        code, out = run_solve(tmp_path, {"resolution": 65, "b": [0.05, 0.0]})
        assert code == 0
        for name in ("solution.json", "solution.f64", "abs_f.pgm",
                     "residual.pgm", "summary.json", "run_record.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "solve-dbar"
        assert summary["converged"] is True
        assert summary["sup_f"] > 0.1
        # deterministic file: no clocks, no filenames
        assert "started" not in summary and "outputs" not in summary
        record = json.loads((out / "run_record.json").read_text())
        assert record["config_digest"] == config_digest(record["config"])
        assert record["started"] <= record["finished"]
        for rel in record["outputs"]:
            assert (out / rel).exists()

    def test_anchor_zero_solves_to_zero_residual(self, tmp_path):
        code, out = run_solve(tmp_path, {"resolution": 65, "b": [0.0, 0.0]})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual_sup"] == 0.0
        assert summary["sup_f"] == 0.0

    def test_unknown_key_refused_before_writing(self, tmp_path):
        code, out = run_solve(tmp_path, {"wavelength": 3})
        assert code == 2
        assert not out.exists()

    def test_bad_value_refused_before_writing(self, tmp_path):
        code, out = run_solve(tmp_path, {"theta": 5.0})
        assert code == 2
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        code = cli.main(["solve-dbar", "--config", str(tmp_path / "absent.json")])
        assert code == 2


class TestCertifyCommand:
    def test_solution_chain(self, tmp_path):
        _, sol_out = run_solve(tmp_path, {"resolution": 65, "b": [0.05, 0.0]})
        cfg = write_config(tmp_path, {"input": str(sol_out / "solution.json")}, "cert.json")
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["chain_available"] is True
        assert summary["verdict"] == "consistent"
        assert summary["sup_f"] > 0.1
        certs = json.loads((out / "certificates.json").read_text())["certificates"]
        assert set(certs) == {"smoothness", "identity_chain", "max_principle", "sup_bound"}

    def test_profile_field_reports_sharp_slack(self, tmp_path):
        save_field(profile_exact(-1.0, make_grid(1.0, 129)), tmp_path / "prof.f64")
        cfg = write_config(tmp_path, {"input": str(tmp_path / "prof.f64")})
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lemma1_available"] is True
        assert abs(summary["min_slack"]) <= 1e-2
        certs = json.loads((out / "certificates.json").read_text())["certificates"]
        chain = certs["identity_chain"]
        assert chain["available"] is True
        assert max(chain["report"]["details"]["violations"].values()) <= 1e-10
        assert "sup_bound" not in certs  # bare field, no solve record

    def test_zero_field_not_triggered(self, tmp_path):
        g = make_grid(1.0, 65)
        save_field(ComplexField.constant(g, 0.0), tmp_path / "zero.f64")
        cfg = write_config(tmp_path, {"input": str(tmp_path / "zero.f64")})
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_principle_triggered"] is False

    def test_missing_input(self, tmp_path):
        cfg = write_config(tmp_path, {"input": str(tmp_path / "ghost.f64")})
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_input_required(self, tmp_path):
        assert cli.main(["certify", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("payload", ["[1, 2]", "3", "null", '"solution"'])
    def test_non_object_solution_is_bad_config(self, tmp_path, capsys, payload):
        (tmp_path / "solution.json").write_text(payload, encoding="ascii")
        cfg = write_config(tmp_path, {"input": str(tmp_path / "solution.json")})
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load solution")
        assert "Traceback" not in err

    def test_wrong_suffix(self, tmp_path):
        (tmp_path / "data.bin").write_bytes(b"\x00")
        cfg = write_config(tmp_path, {"input": str(tmp_path / "data.bin")})
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestInvalidConfigRefused:
    @pytest.mark.parametrize("command, overrides", [
        ("certify", {"delta0": None}),
        ("certify", {"basepoint": None}),
        ("certify", {"basepoint": [0.0]}),
        ("certify", {"input": [1]}),
        ("certify", {"standoff_cells": -3}),
        ("certify", {"delta0": -1.0}),
        ("certify", {"delta0": 0.0}),
        ("certify", {"delta0": float("inf")}),
        ("certify", {"kappa": -1.0}),
        ("certify", {"kappa": float("nan")}),
        ("solve-dbar", {"resolution": 17, "max_iter": 2.5}),
        ("kr-scan", {"b_list": [[0.05, 0.0]], "radii": [0.25], "resolution": 17.9}),
        ("kr-scan", {"b_list": [[0.05, 0.0]], "radii": [-0.5]}),
        ("kr-scan", {"b_list": [[0.0, 0.0]], "radii": [0.25]}),
        ("kr-scan", {"b_list": [[0.1, 0.0]], "radii": [0.25]}),
        ("selftest", {"criteria": [9], "scan_resolution": 17.9}),
        ("ode", {"steps": 10.7}),
    ], ids=["delta0-null", "basepoint-null", "basepoint-short", "input-list",
            "standoff-negative", "delta0-negative", "delta0-zero", "delta0-infinite",
            "kappa-negative", "kappa-nan", "max-iter-float",
            "scan-resolution-float", "scan-radius-negative", "scan-anchor-zero",
            "scan-anchor-outside", "selftest-resolution-float", "ode-steps-float"])
    def test_exit_2_before_writing(self, tmp_path, capsys, command, overrides):
        if command == "certify":
            field = tmp_path / "p.f64"
            save_field(ComplexField.constant(make_grid(1.0, 17), 0.01), field)
            overrides = {"input": str(field), **overrides}
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()


class TestKrScanCommand:
    def test_report_files_emitted(self, tmp_path):
        cfg = write_config(tmp_path, {"b_list": [[0.01, 0.0]], "radii": [0.25, 0.33, 0.5]})
        out = tmp_path / "scan"
        assert cli.main(["kr-scan", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        assert (out / "usc_report.json").exists()
        assert (out / "usc_table.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        row = summary["rows"][0]
        assert row["a_observed"] == 0.33
        assert row["gap_positive"] is True
        assert summary["origin_upper_bound"] == 0.5
        heatmaps = sorted(out.glob("scan_*_absf.pgm"))
        assert len(heatmaps) == 3

    def test_zero_anchor_refused(self, tmp_path):
        cfg = write_config(tmp_path, {"b_list": [[0.0, 0.0]]})
        assert cli.main(["kr-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestOdeCommand:
    def test_default_matches_closed_form(self, tmp_path):
        out = tmp_path / "ode"
        assert cli.main(["ode", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["g_at_one"] == pytest.approx(0.36, abs=1e-6)
        assert summary["lower_bound_holds"] is True
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "x,g"
        assert len(lines) == 1002
        assert len(list(out.glob("family_*.csv"))) == 3

    def test_bad_steps_refused(self, tmp_path):
        cfg = write_config(tmp_path, {"steps": 3})
        assert cli.main(["ode", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestOutputDirRouting:
    def test_env_var_wins_over_flag(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("DBARLAB_OUT", str(envdir))
        assert cli.main(["ode", "--out", str(tmp_path / "from_flag")]) == 0
        assert (envdir / "summary.json").exists()
        assert not (tmp_path / "from_flag").exists()

    def test_negative_threads_refused(self):
        assert cli.main(["ode", "--threads", "-1"]) == 2


class TestSelftestCommand:
    def test_reduced_battery_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"criteria": [2, 8]})
        out = tmp_path / "st"
        assert cli.main(["selftest", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "criterion 02 exact_family             PASS" in text
        assert "all criteria passed" in text
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_passed"] is True
        assert [c["index"] for c in summary["criteria"]] == [2, 8]

    def test_failure_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        def rigged(config=None, threads=1, out_dir=None):
            return {
                "schema_version": 1,
                "config_digest": "0" * 64,
                "criteria": [{"index": 2, "name": "exact_family",
                              "passed": False, "details": {}}],
                "all_passed": False,
            }

        monkeypatch.setattr(cli, "run_selftest", rigged)
        out = tmp_path / "st"
        assert cli.main(["selftest", "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        record = json.loads((out / "run_record.json").read_text())
        assert record["summary"]["failed"] == ["exact_family"]

    def test_unknown_criterion_refused(self, tmp_path):
        cfg = write_config(tmp_path, {"criteria": [99]})
        assert cli.main(["selftest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_module_entry_point(tmp_path, subprocess_env):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "dbarlab", "ode", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**subprocess_env, "DBARLAB_OUT": ""},
    )
    assert proc.returncode == 0
    assert (out / "run_record.json").exists()
