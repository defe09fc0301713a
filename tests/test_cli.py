"""End-to-end checks of the command-line front end.

Runs commands in-process through main(argv) for speed; one subprocess
test proves the module entry point works.  Output trees go to tmp_path.
"""

import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

from dbarlab import cli
from dbarlab.dbar import DbarProblem, DbarSolution, profile_exact
from dbarlab.grid import ComplexField, make_grid, save_field
from dbarlab.util import config_digest


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
        assert sorted(dumped) == ["b", "radius", "resolution"]

    def test_overrides_merged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"resolution": 65})
        assert cli.main(["ode", "--print-config"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert base["g0"] == 0.01
        cfg = write_config(tmp_path, {"g0": 0.5})
        assert cli.main(["ode", "--config", cfg, "--print-config"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged == {**base, "g0": 0.5}

    def test_certify_and_ode_take_only_inputs(self):
        # the method values are module constants, not config keys
        assert set(cli.COMMAND_DEFAULTS["certify"]) == {"input", "basepoint"}
        assert set(cli.COMMAND_DEFAULTS["ode"]) == {"g0"}

    def test_selftest_prints_only_criteria(self, capsys):
        assert cli.main(["selftest", "--print-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped == {"criteria": list(range(1, 12))}


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
        # what the run cost goes in the record, never in the summary
        assert set(record["resources"]) == {"wall_s", "cpu_s", "peak_rss_mb"}
        for value in record["resources"].values():
            assert math.isfinite(value) and value > 0
        assert "resources" not in summary

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
        code, out = run_solve(tmp_path, {"resolution": 18})
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

    def test_solver_key_in_problem_refused(self, tmp_path, capsys):
        # records from before the solver settings became constants carry them
        _, sol_out = run_solve(tmp_path, {"resolution": 17, "b": [0.05, 0.0]})
        path = sol_out / "solution.json"
        record = json.loads(path.read_text())
        record["problem"]["tol"] = 1e-8
        path.write_text(json.dumps(record))
        cfg = write_config(tmp_path, {"input": str(path)}, "cert.json")
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load solution") and "tol" in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["absolute", "relative"])
    def test_field_outside_the_record_directory_refused(self, tmp_path, capsys, where):
        # the record names its field; a path there would load another run's field
        _, sol_out = run_solve(tmp_path, {"resolution": 17, "b": [0.05, 0.0]}, "run")
        _, other = run_solve(tmp_path, {"resolution": 17, "b": [0.05, 0.0]}, "other")
        path = sol_out / "solution.json"
        record = json.loads(path.read_text())
        record["field"] = (str(other / "solution.f64") if where == "absolute"
                           else "../other/solution.f64")
        path.write_text(json.dumps(record))
        cfg = write_config(tmp_path, {"input": str(path)}, "cert.json")
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load solution") and "bare file name" in err
        assert not out.exists()

    def test_solution_and_its_field_certified_alike(self, tmp_path):
        # both input kinds are pulled back to the unit disc before any check
        _, sol_out = run_solve(tmp_path, {"radius": 0.5, "resolution": 65, "b": [0.01, 0.0]})
        certs = {}
        for name in ("solution.json", "solution.f64"):
            cfg = write_config(tmp_path, {"input": str(sol_out / name)}, "cert.json")
            out = tmp_path / f"cert_{name}"
            assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
            certs[name] = json.loads((out / "certificates.json").read_text())["certificates"]
        for key in ("smoothness", "identity_chain", "max_principle"):
            assert certs["solution.json"][key] == certs["solution.f64"][key], key

    def test_pulled_back_solve_keeps_its_gate_failure(self, tmp_path):
        # N=107 is the smallest resolution at which this solve misses the 5h
        # gate (residual 1.01 times 5h); its pull-back must miss it as well
        _, sol_out = run_solve(tmp_path, {"radius": 0.5, "resolution": 107, "b": [0.0025, 0.0]})
        solve = json.loads((sol_out / "solution.json").read_text())
        assert solve["converged"] and solve["residual_sup"] > 5.0 * 1.0 / 106
        cfg = write_config(tmp_path, {"input": str(sol_out / "solution.json")}, "cert.json")
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        certs = json.loads((out / "certificates.json").read_text())["certificates"]
        assert certs["sup_bound"]["available"] is False
        assert "not a certified solve" in certs["sup_bound"]["reason"]

    def test_field_whose_pull_back_overflows_refused(self, tmp_path, capsys):
        # 1e10 / (1e-150)^2 is not a float
        save_field(ComplexField.constant(make_grid(1e-150, 17), 1e10), tmp_path / "huge.f64")
        cfg = write_config(tmp_path, {"input": str(tmp_path / "huge.f64")})
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot pull back") and "Traceback" not in err
        assert not out.exists()

    def test_solution_whose_residual_overflows_refused(self, tmp_path, capsys, recwarn):
        # +,+,-,- stripes of magnitude 1e308: the pull-back at radius 1 is
        # the identity, and the residual's centred differences overflow.  A
        # solution cannot save a record it has no residual for, so the record
        # is written by hand, its anchor the field's f(0) = 1e308
        spec = make_grid(1.0, 17)
        stripes = np.tile(np.where(np.arange(17) % 4 < 2, 1e308, -1e308), (17, 1))
        (tmp_path / "rec").mkdir()
        save_field(ComplexField(spec, stripes.astype(complex), spec.default_margin()),
                   tmp_path / "rec" / "solution.f64")
        record = {"schema_version": 1, "problem": DbarProblem(spec, 1e308).to_json_dict(),
                  "converged": False, "residual_sup": 0.0, "sup_f": 1e308, "iterations": 1,
                  "final_update": None, "field": "solution.f64"}
        (tmp_path / "rec" / "solution.json").write_text(json.dumps(record))
        cfg = write_config(tmp_path, {"input": str(tmp_path / "rec" / "solution.json")})
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot certify") and "non-finite dbar residual" in err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_wrong_suffix(self, tmp_path):
        (tmp_path / "data.bin").write_bytes(b"\x00")
        cfg = write_config(tmp_path, {"input": str(tmp_path / "data.bin")})
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# per certificate: hypothesis_ok, min_slack, checked_nodes, tolerance_used,
# and the delta0 / standoff_cells details it records (None where it records none)
CERTIFY_PINS = {
    "solution": {
        "smoothness": (True, 0.2684674843027699, 377, 0.0390625, 0.001, 3),
        "identity_chain": (True, 0.3416011780541399, 377, 0.625, None, None),
        "max_principle": (True, 0.765598787119784, 377, 0.0390625, 0.005623413251903491, None),
        "sup_bound": (True, 0.940852268191979, 377, 0.02, None, None),
    },
    "profile": {
        "smoothness": (True, 2.1873266562777438e-05, 1888, 0.009765625, 0.001, 3),
        "identity_chain": (True, 0.0, 1841, 0.3125, None, None),
        "max_principle": (False, 1.4735019536905085, 2289, 0.009765625, 0.005623413251903491, None),
    },
}


@pytest.mark.parametrize("case", sorted(CERTIFY_PINS))
def test_certify_reports_pinned(tmp_path, case):
    # an N=33 solve read back from solution.json, and an exact profile field
    # certified at an off-origin basepoint
    if case == "solution":
        _, sol_out = run_solve(tmp_path, {"resolution": 33, "b": [0.25, 0.0]})
        overrides = {"input": str(sol_out / "solution.json")}
    else:
        save_field(profile_exact(-0.5, make_grid(1.0, 65)), tmp_path / "p.f64")
        overrides = {"input": str(tmp_path / "p.f64"), "basepoint": [0.25, -0.125]}
    cfg = write_config(tmp_path, overrides, "cert.json")
    out = tmp_path / "cert"
    assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
    certs = json.loads((out / "certificates.json").read_text())["certificates"]
    assert set(certs) == set(CERTIFY_PINS[case])
    for name, (ok, slack, nodes, tol, delta0, cells) in CERTIFY_PINS[case].items():
        assert certs[name]["available"] is True, name
        report = certs[name]["report"]
        assert report["hypothesis_ok"] is ok, name
        assert report["min_slack"] == pytest.approx(slack, rel=1e-10, abs=0.0), name
        assert report["checked_nodes"] == nodes, name
        assert report["tolerance_used"] == tol, name
        assert report["details"].get("delta0") == delta0, name
        assert report["details"].get("standoff_cells") == cells, name
    if case == "solution":
        chain = certs["sup_bound"]["report"]["details"]
        assert chain["lemma1"]["details"]["delta0"] == 0.001
        assert chain["lemma1"]["details"]["standoff_cells"] == 3
        assert chain["lemma2_on_u"]["details"]["delta0"] == 0.005623413251903491
    else:
        assert certs["identity_chain"]["report"]["details"]["basepoint"] == [0.25, -0.125]


def _tampered_record(directory, **problem):
    """Save an N=17 solution record into directory with problem keys overwritten."""
    spec = make_grid(1.0, 17)
    directory.mkdir()
    # the recorded anchor is the field's f(0), so only the overwritten keys are at fault
    sol = DbarSolution(ComplexField.constant(spec, 0.01), False, 1)
    path = sol.save(directory)["json"]
    with open(path) as fh:
        record = json.load(fh)
    record["problem"].update(problem)
    with open(path, "w") as fh:
        json.dump(record, fh)


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
        ("certify", {"basepoint": [float("nan"), 0.0]}),
        ("certify", {"basepoint": [0.0, float("inf")]}),
        ("solve-dbar", {"resolution": 17, "max_iter": 2.5}),
        ("solve-dbar", {"resolution": 17, "tol": float("inf")}),
        ("solve-dbar", {"resolution": 17, "epsilon": float("nan")}),
        ("solve-dbar", {"resolution": 17, "epsilon": float("inf")}),
        ("solve-dbar", {"resolution": 17, "margin_cells": float("nan")}),
        ("solve-dbar", {"resolution": 17, "b": [float("inf"), 0.0]}),
        ("solve-dbar", {"resolution": 17, "b": [1e250, 0.0]}),
        ("solve-dbar", {"radius": 1e-200, "resolution": 17}),
        ("certify", {"input": "tiny.f64"}),
        ("certify", {"input": "huge.f64"}),
        ("kr-scan", {"b_list": [[0.05, 0.0]], "radii": [0.25], "resolution": 17.9}),
        ("kr-scan", {"b_list": [[0.05, 0.0]], "radii": [-0.5]}),
        ("kr-scan", {"b_list": [[0.0, 0.0]], "radii": [0.25]}),
        ("kr-scan", {"b_list": [[0.1, 0.0]], "radii": [0.25]}),
        ("kr-scan", {"b_list": [[float("nan"), 0.0]], "radii": [0.5], "resolution": 17}),
        ("kr-scan", {"radii": [0.5, 1e200]}),
        ("kr-scan", {"radii": [2.5]}),
        ("kr-scan", {"radii": [1e-200]}),
        ("kr-scan", {"b_list": [[0.01, 0.0]], "radii": [0.5, 0.5], "resolution": 17}),
        ("kr-scan", {"b_list": []}),
        ("kr-scan", {"b_list": [[0.01, 0.0], [0.01, 0.0]], "radii": [0.5], "resolution": 17}),
        ("kr-scan", {"resolution": 64}),
        ("kr-scan", {"radii": 0.5}),
        ("solve-dbar", {"resolution": 17, "b": [True, 0]}),
        ("solve-dbar", {"resolution": 17, "b": ["0.01", 0]}),
        ("kr-scan", {"b_list": [["0.01", 0]], "radii": [0.5], "resolution": 17}),
        ("kr-scan", {"b_list": [[0.01, 0.0]], "radii": [True], "resolution": 17}),
        ("kr-scan", {"b_list": [[0.01, 0.0]], "radii": ["0.5"], "resolution": 17}),
        ("certify", {"basepoint": [True, False]}),
        ("certify", {"basepoint": ["0.1", "0"]}),
        ("certify", {"input": "radius_text/solution.json"}),
        ("certify", {"input": "b_bool/solution.json"}),
        ("selftest", {"criteria": [9], "scan_resolution": 65}),
        ("selftest", {"criteria": [12]}),
        ("selftest", {"criteria": []}),
        ("ode", {"steps": 10.7}),
        ("ode", {"g0": -0.5}),
    ], ids=["delta0-null", "basepoint-null", "basepoint-short", "input-list",
            "standoff-negative", "delta0-negative", "delta0-zero", "delta0-infinite",
            "kappa-negative", "kappa-nan", "certify-basepoint-nan",
            "certify-basepoint-infinite", "max-iter-float",
            "tol-infinite", "epsilon-nan", "epsilon-infinite", "margin-cells-nan",
            "anchor-infinite", "anchor-overflow", "radius-underflow",
            "certify-radius-underflow", "certify-pullback-overflow", "scan-resolution-float", "scan-radius-negative", "scan-anchor-zero",
            "scan-anchor-outside", "scan-anchor-nan", "scan-radius-overflow",
            "scan-radius-above-two", "scan-radius-underflow", "scan-radius-repeated",
            "scan-b-list-empty", "scan-anchor-repeated", "scan-resolution-even", "scan-radii-scalar",
            "anchor-bool", "anchor-text", "scan-anchor-text",
            "scan-radius-bool", "scan-radius-text", "certify-basepoint-bool",
            "certify-basepoint-text", "certify-record-radius-text",
            "certify-record-anchor-bool", "selftest-removed-key", "selftest-criterion-unknown",
            "selftest-criteria-empty", "ode-steps-float",
            "ode-g0-negative"])
    def test_exit_2_before_writing(self, tmp_path, capsys, monkeypatch, command, overrides):
        if command == "certify":
            monkeypatch.chdir(tmp_path)
            save_field(ComplexField.constant(make_grid(1.0, 17), 0.01), "p.f64")
            # a header radius whose spacing squared underflows at N=17
            with open("tiny.f64", "wb") as fh:
                fh.write(struct.pack("<dId", 1e-200, 17, 0.0) + bytes(17 * 17 * 16))
            # a field whose pull-back to the unit disc overflows
            save_field(ComplexField.constant(make_grid(1e-150, 17), 1e10), "huge.f64")
            # solution records whose problem holds a string radius or a boolean anchor
            _tampered_record(tmp_path / "radius_text", radius="1.0")
            _tampered_record(tmp_path / "b_bool", b=[True, False])
            overrides = {"input": "p.f64", **overrides}
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()


# a small valid config per command; each run below is refused before it starts
SMALL_CONFIGS = {
    "solve-dbar": {"resolution": 17, "b": [0.05, 0.0]},
    "certify": {"input": "p.f64"},
    "kr-scan": {"b_list": [[0.05, 0.0]], "radii": [0.5], "resolution": 17},
    "ode": {},
    "selftest": {"criteria": [9]},
}


def _tree(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


class TestUnusableOutDir:
    @pytest.mark.parametrize("out", ["taken", "taken/sub", "dangling"],
                             ids=["file", "under-file", "dangling-link"])
    @pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
    def test_exit_2_and_nothing_written(self, tmp_path, capsys, monkeypatch, command, out):
        # --out naming an existing file, a directory under one, or a link to
        # nothing is refused before the command runs: solve-dbar never
        # reaches the solver
        def no_solve(problem):
            raise AssertionError("picard_solve ran for an unusable --out")

        monkeypatch.setattr(cli, "picard_solve", no_solve)
        monkeypatch.chdir(tmp_path)
        save_field(ComplexField.constant(make_grid(1.0, 17), 0.01), "p.f64")
        cfg = write_config(tmp_path, SMALL_CONFIGS[command])
        (tmp_path / "taken").write_text("not a directory", encoding="ascii")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        before = _tree(tmp_path)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not a directory" in err
        assert "Traceback" not in err
        assert _tree(tmp_path) == before

    def test_write_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, obj):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(cli.util, "write_json", full_disk)
        assert cli.main(["ode", "--out", str(tmp_path / "ode")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No space left on device" in err


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
    def test_env_var_is_ignored(self, tmp_path, monkeypatch):
        # --out is the one way to name the output directory
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("DBARLAB_OUT", str(envdir))
        assert cli.main(["ode", "--out", str(tmp_path / "from_flag")]) == 0
        assert (tmp_path / "from_flag" / "summary.json").exists()
        assert not envdir.exists()

    def test_empty_out_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["ode", "--out", ""]) == 2
        assert "--out must name a directory" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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
        def rigged(criteria, threads, out_dir):
            return {
                "criteria": [{"index": 2, "name": "exact_family",
                              "passed": False, "details": {}}],
                "all_passed": False,
            }, []

        monkeypatch.setattr(cli, "run_selftest", rigged)
        out = tmp_path / "st"
        assert cli.main(["selftest", "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        record = json.loads((out / "run_record.json").read_text())
        assert record["summary"]["failed"] == ["exact_family"]

    def test_outputs_are_the_files_this_run_wrote(self, tmp_path):
        # report files left by an earlier run are not this run's outputs
        out = tmp_path / "st"
        out.mkdir()
        for stale in ("scan_old.pgm", "usc_table.csv"):
            (out / stale).write_text("stale", encoding="ascii")
        cfg = write_config(tmp_path, {"criteria": [9]})
        assert cli.main(["selftest", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["outputs"] == ["summary.json"]
        assert (out / "scan_old.pgm").exists()

    def test_scan_criterion_lists_its_report_files(self, tmp_path, monkeypatch):
        # criterion 10 at N=17 over two radii: the listed files are the ones
        # usc_report returned, and summary.json names none of them
        from dbarlab import kr, selftest

        scan = kr.usc_report
        monkeypatch.setattr(selftest, "usc_report", lambda b_list, out_dir, threads=1:
                            scan(b_list, out_dir, radii=[0.25, 0.5], resolution=17,
                                 threads=threads))
        out = tmp_path / "st"
        out.mkdir()
        (out / "scan_old.pgm").write_text("stale", encoding="ascii")
        cfg = write_config(tmp_path, {"criteria": [10]})
        cli.main(["selftest", "--config", cfg, "--out", str(out)])
        record = json.loads((out / "run_record.json").read_text())
        heatmaps = sorted(p.name for p in out.glob("scan_b00_r*_absf.pgm"))
        assert heatmaps
        assert record["outputs"] == sorted(["summary.json", "usc_report.json", "usc_table.csv",
                                            *heatmaps])
        summary = (out / "summary.json").read_text()
        assert not any(name in summary for name in ("usc_report.json", "usc_table.csv", ".pgm"))

    def test_unknown_criterion_refused(self, tmp_path):
        cfg = write_config(tmp_path, {"criteria": [99]})
        assert cli.main(["selftest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_module_entry_point(tmp_path, subprocess_env):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "dbarlab", "ode", "--out", str(out)],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert (out / "run_record.json").exists()
