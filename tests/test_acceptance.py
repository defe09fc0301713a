"""Acceptance battery: one test per shipped guarantee, tolerances pinned.

The criteria are computed once, by `dbarlab selftest --threads 1` run
through the CLI; tests 1-10 each assert on their criterion's row of that
run's summary.json, and test 10 also on the usc_report.json it writes.
Each test pins the workload the row describes and checks the measured
numbers against its own bounds, not the row's tolerance; nothing here is
loosened to pass.  Run with -v to get one pass/fail line per criterion.
Test 11 asserts that criterion 11 compared all five files of its reduced
scan and found none differing, then runs the battery a second time at
--threads 8 and byte-compares the two summaries; those two runs are the
file's whole cost, about half a minute.
"""

import json
import math
import subprocess
import sys

import pytest

from dbarlab import kr, ode, selftest
from dbarlab.grid import make_grid

SWEEP_ANCHORS = [m * p for m in (1e-3, 1e-2, 5e-2, 1e-1)
                 for p in (1.0, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))]


def _spacing(n: int) -> float:
    return make_grid(1.0, n).spacing


def _selftest(out, threads: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dbarlab", "selftest", "--out", str(out), "--threads", threads],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def battery(tmp_path_factory, subprocess_env):
    """The output directory and process of one full CLI battery at --threads 1."""
    out = tmp_path_factory.mktemp("battery")
    return out, _selftest(out, "1", subprocess_env)


@pytest.fixture(scope="module")
def criteria(battery):
    """The battery's summary.json rows, by criterion index."""
    summary = json.loads((battery[0] / "summary.json").read_text())
    return {row["index"]: row for row in summary["criteria"]}


def test_criterion_01_reduction_identity(criteria):
    # 20 random masked fields, sup|f| < 1/10, N=129: discrepancy <= 1e-10 in < 10 s
    d = criteria[1]["details"]
    assert (d["fields"], d["resolution"]) == (20, 129)
    assert d["max_discrepancy"] <= 1e-10
    assert selftest.REDUCTION_BUDGET_SECONDS == 10.0 and d["runtime_ok"] is True
    assert criteria[1]["passed"] is True


def test_criterion_02_exact_family_residual(criteria):
    # off-kink residual <= 2h; kink-line sup halves (+-25%) from N=129 to 257
    d = criteria[2]["details"]
    assert (d["kink"], d["resolutions"]) == (0.0, [129, 257])
    for n, away in zip(d["resolutions"], d["residual_sup_off_kink"], strict=True):
        assert away <= 2.0 * _spacing(n)
    sups = d["residual_sup"]
    assert 0.375 <= sups[1] / sups[0] <= 0.625
    assert criteria[2]["passed"] is True


def test_criterion_03_lemma1_sharpness(criteria):
    # shifted profile restricted to x > -0.5: |min_slack| <= 10 h^2 at N=257
    d = criteria[3]["details"]
    assert d["resolution"] == 257
    assert d["hypothesis_ok"] is True
    assert abs(d["min_slack"]) <= 10.0 * _spacing(257) ** 2
    assert criteria[3]["passed"] is True


def test_criterion_04_identity_chain(criteria):
    # branch x+1 of the shifted profile: all violations <= 10h, slack >= -10h at N=257
    d = criteria[4]["details"]
    assert d["resolution"] == 257
    tol = 10.0 * _spacing(257)
    assert d["violations"] and max(d["violations"].values()) <= tol
    assert d["laplacian_slack_min"] >= -tol
    assert criteria[4]["passed"] is True


def test_criterion_05_max_principle(criteria):
    # quadratic + 0.01: conclusion slack = 0.01 +- 10 h^2; zero field: not triggered
    d = criteria[5]["details"]
    assert (d["resolution"], d["target_slack"]) == (257, 0.01)
    assert d["hypothesis_ok"] is True
    assert d["conclusion_slack"] is not None  # null when the conclusion is not triggered
    assert abs(d["conclusion_slack"] - 0.01) <= 10.0 * _spacing(257) ** 2
    assert d["zero_field_triggered"] is False
    assert criteria[5]["passed"] is True


def test_criterion_06_sup_floor_sweep(criteria):
    # |b| in {1e-3, 1e-2, 5e-2, 1e-1} x 2 phases at N=257: nothing gate-passing
    # lands below sup 1/10 - 0.02; whole sweep < 30 min
    d = criteria[6]["details"]
    assert d["resolution"] == 257
    assert [complex(*row["b"]) for row in d["rows"]] == pytest.approx(SWEEP_ANCHORS, abs=1e-15)
    gate_ok = [row["converged"] and row["residual_sup"] <= 5.0 * _spacing(257)
               for row in d["rows"]]
    for ok, row in zip(gate_ok, d["rows"]):
        assert not (ok and row["sup_f"] < 0.1 - 0.02)
    # the evidence count: how many of the sweep's solves the verdict rests on
    assert d["gate_passing"] == sum(gate_ok)
    assert selftest.SWEEP_BUDGET_SECONDS == 1800.0 and d["runtime_ok"] is True
    assert criteria[6]["passed"] is True


def test_criterion_07_cauchy_transform(criteria):
    # indicator error <= 0.05 inside |z| <= 0.8 at N=129, decreasing at 257;
    # the two quadrature paths agree to 1e-10 at N=65
    d = criteria[7]["details"]
    assert d["resolutions"] == [129, 257]
    assert selftest.TRANSFORM_AGREEMENT_RESOLUTION == 65
    errs = d["indicator_errors"]
    assert errs[0] <= 0.05
    assert errs[1] < errs[0]
    assert d["path_agreement"] <= 1e-10
    assert criteria[7]["passed"] is True


def test_criterion_08_ode_analogue(criteria):
    # rk4 vs closed form <= 1e-6 at RK4_STEPS = 1000 steps; family residual
    # <= 2*step at FAMILY_SAMPLES = 2001; lower-bound slack equals sqrt(g0) + g0 to 1e-12
    assert (ode.RK4_STEPS, ode.FAMILY_SAMPLES, ode.FAMILY_KINKS) == (1000, 2001, (0.0, 0.3, 0.9))
    d = criteria[8]["details"]
    assert sorted(d["rk4_errors"]) == ["0.01", "1.0"]
    assert all(e <= 1e-6 for e in d["rk4_errors"].values())
    step = 2.0 / (ode.FAMILY_SAMPLES - 1)
    assert sorted(d["family_fd_residuals"]) == ["0.0", "0.3", "0.9"]
    assert all(r <= 2 * step for r in d["family_fd_residuals"].values())
    assert sorted(d["slack_formula_gaps"]) == ["0.01", "0.25", "1.0"]
    assert all(g <= 1e-12 for g in d["slack_formula_gaps"].values())
    assert criteria[8]["passed"] is True


def test_criterion_09_structure_checks(criteria):
    # J^2 = -I to 1e-14 at 1e6 sampled points; the linear witness z -> (z, 0)
    # on the N=65 grid of radius 2 is exactly residual-free; the origin bound
    # 0.5 comes with that certified witness
    d = criteria[9]["details"]
    assert d["samples"] == 1_000_000
    assert d["max_square_deviation"] <= 1e-14
    assert kr.DEFAULT_RESOLUTION == 65
    assert d["origin_witness_residual"] == 0.0
    assert d["origin_bound"] == 0.5
    assert criteria[9]["passed"] is True


def test_criterion_10_usc_gap(criteria, battery):
    # scan at b = 0.05: a_observed < 2 and lower bound > 0.5, reported next to
    # the 0.5 origin upper bound with empirical=true; the gap, not a number
    d = criteria[10]["details"]
    assert d["anchor"] == [0.05, 0.0]
    assert d["a_observed"] < 2.0
    lower = math.inf if d["no_feasible_disc"] else d["lower_bound"]
    assert lower > 0.5
    assert d["empirical"] is True
    assert d["origin_upper_bound"] == 0.5
    assert d["all_gaps_positive"] is True
    on_disk = json.loads((battery[0] / "usc_report.json").read_text())
    assert on_disk["empirical"] is True
    assert on_disk["origin_upper_bound"] == 0.5
    assert [row["b"] for row in on_disk["rows"]] == [[0.05, 0.0]]
    assert on_disk["rows"][0]["gap_positive"] is True
    assert criteria[10]["passed"] is True


def test_criterion_11_determinism(criteria, battery, tmp_path, subprocess_env):
    # the reduced scan's usc_report.json, usc_table.csv and three heatmaps
    # are byte-identical at 1 and 8 threads; then the full battery through
    # the CLI at --threads 1 and --threads 8: byte-identical summary.json
    d = criteria[11]["details"]
    assert d["thread_counts"] == [1, 8]
    assert d["files"] == ["usc_report.json", "usc_table.csv",
                          *(f"scan_b00_r{ri:02d}_absf.pgm" for ri in range(3))]
    assert d["differing"] == [] and d["identical"] is True
    assert criteria[11]["passed"] is True
    one, proc = battery
    eight = _selftest(tmp_path, "8", subprocess_env)
    for run in (proc, eight):
        assert run.returncode == 0, run.stdout + run.stderr
        assert "all criteria passed" in run.stdout
    assert (one / "summary.json").read_bytes() == (tmp_path / "summary.json").read_bytes()
