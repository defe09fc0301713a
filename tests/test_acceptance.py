"""Acceptance battery: one test per shipped guarantee, tolerances pinned.

Run with -v to get one pass/fail line per criterion.  Each test states
its quantitative tolerance inline; nothing here is loosened to pass.
The expensive entries (the anchor sweep at N=257 and the thread-count
determinism check, which runs the full battery twice through the CLI)
keep this file at a couple of minutes total.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from dbarlab.acs import j_squared_deviation, jholo_residual, reduction_identity
from dbarlab.cauchy import cauchy_transform
from dbarlab.certify import eq_chain_check, lemma1_check, lemma2_check, sqrt_branch
from dbarlab.dbar import DbarProblem, picard_solve, profile_exact, residual_dbar
from dbarlab.grid import ComplexField, RealField, make_grid
from dbarlab.kr import radius_scan, upper_bound_origin, usc_report
from dbarlab.selftest import _random_small_field
from dbarlab.util import parallel_map

THREADS = min(4, os.cpu_count() or 1)


def test_criterion_01_reduction_identity():
    # 20 random masked fields, sup|f| < 1/10, N=129: discrepancy <= 1e-10 in < 10 s
    spec = make_grid(1.0, 129)
    start = time.monotonic()
    gaps = [reduction_identity(_random_small_field(spec, 7000 + i)) for i in range(20)]
    elapsed = time.monotonic() - start
    assert max(gaps) <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_exact_family_residual():
    # off-kink residual <= 2h; kink-line sup halves (+-25%) from N=129 to 257
    sups, away = [], []
    for n in (129, 257):
        spec = make_grid(1.0, n)
        res, sup = residual_dbar(profile_exact(0.0, spec))
        X, _ = spec.mesh()
        off = res.mask & (np.abs(X) >= 3 * spec.spacing)
        away.append(float(np.max(res.values[off])))
        sups.append(sup)
        assert away[-1] <= 2.0 * spec.spacing
    ratio = sups[1] / sups[0]
    assert 0.375 <= ratio <= 0.625


def test_criterion_03_lemma1_sharpness():
    # shifted profile restricted to x > -0.5: |min_slack| <= 10 h^2 at N=257
    spec = make_grid(1.0, 257)
    X, _ = spec.mesh()
    rep = lemma1_check(profile_exact(-1.0, spec).restrict(X > -0.5))
    assert rep.hypothesis_ok
    assert abs(rep.min_slack) <= 10.0 * spec.spacing ** 2


def test_criterion_04_identity_chain():
    # branch x+1 of the shifted profile: all violations <= 10h, slack >= -10h at N=257
    spec = make_grid(1.0, 257)
    branch = sqrt_branch(profile_exact(-1.0, spec))
    rep = eq_chain_check(branch)
    tol = 10.0 * spec.spacing
    assert max(rep.details["violations"].values()) <= tol
    assert rep.min_slack >= -tol


def test_criterion_05_max_principle():
    # quadratic + 0.01: conclusion slack = 0.01 +- 10 h^2; zero field: not triggered
    spec = make_grid(1.0, 257)
    u = RealField.from_function(spec, lambda X, Y: 0.25 * (X * X + Y * Y) + 0.01, margin=0.0)
    rep = lemma2_check(u)
    assert rep.hypothesis_ok
    assert rep.details["triggered"]
    assert abs(rep.details["conclusion_slack"] - 0.01) <= 10.0 * spec.spacing ** 2
    zero = lemma2_check(RealField.constant(spec, 0.0))
    assert not zero.details["triggered"]


def test_criterion_06_sup_floor_sweep():
    # |b| in {1e-3, 1e-2, 5e-2, 1e-1} x 2 phases at N=257: nothing gate-passing
    # lands below sup 1/10 - 0.02; whole sweep < 30 min
    anchors = [m * p for m in (1e-3, 1e-2, 5e-2, 1e-1)
               for p in (1.0, np.exp(0.25j * np.pi))]

    def solve(b):
        sol = picard_solve(DbarProblem(make_grid(1.0, 257), b=b))
        gate_ok = sol.converged and sol.residual_sup <= 5.0 * sol.f.spec.spacing
        return gate_ok, sol.sup_f

    start = time.monotonic()
    rows = parallel_map(solve, anchors, threads=THREADS)
    elapsed = time.monotonic() - start
    for gate_ok, sup_f in rows:
        assert not (gate_ok and sup_f < 0.1 - 0.02)
    assert elapsed < 1800.0


def test_criterion_07_cauchy_transform():
    # indicator error <= 0.05 inside |z| <= 0.8 at N=129, decreasing at 257;
    # the two quadrature paths agree to 1e-10 at N=65
    errs = []
    for n in (129, 257):
        spec = make_grid(1.0, n)
        chi = ComplexField.constant(spec, 1.0)
        out = cauchy_transform(chi)
        zz = spec.nodes()
        inner = chi.mask & (np.abs(zz) <= 0.8)
        errs.append(float(np.max(np.abs(out.values - np.conj(zz))[inner])))
    assert errs[0] <= 0.05
    assert errs[1] < errs[0]
    spec = make_grid(1.0, 65)
    chi = ComplexField.constant(spec, 1.0)
    gap = np.max(np.abs(cauchy_transform(chi, method="fft").values
                        - cauchy_transform(chi, method="direct").values))
    assert gap <= 1e-10


def test_criterion_08_ode_analogue():
    # rk4 vs closed form <= 1e-6 at RK4_STEPS = 1000 steps; family residual
    # <= 2*step at FAMILY_SAMPLES = 2001; lower-bound slack equals sqrt(g0) + g0 to 1e-12
    from dbarlab import ode
    from dbarlab.ode import exact_forward, family_trajectory, lower_bound_check, rk4_integrate

    assert (ode.RK4_STEPS, ode.FAMILY_SAMPLES, ode.FAMILY_KINKS) == (1000, 2001, (0.0, 0.3, 0.9))
    for g0 in (0.01, 1.0):
        traj = rk4_integrate(g0)
        assert abs(traj.value_at_end() - exact_forward(g0, 1.0)) <= 1e-6
    for c in ode.FAMILY_KINKS:
        traj = family_trajectory(c)
        step = traj.xs[1] - traj.xs[0]
        fd = (traj.gs[2:] - traj.gs[:-2]) / (2 * step)
        resid = np.abs(fd - np.sqrt(traj.gs[1:-1]))
        off = np.abs(traj.xs[1:-1] - c) > step
        assert np.max(resid[off]) <= 2 * step
    for g0 in (0.01, 0.25, 1.0):
        res = lower_bound_check(g0)
        assert abs(res.slack - (np.sqrt(g0) + g0)) <= 1e-12


def test_criterion_09_structure_checks():
    # J^2 = -I to 1e-14 at 1e6 sampled points; the linear witness is exactly
    # residual-free; the origin bound 0.5 comes with that certified witness
    rng = np.random.default_rng(0)
    n = 1_000_000
    z1 = 1.999 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    z2 = 0.0999 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    assert j_squared_deviation(z1, z2) <= 1e-14

    spec = make_grid(2.0, 65)
    ident = ComplexField(spec, spec.nodes(), spec.default_margin())
    zero = ComplexField.constant(spec, 0.0)
    from dbarlab.acs import DiscMap

    _, sup = jholo_residual(DiscMap(spec, ident, zero))
    assert sup == 0.0

    origin = upper_bound_origin()
    assert origin.bound == 0.5
    assert origin.witness_residual_sup == 0.0


def test_criterion_10_usc_gap(tmp_path):
    # scan at b = 0.05: a_observed < 2 and lower bound > 0.5, reported next to
    # the 0.5 origin upper bound with empirical=true; the gap, not a number
    est = radius_scan(0.05)
    assert est.a_observed < 2.0
    assert est.lower_bound() > 0.5  # inf when no disc is feasible
    report = usc_report([0.05], tmp_path)
    summary = report["summary"]
    assert summary["empirical"] is True
    assert summary["origin_upper_bound"] == 0.5
    assert summary["all_gaps_positive"] is True
    on_disk = json.loads((tmp_path / "usc_report.json").read_text())
    assert on_disk["empirical"] is True


def test_criterion_11_determinism(tmp_path, subprocess_env):
    # full battery through the CLI at --threads 1 and --threads 8:
    # byte-identical summary.json
    env = subprocess_env
    env.pop("DBARLAB_OUT", None)
    outs = []
    for label, threads in (("one", "1"), ("eight", "8")):
        out = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-m", "dbarlab", "selftest",
             "--out", str(out), "--threads", threads],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all criteria passed" in proc.stdout
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] == outs[1]
