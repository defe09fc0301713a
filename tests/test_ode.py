import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarlab import ode
from dbarlab.ode import (
    FAMILY_KINKS,
    OdeTrajectory,
    exact_forward,
    family_trajectory,
    lower_bound_check,
    nonuniq_family,
    rk4_integrate,
)


class TestExactForward:
    def test_point_values(self):
        assert exact_forward(0.01, 1.0) == pytest.approx(0.36, abs=1e-15)
        assert exact_forward(0.0, 1.0) == 0.25
        assert exact_forward(0.25, 1.0) == 1.0
        assert exact_forward(0.5, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exact_forward(-0.1, 1.0)
        with pytest.raises(ValueError):
            exact_forward(0.1, -1.0)

    @settings(max_examples=50, deadline=None)
    @given(g0=st.floats(0.0, 2.0), x=st.floats(0.01, 0.99))
    def test_solves_the_equation(self, g0, x):
        e = 1e-5
        fd = (exact_forward(g0, x + e) - exact_forward(g0, x - e)) / (2 * e)
        assert fd == pytest.approx(np.sqrt(exact_forward(g0, x)), abs=1e-9)


class TestRk4:
    def test_matches_closed_form(self):
        for g0 in (0.01, 1.0):
            traj = rk4_integrate(g0)
            exact = np.array([exact_forward(g0, x) for x in traj.xs])
            assert np.max(np.abs(traj.gs - exact)) <= 1e-6

    def test_end_values(self):
        assert rk4_integrate(0.01).value_at_end() == pytest.approx(0.36, abs=1e-6)
        assert rk4_integrate(1.0).value_at_end() == pytest.approx(2.25, abs=1e-6)

    def test_zero_start_selects_a_family_member(self):
        # from exactly zero every stage vanishes; the scheme sits on the
        # zero member, which is one legitimate selection among many
        end = rk4_integrate(0.0).value_at_end()
        assert 0.0 <= end <= 0.25

    def test_steps_read_when_run(self, monkeypatch):
        assert rk4_integrate(0.1).xs.size == ode.RK4_STEPS + 1 == 1001
        monkeypatch.setattr(ode, "RK4_STEPS", 10)
        assert rk4_integrate(0.1).xs.size == 11


class TestFamily:
    def test_point_values(self):
        assert nonuniq_family(0.5, 0.5) == 0.0
        assert nonuniq_family(0.5, 1.0) == 0.0625
        assert nonuniq_family(0.5, -1.0) == 0.0
        assert nonuniq_family(0.0, 1.0) == 0.25

    def test_distinct_members_same_start(self):
        assert nonuniq_family(0.0, 0.0) == nonuniq_family(0.9, 0.0) == 0.0
        gap = nonuniq_family(0.0, 1.0) - nonuniq_family(0.9, 1.0)
        assert gap == pytest.approx(0.2475, abs=1e-15)

    def test_negative_transition_rejected(self):
        with pytest.raises(ValueError):
            nonuniq_family(-0.2, 0.0)

    @pytest.mark.parametrize("c", FAMILY_KINKS)
    def test_fd_residual(self, c):
        traj = family_trajectory(c)
        assert traj.xs.size == ode.FAMILY_SAMPLES
        step = traj.xs[1] - traj.xs[0]
        fd = (traj.gs[2:] - traj.gs[:-2]) / (2 * step)
        mid = traj.xs[1:-1]
        resid = np.abs(fd - np.sqrt(traj.gs[1:-1]))
        off_kink = np.abs(mid - c) > step
        assert np.max(resid[off_kink]) <= 2 * step

    def test_vectorized(self):
        xs = np.array([-1.0, 0.3, 0.9])
        out = nonuniq_family(0.3, xs)
        assert out.shape == xs.shape
        assert out[2] == pytest.approx(0.09, abs=1e-15)


class TestLowerBound:
    def test_slack_formula(self):
        for g0 in (1e-8, 0.01, 0.25, 1.0):
            slack = lower_bound_check(g0)
            assert slack > 0
            assert slack == pytest.approx(np.sqrt(g0) + g0, rel=1e-12)

    def test_known_slacks(self):
        assert lower_bound_check(0.01) == pytest.approx(0.11, abs=1e-12)
        assert lower_bound_check(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_tiny_start_still_positive(self):
        assert lower_bound_check(1e-14) > 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lower_bound_check(0.0)


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            OdeTrajectory(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            OdeTrajectory(np.array([0.0, 1.0]), np.array([0.0, np.nan]))

    def test_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ode, "RK4_STEPS", 10)
        traj = rk4_integrate(0.01)
        path = traj.to_csv(tmp_path / "traj.csv")
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "x,g"
        assert len(lines) == 12
        x, g = lines[-1].split(",")
        assert float(x) == 1.0
        assert float(g) == pytest.approx(0.36, abs=1e-3)
