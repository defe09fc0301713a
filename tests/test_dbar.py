import json

import numpy as np
import pytest

from dbarlab.dbar import (
    DbarProblem,
    NanEncountered,
    load_solution,
    picard_solve,
    profile_exact,
    rescale_solution,
    rhs_sqrt,
    _stalled,
)
from dbarlab.dbar import residual_dbar
from dbarlab.grid import ComplexField, make_grid


def unit(n=65):
    return make_grid(1.0, n)


class TestRhsSqrt:
    def test_zero(self):
        f = ComplexField.constant(unit(), 0.0)
        assert np.all(rhs_sqrt(f, 0.0).values == 0.0)

    def test_constant_four(self):
        f = ComplexField.constant(unit(), 4.0)
        out = rhs_sqrt(f, 0.0)
        assert np.allclose(out.values[out.mask], 2.0, atol=0, rtol=0)

    def test_zero_field_with_eps(self):
        # (0 + eps^2)^(1/4) with eps = 1e-4 is exactly 1e-2
        f = ComplexField.constant(unit(), 0.0)
        out = rhs_sqrt(f, 1e-4)
        assert abs(out.at_origin() - 1e-2) < 1e-17

    def test_negative_eps_rejected(self):
        f = ComplexField.constant(unit(), 1.0)
        with pytest.raises(ValueError):
            rhs_sqrt(f, -1e-3)


class TestProfile:
    def test_point_values(self):
        spec = unit(129)
        f = profile_exact(0.0, spec)
        c = spec.center
        # z = 0.5 is node (c, c+32) at h = 1/64
        assert f.values[c, c + 32] == 0.25
        # z = -0.3 + 0.9i has x < 0, value 0; nearest node exact too
        X, Y = spec.mesh()
        j = c - 19  # x ~ -0.297
        i = c + 58  # y ~ 0.906
        assert f.values[i, j] == 0.0

    def test_left_half_vanishes(self):
        spec = unit(65)
        f = profile_exact(0.0, spec)
        X, _ = spec.mesh()
        assert np.all(f.values[X < 0] == 0)

    def test_residual_first_order(self):
        # kink-line nodes carry the only error; C = 2 is generous
        for n in (129, 257):
            spec = unit(n)
            h = spec.spacing
            for c in (-0.5, 0.0, 0.3):
                _, res = residual_dbar(profile_exact(c, spec))
                assert res <= 2.0 * h

    def test_residual_is_quarter_h_on_aligned_kink(self):
        # c = 0 puts the kink on a node column; centered differences give
        # exactly h/4 there and are exact elsewhere (piecewise quadratic)
        spec = unit(129)
        _, res = residual_dbar(profile_exact(0.0, spec))
        assert res == pytest.approx(spec.spacing / 4, rel=1e-12)

    def test_residual_halves_under_refinement(self):
        _, r1 = residual_dbar(profile_exact(0.0, unit(129)))
        _, r2 = residual_dbar(profile_exact(0.0, unit(257)))
        assert 0.49 <= r2 / r1 <= 0.51

    def test_residual_vanishes_away_from_kink(self):
        spec = unit(129)
        h = spec.spacing
        c = 0.3
        field, _ = residual_dbar(profile_exact(c, spec))
        X, _ = spec.mesh()
        away = field.mask & (np.abs(X - c) >= 3 * h)
        assert np.max(field.values[away]) <= 1e-12

    def test_holomorphic_z_is_not_a_solution(self):
        spec = unit(129)
        f = ComplexField.from_function(spec, lambda z: z)
        _, res = residual_dbar(f)
        assert 0.9 <= res <= 1.0


class TestProblemValidation:
    def test_bad_theta(self):
        for theta in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                DbarProblem(unit(), b=0.1, theta=theta)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            DbarProblem(unit(), b=0.1, tol=0.0)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            DbarProblem(unit(), b=0.1, continuation_steps=0)

    def test_schedule_shape(self):
        p = DbarProblem(unit(), b=0.05)
        sched = p.epsilon_schedule()
        assert len(sched) == p.continuation_steps
        assert sched[0] == 1e-2 and sched[-1] == 0.0
        for a, b_ in zip(sched, sched[1:-1]):
            assert b_ == pytest.approx(0.2 * a)

    def test_schedule_zero_anchor(self):
        assert DbarProblem(unit(), b=0.0).epsilon_schedule() == [0.0]


class TestPicard:
    def test_zero_anchor_gives_zero_exactly(self):
        sol = picard_solve(DbarProblem(unit(65), b=0.0))
        assert sol.converged
        assert np.all(sol.f.values == 0.0)
        assert sol.residual_sup == 0.0
        assert sol.sup_f == 0.0
        assert sol.iterations <= 2

    def test_warm_start_from_exact_profile(self):
        # start at the closed-form solution with the matching anchor
        spec = unit(65)
        h = spec.spacing
        prob = DbarProblem(spec, b=0.25)
        sol = picard_solve(prob, f0=profile_exact(-0.5, spec))
        assert sol.converged
        assert sol.residual_sup <= 5 * h
        assert sol.f.at_origin() == 0.25
        assert sol.sup_f >= 0.08

    def test_warm_and_cold_share_the_fixed_point(self):
        spec = unit(65)
        prob = DbarProblem(spec, b=0.25)
        warm = picard_solve(prob, f0=profile_exact(-0.5, spec))
        cold = picard_solve(prob)
        d = np.max(np.abs((warm.f.values - cold.f.values)[warm.f.mask]))
        assert d <= 1e-12

    def test_anchor_exact(self):
        for b in (0.05, 0.1j, -0.03 + 0.04j):
            sol = picard_solve(DbarProblem(unit(65), b=b))
            assert sol.f.at_origin() == complex(b)

    def test_converged_final_update_below_tol(self):
        prob = DbarProblem(unit(65), b=0.05)
        sol = picard_solve(prob)
        assert sol.converged
        assert sol.update_history[-1] <= prob.tol
        assert sol.iterations == len(sol.update_history)

    def test_non_convergence_is_data(self):
        prob = DbarProblem(unit(65), b=0.05, max_iter=3, tol=1e-15)
        sol = picard_solve(prob)
        assert not sol.converged
        assert np.isfinite(sol.residual_sup)

    def test_nan_is_hard_error(self):
        with pytest.raises(NanEncountered):
            picard_solve(DbarProblem(unit(65), b=1e250))

    def test_phase_rotation_by_i_is_exact_symmetry(self):
        # the lattice and mask are invariant under 90-degree rotation
        a = picard_solve(DbarProblem(unit(65), b=0.05))
        b = picard_solve(DbarProblem(unit(65), b=0.05j))
        assert abs(a.sup_f - b.sup_f) <= 1e-12
        assert abs(a.residual_sup - b.residual_sup) <= 1e-12

    def test_scale_covariance_of_limits(self):
        # f on D_{1/2} with anchor b matches r^2 * (D_1 solve with b / r^2)
        s_half = picard_solve(DbarProblem(make_grid(0.5, 65), b=0.0125))
        s_unit = picard_solve(DbarProblem(make_grid(1.0, 65), b=0.05))
        d = np.max(np.abs((s_half.f.values - 0.25 * s_unit.f.values)[s_half.f.mask]))
        assert d <= 1e-6
        assert abs(s_half.residual_sup - 0.5 * s_unit.residual_sup) <= 1e-6

    def test_theorem_sweep_property_small_scale(self):
        # no converged run with residual within gate has small sup
        spec = unit(65)
        h = spec.spacing
        for mag in (1e-3, 1e-2, 5e-2, 1e-1):
            sol = picard_solve(DbarProblem(spec, b=mag))
            if sol.converged and sol.residual_sup <= 5 * h:
                assert sol.sup_f >= 0.1 - 0.02

    def test_holo_coeffs_shift_the_fixed_point(self):
        spec = unit(65)
        plain = picard_solve(DbarProblem(spec, b=0.05))
        rich = picard_solve(DbarProblem(spec, b=0.05, holo_coeffs=(0.1,)))
        assert rich.converged
        assert rich.f.at_origin() == 0.05
        d = np.max(np.abs((rich.f.values - plain.f.values)[plain.f.mask]))
        assert d > 1e-3
        assert rich.residual_sup <= 0.2


class TestStallRule:
    def test_flat_history_stalls(self):
        assert _stalled([1.0] * 100)

    def test_geometric_history_does_not(self):
        assert not _stalled([0.9 ** k for k in range(100)])

    def test_only_checked_on_window_boundaries(self):
        assert not _stalled([1.0] * 99)


class TestRescale:
    def test_identity(self):
        spec = unit(65)
        f = profile_exact(-0.2, spec)
        F = rescale_solution(f, 1.0)
        assert np.max(np.abs((F.values - f.values)[F.mask])) == 0.0

    def test_profile_from_double_disc(self):
        f2 = profile_exact(0.0, make_grid(2.0, 65))
        F = rescale_solution(f2, 2.0)
        ref = profile_exact(0.0, F.spec)
        assert np.max(np.abs((F.values - ref.values)[F.mask])) == 0.0
        _, res = residual_dbar(F)
        assert res == pytest.approx(F.spec.spacing / 4, rel=1e-12)

    def test_profile_from_half_disc(self):
        fh = profile_exact(0.0, make_grid(0.5, 65))
        F = rescale_solution(fh, 0.5)
        ref = profile_exact(0.0, F.spec)
        assert np.max(np.abs((F.values - ref.values)[F.mask])) == 0.0

    def test_wrong_radius_rejected(self):
        f = profile_exact(0.0, unit(65))
        with pytest.raises(ValueError):
            rescale_solution(f, 2.0)
        with pytest.raises(ValueError):
            rescale_solution(f, -1.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        sol = picard_solve(DbarProblem(unit(65), b=0.05))
        paths = sol.save(tmp_path)
        back = load_solution(paths["json"])
        assert back.problem == sol.problem
        assert np.array_equal(back.f.values, sol.f.values)
        assert back.residual_sup == sol.residual_sup
        assert back.sup_f == sol.sup_f
        assert back.converged == sol.converged
        assert back.iterations == sol.iterations

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_schema_version_checked(self, tmp_path, version):
        sol = picard_solve(DbarProblem(unit(33), b=0.05))
        paths = sol.save(tmp_path)
        with open(paths["json"]) as fh:
            record = json.load(fh)
        if version is None:
            del record["schema_version"]
        else:
            record["schema_version"] = version
        with open(paths["json"], "w") as fh:
            json.dump(record, fh)
        with pytest.raises(ValueError, match="schema_version"):
            load_solution(paths["json"])
