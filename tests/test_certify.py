import tracemalloc
import warnings

import numpy as np
import pytest

from dbarlab import certify
from dbarlab.certify import (
    abs_power_34,
    eq_chain_check,
    lemma1_check,
    lemma2_check,
    sqrt_branch,
    theorem2_chain,
)
from dbarlab import dbar
from dbarlab.dbar import DbarProblem, picard_solve, profile_exact
from dbarlab.grid import (
    ComplexField,
    MaskError,
    PhaseUnwrapError,
    RealField,
    inset_mask,
    make_grid,
)


def solved_65(b=0.25):
    return picard_solve(DbarProblem(make_grid(1.0, 65), b=b))


class TestLemma1:
    def test_sharp_on_shifted_profile(self):
        # (x+1)^{3/2} hits the inequality with equality; only the FD error
        # of the laplacian remains
        spec = make_grid(1.0, 257)
        prof = profile_exact(-1.0, spec)
        X, _ = spec.mesh()
        rep = lemma1_check(prof.restrict(X > -0.5))
        assert rep.hypothesis_ok
        assert rep.details["inequality_ok"]
        assert abs(rep.min_slack) <= 10 * spec.spacing ** 2
        assert rep.checked_nodes > 1000

    def test_sharpness_tightens_under_refinement(self):
        slacks = []
        for n in (129, 257):
            spec = make_grid(1.0, n)
            X, _ = spec.mesh()
            rep = lemma1_check(profile_exact(-1.0, spec).restrict(X > -0.5))
            assert abs(rep.min_slack) <= 10 * spec.spacing ** 2
            slacks.append(abs(rep.min_slack))
        assert slacks[1] < slacks[0]

    def test_constant_rejected_by_residual_gate(self):
        spec = make_grid(1.0, 129)
        rep = lemma1_check(ComplexField.constant(spec, 0.3))
        assert not rep.hypothesis_ok
        assert rep.details["residual_sup_eligible"] > rep.details["residual_gate"]
        # the inequality itself indeed fails for a constant: Delta is 0
        assert rep.min_slack < -0.5

    def test_unrestricted_profile(self):
        spec = make_grid(1.0, 129)
        rep = lemma1_check(profile_exact(0.0, spec))
        assert rep.hypothesis_ok
        assert rep.details["inequality_ok"]
        assert rep.min_slack >= -1e-6

    def test_holds_on_transform_solution(self):
        rep = lemma1_check(solved_65().f)
        assert rep.hypothesis_ok
        assert rep.details["inequality_ok"]
        assert rep.min_slack > 0

    def test_tiny_values_next_to_eligible_nodes_raise_no_warning(self):
        # |h| = 1e-300 inside the eligible nodes' window: its |h|^(-5/4)
        # overflows a float, so the tolerance must be taken on eligible nodes only
        spec = make_grid(1.0, 33)
        vals = np.full((33, 33), 0.05, dtype=complex)
        tiny = np.zeros((33, 33), dtype=bool)
        tiny[16, 14:19] = True
        vals[tiny] = 1e-300
        h = ComplexField(spec, vals, spec.default_margin())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = lemma1_check(h)
        assert rep.checked_nodes == int((inset_mask(h, certify.STANDOFF_CELLS) & ~tiny).sum())

    def test_no_eligible_nodes(self):
        spec = make_grid(1.0, 65)
        with pytest.raises(MaskError):
            lemma1_check(ComplexField.constant(spec, 1e-6))


class TestEqChain:
    def test_profile_branch_is_exact(self):
        # the branch of (x + 1)^2 is g = x + 1 with phi = 0: every identity
        # holds to rounding on the dyadic lattice
        spec = make_grid(1.0, 257)
        X, _ = spec.mesh()
        branch = sqrt_branch(profile_exact(-1.0, spec).restrict(X > -0.5), 0j)
        assert np.array_equal(branch.values[branch.mask], (X + 1.0)[branch.win][branch.mask])
        rep = eq_chain_check(branch)
        assert rep.hypothesis_ok
        for name, v in rep.details["violations"].items():
            assert v <= 1e-12, name
        assert abs(rep.min_slack) <= 1e-12

    def test_profile_branch_within_acceptance_tolerances(self):
        spec = make_grid(1.0, 257)
        h = spec.spacing
        X, _ = spec.mesh()
        rep = eq_chain_check(sqrt_branch(profile_exact(-1.0, spec).restrict(X > -0.5), 0j))
        assert all(v <= 10 * h for v in rep.details["violations"].values())
        assert rep.min_slack >= -10 * h

    def test_constant_phase_violates_sqrt_equation_by_half(self):
        # the branch of the constant e^(1.4i) is the constant e^(0.7i)
        spec = make_grid(1.0, 65)
        branch = sqrt_branch(ComplexField.constant(spec, np.exp(1.4j)), 0j)
        assert np.abs(branch.values - np.exp(0.7j))[branch.mask].max() <= 1e-15
        rep = eq_chain_check(branch)
        assert rep.details["violations"]["sqrt_equation"] == pytest.approx(0.5, abs=1e-14)
        assert not rep.hypothesis_ok

    def test_solution_branch_violations_are_small(self, monkeypatch):
        monkeypatch.setattr(certify, "DELTA0_DEFAULT", 0.05)
        sol = solved_65()
        h = sol.f.spec.spacing
        rep = eq_chain_check(sqrt_branch(sol.f, 0j))
        assert rep.hypothesis_ok
        assert all(v <= 10 * h for v in rep.details["violations"].values())
        assert rep.min_slack >= -10 * h

    def test_solution_branch_violations_shrink_at_fixed_depth(self, monkeypatch):
        # second derivatives of the transform blow up toward the rim where
        # the density is chopped, so the comparison has to hold the physical
        # standoff fixed (3 cells at N=65 equals 6 cells at N=129)
        monkeypatch.setattr(certify, "DELTA0_DEFAULT", 0.05)
        worst = []
        for n, cells in ((65, 3), (129, 6)):
            sol = picard_solve(DbarProblem(make_grid(1.0, n), b=0.25))
            monkeypatch.setattr(certify, "STANDOFF_CELLS", cells)
            rep = eq_chain_check(sqrt_branch(sol.f, 0j))
            worst.append(max(rep.details["violations"].values()))
        assert worst[1] < 0.25 * worst[0]

    def test_peak_memory_is_a_few_window_arrays(self):
        # holding every identity's array until the end peaks at about 16 real
        # N x N arrays here; reducing each to its maximum at once, about 9
        spec = make_grid(1.0, 129)
        branch = sqrt_branch(profile_exact(-1.0, spec), 0j)
        tracemalloc.start()
        try:
            rep = eq_chain_check(branch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.checked_nodes > 10000
        assert peak <= 11 * spec.resolution ** 2 * np.dtype(np.float64).itemsize

    def test_enclosed_zero_is_detected(self):
        # g = z - z0 squared: {|h| > delta0} encloses z0, around which the
        # argument of h turns by 4 pi, so the unwrap behind the branch fails
        spec = make_grid(1.0, 65)
        h = ComplexField.from_function(spec, lambda z: (z - (0.3 + 0.2j)) ** 2)
        with pytest.raises(PhaseUnwrapError):
            sqrt_branch(h, 0j)


class TestSmallAnchorChain:
    # the chain's branch lives on the origin's component of {|f| > delta0}.
    # A small anchor's solve has a zero near z = -1.5 sqrt(b), where b + F0
    # vanishes with F0 = (4/9)|z| zbar, and that component encloses it
    def test_anchor_at_delta0_has_no_branch(self):
        # |f(0)| = |b| is not above delta0 = 1e-3
        with pytest.raises(MaskError):
            eq_chain_check(sqrt_branch(solved_65(0.001).f, 0j))

    @pytest.mark.parametrize("b", [0.01, 0.05])
    def test_small_anchor_encloses_the_zero_of_b_plus_f0(self, b):
        f = solved_65(b).f
        absf = np.where(f.mask, np.abs(f.values), np.inf)
        node = f.spec.nodes()[np.unravel_index(np.argmin(absf), absf.shape)]
        # the min-|f| node sits on the negative real axis, below delta0 and
        # within 2h of -1.5 sqrt(b) (0.20h and 0.27h at N=65)
        assert node.imag == 0.0 and node.real < 0.0
        assert absf.min() <= certify.DELTA0_DEFAULT
        assert abs(node + 1.5 * np.sqrt(b)) <= 2.0 * f.spec.spacing
        with pytest.raises(PhaseUnwrapError):
            eq_chain_check(sqrt_branch(f, 0j))

    def test_chain_available_at_quarter(self):
        # at b = 1/4 the zero of b + F0, at -3/4, is not enclosed
        rep = eq_chain_check(sqrt_branch(solved_65(0.25).f, 0j))
        assert rep.checked_nodes > 0


class TestSqrtBranch:
    def test_branch_squares_back(self):
        sol = solved_65()
        br = sqrt_branch(sol.f, 0j)
        d = np.max(np.abs((br.values ** 2 - sol.f.values[br.win])[br.mask]))
        assert d <= 1e-13

    def test_branch_of_real_profile(self):
        spec = make_grid(1.0, 129)
        br = sqrt_branch(profile_exact(-1.0, spec), 0j)
        X, _ = spec.mesh()
        d = np.max(np.abs((br.values - (X + 1.0)[br.win])[br.mask]))
        assert d <= 1e-13

    def test_mask_stays_above_delta0(self, monkeypatch):
        monkeypatch.setattr(certify, "DELTA0_DEFAULT", 0.05)
        sol = solved_65()
        br = sqrt_branch(sol.f, 0j)
        assert np.all(np.abs(sol.f.values[br.win][br.mask]) > 0.05)

    def test_basepoint_must_be_in_region(self):
        spec = make_grid(1.0, 65)
        with pytest.raises(MaskError):
            sqrt_branch(profile_exact(0.5, spec), 0j)  # f(0) = 0 there


class TestLemma2:
    def test_quadratic_with_offset(self):
        # margin 0 so the |z| = 1 nodes are sampled: sup u = 1/4 + offset
        spec = make_grid(1.0, 257)
        u = RealField.from_function(
            spec, lambda X, Y: 0.25 * (X * X + Y * Y) + 0.01, margin=0.0
        )
        rep = lemma2_check(u)
        assert rep.hypothesis_ok
        assert rep.details["triggered"]
        assert rep.details["conclusion_slack"] == pytest.approx(0.01, abs=10 * spec.spacing ** 2)
        assert rep.min_slack == rep.details["conclusion_slack"]
        # the laplacian of the comparison v = u - |z|^2/4 vanishes to rounding
        assert abs(rep.details["growth_slack"]) <= 1e-11
        # witness sits on the rim
        assert np.hypot(*rep.witness) == pytest.approx(1.0, abs=spec.spacing)

    def test_zero_field_not_triggered(self):
        spec = make_grid(1.0, 129)
        rep = lemma2_check(RealField.constant(spec, 0.0))
        assert rep.hypothesis_ok
        assert not rep.details["triggered"]
        assert rep.details["conclusion_slack"] is None
        assert rep.min_slack == 0.0

    def test_zero_at_origin_not_triggered(self):
        spec = make_grid(1.0, 129)
        u = RealField.from_function(spec, lambda X, Y: 0.25 * (X * X + Y * Y), margin=0.0)
        rep = lemma2_check(u)
        assert not rep.details["triggered"]

    def test_witness_ignores_rounding_between_mirror_nodes(self):
        # sup u sits on the four rim nodes (+-1, 0), (0, +-1); lifting the last
        # of them in row-major order, (0, 1), by one ulp must not move the
        # witness off the first, (0, -1)
        spec = make_grid(1.0, 33)
        X, Y = spec.mesh()
        vals = 0.25 * (X * X + Y * Y) + 0.01
        c = spec.center
        vals[-1, c] = np.nextafter(vals[-1, c], np.inf)
        rep = lemma2_check(RealField(spec, vals, 0.0))
        assert rep.details["triggered"]
        assert rep.witness == (0.0, -1.0)

    def test_negative_field_rejected(self):
        spec = make_grid(1.0, 65)
        u = RealField.from_function(spec, lambda X, Y: -(X * X + Y * Y), spec.default_margin())
        with pytest.raises(ValueError):
            lemma2_check(u)

    def test_superharmonic_fails_hypotheses(self):
        spec = make_grid(1.0, 65)
        u = RealField.from_function(spec, lambda X, Y: 1.0 - X * X, spec.default_margin())
        rep = lemma2_check(u)
        assert not rep.hypothesis_ok
        assert rep.details["subharmonic_slack"] == pytest.approx(-2.0, abs=1e-10)

    def test_reads_the_constants_as_lemma1_does(self, monkeypatch):
        # both checks read delta0 and the standoff when they run: on
        # u = |h|^(3/4) the growth set {u > delta0^(3/4)} is lemma1's
        # eligible set {|h| > delta0}, and both move with the constants
        h = profile_exact(-0.5, make_grid(1.0, 65))
        counts = []
        for cells, delta0 in [(3, 1e-3), (0, 1e-3), (6, 1e-3), (3, 0.04)]:
            monkeypatch.setattr(certify, "STANDOFF_CELLS", cells)
            monkeypatch.setattr(certify, "DELTA0_DEFAULT", delta0)
            lem1 = lemma1_check(h)
            lem2 = lemma2_check(abs_power_34(h))
            assert lem2.details["delta0"] == delta0 ** 0.75
            assert lem2.details["support_nodes"] == lem1.checked_nodes
            counts.append((lem1.checked_nodes, lem2.checked_nodes))
        # the standoff moves both node counts, delta0 only the eligible set
        assert len({c[1] for c in counts[:3]}) == 3
        assert len({c[0] for c in counts}) == 4


class TestChain:
    def test_consistent_on_certified_solve(self):
        sol = solved_65()
        rep = theorem2_chain(sol)
        assert rep.details["verdict"] == "consistent"
        assert rep.min_slack == pytest.approx(sol.sup_f - 0.08)
        assert not rep.details["premise_small_sup"]
        assert rep.details["lemma1"]["hypothesis_ok"]
        assert rep.details["lemma1"]["details"]["inequality_ok"]
        # u = |f|^{3/4} overshoots 1/4 as the bound demands
        assert rep.details["lemma2_on_u"]["details"]["conclusion_slack"] > 0

    def test_not_applicable_at_zero_anchor(self):
        rep = theorem2_chain(solved_65(b=0.0))
        assert rep.details["verdict"] == "not_applicable"

    def test_gate_rejects_unconverged(self, monkeypatch):
        monkeypatch.setattr(dbar, "MAX_ITER", 2)
        monkeypatch.setattr(dbar, "TOL", 1e-15)
        sol = picard_solve(DbarProblem(make_grid(1.0, 65), b=0.05))
        assert not sol.converged
        with pytest.raises(ValueError):
            theorem2_chain(sol)

    def test_gate_rejects_large_residual(self):
        # at N = 129 the edge-ring residual exceeds the 5h gate
        sol = picard_solve(DbarProblem(make_grid(1.0, 129), b=0.25))
        assert sol.converged
        assert sol.residual_sup > 5 * sol.f.spec.spacing
        with pytest.raises(ValueError):
            theorem2_chain(sol)

    def test_report_serializes(self):
        import json

        rep = theorem2_chain(solved_65())
        blob = json.dumps(rep.to_json_dict())
        assert "consistent" in blob
