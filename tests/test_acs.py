import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarlab.acs import (
    _TEMPLATE,
    DiscMap,
    graph_map,
    j_squared_deviation,
    jholo_residual,
    lambda_val,
    reduction_identity,
)
from dbarlab.dbar import DbarProblem, picard_solve, profile_exact
from dbarlab.grid import ComplexField, erode4, make_grid


def unit_disc_points(rng, n, radius):
    return (
        radius
        * 0.999
        * np.sqrt(rng.uniform(size=n))
        * np.exp(2j * np.pi * rng.uniform(size=n))
    )


class TestLambda:
    def test_point_values(self):
        assert lambda_val(0.0) == 0.0
        assert lambda_val(0.04) == pytest.approx(-0.4, abs=1e-15)
        assert lambda_val(0.01j) == pytest.approx(-0.2, abs=1e-15)

    def test_vectorized(self):
        z = np.array([0.0, 0.04, 0.01j, -0.04])
        out = lambda_val(z)
        assert out.shape == z.shape
        assert out.dtype == np.float64
        assert out[1] == out[3]

    @settings(max_examples=50, deadline=None)
    @given(
        pr=st.floats(-0.099, 0.099),
        pi=st.floats(-0.099, 0.099),
        qr=st.floats(-0.099, 0.099),
        qi=st.floats(-0.099, 0.099),
    )
    def test_hoelder_half(self, pr, pi, qr, qi):
        p = pr + 1j * pi
        q = qr + 1j * qi
        gap = abs(lambda_val(p) - lambda_val(q))
        assert gap <= 2.0 * np.sqrt(abs(p - q)) + 1e-12


class TestJMatrix:
    def test_standard_at_zero_coupling(self):
        std = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        assert np.array_equal(_TEMPLATE, std)
        assert lambda_val(0.0) == 0.0
        assert j_squared_deviation(np.array([0.3 - 0.4j]), np.array([0.0j])) == 0.0

    def test_coupling_placement(self):
        # the coupling slots [2,1] and [3,0] are empty in the template; with
        # lambda there, J^2 = -I holds only for that placement
        assert _TEMPLATE[2, 1] == 0.0 and _TEMPLATE[3, 0] == 0.0
        assert lambda_val(0.04) == pytest.approx(-0.4, abs=1e-15)
        assert j_squared_deviation(np.array([0.0j]), np.array([0.04 + 0j])) <= 1e-14

    def test_square_is_minus_identity(self):
        for p in ((0.0, 0.0), (1.5 + 0.2j, 0.05j), (-1.0j, -0.07 + 0.02j)):
            assert j_squared_deviation(np.array([p[0]]), np.array([p[1]])) <= 1e-14

    def test_square_batch(self):
        rng = np.random.default_rng(11)
        z1 = unit_disc_points(rng, 100_000, 2.0)
        z2 = unit_disc_points(rng, 100_000, 0.1)
        assert j_squared_deviation(z1, z2) <= 1e-14

    def test_batch_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            j_squared_deviation(np.array([0.0j]), np.array([0.2 + 0j]))
        with pytest.raises(ValueError):
            j_squared_deviation(np.array([0j, 0j]), np.array([0j]))

    def test_membership(self):
        assert j_squared_deviation(np.array([1.9999]), np.array([0.0999])) <= 1e-14
        for z1, z2 in ((2.0, 0.0), (0.0, 0.1), (0.0, 0.2), (2.5, 0.0)):
            with pytest.raises(ValueError):
                j_squared_deviation(np.array([z1]), np.array([z2]))


class TestDiscMap:
    def test_graph_of_small_profile(self):
        spec = make_grid(1.0, 65)
        f = profile_exact(0.9, spec)
        m = graph_map(f)
        assert m.z1.spec == m.z2.spec == spec
        assert np.array_equal(m.z2.values, f.values)
        assert np.array_equal(m.z1.values[m.z1.mask], spec.nodes()[f.mask])

    def test_graph_range_error(self):
        spec = make_grid(1.0, 65)
        with pytest.raises(ValueError):
            graph_map(ComplexField.constant(spec, 0.2))

    def test_graph_boundary_value_rejected(self):
        spec = make_grid(1.0, 65)
        with pytest.raises(ValueError):
            graph_map(ComplexField.constant(spec, 0.1))

    def test_component_mask_mismatch(self):
        spec = make_grid(2.0, 65)
        ident = ComplexField.from_function(spec, lambda z: z)
        zero = ComplexField.constant(spec, 0.0)
        X, _ = spec.mesh()
        with pytest.raises(ValueError):
            DiscMap(ident.restrict(X > 0), zero)

    def test_components_on_different_grids_refused(self):
        ident = ComplexField.from_function(make_grid(2.0, 65), lambda z: z)
        zero = ComplexField.constant(make_grid(1.0, 65), 0.0)
        with pytest.raises(ValueError, match="one grid"):
            DiscMap(ident, zero)

    def test_first_component_range(self):
        spec = make_grid(2.0, 65)
        big = ComplexField.from_function(spec, lambda z: 1.1 * z)
        zero = ComplexField.constant(spec, 0.0)
        with pytest.raises(ValueError):
            DiscMap(big, zero)


class TestResidual:
    def test_linear_map_is_exact(self):
        # dyadic spacing: centered differences of z are exactly 1
        spec = make_grid(2.0, 65)
        m = DiscMap(
            ComplexField.from_function(spec, lambda z: z),
            ComplexField.constant(spec, 0.0),
        )
        rows, mask, sup = jholo_residual(m)
        assert sup == 0.0
        for r in rows:
            assert np.all(r[mask] == 0.0)

    def test_antiholomorphic_first_component(self):
        spec = make_grid(2.0, 65)
        m = DiscMap(
            ComplexField.from_function(spec, lambda z: np.conj(z)),
            ComplexField.constant(spec, 0.0),
        )
        (r1, r2, _, _), mask, sup = jholo_residual(m)
        assert sup == pytest.approx(2.0, abs=1e-13)
        assert np.all(r2[mask] == pytest.approx(-2.0, abs=1e-13))
        assert np.max(np.abs(r1[mask])) <= 1e-13

    def test_holomorphic_first_component_rows_vanish(self):
        spec = make_grid(1.0, 65)
        m = DiscMap(
            ComplexField.from_function(spec, lambda z: z * z),
            ComplexField.constant(spec, 0.0),
        )
        (r1, r2, _, _), mask, _ = jholo_residual(m)
        assert np.max(np.abs(r1[mask])) <= 1e-12
        assert np.max(np.abs(r2[mask])) <= 1e-12

    def test_rows_are_read_on_the_stencil_mask(self):
        # the disc one spacing inside the margin, less the nodes next to a
        # hole in the components' mask
        spec = make_grid(2.0, 65)
        X, Y = spec.mesh()
        hole = (np.abs(X - 0.5) < 0.1) & (np.abs(Y) < 0.1)
        ident = ComplexField.from_function(spec, lambda z: z).restrict(~hole)
        zero = ComplexField.constant(spec, 0.0).restrict(~hole)
        _, mask, sup = jholo_residual(DiscMap(ident, zero))
        disc = spec.disc_mask(ident.margin + spec.spacing)
        assert np.array_equal(mask, disc & erode4(ident.mask))
        assert (disc & ~hole & ~mask).any()
        assert sup == 0.0

    def test_graph_of_near_solution_profile(self):
        # the profile satisfies the scalar equation away from its kink, so
        # the full system residual is one-stencil-sized
        spec = make_grid(1.0, 129)
        _, _, sup = jholo_residual(graph_map(profile_exact(0.9, spec)))
        assert 0.0 < sup <= spec.spacing


class TestReduction:
    def test_profile_exact(self):
        spec = make_grid(1.0, 129)
        assert reduction_identity(profile_exact(0.9, spec)) <= 1e-10

    def test_zero_field(self):
        spec = make_grid(1.0, 65)
        assert reduction_identity(ComplexField.constant(spec, 0.0)) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        spec = make_grid(1.0, 33)
        Z = spec.nodes()
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        vals = c[0] + c[1] * Z + c[2] * Z * Z + c[3] * np.conj(Z) + c[4] * np.abs(Z)
        peak = np.max(np.abs(vals))
        if peak > 0:
            vals = 0.09 * vals / peak
        f = ComplexField(spec, vals, spec.default_margin())
        assert reduction_identity(f) <= 1e-10

    def test_solver_output_scaled_into_range(self):
        # a converged unit-disc solve with nonzero anchor has sup over 1/10
        # (that is the point of the whole construction), so shrink it into
        # the target before taking its graph
        sol = picard_solve(DbarProblem(make_grid(1.0, 65), b=0.05))
        f = sol.f
        scaled = ComplexField(f.spec, f.values * (0.09 / sol.sup_f), f.margin, f.mask)
        assert reduction_identity(scaled) <= 1e-10

    def test_range_error_propagates(self):
        spec = make_grid(1.0, 65)
        with pytest.raises(ValueError):
            reduction_identity(ComplexField.constant(spec, 0.15))

