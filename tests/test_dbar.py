import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarlab import dbar
from dbarlab.dbar import (
    DbarProblem,
    DbarSolution,
    NanEncountered,
    load_solution,
    picard_solve,
    profile_exact,
    rescale_solution,
    rescaled_solution_record,
    _rhs_values,
    _stalled,
)
from dbarlab.dbar import residual_dbar
from dbarlab.grid import ComplexField, _shrunk, make_grid
from dbarlab.kr import DEFAULT_B_SWEEP, DEFAULT_RESOLUTION, default_radii


def unit(n=65):
    return make_grid(1.0, n)


def rhs(values, eps):
    """_rhs_values into a fresh buffer, which it must fill and return."""
    out = np.full(values.shape, np.nan)
    assert _rhs_values(values, eps, out) is out
    return out


class TestRhsSqrt:
    def test_zero(self):
        assert np.all(rhs(np.zeros((5, 5), dtype=complex), 0.0) == 0.0)

    def test_constant_four(self):
        assert np.all(rhs(np.full((5, 5), 4.0 + 0j), 0.0) == 2.0)

    def test_zero_field_with_eps(self):
        # (0 + eps^2)^(1/4) with eps = 1e-4 is exactly 1e-2
        out = rhs(np.zeros((5, 5), dtype=complex), 1e-4)
        assert np.all(np.abs(out - 1e-2) < 1e-17)


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
                res = residual_dbar(profile_exact(c, spec)).max()
                assert res <= 2.0 * h

    def test_residual_is_quarter_h_on_aligned_kink(self):
        # c = 0 puts the kink on a node column; centered differences give
        # exactly h/4 there and are exact elsewhere (piecewise quadratic)
        spec = unit(129)
        res = residual_dbar(profile_exact(0.0, spec)).max()
        assert res == pytest.approx(spec.spacing / 4, rel=1e-12)

    def test_residual_halves_under_refinement(self):
        r1 = residual_dbar(profile_exact(0.0, unit(129))).max()
        r2 = residual_dbar(profile_exact(0.0, unit(257))).max()
        assert 0.49 <= r2 / r1 <= 0.51

    def test_residual_vanishes_away_from_kink(self):
        spec = unit(129)
        h = spec.spacing
        c = 0.3
        res = residual_dbar(profile_exact(c, spec))
        X, _ = spec.mesh()
        assert np.max(res[np.abs(X - c) >= 3 * h]) <= 1e-12

    def test_residual_is_an_array_zero_off_the_stencil_interior(self):
        f = profile_exact(0.3, unit(33))
        res = residual_dbar(f)
        assert type(res) is np.ndarray and res.shape == (33, 33)
        inside = _shrunk(f)
        assert not res[~inside].any()
        assert res[inside].max() == res.max() > 0

    def test_overflowing_residual_refused(self):
        # finite values whose centred differences f[j+1] - f[j-1] overflow
        spec = unit(17)
        signs = np.tile((-1.0) ** (np.arange(17) // 2), (17, 1))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            residual_dbar(ComplexField(spec, 1e308 * signs, spec.default_margin()))

    def test_holomorphic_z_is_not_a_solution(self):
        spec = unit(129)
        f = ComplexField.from_function(spec, lambda z: z)
        res = residual_dbar(f).max()
        assert 0.9 <= res <= 1.0


class TestProblemValidation:
    @pytest.mark.parametrize("key, value", [
        ("b", complex(float("inf"), 0.0)),
        ("b", complex(0.0, float("nan"))),
    ])
    def test_non_finite_refused(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            DbarProblem(unit(), **{"b": 0.1, key: value})

    def test_schedule_shape(self):
        sched = DbarProblem(unit(), b=0.05).epsilon_schedule()
        assert len(sched) == dbar.CONTINUATION_STEPS
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

    def test_anchor_exact(self):
        for b in (0.05, 0.1j, -0.03 + 0.04j):
            sol = picard_solve(DbarProblem(unit(65), b=b))
            assert sol.f.at_origin() == complex(b)

    def test_converged_final_update_below_tol(self):
        sol = picard_solve(DbarProblem(unit(65), b=0.05))
        assert sol.converged
        assert sol.final_update <= dbar.TOL

    def test_non_convergence_is_data(self, monkeypatch):
        monkeypatch.setattr(dbar, "MAX_ITER", 3)
        monkeypatch.setattr(dbar, "TOL", 1e-15)
        sol = picard_solve(DbarProblem(unit(65), b=0.05))
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


class TestSmallAnchorLimit:
    def test_sup_approaches_four_ninths(self):
        # as b -> 0 the unit-disc solve tends to F0 = (4/9)|z| zbar, whose sup
        # is 4/9; the grid of radius 1/(1 - 4/(N-1)) has spacing h with
        # radius - 2h = 1, so its mask is the unit disc.  The whole solver
        # (transform, Picard, anchor) must land below 4/9 within 0.3h, and
        # closer at the finer grid
        errors = []
        for n in (33, 65):
            spec = make_grid(1.0 / (1.0 - 4.0 / (n - 1)), n)
            err = 4.0 / 9.0 - picard_solve(DbarProblem(spec, b=1e-9)).sup_f
            assert 0.0 < err <= 0.3 * spec.spacing, (n, err)
            errors.append(err)
        assert errors[1] < errors[0]


class TestFixedPointPin:
    # (radius, N, b) -> (iterations, sup_f, residual_sup) of the fixed point;
    # rewriting the step or the transform may move the last digits of the
    # floats, never the iteration count
    CASES = [
        ((1.0, 33, 0.05), (236, 0.6003116711049495, 0.10131731277622646)),
        ((1.0, 65, 0.05 * cmath.exp(0.7j)), (263, 0.6841857869588406, 0.1037838753238437)),
        ((1.0, 65, 0.001), (305, 0.4155545308391009, 0.08441047123037149)),
        ((0.5, 33, -0.02 + 0.01j), (222, 0.1773097304975548, 0.05393748271671437)),
    ]

    @pytest.mark.parametrize("case, pinned", CASES, ids=["n33-real", "n65-phase", "n65-small", "r-half-n33"])
    def test_solve_is_pinned(self, case, pinned):
        radius, n, b = case
        iterations, sup_f, residual_sup = pinned
        sol = picard_solve(DbarProblem(make_grid(radius, n), b=b))
        assert sol.converged
        assert sol.iterations == iterations
        assert sol.sup_f == pytest.approx(sup_f, rel=1e-10, abs=0)
        assert sol.residual_sup == pytest.approx(residual_sup, rel=1e-10, abs=0)


class TestCertifiedGate:
    @pytest.fixture(scope="class")
    def sol(self):
        return picard_solve(DbarProblem(unit(33), b=0.05))

    def test_gate_is_five_spacings(self, sol):
        assert sol.residual_gate == 5.0 * sol.f.spec.spacing

    @pytest.mark.parametrize(
        "residual, converged, certified",
        [
            (lambda gate: gate, True, True),
            (lambda gate: float(np.nextafter(gate, np.inf)), True, False),
            (lambda gate: 0.0, False, False),
        ],
        ids=["at_gate", "next_float_above", "not_converged"],
    )
    def test_boundary(self, residual, converged, certified):
        # a constant field c has residual exactly sqrt(|c|) on the stencil
        # interior, and sqrt(x * x) == x in floating point
        for n in (17, 33, 65):
            gate = 5.0 * unit(n).spacing
            case = DbarSolution(ComplexField.constant(unit(n), residual(gate) ** 2), converged, 1,
                                None)
            assert case.residual_sup == residual(gate), n
            assert case.residual_gate == gate, n
            assert case.certified is certified, n


class TestStallRule:
    def test_flat_history_stalls(self):
        assert _stalled([1.0] * 100)

    def test_geometric_history_does_not(self):
        assert not _stalled([0.9 ** k for k in range(100)])

    def test_only_checked_on_window_boundaries(self):
        assert not _stalled([1.0] * 99)

    def test_a_solve_that_cannot_meet_tol_stops_on_a_stall(self, monkeypatch):
        # with TOL = 0 no stage converges, so only the stall rule ends a stage early
        monkeypatch.setattr(dbar, "TOL", 0.0)
        sol = picard_solve(DbarProblem(unit(17), b=0.01))
        assert not sol.converged
        assert sol.iterations < dbar.CONTINUATION_STEPS * dbar.MAX_ITER
        assert sol.iterations % dbar.STALL_WINDOW == 0


class TestRescale:
    def test_identity(self):
        spec = unit(65)
        f = profile_exact(-0.2, spec)
        F = rescale_solution(f)
        assert np.max(np.abs((F.values - f.values)[F.mask])) == 0.0
        assert np.array_equal(F.values, f.values) and np.array_equal(F.mask, f.mask)
        assert F.margin == f.margin

    def test_profile_from_double_disc(self):
        f2 = profile_exact(0.0, make_grid(2.0, 65))
        F = rescale_solution(f2)
        ref = profile_exact(0.0, F.spec)
        assert np.max(np.abs((F.values - ref.values)[F.mask])) == 0.0
        res = residual_dbar(F).max()
        assert res == pytest.approx(F.spec.spacing / 4, rel=1e-12)

    def test_profile_from_half_disc(self):
        fh = profile_exact(0.0, make_grid(0.5, 65))
        F = rescale_solution(fh)
        ref = profile_exact(0.0, F.spec)
        assert np.max(np.abs((F.values - ref.values)[F.mask])) == 0.0

    @pytest.mark.parametrize("n", [33, 65])
    def test_relabel_is_exact(self, n):
        # source and unit grids share node indices, so F = f / r^2 bit for bit
        rng = np.random.default_rng(n)
        for r in default_radii():
            spec = make_grid(r, n)
            vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            f = ComplexField(spec, vals, 2.0 * spec.spacing)
            F = rescale_solution(f)
            assert F.spec == make_grid(1.0, n)
            assert np.array_equal(F.mask, f.mask)
            assert F.margin == f.margin / spec.radius
            assert np.array_equal(F.values, f.values / spec.radius**2)

    # every default radius at N=33; at N=65 the three radii whose disc mask
    # drops its on-circle nodes, and the unit disc
    @pytest.mark.parametrize("n, radii", [
        (33, default_radii()),
        (65, [default_radii()[i] for i in (2, 7, 12)] + [1.0]),
    ], ids=["33", "65"])
    def test_record_keeps_the_gate_verdict(self, n, radii):
        # the dbar residual and the 5h gate both scale by 1/r under the relabel
        for r in radii:
            sol = picard_solve(DbarProblem(make_grid(r, n), b=0.01 * r * r))
            rec = rescaled_solution_record(sol)
            ratio = sol.residual_sup / sol.residual_gate
            assert rec.residual_sup / rec.residual_gate == pytest.approx(ratio, rel=1e-13, abs=0.0), r
            assert rec.certified is sol.certified, r


class TestQuarterTurn:
    # if f solves the equation with f(0) = b, then i f(iz) solves it with
    # anchor i b; on the grid, iz at node (i, j) is node (j, n - 1 - i), so the
    # turned field is 1j * np.rot90(f) and the disc mask must map onto itself
    @pytest.mark.parametrize("radius", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.05, 0.001])
    def test_turned_anchor_gives_the_turned_solve(self, radius, b):
        self._check(make_grid(radius, 33), b)

    @pytest.mark.parametrize("b, radius", [
        *((b, 1.0) for b in DEFAULT_B_SWEEP), (0.05, 0.25), (0.05, 0.5),
    ], ids=[*map(str, DEFAULT_B_SWEEP), "0.05-r0.25", "0.05-r0.5"])
    def test_turned_anchor_at_the_scan_resolution(self, b, radius):
        # the default kr-scan's anchors on its grid: the sweep keeps b and
        # drops i*b, which this shows would repeat it; the smaller radii
        # cover a gate-missing solve (0.25) and a sup-violating one (0.5)
        self._check(make_grid(radius, DEFAULT_RESOLUTION), b)

    @staticmethod
    def _check(spec, b):
        sol = picard_solve(DbarProblem(spec, b=b))
        turned = picard_solve(DbarProblem(spec, b=1j * b))
        err = np.max(np.abs(turned.f.values - 1j * np.rot90(sol.f.values)))
        assert err <= 1e-14 * sol.sup_f
        assert turned.iterations == sol.iterations
        assert turned.certified == sol.certified


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
        want, got = sol.to_json_dict(), back.to_json_dict()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key
        assert got["final_update"] is not None

    @staticmethod
    def _saved_with(tmp_path, **edits):
        """Save an N=33 solve, overwrite keys of its record, and return the record path."""
        sol = picard_solve(DbarProblem(unit(33), b=0.05))
        paths = sol.save(tmp_path)
        with open(paths["json"]) as fh:
            record = json.load(fh)
        record.update(edits)
        with open(paths["json"], "w") as fh:
            json.dump(record, fh)
        return paths["json"]

    @pytest.mark.parametrize("value", ["1e-9", True, [1e-9], {"x": 1e-9}])
    def test_final_update_type_checked(self, tmp_path, value):
        with pytest.raises(ValueError, match="final_update"):
            load_solution(self._saved_with(tmp_path, final_update=value))

    @pytest.mark.parametrize("key, value", [
        ("converged", "false"), ("converged", 0), ("converged", None),
        ("residual_sup", "1e-9"), ("residual_sup", True),
        ("sup_f", "0.5"), ("sup_f", False),
        ("iterations", 2.7), ("iterations", 2.0), ("iterations", True), ("iterations", "2"),
    ])
    def test_scalars_type_checked(self, tmp_path, key, value):
        # bool(), float() and int() would read every one of these as a valid scalar
        with pytest.raises(ValueError, match=key):
            load_solution(self._saved_with(tmp_path, **{key: value}))

    @pytest.mark.parametrize("version", [None, 0, 2, "1", True, 1.0])
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


# Every malformed input must surface as one of the errors the certify command
# turns into a bad-config exit; anything else escapes as a traceback.
LOAD_ERRORS = (ValueError, KeyError, OSError)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
_DELETE = object()


@pytest.fixture(scope="module")
def saved_record(tmp_path_factory):
    d = tmp_path_factory.mktemp("record")
    f = profile_exact(-0.5, unit(17))
    sol = DbarSolution(f, True, 3, None)
    paths = sol.save(d)
    with open(paths["json"]) as fh:
        return d, json.load(fh)


def _load_or_reject(path):
    try:
        load_solution(path)
    except LOAD_ERRORS:
        pass


class TestLoadSolutionFuzz:
    def test_saved_record_loads(self, saved_record):
        d, _ = saved_record
        assert load_solution(d / "solution.json").iterations == 3

    @pytest.mark.parametrize("key, value", [
        ("radius", "1.0"), ("radius", True), ("b", [True, False]), ("b", ["0.25", "0"]),
    ])
    def test_problem_numbers_type_checked(self, saved_record, key, value):
        # float() would read each of these as a valid radius or anchor
        d, record = saved_record
        record = json.loads(json.dumps(record))
        record["problem"][key] = value
        path = d / "tampered.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="must be a number|must hold two numbers"):
            load_solution(path)

    @pytest.mark.parametrize("converged", [True, False])
    def test_anchor_checked_against_field(self, saved_record, converged):
        # the field's f(0) is 0.25; an anchor one float away is refused either way
        d, record = saved_record
        record = json.loads(json.dumps(record))
        record["converged"] = converged
        record["problem"]["b"] = [float(np.nextafter(0.25, 1.0)), 0.0]
        path = d / "anchor.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="anchor"):
            load_solution(path)

    @settings(max_examples=150, deadline=None)
    @given(value=JSON_VALUES)
    def test_whole_record(self, saved_record, value):
        d, _ = saved_record
        path = d / "whole.json"
        path.write_text(json.dumps(value))
        _load_or_reject(path)

    @settings(max_examples=200, deadline=None)
    @given(
        where=st.sampled_from(["top", "problem"]),
        key=st.sampled_from(
            ["schema_version", "problem", "field", "residual_sup", "sup_f", "converged",
             "iterations", "radius", "resolution", "b"]
        ),
        value=JSON_VALUES | st.just(_DELETE),
    )
    def test_mutated_key(self, saved_record, where, key, value):
        d, record = saved_record
        record = json.loads(json.dumps(record))
        target = record if where == "top" else record["problem"]
        if value is _DELETE:
            target.pop(key, None)
        else:
            target[key] = value
        path = d / "mutated.json"
        path.write_text(json.dumps(record))
        _load_or_reject(path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_raw_bytes(self, saved_record, data):
        d, _ = saved_record
        path = d / "raw.json"
        path.write_bytes(data)
        _load_or_reject(path)
