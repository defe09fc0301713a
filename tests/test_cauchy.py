import numpy as np
import pytest
from scipy.fft import next_fast_len

from dbarlab.cauchy import AGREEMENT_RTOL, CauchyTransform, adjust_value_at_zero, cauchy_transform
from dbarlab.grid import ComplexField, RealField, make_grid, sup_norm, wirtinger_dzbar


def _random_field(spec, seed):
    rng = np.random.default_rng(seed)
    n = spec.resolution
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexField(spec, vals, spec.default_margin())


def test_zero_maps_to_zero():
    g = make_grid(1.0, 33)
    z = ComplexField.constant(g, 0.0)
    out = cauchy_transform(z)
    assert np.abs(out.values).max() == 0.0


def test_linearity():
    g = make_grid(1.0, 33)
    f1 = _random_field(g, 1)
    f2 = _random_field(g, 2)
    a = 0.7 - 0.3j
    lhs = cauchy_transform(f1.like(a * f1.values + f2.values))
    rhs = a * cauchy_transform(f1).values + cauchy_transform(f2).values
    scale = np.abs(rhs).max()
    assert np.abs(lhs.values - rhs).max() <= 1e-13 * scale


def test_indicator_transforms_to_conjugate():
    # classical identity: the transform of the disc indicator is zbar inside the disc
    g = make_grid(1.0, 129)
    chi = ComplexField.constant(g, 1.0)
    f = cauchy_transform(chi)
    zz = g.nodes()
    interior = np.abs(zz) <= 0.8
    err = np.abs(f.values - np.conj(zz))[chi.mask & interior].max()
    assert err <= 0.05


def test_right_inverse_first_order():
    errs = []
    for n in (65, 129):
        g = make_grid(1.0, n)
        chi = ComplexField.constant(g, 1.0)
        f = cauchy_transform(chi)
        d = wirtinger_dzbar(f)
        zz = g.nodes()
        inner = np.abs(zz) <= 0.7
        errs.append(np.abs(d.values - 1.0)[d.mask & inner].max())
    assert errs[1] < errs[0]
    assert errs[0] < 0.2


@pytest.mark.parametrize("n", [65, 129])
def test_paths_agree(n):
    g = make_grid(1.0, n)
    f = _random_field(g, 42)
    fast = cauchy_transform(f, method="fft")
    direct = cauchy_transform(f, method="direct")
    scale = np.abs(direct.values).max()
    assert np.abs(fast.values - direct.values).max() <= 1e-10 * scale


def _real_field(spec, seed):
    # the solver's right side |f|^(1/2) is real and non-negative
    rng = np.random.default_rng(seed)
    n = spec.resolution
    return RealField(spec, np.abs(rng.standard_normal((n, n))), spec.default_margin())


@pytest.mark.parametrize("n, m", [(17, 33), (37, 75), (33, 66), (65, 132)])
def test_paths_agree_real_input(n, m):
    # odd and even padded lengths exercise both rfft half-spectrum shapes
    g = make_grid(1.0, n)
    assert next_fast_len(2 * n - 1) == m
    u = _real_field(g, 5)
    fast = cauchy_transform(u, method="fft")
    direct = cauchy_transform(u, method="direct")
    scale = np.abs(direct.values).max()
    assert np.abs(fast.values - direct.values).max() <= AGREEMENT_RTOL * scale


def test_real_and_complex_input_identical():
    g = make_grid(1.0, 65)
    u = _real_field(g, 11)
    t = CauchyTransform(g, u.mask)
    assert np.array_equal(t.apply_values(u.values), t.apply_values(u.values + 0j))


def test_unknown_method_rejected():
    g = make_grid(1.0, 33)
    with pytest.raises(ValueError):
        cauchy_transform(ComplexField.constant(g, 1.0), method="typo")


def test_cached_transform_matches_function():
    g = make_grid(1.0, 65)
    f = _random_field(g, 7)
    t = CauchyTransform(g, f.mask)
    a = t.apply(f)
    b = cauchy_transform(f)
    assert np.array_equal(a.values, b.values)


def test_adjust_value_at_zero():
    g = make_grid(1.0, 33)
    f = _random_field(g, 3)
    b = 0.25 - 0.1j
    out = adjust_value_at_zero(f, b)
    assert out.at_origin() == b
    # idempotent once anchored
    again = adjust_value_at_zero(out, b)
    assert np.array_equal(again.values, out.values)


def test_adjust_keeps_dzbar():
    g = make_grid(1.0, 65)
    f = _random_field(g, 9)
    out = adjust_value_at_zero(f, 1.5 + 0.5j)
    d1 = wirtinger_dzbar(f)
    d2 = wirtinger_dzbar(out)
    assert np.abs(d1.values - d2.values)[d1.mask].max() <= 1e-12


def test_adjust_requires_masked_origin():
    g = make_grid(1.0, 33)
    f = ComplexField.constant(g, 1.0)
    ring = f.restrict(np.abs(g.nodes()) > 0.2)
    with pytest.raises(ValueError):
        adjust_value_at_zero(ring, 1.0)


def test_transform_of_smooth_bump_is_smooth_scale():
    # sanity on magnitudes: |T g| <= 2 r sup|g| on the disc
    g = make_grid(1.0, 65)
    f = ComplexField.from_function(g, lambda z: np.exp(-4 * np.abs(z) ** 2))
    out = cauchy_transform(f)
    assert sup_norm(out) <= 2.0 * sup_norm(f) + 1e-12
