import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from dbarlab.cauchy import AGREEMENT_RTOL, CauchyTransform, cauchy_transform
from dbarlab.grid import ComplexField, RealField, make_grid, sup_norm, wirtinger_dzbar


def _random_field(spec, seed, mask=None):
    rng = np.random.default_rng(seed)
    n = spec.resolution
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexField(spec, vals, spec.default_margin(), mask)


def _assert_paths_agree(field):
    fast = cauchy_transform(field, method="fft").values
    direct = cauchy_transform(field, method="direct").values
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() <= AGREEMENT_RTOL * scale


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
    _assert_paths_agree(_random_field(make_grid(1.0, n), 42))


def _real_field(spec, seed, margin=None):
    # the solver's right side |f|^(1/2) is real and non-negative
    rng = np.random.default_rng(seed)
    n = spec.resolution
    margin = spec.default_margin() if margin is None else margin
    return RealField(spec, np.abs(rng.standard_normal((n, n))), margin)


def _assert_real_paths_agree(n, m, margin_cells):
    g = make_grid(1.0, n)
    u = _real_field(g, 5, margin_cells * g.spacing)
    assert CauchyTransform(g, u.mask)._m == m
    _assert_paths_agree(u)


# odd and even padded lengths exercise both rfft half-spectrum shapes
@pytest.mark.parametrize("n, m", [(17, 33), (37, 75), (33, 66), (65, 132)])
def test_paths_agree_real_input(n, m):
    # a mask that reaches the grid's edge pads to the full square
    _assert_real_paths_agree(n, m, 0.0)


@pytest.mark.parametrize("n, m", [(17, 30), (37, 70), (33, 63), (65, 125)])
def test_paths_agree_real_input_solver_margin(n, m):
    _assert_real_paths_agree(n, m, 2.0)


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


def test_transform_of_smooth_bump_is_smooth_scale():
    # sanity on magnitudes: |T g| <= 2 r sup|g| on the disc
    g = make_grid(1.0, 65)
    f = ComplexField.from_function(g, lambda z: np.exp(-4 * np.abs(z) ** 2))
    out = cauchy_transform(f)
    assert sup_norm(out) <= 2.0 * sup_norm(f) + 1e-12


# The padding follows the mask's reach, so a padded length one short of it
# would wrap the kernel tails back into the output window.


def _corner(row, col):
    def mask(g):
        out = np.zeros((g.resolution, g.resolution), dtype=bool)
        out[row, col] = True
        return out

    return mask


# masks on the N = 17 grid and the padded length the reach rule gives them;
# padding to 2R instead of 2R+1 gives 32 and 30 for the first two, and a reach
# taken only from the last row and column gives 32 for the part at the left
# edge and 1 for the top-left corner
GUARD_MASKS = {
    "full": (lambda g: np.ones((17, 17), dtype=bool), 33),
    "disc_margin_1": (lambda g: g.disc_mask(g.spacing), 32),
    # the disc's part with x >= 0.3 (x <= -0.3) reaches only the right (left) edge
    "disc_x_ge_0.3": (lambda g: g.disc_mask(0.0) & (g.mesh()[0] >= 0.3), 33),
    "disc_x_le_-0.3": (lambda g: g.disc_mask(0.0) & (g.mesh()[0] <= -0.3), 33),
    **{f"corner_{r}_{c}": (_corner(r, c), 33) for r in (0, 16) for c in (0, 16)},
}


@pytest.mark.parametrize("name", sorted(GUARD_MASKS))
def test_wraparound_guard(name):
    build, m = GUARD_MASKS[name]
    g = make_grid(1.0, 17)
    mask = build(g)
    assert CauchyTransform(g, mask)._m == m
    _assert_paths_agree(_random_field(g, 3, mask))


def test_empty_mask_gives_zero():
    g = make_grid(1.0, 17)
    out = CauchyTransform(g, np.zeros((17, 17), dtype=bool)).apply_values(np.ones((17, 17)))
    assert out.shape == (17, 17)
    assert not out.any()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_masks_agree(data):
    n = data.draw(st.sampled_from(range(17, 42, 2)), label="n")
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), label="rows"))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), label="cols"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    density = data.draw(st.floats(0.0, 1.0), label="density")
    rng = np.random.default_rng(seed)
    mask = np.zeros((n, n), dtype=bool)
    mask[r0 : r1 + 1, c0 : c1 + 1] = rng.random((r1 - r0 + 1, c1 - c0 + 1)) < density
    # pin the bounding box to rows r0..r1 and columns c0..c1
    mask[r0, c0] = mask[r1, c1] = True
    g = make_grid(1.0, n)
    m = CauchyTransform(g, mask)._m
    assert n <= m <= next_fast_len(2 * n - 1)
    _assert_paths_agree(_random_field(g, seed, mask))


@pytest.mark.parametrize("n, m", [(65, 125), (129, 256), (257, 512)])
def test_solver_disc_padded_size(n, m):
    g = make_grid(1.0, n)
    assert CauchyTransform(g, g.disc_mask(2 * g.spacing))._m == m
