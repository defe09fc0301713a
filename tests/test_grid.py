import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarlab.grid import (
    ComplexField,
    MaskError,
    PhaseUnwrapError,
    PolarField,
    RealField,
    VanishingFieldError,
    central_dx,
    central_dy,
    load_complex_field,
    make_grid,
    polar_decompose,
    save_field,
    sup_norm,
    wirtinger_dzbar,
)
from dbarlab.grid import _lap5


def test_make_grid_spacing():
    g = make_grid(1.0, 129)
    assert g.spacing == 2.0 / 128.0
    assert g.spacing * (g.resolution - 1) == 2.0 * g.radius
    g2 = make_grid(2.0, 65)
    assert g2.spacing == 0.0625


def test_make_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        make_grid(1.0, 128)
    with pytest.raises(ValueError):
        make_grid(1.0, 15)
    with pytest.raises(ValueError):
        make_grid(-1.0, 65)


@pytest.mark.parametrize("radius", [float("inf"), float("nan")])
def test_make_grid_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError):
        make_grid(radius, 33)


def test_loader_rejects_non_finite_radius(tmp_path):
    path = tmp_path / "inf.f64"
    path.write_bytes(struct.pack("<dId", float("inf"), 17, 0.0) + bytes(17 * 17 * 16))
    with pytest.raises(ValueError):
        load_complex_field(path)


@pytest.mark.parametrize("radius", [1e200, 1e155, 1.8e308])
def test_make_grid_rejects_radius_whose_square_overflows(radius):
    # x^2 + y^2 <= rr^2 would read inf <= inf and mask every node of the square
    with pytest.raises(ValueError):
        make_grid(radius, 17)


def test_large_radius_masks_the_unit_disc_nodes():
    # a power-of-two radius scales every coordinate exactly
    big, unit = make_grid(2.0**500, 17), make_grid(1.0, 17)
    assert np.array_equal(big.disc_mask(0.0), unit.disc_mask(0.0))
    assert int(unit.disc_mask(0.0).sum()) == 197


def test_loader_rejects_radius_whose_square_overflows(tmp_path):
    path = tmp_path / "huge.f64"
    path.write_bytes(struct.pack("<dId", 1e200, 17, 0.0) + bytes(17 * 17 * 16))
    with pytest.raises(ValueError):
        load_complex_field(path)


def test_origin_is_a_node():
    g = make_grid(1.0, 17)
    xs = g.coords()
    assert xs[g.center] == 0.0
    assert np.all(xs == -xs[::-1])


def test_mask_four_fold_symmetry():
    g = make_grid(1.3, 33)
    m = g.disc_mask(g.default_margin())
    assert np.array_equal(m, m[::-1, :])
    assert np.array_equal(m, m[:, ::-1])
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("n", [17, 33, 65, 129, 257])
def test_disc_mask_matches_meshgrid_formula(n):
    for radius in (0.25, 0.758, 1.0, 1.3, 2.0):
        g = make_grid(radius, n)
        X, Y = np.meshgrid(g.coords(), g.coords())
        for cells in (0, 1, 2, 3, 5):
            rr = radius - cells * g.spacing
            assert np.array_equal(g.disc_mask(cells * g.spacing), X * X + Y * Y <= rr * rr)


def test_disc_mask_keeps_on_circle_nodes():
    # at N=65 the two-cell disc has radius 30 cells; 30^2 + 0^2 = 18^2 + 24^2 = 30^2
    g = make_grid(1.0, 65)
    m = g.disc_mask(g.default_margin())
    c = g.center
    for dx, dy in ((30, 0), (0, 30), (18, 24), (24, 18), (-18, -24)):
        assert m[c + dy, c + dx]
    for dx, dy in ((31, 0), (18, 25), (19, 24)):
        assert not m[c + dy, c + dx]


def test_field_rejects_nan_on_mask():
    g = make_grid(1.0, 17)
    vals = np.zeros((17, 17), dtype=complex)
    vals[g.center, g.center] = np.nan
    with pytest.raises(ValueError):
        ComplexField(g, vals, 0.0)


def test_field_allows_garbage_off_mask():
    g = make_grid(1.0, 17)
    vals = np.zeros((17, 17), dtype=complex)
    vals[0, 0] = np.inf  # corner node is outside every disc mask
    f = ComplexField(g, vals, g.default_margin())
    assert sup_norm(f) == 0.0


def test_fields_immutable():
    g = make_grid(1.0, 17)
    f = ComplexField.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_wirtinger_on_conjugate_and_identity():
    g = make_grid(1.0, 33)
    zbar = ComplexField.from_function(g, np.conj)
    d = wirtinger_dzbar(zbar)
    assert np.max(np.abs(d.values[d.mask] - 1.0)) == 0.0
    ident = ComplexField.from_function(g, lambda z: z)
    d2 = wirtinger_dzbar(ident)
    assert np.max(np.abs(d2.values[d2.mask])) == 0.0


def test_wirtinger_quadratic_exact():
    g = make_grid(1.0, 33)
    f = ComplexField.from_function(g, lambda z: np.conj(z) ** 2)
    d = wirtinger_dzbar(f)
    zb = np.conj(g.nodes())
    err = np.abs(d.values - 2.0 * zb)[d.mask].max()
    assert err < 1e-13


def test_wirtinger_second_order_refinement():
    # oracle: d/dzbar of sin(x)cos(y) + i x y is (cos x cos y - x)/2 + i (y - sin x sin y)/2
    def f(z):
        return np.sin(z.real) * np.cos(z.imag) + 1j * z.real * z.imag

    def exact(z):
        x, y = z.real, z.imag
        return 0.5 * (np.cos(x) * np.cos(y) - x) + 0.5j * (y - np.sin(x) * np.sin(y))

    errs = []
    for n in (65, 129):
        g = make_grid(1.0, n)
        d = wirtinger_dzbar(ComplexField.from_function(g, f))
        errs.append(np.abs(d.values - exact(g.nodes()))[d.mask].max())
    ratio = errs[1] / errs[0]
    assert 0.8 * 0.25 <= ratio <= 1.2 * 0.25


def _stencil_interior(g):
    """Nodes one spacing inside the default disc: every stencil there reads masked nodes."""
    return g.disc_mask(g.default_margin() + g.spacing)


def test_laplacian_quadratic_exact():
    g = make_grid(1.0, 33)
    X, Y = g.mesh()
    inner = _stencil_interior(g)
    L = _lap5(X * X + Y * Y, g.spacing)
    assert np.abs(L[inner] - 4.0).max() < 1e-11
    Lv = _lap5(X * X - Y * Y, g.spacing)
    assert np.abs(Lv[inner]).max() < 1e-11


def test_laplacian_second_order_refinement():
    # oracle: Laplacian of (x+2)^(3/2) is (3/4)(x+2)^(-1/2)
    errs = []
    for n in (65, 129):
        g = make_grid(1.0, n)
        X, _ = g.mesh()
        L = _lap5((X + 2.0) ** 1.5, g.spacing)
        exact = 0.75 / np.sqrt(X + 2.0)
        errs.append(np.abs(L - exact)[_stencil_interior(g)].max())
    assert errs[0] < 1e-4
    ratio = errs[1] / errs[0]
    assert 0.8 * 0.25 <= ratio <= 1.2 * 0.25


def test_stencil_needs_thick_mask():
    g = make_grid(1.0, 17)
    f = ComplexField(g, np.ones((17, 17), dtype=complex), 0.99)
    with pytest.raises(MaskError):
        wirtinger_dzbar(f)


def test_central_derivatives_linear_exact():
    g = make_grid(2.0, 65)
    u = RealField.from_function(g, lambda x, y: 3.0 * x - 2.0 * y)
    dx = central_dx(u)
    dy = central_dy(u)
    assert np.abs(dx.values[dx.mask] - 3.0).max() == 0.0
    assert np.abs(dy.values[dy.mask] + 2.0).max() == 0.0


def test_sup_norm_examples():
    g = make_grid(1.0, 65)
    f = ComplexField.from_function(g, lambda z: z)
    s = sup_norm(f)
    # largest masked |z| sits within one spacing of radius - margin
    assert 1.0 - g.default_margin() - g.spacing <= s <= 1.0 - g.default_margin() + 1e-12
    # independent oracle: brute scan over nodes
    zz = g.nodes()
    brute = max(abs(zz[i, j]) for i, j in np.argwhere(f.mask))
    assert s == brute


def test_polar_constant_and_vertical_phase():
    g = make_grid(1.0, 33)
    c = ComplexField.constant(g, -2.0 + 0j)
    p = polar_decompose(c)
    assert np.allclose(p.rho.values[p.rho.mask], 2.0)
    assert np.allclose(p.phi.values[p.phi.mask], np.pi)

    e = ComplexField.from_function(g, lambda z: np.exp(1j * z.imag))
    pe = polar_decompose(e)
    _, Y = g.mesh()
    assert np.abs(pe.phi.values - Y)[pe.phi.mask].max() < 1e-9
    assert np.abs(pe.rho.values - 1.0)[pe.rho.mask].max() < 1e-12


def test_polar_rejects_zero_on_mask():
    g = make_grid(1.0, 33)
    f = ComplexField.from_function(g, lambda z: z)
    with pytest.raises(VanishingFieldError):
        polar_decompose(f)


def test_polar_detects_enclosed_zero():
    g = make_grid(1.0, 33)
    z0 = 0.31 + 0.17j  # off-node zero inside the disc
    f = ComplexField.from_function(g, lambda z: z - z0)
    with pytest.raises(PhaseUnwrapError):
        polar_decompose(f)


def test_polar_basepoint_must_be_masked():
    g = make_grid(1.0, 33)
    c = ComplexField.constant(g, 1.0)
    with pytest.raises(ValueError):
        polar_decompose(c, basepoint=5.0 + 0j)


@settings(max_examples=25, deadline=None)
@given(
    ar=st.floats(-0.5, 0.5),
    ai=st.floats(-0.5, 0.5),
    br=st.floats(-0.5, 0.5),
    bi=st.floats(-0.5, 0.5),
)
def test_polar_reconstruct_roundtrip(ar, ai, br, bi):
    # exp of anything never vanishes, so every sample admits a branch
    g = make_grid(1.0, 17)
    a = ar + 1j * ai
    b = br + 1j * bi
    f = ComplexField.from_function(g, lambda z: np.exp(a * z + b * np.conj(z)))
    p = polar_decompose(f)
    r = p.rho.values * np.exp(1j * p.phi.values)
    err = np.abs(r - f.values)[f.mask].max()
    assert err <= 1e-12


def test_binary_roundtrip(tmp_path):
    g = make_grid(1.5, 33)
    # a negative real value with a -0.0 imaginary part has argument -pi, not +pi
    negative = ComplexField.constant(g, complex(-1.0, -0.0))
    for f in (ComplexField.from_function(g, lambda z: z * z - 0.7j), negative):
        path = tmp_path / "field.f64"
        save_field(f, path)
        back = load_complex_field(path)
        assert back.spec == f.spec
        assert back.margin == f.margin
        assert np.array_equal(back.mask, f.mask)
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(np.signbit(back.values.imag), np.signbit(f.values.imag))
    assert np.all(np.angle(back.values) == -np.pi)


def test_binary_roundtrip_real(tmp_path):
    g = make_grid(1.0, 17)
    u = RealField.from_function(g, lambda x, y: x - y)
    path = tmp_path / "u.f64"
    save_field(u, path)
    back = load_complex_field(path)
    assert np.array_equal(back.values.real, u.values)
    assert not back.values.imag.any()


def test_restricted_mask_refuses_to_serialize(tmp_path):
    g = make_grid(1.0, 17)
    f = ComplexField.constant(g, 1.0)
    r = f.restrict(g.mesh()[0] > 0)
    with pytest.raises(ValueError):
        save_field(r, tmp_path / "r.f64")


def test_polar_field_requires_positive_rho():
    g = make_grid(1.0, 17)
    rho = RealField.constant(g, 0.0)
    phi = RealField.constant(g, 0.0)
    with pytest.raises(VanishingFieldError):
        PolarField(rho, phi)


# Every malformed .f64 file must surface as an error the certify command turns
# into a bad-config exit; anything else escapes as a traceback.
LOAD_ERRORS = (ValueError, OSError)

HEADER_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, -0.0, 0.0])


@pytest.fixture(scope="module")
def field_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("field") / "f.f64"
    save_field(ComplexField.from_function(make_grid(1.0, 17), lambda z: z - 0.3j), path)
    return path.read_bytes()


def _load_or_reject(path):
    try:
        load_complex_field(path)
    except LOAD_ERRORS:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=256))
def test_loader_fuzz_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "arbitrary.f64"
    path.write_bytes(data)
    _load_or_reject(path)


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(0, 17 * 17 * 16 + 19))
def test_loader_fuzz_truncated(tmp_path_factory, field_bytes, cut):
    path = tmp_path_factory.getbasetemp() / "truncated.f64"
    path.write_bytes(field_bytes[:cut])
    with pytest.raises(ValueError):
        load_complex_field(path)


# a RuntimeWarning (overflow, invalid) means a bad header got past validation
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    radius=HEADER_FLOATS,
    margin=HEADER_FLOATS,
    n=st.integers(0, 41) | st.integers(0, 2**32 - 1),
    fill=st.sampled_from([0.0, 1.0, float("nan"), float("inf")]),
)
def test_loader_fuzz_header(tmp_path_factory, radius, margin, n, fill):
    # the payload fits the header whenever n is small, so validation past the length check runs
    body = struct.pack("<d", fill) * (2 * n * n) if n <= 41 else bytes(17 * 17 * 16)
    path = tmp_path_factory.getbasetemp() / "header.f64"
    path.write_bytes(struct.pack("<dId", radius, n, margin) + body)
    _load_or_reject(path)
