import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from dbarlab import cauchy
from dbarlab.cauchy import (
    AGREEMENT_RTOL,
    CauchyTransform,
    _next_fast_len,
    cauchy_transform_direct,
)
from dbarlab.dbar import DbarProblem, picard_solve
from dbarlab.grid import ComplexField, RealField, _dzbar, _shrunk, make_grid, sup_norm


def _random_field(spec, seed, mask=None):
    rng = np.random.default_rng(seed)
    n = spec.resolution
    return RealField(spec, rng.standard_normal((n, n)), spec.default_margin(), mask)


def _fast(field):
    # the FFT path on a fresh instance for the field's grid and mask
    return CauchyTransform(field.spec, field.mask).apply_values(field.values)


def _assert_paths_agree(field):
    fast = _fast(field)
    direct = cauchy_transform_direct(field).values
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() <= AGREEMENT_RTOL * scale


def test_zero_maps_to_zero():
    g = make_grid(1.0, 33)
    out = _fast(RealField.constant(g, 0.0))
    assert np.abs(out).max() == 0.0


def test_linearity():
    g = make_grid(1.0, 33)
    f1 = _random_field(g, 1)
    f2 = _random_field(g, 2)
    a = -0.7
    lhs = _fast(RealField(g, a * f1.values + f2.values, f1.margin, f1.mask))
    rhs = a * _fast(f1) + _fast(f2)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-13 * scale


def test_indicator_transforms_to_conjugate():
    # classical identity: the transform of the disc indicator is zbar inside the disc
    g = make_grid(1.0, 129)
    chi = RealField.constant(g, 1.0)
    f = _fast(chi)
    zz = g.nodes()
    interior = np.abs(zz) <= 0.8
    err = np.abs(f - np.conj(zz))[chi.mask & interior].max()
    assert err <= 0.05


def test_right_inverse_first_order():
    errs = []
    for n in (65, 129):
        g = make_grid(1.0, n)
        chi = RealField.constant(g, 1.0)
        d = _dzbar(_fast(chi), g.spacing)
        zz = g.nodes()
        inner = np.abs(zz) <= 0.7
        errs.append(np.abs(d - 1.0)[_shrunk(chi) & inner].max())
    assert errs[1] < errs[0]
    assert errs[0] < 0.2


def test_transform_reproduces_the_b_to_0_limit():
    # F0 = (4/9)|z| zbar has dF0/dzbar = (2/3)|z| = |F0|^(1/2), and on a centred
    # disc the transform of that radial right side is F0 exactly
    errs, spacings = [], []
    for n in (33, 65, 129):
        g = make_grid(1.0, n)
        z = g.nodes()
        f0 = ComplexField(g, 4.0 / 9.0 * np.abs(z) * np.conj(z), g.default_margin())
        t = _fast(RealField(g, np.sqrt(np.abs(f0.values)), f0.margin, f0.mask))
        errs.append(np.abs(t - f0.values)[f0.mask].max())
        spacings.append(g.spacing)
    # 0.28h, 0.31h and 0.33h
    assert all(e <= 0.4 * h for e, h in zip(errs, spacings)), errs
    # observed order 0.91 from N = 65 to 129
    assert np.log2(errs[1] / errs[2]) >= 0.8, errs


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


# the solver's own discs; N = 129 is the FFT-against-direct check at that size
@pytest.mark.parametrize("n, m", [(17, 30), (37, 70), (33, 63), (65, 125), (129, 256)])
def test_paths_agree_real_input_solver_margin(n, m):
    _assert_real_paths_agree(n, m, 2.0)


def test_complex_input_raises_type_error():
    # the transform takes the solver's real right side; the masked copy
    # refuses complex values
    g = make_grid(1.0, 33)
    u = _real_field(g, 11)
    t = CauchyTransform(g, u.mask)
    with pytest.raises(TypeError):
        t.apply_values(u.values + 0j)


def test_applies_return_independent_arrays():
    # the transform reuses its buffers across applies; the results must not
    # share them
    g = make_grid(1.0, 33)
    field = _real_field(g, 13)
    t = CauchyTransform(g, field.mask)
    u = field.values
    first = t.apply_values(u)
    kept = first.copy()
    second = t.apply_values(2.0 * u)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, 2.0 * kept)
    assert np.array_equal(t.apply_values(u), kept)


def test_solver_applies_the_public_transform_once_per_iteration(monkeypatch):
    # a tracer that counts CauchyTransform.apply_values must see one apply per
    # Picard iteration and one set-up per solve
    calls = {"init": 0, "apply": 0}
    init, apply_values = CauchyTransform.__init__, CauchyTransform.apply_values

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_apply(self, values):
        calls["apply"] += 1
        return apply_values(self, values)

    monkeypatch.setattr(CauchyTransform, "__init__", counted_init)
    monkeypatch.setattr(CauchyTransform, "apply_values", counted_apply)
    sol = picard_solve(DbarProblem(make_grid(1.0, 33), b=0.05 + 0.02j))
    assert sol.iterations > 0
    assert calls == {"init": 1, "apply": sol.iterations}


def _block_rows(monkeypatch, n, rows):
    # a byte budget of rows product rows on the solver's disc, whose reach is n - 3
    m = _next_fast_len(2 * (n - 3) + 1)
    monkeypatch.setattr(cauchy, "BLOCK_BYTES", rows * m * np.dtype(np.complex128).itemsize)


def _kept_bytes(t):
    # the arrays an instance keeps, each block of memory once: scratch is a
    # view of the product buffer
    arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays if a.base is None)


# numpy's ufunc buffer (8192 elements, 128 KiB), which the copy and the
# conjugate into the packed spectrum take, plus 64 KiB for FFT work rows
APPLY_SLACK_BYTES = 192 << 10


def test_solver_peak_memory_is_the_transform_one_spectrum_and_f(monkeypatch):
    # besides the transform, an iteration needs f and the m x N spectrum the
    # apply allocates and hands back; the right side and |theta d| go through
    # the transform's scratch.  A real N x N right side of the solver's own
    # adds 133 kB, and a step copied out of the spectrum 266 kB, past the
    # slack.  The second pass sends the lower spectrum half through eight
    # blocks.
    spec = make_grid(1.0, 129)
    n = spec.resolution
    field = n * n * np.dtype(np.complex128).itemsize
    for blocks in (1, 8):
        if blocks > 1:
            _block_rows(monkeypatch, n, 16)
        t = CauchyTransform(spec, spec.disc_mask(spec.default_margin()))
        assert len(t._blocks) == blocks
        assert np.shares_memory(t.scratch, t._products)
        # the packed spectrum belongs to an apply, not to the instance
        assert all(v.shape != (t._m, n) for v in vars(t).values() if isinstance(v, np.ndarray))
        spectrum = t._m * field // n
        own = _kept_bytes(t)
        del t
        tracemalloc.start()
        try:
            sol = picard_solve(DbarProblem(spec, b=0.05 + 0.02j))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak <= own + spectrum + field + APPLY_SLACK_BYTES


# (n, rows per block) -> the rows of each block of the lower spectrum half
BLOCK_LAYOUTS = {
    (33, None): [31],
    (33, 8): [8, 8, 8, 7],
    (33, 1): [1] * 31,
    (65, None): [62],
    (65, 31): [31, 31],
    (65, 20): [20, 20, 20, 2],
    (65, 1): [1] * 62,
}


@pytest.mark.parametrize("n, rows", sorted(BLOCK_LAYOUTS, key=str))
def test_block_layouts_match_direct_sum(monkeypatch, n, rows):
    if rows is not None:
        _block_rows(monkeypatch, n, rows)
    g = make_grid(1.0, n)
    u = _real_field(g, 5)
    t = CauchyTransform(g, u.mask)
    assert [hi - lo for lo, hi in t._blocks] == BLOCK_LAYOUTS[n, rows]
    direct = cauchy_transform_direct(u).values
    assert np.abs(t.apply_values(u.values) - direct).max() <= 1e-14 * np.abs(direct).max()


def test_block_layout_keeps_the_solve(monkeypatch):
    problem = DbarProblem(make_grid(1.0, 65), b=0.05 + 0.02j)
    one = picard_solve(problem)
    _block_rows(monkeypatch, 65, 20)
    several = picard_solve(problem)
    assert several.iterations == one.iterations
    assert several.sup_f == pytest.approx(one.sup_f, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [33, 65])
def test_lower_kernel_half_is_minus_conjugate_of_upper(n):
    # K- built as before the halving, with both FFTs here: the spectrum of
    # Re k - i Im k on the wrapped offsets the solver's disc reaches
    g = make_grid(1.0, n)
    t = CauchyTransform(g, g.disc_mask(g.default_margin()))
    m, reach, h = t._m, n - 3, g.spacing
    idx = np.arange(m)
    off = np.where(idx <= reach, idx, idx - m)
    live = np.abs(off) <= reach
    x, y = np.meshgrid(off * h, off * h)
    r2 = x * x + y * y
    keep = (r2 != 0) & live[:, np.newaxis] & live[np.newaxis, :]
    r2[~keep] = 1.0
    re_k, im_k = np.where(keep, x / r2, 0.0), np.where(keep, -y / r2, 0.0)
    s_re, s_im = (np.fft.fft(np.fft.rfft(a, axis=0), axis=1) for a in (re_k, im_k))
    minus = (s_re - 1j * s_im)[1 : m - m // 2] * (h * h / (np.pi * m * m))
    assert len(t._blocks) == 1
    parity = -np.conjugate(t._kernel[1 : m - m // 2])
    assert np.abs(parity - minus).max() <= 1e-15 * np.abs(minus).max()


def test_transform_at_257_caches_half_the_kernel():
    g = make_grid(1.0, 257)
    t = CauchyTransform(g, g.disc_mask(g.default_margin()))
    m = t._m
    arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray) and v.ndim == 2]
    assert all(a.shape != (m, m) for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 8.5e6


def test_transform_set_up_peak_is_its_arrays_and_one_strip():
    # the first build also fills numpy's FFT plan cache for m = 512
    g = make_grid(1.0, 257)
    mask = g.disc_mask(g.default_margin())
    CauchyTransform(g, mask)
    tracemalloc.start()
    try:
        t = CauchyTransform(g, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = _kept_bytes(t) - mask.nbytes
    assert own <= 4.8e6
    # a strip's r2 and part take BLOCK_BYTES; its boolean arrays and the
    # rfft's work rows take well under half that again
    assert peak <= own + 1.5 * cauchy.BLOCK_BYTES


# n -> the strip widths of a build that takes one column at a time, one with
# an uneven last strip, and one that takes the whole width
STRIP_LAYOUTS = {33: (1, 10, 63), 65: (1, 7, 125)}


@pytest.mark.parametrize("n", sorted(STRIP_LAYOUTS))
def test_kernel_strips_give_the_same_kernel(monkeypatch, n):
    m, reach, h = _next_fast_len(2 * (n - 3) + 1), n - 3, make_grid(1.0, n).spacing
    rfft = np.fft.rfft
    kernels = []
    for width in STRIP_LAYOUTS[n]:
        monkeypatch.setattr(cauchy, "BLOCK_BYTES", 2 * m * width * np.dtype(np.float64).itemsize)
        widths = []

        def counted(a, *args, **kwargs):
            widths.append(a.shape[1])
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        kernels.append(cauchy._kernel_half(m, reach, h, np.empty((m // 2 + 1, m), dtype=np.complex128)))
        monkeypatch.setattr(np.fft, "rfft", rfft)
        strips = [width] * (m // width) + ([m % width] if m % width else [])
        # two rffts per strip: Im k's, then Re k's
        assert widths == [w for w in strips for _ in range(2)]
    assert all(np.array_equal(kernels[0], k) for k in kernels[1:])


def test_next_fast_len_matches_scipy():
    assert [_next_fast_len(k) for k in range(1, 4097)] == [next_fast_len(k) for k in range(1, 4097)]


def test_cached_transform_matches_function():
    g = make_grid(1.0, 65)
    f = _random_field(g, 7)
    t = CauchyTransform(g, f.mask)
    # an instance that has applied other values gives the fresh instance's bits
    t.apply_values(_random_field(g, 8).values)
    assert np.array_equal(t.apply_values(f.values), _fast(f))


def test_transform_of_smooth_bump_is_smooth_scale():
    # sanity on magnitudes: |T g| <= 2 r sup|g| on the disc
    g = make_grid(1.0, 65)
    f = RealField.from_function(g, lambda x, y: np.exp(-4 * (x * x + y * y)), g.default_margin())
    out = _fast(f)
    assert np.abs(out[f.mask]).max() <= 2.0 * sup_norm(f) + 1e-12


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
