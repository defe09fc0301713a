"""Branch extraction against a node-by-node oracle.

grid.polar_decompose is the package's one unwrap: it returns the polar form
of a field on the 4-connected component of its mask at the basepoint, the
nodes the unwrap reaches.  sqrt_branch is polar_decompose of h restricted to
{|h| > delta0}, with no separate labelling.  The functions below are the
loop versions, kept here only as the oracle: flood-fill the component, then
unwrap node by node.  Every output must match them bit for bit, including on
masks where the breadth-first fallback fires; polar_decompose and
sqrt_branch return arrays on a window of the grid, which the comparisons
scatter into N x N with the fill the oracles use off the component.  The
last tests pin that an identity chain unwraps once, through
polar_decompose, and that eq_chain_check, which reads the polar form of a
sqrt_branch result, still sees a relative error of 1e-9 in it.
"""

import json
from collections import deque
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from dbarlab import certify, cli, grid
from dbarlab.certify import eq_chain_check, sqrt_branch
from dbarlab.dbar import DbarProblem, picard_solve, profile_exact
from dbarlab.grid import (
    UNWRAP_TOL,
    ComplexField,
    MaskError,
    PhaseUnwrapError,
    VanishingFieldError,
    basepoint_node,
    make_grid,
    polar_decompose,
    save_field,
)

SIZES = (17, 33, 65)


def _principal(delta):
    return (delta + np.pi) % (2.0 * np.pi) - np.pi


def loop_component(mask, node):
    """The 4-connected component of mask at node, by a 4-neighbour flood fill."""
    n_rows, n_cols = mask.shape
    comp = np.zeros_like(mask)
    comp[node] = True
    queue = deque([node])
    while queue:
        i, j = queue.popleft()
        for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= a < n_rows and 0 <= b < n_cols and mask[a, b] and not comp[a, b]:
                comp[a, b] = True
                queue.append((a, b))
    return comp


def loop_polar(g, basepoint):
    """Oracle polar_decompose; also returns how many nodes the fallback filled."""
    spec = g.spec
    n = spec.resolution
    h = spec.spacing
    c = spec.center
    bp = complex(basepoint)
    bj = int(round(bp.real / h)) + c
    bi = int(round(bp.imag / h)) + c
    if not (0 <= bi < n and 0 <= bj < n) or not g.mask[bi, bj]:
        raise ValueError("basepoint is not a masked grid node")
    mask = loop_component(g.mask, (bi, bj))
    rho_vals = np.abs(g.values)
    if np.min(rho_vals[mask]) <= 0.0:
        raise VanishingFieldError("field vanishes on its component")

    raw = np.angle(g.values)
    phi = np.full((n, n), np.nan)
    phi[bi, bj] = raw[bi, bj]
    for j in range(bj + 1, n):
        if not mask[bi, j]:
            break
        phi[bi, j] = phi[bi, j - 1] + _principal(raw[bi, j] - raw[bi, j - 1])
    for j in range(bj - 1, -1, -1):
        if not mask[bi, j]:
            break
        phi[bi, j] = phi[bi, j + 1] + _principal(raw[bi, j] - raw[bi, j + 1])
    for j in range(n):
        if np.isnan(phi[bi, j]):
            continue
        for i in range(bi + 1, n):
            if not mask[i, j]:
                break
            phi[i, j] = phi[i - 1, j] + _principal(raw[i, j] - raw[i - 1, j])
        for i in range(bi - 1, -1, -1):
            if not mask[i, j]:
                break
            phi[i, j] = phi[i + 1, j] + _principal(raw[i, j] - raw[i + 1, j])

    filled = 0
    queue = deque(map(tuple, np.argwhere(mask & ~np.isnan(phi))))
    while queue:
        i, j = queue.popleft()
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            a, b = i + di, j + dj
            if 0 <= a < n and 0 <= b < n and mask[a, b] and np.isnan(phi[a, b]):
                phi[a, b] = phi[i, j] + _principal(raw[a, b] - raw[i, j])
                filled += 1
                queue.append((a, b))

    worst = 0.0
    for a, r, m in ((phi, raw, mask), (phi.T, raw.T, mask.T)):
        both = m[1:, :] & m[:-1, :]
        if both.any():
            d_unwrapped = (a[1:, :] - a[:-1, :])[both]
            d_principal = _principal((r[1:, :] - r[:-1, :])[both])
            worst = max(worst, float(np.max(np.abs(d_unwrapped - d_principal))))
    if worst > UNWRAP_TOL:
        raise PhaseUnwrapError("unwrap inconsistency")

    return (mask, np.where(mask, rho_vals, 1.0), np.where(mask, phi, 0.0)), filled


def loop_sqrt_branch(h, delta0, basepoint):
    """Oracle sqrt_branch: the oracle polar form of h on {|h| > delta0}."""
    spec = h.spec
    region = h.mask & (np.abs(h.values) > delta0)
    if basepoint_node(spec, basepoint, region) is None:
        raise MaskError("basepoint is not inside {|h| > delta0}")
    (comp, rho, phi), filled = loop_polar(h.restrict(region), basepoint)
    vals = np.sqrt(rho) * np.exp(0.5j * phi)
    return ComplexField(spec, vals, h.margin, comp), filled


def scatter(n, win, a, fill):
    """The window array a at its place win in an N x N array of fill."""
    out = np.full((n, n), fill, dtype=a.dtype)
    out[win] = a
    return out


def polar_on_grid(g, basepoint):
    """polar_decompose as N x N arrays: mask False, rho 1 and phi 0 off its window."""
    win, *arrays = polar_decompose(g, basepoint)
    n = g.spec.resolution
    return tuple(scatter(n, win, a, fill) for a, fill in zip(arrays, (False, 1.0, 0.0)))


def branch_on_grid(branch):
    """A sqrt_branch result on the whole grid: mask False, values 1, rho 1, phi 0 off its window."""
    n = branch.spec.resolution
    return replace(
        branch,
        win=(slice(0, n), slice(0, n)),
        mask=scatter(n, branch.win, branch.mask, False),
        values=scatter(n, branch.win, branch.values, 1.0),
        rho=scatter(n, branch.win, branch.rho, 1.0),
        phi=scatter(n, branch.win, branch.phi, 0.0),
    )


def assert_same_polar(got, want):
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def assert_same_field(got, want):
    assert np.array_equal(got.mask, want.mask)
    assert np.array_equal(got.values, want.values)


def winding_free(spec, a=1.7 + 2.3j, b=-0.9 + 4.1j):
    """exp of a non-holomorphic exponent: never zero, its argument wraps several times."""
    return ComplexField.from_function(spec, lambda z: np.exp(a * z + b * np.conj(z) + 3j * z.real * z.imag))


def c_shape(spec):
    """Annulus 0.35 <= |z| <= 0.9 with the wedge |arg z| < 0.6 removed."""
    z = spec.nodes()
    return (np.abs(z) >= 0.35) & (np.abs(z) <= 0.9) & (np.abs(np.angle(z)) >= 0.6)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("bp", [0j, 0.25 - 0.4j, -0.5 + 0.125j])
def test_disc_mask_matches_loops(n, bp):
    f = winding_free(make_grid(1.0, n))
    want, _ = loop_polar(f, bp)
    assert_same_polar(polar_on_grid(f, bp), want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kink", [-0.3, 0.2])
def test_half_disc_profile_matches_loops(n, kink):
    # off-axis basepoint: the row pass misses the right rim columns, so the fallback fires
    spec = make_grid(1.0, n)
    h = profile_exact(kink, spec)
    phase = np.exp(1j * (0.7 + 2.0 * spec.nodes().imag))
    h = ComplexField(spec, h.values * phase, h.margin, h.mask)
    bp = complex(kink + 0.3, 0.45)
    want, filled = loop_sqrt_branch(h, 1e-3, bp)
    assert filled > 0
    assert_same_field(branch_on_grid(sqrt_branch(h, basepoint=bp)), want)
    restricted = h.restrict(want.mask)
    assert_same_polar(polar_on_grid(restricted, bp), loop_polar(restricted, bp)[0])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("bp", [-0.5 + 0.5j, 0.5 + 0.5j, -0.625 + 0j])
def test_c_shaped_mask_matches_loops(n, bp):
    spec = make_grid(1.0, n)
    f = winding_free(spec).restrict(c_shape(spec))
    want, filled = loop_polar(f, bp)
    assert filled > 0
    assert_same_polar(polar_on_grid(f, bp), want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("bp", [0j, 0.625 + 0.125j])
def test_branch_keeps_only_the_basepoint_component(n, bp, monkeypatch):
    # |h| vanishes on x = +-0.4, splitting {|h| > delta0} into three strips
    spec = make_grid(1.0, n)
    X, _ = spec.mesh()
    h = winding_free(spec)
    h = ComplexField(spec, h.values / np.abs(h.values) * (X * X - 0.16) ** 2, h.margin, h.mask)
    delta0 = 2e-3
    monkeypatch.setattr(certify, "DELTA0_DEFAULT", delta0)
    want, _ = loop_sqrt_branch(h, delta0, bp)
    got = branch_on_grid(sqrt_branch(h, basepoint=bp))
    assert_same_field(got, want)
    region = h.mask & (np.abs(h.values) > delta0)
    assert got.mask.sum() < region.sum()
    assert not (got.mask & (X < -0.4)).any()


@pytest.mark.parametrize("n", SIZES)
def test_branch_components_are_four_connected(n):
    # two quadrants that meet only at a corner: 8-connectivity would join them
    spec = make_grid(1.0, n)
    X, Y = spec.mesh()
    h = winding_free(spec).restrict(((X >= 0) & (Y >= 0)) | ((X < 0) & (Y < 0)))
    bp = 0.25 + 0.25j
    want, _ = loop_sqrt_branch(h, 1e-3, bp)
    got = branch_on_grid(sqrt_branch(h, basepoint=bp))
    assert_same_field(got, want)
    assert not (got.mask & (X < 0)).any()


@pytest.mark.parametrize("n", SIZES)
def test_disconnected_mask_gives_the_basepoint_component(n):
    # the strip |x| <= 0.3 splits the disc mask in two; each basepoint gets its own half
    spec = make_grid(1.0, n)
    X, _ = spec.mesh()
    f = winding_free(spec).restrict(np.abs(X) > 0.3)
    for bp, side in ((0.5 + 0j, X > 0.3), (-0.5 + 0.25j, X < -0.3)):
        want, _ = loop_polar(f, bp)
        got = polar_on_grid(f, bp)
        assert_same_polar(got, want)
        assert np.array_equal(got[0], f.mask & side)


def test_basepoint_node():
    spec = make_grid(1.0, 17)
    full = np.ones((17, 17), dtype=bool)
    assert basepoint_node(spec, 0j, full) == (8, 8)
    assert basepoint_node(spec, 0.25 - 0.5j, full) == (4, 10)
    assert basepoint_node(spec, 1.0 + 1.0j, full) == (16, 16)
    assert basepoint_node(spec, 1.2 + 0j, full) is None
    assert basepoint_node(spec, 0j, ~full) is None


def split_with_zero(spec, z0=0.703125 + 0.015625j):
    """|h| vanishes on x = +-0.4 and at z0, which lies in the strip x > 0.4, between nodes."""
    X, _ = spec.mesh()
    z = spec.nodes()
    h = winding_free(spec)
    return ComplexField(spec, h.values / np.abs(h.values) * (z - z0) * (X * X - 0.16) ** 2,
                        h.margin, h.mask)


@pytest.mark.parametrize("n", SIZES)
def test_zero_in_another_component_is_ignored(n, monkeypatch):
    monkeypatch.setattr(certify, "DELTA0_DEFAULT", 2e-3)
    spec = make_grid(1.0, n)
    h = split_with_zero(spec)
    X, _ = spec.mesh()
    for bp in (0j, -0.625 + 0.125j):
        want, _ = loop_sqrt_branch(h, 2e-3, bp)
        got = branch_on_grid(sqrt_branch(h, basepoint=bp))
        assert_same_field(got, want)
        assert not (got.mask & (X > 0.4)).any()


@pytest.mark.parametrize("n", SIZES[1:])  # at N=17 the two-cell margin opens the hole to x = 0.4
def test_zero_in_the_basepoint_component_raises(n, monkeypatch):
    monkeypatch.setattr(certify, "DELTA0_DEFAULT", 2e-3)
    h = split_with_zero(make_grid(1.0, n))
    with pytest.raises(PhaseUnwrapError):
        sqrt_branch(h, basepoint=0.6875 - 0.25j)


def _solution_input(tmp_path):
    sol = picard_solve(DbarProblem(make_grid(1.0, 33), b=0.2 - 0.15j))
    return sol.save(tmp_path)["json"]


def _field_input(tmp_path):
    path = tmp_path / "p.f64"
    save_field(profile_exact(-0.25, make_grid(1.0, 33)), path)
    return str(path)


@pytest.mark.parametrize("make_input", [_solution_input, _field_input])
def test_identity_chain_unwraps_once(tmp_path, monkeypatch, make_input):
    # the one unwrap is grid._unwrap, and polar_decompose is its only caller
    calls = {"unwrap": 0, "polar": 0}
    unwrap, polar = grid._unwrap, certify.polar_decompose

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(grid, "_unwrap", counted("unwrap", unwrap))
    monkeypatch.setattr(certify, "polar_decompose", counted("polar", polar))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": make_input(tmp_path)}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    certs = json.loads((out / "certificates.json").read_text(encoding="utf-8"))["certificates"]
    assert certs["identity_chain"]["available"]
    assert calls == {"unwrap": 1, "polar": 1}


@lru_cache(maxsize=None)
def solved_257():
    return picard_solve(DbarProblem(make_grid(1.0, 257), b=0.2 - 0.15j)).f


@pytest.mark.parametrize("field, bp", [
    (solved_257, 0j),
    (solved_257, 0.25 - 0.375j),
    (lambda: profile_exact(0.25, make_grid(1.0, 257)), 0.5 + 0.125j),
    (lambda: profile_exact(-0.25, make_grid(1.0, 257)), -0.0625 - 0.125j),
], ids=["solve", "solve-off-centre", "kink+", "kink-"])
def test_rho_error_of_1e_9_is_caught(field, bp):
    # the fields certify runs on.  A rounding-level error d <= 2^-52 max rho
    # in the branch's rho moves the slack's 2 rho lap(rho), which reads rho
    # at five nodes with weights -4/h^2 and four times 1/h^2, by up to
    # 16 * 2^-52 * max rho^2 / h^2, about 7e-11 on the N = 257 solve; the
    # first-derivative terms move by O(d/h) and stay under 1e-12.  A relative
    # error of 1e-9 must move the report by more than that.
    branch = sqrt_branch(field(), basepoint=bp)
    want = eq_chain_check(branch)
    scaled = eq_chain_check(replace(branch, rho=branch.rho * (1 + 1e-9)))
    rho = branch.rho[branch.mask]
    h = branch.spec.spacing
    stencil = 1e-12 + 16 * 2.0**-52 * float(np.max(rho)) ** 2 / h**2
    lap = "laplacian_identity"
    assert max(abs(scaled.min_slack - want.min_slack),
               abs(scaled.details["violations"][lap] - want.details["violations"][lap])) > stencil
