"""Windowed certificates against their full-grid forms.

polar_decompose, sqrt_branch and the certificate checks compute only on the
bounding box of the nodes they read (plus a one-node stencil halo), and the
unwrap takes each forward principal increment once.  The functions below are
the full-grid versions they replaced, kept here only as the oracle: every
report must serialize to the same bytes, and every phase, modulus, mask and
branch array, scattered from its window into N x N, must hold the same
bits.  The identity chain is compared on the branch each side builds, and
on the oracle's branch, a branch whose window is the whole grid.
"""

import json
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarlab import certify
from dbarlab.certify import (
    DELTA0_DEFAULT,
    FD_TOLERANCE,
    KAPPA_DEFAULT,
    STANDOFF_CELLS,
    SUP_FLOOR,
    WITNESS_RTOL,
    CertificateReport,
    _Branch,
    abs_power_34,
    eq_chain_check,
    lemma1_check,
    lemma2_check,
    sqrt_branch,
    theorem2_chain,
)
from dbarlab.dbar import RESIDUAL_GATE_FACTOR, DbarProblem, picard_solve, profile_exact
from dbarlab.grid import (
    UNWRAP_TOL,
    ComplexField,
    MaskError,
    PhaseUnwrapError,
    RealField,
    VanishingFieldError,
    basepoint_node,
    erode4,
    inset_mask,
    make_grid,
    mask_window,
)
from dbarlab.grid import _dx, _dy, _dzbar, _lap5, _principal, _shrunk
from dbarlab import util
from test_branch import _principal as plain_principal
from test_branch import branch_on_grid, c_shape, polar_on_grid, winding_free

SIZES = (17, 33, 65)


# ---------------------------------------------------------------- oracles


def full_unwrap_outward(phi, raw, mask):
    with np.errstate(invalid="ignore"):
        steps = plain_principal(raw[1:] - raw[:-1])
        walked = np.cumsum(np.concatenate([phi[:1], steps]), axis=0)[1:]
    reached = np.logical_and.accumulate(mask[1:], axis=0) & ~np.isnan(phi[0])
    phi[1:][reached] = walked[reached]


def full_polar(g, basepoint):
    from scipy import ndimage

    spec = g.spec
    n = spec.resolution
    node = basepoint_node(spec, basepoint, g.mask)
    if node is None:
        raise ValueError("basepoint is not a masked grid node")
    labels, _ = ndimage.label(g.mask)
    mask = labels == labels[node]
    rho_vals = np.abs(g.values)
    if np.min(rho_vals[mask]) <= 0.0:
        raise VanishingFieldError("field vanishes on its component")
    bi, bj = node
    raw = np.angle(g.values)
    phi = np.full((n, n), np.nan)
    phi[bi, bj] = raw[bi, bj]
    row = slice(bi, bi + 1)
    for cols in (slice(bj, None), slice(bj, None, -1)):
        full_unwrap_outward(phi[row, cols].T, raw[row, cols].T, mask[row, cols].T)
    for rows in (slice(bi, None), slice(bi, None, -1)):
        full_unwrap_outward(phi[rows], raw[rows], mask[rows])
    pending = mask & np.isnan(phi)
    if pending.any():
        from collections import deque

        borders = np.zeros_like(pending)
        borders[1:] |= pending[:-1]
        borders[:-1] |= pending[1:]
        borders[:, 1:] |= pending[:, :-1]
        borders[:, :-1] |= pending[:, 1:]
        queue = deque(map(tuple, np.argwhere(borders & mask & ~pending)))
        while queue:
            i, j = queue.popleft()
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                a, b = i + di, j + dj
                if 0 <= a < n and 0 <= b < n and pending[a, b]:
                    phi[a, b] = phi[i, j] + plain_principal(raw[a, b] - raw[i, j])
                    pending[a, b] = False
                    queue.append((a, b))
    worst = 0.0
    for a, r, m in ((phi, raw, mask), (phi.T, raw.T, mask.T)):
        both = m[1:, :] & m[:-1, :]
        if both.any():
            d_unwrapped = (a[1:, :] - a[:-1, :])[both]
            d_principal = plain_principal((r[1:, :] - r[:-1, :])[both])
            worst = max(worst, float(np.max(np.abs(d_unwrapped - d_principal))))
    if worst > UNWRAP_TOL:
        raise PhaseUnwrapError(
            f"unwrap inconsistency {worst:.3e} rad exceeds {UNWRAP_TOL:.0e}; "
            "a zero of the field is enclosed by the mask"
        )
    return mask, np.where(mask, rho_vals, 1.0), np.where(mask, phi, 0.0)


def full_sqrt_branch(h, basepoint=0j):
    spec = h.spec
    region = h.mask & (np.abs(h.values) > DELTA0_DEFAULT)
    if basepoint_node(spec, basepoint, region) is None:
        raise MaskError("basepoint is not inside {|h| > delta0}")
    comp, rho, phi = full_polar(h.restrict(region), basepoint)
    rho, half = np.sqrt(rho), 0.5 * phi
    vals = rho * np.exp(1j * half)
    n = spec.resolution
    return _Branch(spec, h.margin, (slice(0, n), slice(0, n)), comp, vals, rho, half,
                   complex(basepoint))


def full_witness(spec, mask, values, pick):
    flat = np.where(mask.ravel(), values.ravel(), np.nan)
    best = flat[pick(flat)]
    with np.errstate(invalid="ignore"):
        ties = (flat == best) | (np.abs(flat - best) <= WITNESS_RTOL * abs(best))
    i, j = divmod(int(np.argmax(ties)), spec.resolution)
    h = spec.spacing
    c = spec.center
    return ((j - c) * h, (i - c) * h)


def full_laplacian(u):
    m2 = u.margin + u.spec.spacing
    mk = u.spec.disc_mask(m2)
    if not mk.any():
        raise MaskError("mask too thin for a centered stencil")
    return RealField(u.spec, np.where(mk, _lap5(u.values, u.spec.spacing), 0), m2, mk)


def full_residual(f):
    mask = _shrunk(f)
    d = _dzbar(f.values, f.spec.spacing)
    vals = np.where(mask, np.abs(d - np.sqrt(np.abs(f.values))), 0.0)
    return RealField(f.spec, vals, f.margin + f.spec.spacing, mask)


def full_lemma1(h, delta0=DELTA0_DEFAULT, standoff_cells=STANDOFF_CELLS):
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    spec = h.spec
    hh = spec.spacing
    absh = np.abs(h.values)
    lap = full_laplacian(abs_power_34(h))
    res_field = full_residual(h)
    eligible = lap.mask & h.mask & res_field.mask & (absh > delta0)
    eligible &= inset_mask(h, standoff_cells)
    if not eligible.any():
        raise MaskError("no eligible nodes: |h| <= delta0 on the whole interior")
    res_sup = float(np.max(res_field.values[eligible]))
    gate = RESIDUAL_GATE_FACTOR * hh
    with np.errstate(divide="ignore"):
        rhs = 0.75 * absh ** -0.25
    slack = lap.values - rhs
    with np.errstate(divide="ignore"):
        tol_point = KAPPA_DEFAULT * hh * hh * np.maximum(1.0, absh ** -1.25)
    return CertificateReport(
        kind="lemma1",
        hypothesis_ok=res_sup <= gate,
        min_slack=float(np.min(slack[eligible])),
        witness=full_witness(spec, eligible, slack, np.nanargmin),
        checked_nodes=int(eligible.sum()),
        tolerance_used=KAPPA_DEFAULT * hh * hh,
        details={
            "residual_sup_eligible": res_sup,
            "residual_gate": gate,
            "inequality_ok": bool(np.all(slack[eligible] >= -tol_point[eligible])),
            "delta0": delta0,
            "standoff_cells": standoff_cells,
        },
    )


def full_eq_chain(g, kappa=KAPPA_DEFAULT, standoff_cells=STANDOFF_CELLS):
    spec = g.spec
    h = spec.spacing
    rho = g.rho
    phi = g.phi
    inner = erode4(g.mask) & inset_mask(g, standoff_cells)
    if not inner.any():
        raise MaskError("branch mask too thin for stencil checks")
    gz = 0.5 * (_dx(g.values, h) + 1j * _dy(g.values, h))
    viol1 = np.abs(gz - 0.5 * np.exp(-1j * phi))
    rx, ry = _dx(rho, h), _dy(rho, h)
    px, py = _dx(phi, h), _dy(phi, h)
    lap_rho = _lap5(rho, h)
    viol3re = np.abs(rx - rho * py - np.cos(2.0 * phi))
    viol3im = np.abs(ry + rho * px + np.sin(2.0 * phi))
    grad2 = px * px + py * py
    viol7 = np.abs(rx * rx + ry * ry + rho * rho * grad2 + 2.0 * rho * (ry * px - rx * py) - 1.0)
    lhs8 = rx * rx + ry * ry + 2.0 * rho * lap_rho
    viol8 = np.abs(lhs8 - 1.0 - 3.0 * rho * rho * grad2)
    slack8 = lhs8 - 1.0
    violations = {
        "sqrt_equation": float(np.max(viol1[inner])),
        "polar_system_re": float(np.max(viol3re[inner])),
        "polar_system_im": float(np.max(viol3im[inner])),
        "gradient_identity": float(np.max(viol7[inner])),
        "laplacian_identity": float(np.max(viol8[inner])),
    }
    return CertificateReport(
        kind="eq_chain",
        hypothesis_ok=violations["sqrt_equation"] <= kappa * h,
        min_slack=float(np.min(slack8[inner])),
        witness=full_witness(spec, inner, slack8, np.nanargmin),
        checked_nodes=int(inner.sum()),
        tolerance_used=kappa * h,
        details={"violations": violations, "basepoint": util.as_complex_pair(g.basepoint)},
    )


def full_lemma2(u, delta0=DELTA0_DEFAULT ** 0.75, standoff_cells=STANDOFF_CELLS):
    spec = u.spec
    h = spec.spacing
    tol = KAPPA_DEFAULT * h * h
    neg = float(np.min(u.values[u.mask]))
    if neg < -tol:
        raise ValueError(f"u is negative beyond tolerance: min u = {neg:.3e}")
    lap = full_laplacian(u)
    interior = lap.mask & u.mask
    if standoff_cells:
        interior &= inset_mask(u, standoff_cells)
    if not interior.any():
        raise MaskError("mask too thin for the laplacian")
    sub_slack = float(np.min(lap.values[interior]))
    support = interior & (u.values > delta0)
    growth_slack = float(np.min(lap.values[support] - 1.0)) if support.any() else np.inf
    hypothesis_ok = sub_slack >= -tol and (not support.any() or growth_slack >= -tol)
    triggered = u.at_origin() > 0.0
    X, Y = spec.mesh()
    v = u.values - 0.25 * (X * X + Y * Y)
    ring = u.mask & ~spec.disc_mask(u.margin + h)
    boundary_max_v = float(np.max(v[ring])) if ring.any() else None
    if triggered:
        conclusion_slack = float(np.max(u.values[u.mask])) - 0.25
        min_slack = conclusion_slack
        witness = full_witness(spec, u.mask, u.values, np.nanargmax)
    else:
        conclusion_slack = None
        min_slack = sub_slack if not support.any() else min(sub_slack, growth_slack)
        witness = full_witness(spec, interior, lap.values, np.nanargmin)
    return CertificateReport(
        kind="lemma2",
        hypothesis_ok=hypothesis_ok,
        min_slack=min_slack,
        witness=witness,
        checked_nodes=int(interior.sum()),
        tolerance_used=tol,
        details={
            "triggered": triggered,
            "conclusion_slack": conclusion_slack,
            "subharmonic_slack": sub_slack,
            "growth_slack": None if not support.any() else growth_slack,
            "support_nodes": int(support.sum()),
            "v_at_origin": float(u.at_origin()),
            "boundary_max_v": boundary_max_v,
            "delta0": delta0,
        },
    )


def full_theorem2(sol, delta0=DELTA0_DEFAULT, standoff_cells=STANDOFF_CELLS):
    lemma1 = full_lemma1(sol.f, delta0=delta0, standoff_cells=standoff_cells)
    lemma2 = full_lemma2(abs_power_34(sol.f), delta0=delta0 ** 0.75, standoff_cells=standoff_cells)
    min_slack = sol.sup_f - (SUP_FLOOR - FD_TOLERANCE)
    return CertificateReport(
        kind="theorem2",
        hypothesis_ok=lemma1.hypothesis_ok,
        min_slack=min_slack,
        witness=full_witness(sol.f.spec, sol.f.mask, np.abs(sol.f.values), np.nanargmax),
        checked_nodes=lemma1.checked_nodes,
        tolerance_used=FD_TOLERANCE,
        details={
            "verdict": "consistent" if min_slack >= 0 else "violation",
            "sup_f": sol.sup_f,
            "sup_floor": SUP_FLOOR,
            "premise_small_sup": sol.sup_f < SUP_FLOOR,
            "anchor": util.as_complex_pair(sol.f.at_origin()),
            "lemma1": lemma1.to_json_dict(),
            "lemma2_on_u": lemma2.to_json_dict(),
        },
    )


# ---------------------------------------------------------------- comparison


def outcome(fn, *args, **kwargs):
    """The report's JSON bytes, the field's bytes, or the exception a call ends in."""
    try:
        out = fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(out, CertificateReport):
        return ("report", json.dumps(out.to_json_dict(), sort_keys=True))
    if isinstance(out, _Branch):
        out = branch_on_grid(out)
        head, arrays = ("branch", out.margin, out.basepoint), (out.mask, out.values, out.rho, out.phi)
    else:  # polar_on_grid's (mask, rho, phi)
        head, arrays = ("polar",), out
    return head + tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def chain(field, basepoint):
    return eq_chain_check(sqrt_branch(field, basepoint))


def full_chain(field, basepoint, standoff_cells=STANDOFF_CELLS):
    return full_eq_chain(full_sqrt_branch(field, basepoint), standoff_cells=standoff_cells)


def at_standoff_zero(fn):
    """fn run with certify.STANDOFF_CELLS set to 0 for the length of each call."""
    def call(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "STANDOFF_CELLS", 0)
            return fn(*args, **kwargs)

    call.__name__ = f"{fn.__name__}[standoff 0]"
    return call


def assert_all_match(field, basepoint, tag=""):
    """Every windowed certificate on field agrees with its full-grid form, bit for bit."""
    pairs = [
        (polar_on_grid, full_polar, (field, basepoint), {}),
        (lemma1_check, full_lemma1, (field,), {}),
        (at_standoff_zero(lemma1_check), partial(full_lemma1, standoff_cells=0), (field,), {}),
        (sqrt_branch, full_sqrt_branch, (field, basepoint), {}),
        (chain, full_chain, (field, basepoint), {}),
        (at_standoff_zero(chain), partial(full_chain, standoff_cells=0), (field, basepoint), {}),
        (lemma2_check, full_lemma2, (abs_power_34(field),), {}),
        (at_standoff_zero(lemma2_check), partial(full_lemma2, standoff_cells=0),
         (abs_power_34(field),), {}),
    ]
    try:
        branch = full_sqrt_branch(field, basepoint)
    except (ValueError, ArithmeticError):
        branch = None
    if branch is not None:
        pairs.append((eq_chain_check, full_eq_chain, (branch,), {}))
    for got_fn, want_fn, args, kwargs in pairs:
        want = outcome(want_fn, *args, **kwargs)
        assert outcome(got_fn, *args, **kwargs) == want, f"{tag} {got_fn.__name__} {kwargs}"


# ---------------------------------------------------------------- fields


@lru_cache(maxsize=None)
def solved(n):
    return picard_solve(DbarProblem(make_grid(1.0, n), b=0.2 - 0.15j))


def node_point(spec, i, j):
    h, c = spec.spacing, spec.center
    return complex((j - c) * h, (i - c) * h)


@pytest.mark.parametrize("n", SIZES)
def test_transform_solve_matches_full_grid(n):
    sol = solved(n)
    assert_all_match(sol.f, 0j, "solve")
    assert_all_match(sol.f, 0.25 - 0.375j, "solve off-centre")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kink", [-0.3, 0.2])
def test_kink_profiles_match_full_grid(n, kink):
    spec = make_grid(1.0, n)
    h = profile_exact(kink, spec)
    phase = np.exp(1j * (0.7 + 2.0 * spec.nodes().imag))
    twisted = ComplexField(spec, h.values * phase, h.margin, h.mask)
    for field in (h, twisted):
        for bp in (complex(kink + 0.25, 0.0), complex(kink + 0.3, 0.45)):
            assert_all_match(field, bp, f"kink {kink} bp {bp}")


@pytest.mark.parametrize("n", SIZES)
def test_c_shaped_mask_matches_full_grid(n):
    # test_branch shows the breadth-first fill reaching nodes on these masks
    spec = make_grid(1.0, n)
    f = winding_free(spec).restrict(c_shape(spec))
    for bp in (-0.5 + 0.5j, 0.5 + 0.5j, -0.625 + 0j):
        assert_all_match(f, bp, f"c-shape bp {bp}")


@pytest.mark.parametrize("n", SIZES)
def test_mask_touching_the_grid_edge_matches_full_grid(n):
    spec = make_grid(1.0, n)
    f = winding_free(spec)
    full = ComplexField(spec, f.values, 0.0, np.ones((n, n), dtype=bool))
    assert mask_window(full.mask, 1) == (slice(0, n), slice(0, n))
    rim = ComplexField(spec, f.values, 0.0)  # disc of margin 0 reaches rows 0 and n-1
    assert mask_window(rim.mask, 0) == (slice(0, n), slice(0, n))
    # |h| vanishes on x = +-0.4, so {|h| > delta0} is three strips, and x > -0.3
    # drops the left one: the polar window starts at the middle strip's first
    # column, and the right strip's box starts inside it and is clipped at the
    # grid's last column
    X, _ = spec.mesh()
    strips = ComplexField(spec, f.values / np.abs(f.values) * (X * X - 0.16) ** 2, 0.0)
    strips = strips.restrict(X > -0.3)
    polar_cols = mask_window(strips.mask & (np.abs(strips.values) > DELTA0_DEFAULT), 0)[1]
    box_cols = sqrt_branch(strips, 1.0 + 0j).win[1]
    assert 0 < polar_cols.start < box_cols.start and box_cols.stop == n
    for field in (full, rim, strips):
        for bp in (0j, 1.0 + 0j, -1.0 + 0j, 0.5 - 0.5j):
            if basepoint_node(spec, bp, field.mask) is not None:
                assert_all_match(field, bp, f"edge bp {bp}")
    corner = node_point(spec, 0, 0)
    assert_all_match(full, corner, "grid corner")


@pytest.mark.parametrize("n", SIZES)
def test_basepoint_on_the_window_corner_matches_full_grid(n):
    spec = make_grid(1.0, n)
    c = spec.center
    box = np.zeros((n, n), dtype=bool)
    rows, cols = slice(c - n // 4, c + n // 8 + 1), slice(c - n // 8, c + n // 3 + 1)
    box[rows, cols] = True
    f = winding_free(spec).restrict(box)
    assert mask_window(f.mask, 0) == (rows, cols)
    for i in (rows.start, rows.stop - 1):
        for j in (cols.start, cols.stop - 1):
            assert_all_match(f, node_point(spec, i, j), f"corner ({i}, {j})")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("n", SIZES)
def test_overflowing_stencils_are_refused_as_before(n):
    # +,+,-,- stripes of magnitude 1e308: centred differences overflow to inf
    spec = make_grid(1.0, n)
    stripes = np.where(np.arange(n) % 4 < 2, 1e308, -1e308)
    h = ComplexField(spec, np.tile(stripes, (n, 1)).astype(complex), spec.default_margin())
    want = ("raised", "ValueError", "non-finite values on masked nodes")
    assert outcome(full_lemma1, h) == want
    assert_all_match(h, 0j, "overflow")
    u = RealField(spec, np.tile(np.where(stripes > 0, 1e308, 0.0), (n, 1)), spec.default_margin())
    assert outcome(full_lemma2, u) == want
    assert outcome(lemma2_check, u) == want


@pytest.mark.parametrize("n", SIZES)
def test_theorem2_chain_matches_full_grid(n):
    sol = solved(n)
    assert sol.certified
    got = theorem2_chain(sol).to_json_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(full_theorem2(sol).to_json_dict(), sort_keys=True)
    assert got["details"]["verdict"] == "consistent"


def test_theorem2_chain_on_certified_33_solve():
    sol = solved(33)
    rep = theorem2_chain(sol)
    assert rep.details["verdict"] == "consistent"
    assert rep.hypothesis_ok
    assert rep.checked_nodes == rep.details["lemma1"]["checked_nodes"] > 0
    # the witness is the node where |f| peaks
    x, y = rep.witness
    i, j = basepoint_node(sol.f.spec, complex(x, y), sol.f.mask)
    assert abs(sol.f.values[i, j]) == sol.sup_f


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.55, 0.95),
    corner=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    size=st.tuples(st.integers(3, 9), st.integers(3, 9)),
)
def test_random_masks_in_a_pinned_box_match_full_grid(seed, density, corner, size):
    n = 17
    spec = make_grid(1.0, n)
    rows = slice(corner[0], corner[0] + size[0])
    cols = slice(corner[1], corner[1] + size[1])
    rng = np.random.default_rng(seed)
    mask = np.zeros((n, n), dtype=bool)
    mask[rows, cols] = rng.random(size) < density
    for i in (rows.start, rows.stop - 1):
        for j in (cols.start, cols.stop - 1):
            mask[i, j] = True
    assert mask_window(mask, 0) == (rows, cols)
    f = ComplexField(spec, winding_free(spec).values, 0.0, mask)
    masked = np.argwhere(mask)
    i, j = masked[rng.integers(len(masked))]
    assert_all_match(f, node_point(spec, i, j), "random mask")
    u = RealField(spec, np.abs(f.values) ** 0.75, 0.0, mask)
    for cells in (0, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "STANDOFF_CELLS", cells)
            assert outcome(lemma2_check, u) == outcome(full_lemma2, u, standoff_cells=cells)


# ---------------------------------------------------------------- pieces


def test_principal_skips_only_identity_remainders():
    rng = np.random.default_rng(7)
    raw = np.angle(np.exp(1j * rng.uniform(-20, 20, 200_000)))
    delta = raw[1:] - raw[:-1]
    edges = np.array([-2 * np.pi, -np.pi, np.nextafter(-np.pi, 0), np.nextafter(-np.pi, -4),
                      -0.0, 0.0, np.pi, np.nextafter(np.pi, 0), np.nextafter(np.pi, 4),
                      2 * np.pi, 1e-300, -1e-300, np.inf, -np.inf, np.nan])
    for d in (delta, edges):
        with np.errstate(invalid="ignore"):
            assert _principal(d).tobytes() == plain_principal(d).tobytes()
    scalar = np.float64(3.0) - np.float64(-3.0)
    assert _principal(scalar) == plain_principal(scalar)


def test_mask_window():
    mask = np.zeros((9, 11), dtype=bool)
    assert mask_window(mask, 0) == (slice(0, 0), slice(0, 0))
    assert mask_window(mask, 1) == (slice(0, 0), slice(0, 0))
    mask[2, 3] = mask[5, 7] = True
    assert mask_window(mask, 0) == (slice(2, 6), slice(3, 8))
    assert mask_window(mask, 1) == (slice(1, 7), slice(2, 9))
    assert mask_window(mask, 3) == (slice(0, 9), slice(0, 11))
    mask[0, 0] = mask[8, 10] = True
    assert mask_window(mask, 1) == (slice(0, 9), slice(0, 11))
