"""Discrete certificates for the interior inequalities behind the sup bound.

Three layers, composed bottom-up:

  lemma1_check    Delta(|h|^(3/4)) >= (3/4)|h|^(-1/4) wherever |h| > delta0,
                  for h a (numerical) solution of dh/dzbar = |h|^(1/2).
  eq_chain_check  the pointwise identities satisfied by a square-root branch
                  g = h^(1/2) = rho e^(i phi) of such a solution.
  lemma2_check    the maximum-principle step: u >= 0 subharmonic with
                  Delta u >= 1 on {u > delta0} and u(0) > 0 forces
                  sup u > 1/4.
  theorem2_chain  the composition, confronted with the measured sup|f|.

Every check reports the minimum slack and its witness node rather than a bare
boolean.  Inequalities are judged against tolerances proportional to h^2
times the local derivative scale of the quantity involved; the equation
hypothesis itself is gated by the dbar residual, against the 5h gate that
DbarSolution.certified applies to a whole solve.  Checks stand off the mask
edge by a few cells (standoff_cells): transform-produced solutions carry an
O(1) differentiation artifact in the outermost stencil rows, because the
integration density is chopped at the mask boundary and the transform's
tangential derivative is log-singular across that circle.  The interior is
where the open-set statements live; the standoff is the discrete surrogate
for openness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import util
from .dbar import RESIDUAL_GATE_FACTOR, DbarSolution, residual_dbar
from .grid import (
    ComplexField,
    MaskError,
    RealField,
    basepoint_node,
    erode4,
    laplacian5,
    polar_decompose,
)
from .grid import _dx, _dy, _lap5

DELTA0_DEFAULT = 1e-3
KAPPA_DEFAULT = 10.0
STANDOFF_CELLS = 3
SUP_FLOOR = 0.1
FD_TOLERANCE = 0.02
# relative gap under which two candidate witness nodes count as tied
WITNESS_RTOL = 1e-9


@dataclass(frozen=True)
class CertificateReport:
    kind: str
    hypothesis_ok: bool
    min_slack: float
    witness: tuple | None
    checked_nodes: int
    tolerance_used: float
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return util.jsonify(
            {
                "kind": self.kind,
                "hypothesis_ok": self.hypothesis_ok,
                "min_slack": self.min_slack,
                "witness": list(self.witness) if self.witness is not None else None,
                "checked_nodes": self.checked_nodes,
                "tolerance_used": self.tolerance_used,
                "details": self.details,
            }
        )


def _witness(spec, mask: np.ndarray, values: np.ndarray, pick) -> tuple:
    """Coordinates of the extremal masked node; pick is nanargmin/nanargmax on flats.

    Nodes within WITNESS_RTOL of the extremum tie, and the first of them in
    row-major order is the witness, so rounding does not choose between
    mirror-image nodes.
    """
    flat = np.where(mask.ravel(), values.ravel(), np.nan)
    best = flat[pick(flat)]
    with np.errstate(invalid="ignore"):
        ties = (flat == best) | (np.abs(flat - best) <= WITNESS_RTOL * abs(best))
    i, j = divmod(int(np.argmax(ties)), spec.resolution)
    h = spec.spacing
    c = spec.center
    return ((j - c) * h, (i - c) * h)


def _standoff_mask(field, cells: int) -> np.ndarray:
    return field.spec.disc_mask(field.margin + cells * field.spec.spacing)


def abs_power_34(f: ComplexField) -> RealField:
    """u = |f|^(3/4) on f's grid and mask: the function both lemmas are about."""
    return RealField(f.spec, np.abs(f.values) ** 0.75, f.margin, f.mask)


def lemma1_check(
    h: ComplexField,
    delta0: float = DELTA0_DEFAULT,
    standoff_cells: int = STANDOFF_CELLS,
) -> CertificateReport:
    """Check Delta(|h|^(3/4)) >= (3/4)|h|^(-1/4) on {|h| > delta0}.

    The inequality is sharp on the translated profile family (x - c)_+^2,
    where it holds with equality; the reported min_slack is the raw minimum
    of LHS - RHS over eligible nodes.  The hypothesis that h solves the
    equation is gated by the dbar residual on the same eligible set, at 5h.
    Pointwise tolerances are KAPPA_DEFAULT * h^2 * max(1, |h|^(-5/4)): fourth
    derivatives of |h|^(3/4) grow like |h|^(-5/4) near the zero set, which is
    also why nodes with |h| <= delta0 are excluded.
    """
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    spec = h.spec
    hh = spec.spacing
    absh = np.abs(h.values)
    lap = laplacian5(abs_power_34(h))
    res_field, _ = residual_dbar(h)

    eligible = lap.mask & h.mask & res_field.mask & (absh > delta0)
    eligible &= _standoff_mask(h, standoff_cells)
    if not eligible.any():
        raise MaskError("no eligible nodes: |h| <= delta0 on the whole interior")

    res_sup = float(np.max(res_field.values[eligible]))
    gate = RESIDUAL_GATE_FACTOR * hh
    hypothesis_ok = res_sup <= gate

    with np.errstate(divide="ignore"):
        rhs = 0.75 * absh ** -0.25
    slack = lap.values - rhs
    min_slack = float(np.min(slack[eligible]))
    witness = _witness(spec, eligible, slack, np.nanargmin)

    with np.errstate(divide="ignore"):
        tol_point = KAPPA_DEFAULT * hh * hh * np.maximum(1.0, absh ** -1.25)
    inequality_ok = bool(np.all(slack[eligible] >= -tol_point[eligible]))

    return CertificateReport(
        kind="lemma1",
        hypothesis_ok=hypothesis_ok,
        min_slack=min_slack,
        witness=witness,
        checked_nodes=int(eligible.sum()),
        tolerance_used=KAPPA_DEFAULT * hh * hh,
        details={
            "residual_sup_eligible": res_sup,
            "residual_gate": gate,
            "inequality_ok": inequality_ok,
            "delta0": delta0,
            "standoff_cells": standoff_cells,
        },
    )


def eq_chain_check(
    g: ComplexField,
    kappa: float = KAPPA_DEFAULT,
    basepoint: complex = 0j,
    standoff_cells: int = STANDOFF_CELLS,
) -> CertificateReport:
    """Verify the identity chain for a branch g = h^(1/2) = rho e^(i phi).

    With first derivatives written as subscripts, the chain is:

      sqrt equation       g_zbar = (1/2) e^(-i phi)
      polar system        rho_x - rho phi_y =  cos 2phi
                          rho_y + rho phi_x = -sin 2phi
      gradient identity   rho_x^2 + rho_y^2 + rho^2 |grad phi|^2
                            + 2 rho (rho_y phi_x - rho_x phi_y) = 1
      laplacian identity  rho_x^2 + rho_y^2 + 2 rho lap(rho)
                            = 1 + 3 rho^2 |grad phi|^2  >= 1

    The last line's slack (LHS - 1) is the reported min_slack; it is the
    discrete form of the subharmonicity that powers the sup bound.  All
    violations are maxima of |LHS - RHS| over nodes whose full stencil stays
    inside the branch mask; hypothesis_ok gates the first line at kappa * h.
    """
    polar = polar_decompose(g, basepoint)
    spec = g.spec
    h = spec.spacing
    rho = polar.rho.values
    phi = polar.phi.values

    inner = erode4(g.mask) & _standoff_mask(g, standoff_cells)
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
    min_slack = float(np.min(slack8[inner]))
    witness = _witness(spec, inner, slack8, np.nanargmin)

    return CertificateReport(
        kind="eq_chain",
        hypothesis_ok=violations["sqrt_equation"] <= kappa * h,
        min_slack=min_slack,
        witness=witness,
        checked_nodes=int(inner.sum()),
        tolerance_used=kappa * h,
        details={"violations": violations, "basepoint": util.as_complex_pair(basepoint)},
    )


def sqrt_branch(
    h: ComplexField,
    delta0: float = DELTA0_DEFAULT,
    basepoint: complex = 0j,
) -> ComplexField:
    """A continuous square root of h on the component of {|h| > delta0} at basepoint."""
    spec = h.spec
    absh = np.abs(h.values)
    region = h.mask & (absh > delta0)

    node = basepoint_node(spec, basepoint, region)
    if node is None:
        raise MaskError("basepoint is not inside {|h| > delta0}")

    # connected component of the basepoint; label's default structure is 4-connectivity
    from scipy import ndimage

    labels, _ = ndimage.label(region)
    comp = labels == labels[node]

    polar = polar_decompose(h.restrict(comp), basepoint)
    vals = np.sqrt(polar.rho.values) * np.exp(0.5j * polar.phi.values)
    return ComplexField(spec, vals, h.margin, comp)


def lemma2_check(
    u: RealField,
    delta0: float = DELTA0_DEFAULT,
    standoff_cells: int = 0,
) -> CertificateReport:
    """Maximum-principle certificate: nonnegative subharmonic u with
    Delta u >= 1 on {u > delta0} and u(0) > 0 must reach sup u > 1/4.

    Hypotheses are checked with tolerance KAPPA_DEFAULT * h^2; the conclusion sup is
    taken over the full mask (the statement is about the supremum on the
    disc, so boundary nodes count when the margin admits them).  When
    u(0) = 0 the conclusion is not triggered and min_slack reports the worst
    hypothesis slack instead.  standoff_cells defaults to 0: this is a pure
    maximum-principle tool and most inputs are closed forms; callers feeding
    transform-produced data pass their own standoff.  The details carry the
    pieces of the proof's
    comparison v = u - (1/4)|z|^2: its value at 0, its maximum over the
    outermost masked ring, and the minimum of its laplacian on the growth
    set; the five-point laplacian is exact on the quadratic, so lap(v) is
    lap(u) - 1 to rounding.
    """
    spec = u.spec
    h = spec.spacing
    tol = KAPPA_DEFAULT * h * h

    neg = float(np.min(u.values[u.mask]))
    if neg < -tol:
        raise ValueError(f"u is negative beyond tolerance: min u = {neg:.3e}")

    lap = laplacian5(u)
    interior = lap.mask & u.mask
    if standoff_cells:
        interior &= _standoff_mask(u, standoff_cells)
    if not interior.any():
        raise MaskError("mask too thin for the laplacian")

    sub_slack = float(np.min(lap.values[interior]))
    support = interior & (u.values > delta0)
    growth_slack = float(np.min(lap.values[support] - 1.0)) if support.any() else np.inf
    hypothesis_ok = sub_slack >= -tol and (not support.any() or growth_slack >= -tol)

    triggered = u.at_origin() > 0.0
    X, Y = spec.mesh()
    quad = 0.25 * (X * X + Y * Y)
    v = u.values - quad
    ring = u.mask & ~spec.disc_mask(u.margin + h)
    boundary_max_v = float(np.max(v[ring])) if ring.any() else None

    if triggered:
        conclusion_slack = float(np.max(u.values[u.mask])) - 0.25
        min_slack = conclusion_slack
        witness = _witness(spec, u.mask, u.values, np.nanargmax)
    else:
        conclusion_slack = None
        min_slack = sub_slack if not support.any() else min(sub_slack, growth_slack)
        witness = _witness(spec, interior, lap.values, np.nanargmin)

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


def theorem2_chain(
    sol: DbarSolution,
    delta0: float = DELTA0_DEFAULT,
    standoff_cells: int = STANDOFF_CELLS,
) -> CertificateReport:
    """Compose the certificates into the sup-bound verdict for one solve.

    Applies only to DbarSolution.certified solves.  With f(0) = 0 the bound
    asserts nothing and the report says so.  Otherwise the chain records the
    unconditional inequality of lemma1_check on f, the lemma2_check
    diagnostics on u = |f|^(3/4), and the verdict: sup|f| must reach 1/10,
    confirmed against the measured sup_f at finite-difference tolerance.
    min_slack is sup_f - (1/10 - FD_TOLERANCE).

    The composition is a contradiction argument: were sup|f| below 1/10, the
    growth hypothesis Delta u >= 1 would hold on all of {u > 0} and the
    maximum principle would force sup u > 1/4, i.e. sup|f| > (1/4)^(4/3)
    -- impossible.  On
    actual solutions the premise is false, so the attached lemma2 report
    documents which hypothesis breaks (Delta u >= 1 fails where |f| is large)
    while its conclusion slack stays positive; both facts are recorded.
    """
    if not sol.converged:
        raise ValueError("not a certified solve: iteration did not converge")
    if not sol.certified:
        raise ValueError(
            f"not a certified solve: residual {sol.residual_sup:.3e} "
            f"exceeds gate {sol.residual_gate:.3e}"
        )

    b = sol.f.at_origin()
    if b == 0:
        return CertificateReport(
            kind="theorem2",
            hypothesis_ok=True,
            min_slack=0.0,
            witness=None,
            checked_nodes=int(sol.f.mask.sum()),
            tolerance_used=FD_TOLERANCE,
            details={"verdict": "not_applicable", "reason": "f(0) = 0", "sup_f": sol.sup_f},
        )

    lemma1 = lemma1_check(sol.f, delta0=delta0, standoff_cells=standoff_cells)
    lemma2 = lemma2_check(abs_power_34(sol.f), delta0=delta0 ** 0.75,
                          standoff_cells=standoff_cells)

    min_slack = sol.sup_f - (SUP_FLOOR - FD_TOLERANCE)
    verdict = "consistent" if min_slack >= 0 else "violation"
    return CertificateReport(
        kind="theorem2",
        hypothesis_ok=lemma1.hypothesis_ok,
        min_slack=min_slack,
        witness=_witness(sol.f.spec, sol.f.mask, np.abs(sol.f.values), np.nanargmax),
        checked_nodes=lemma1.checked_nodes,
        tolerance_used=FD_TOLERANCE,
        details={
            "verdict": verdict,
            "sup_f": sol.sup_f,
            "sup_floor": SUP_FLOOR,
            "premise_small_sup": sol.sup_f < SUP_FLOOR,
            "anchor": util.as_complex_pair(b),
            "lemma1": lemma1.to_json_dict(),
            "lemma2_on_u": lemma2.to_json_dict(),
        },
    )
