"""Explicit almost complex structure on a bidisc and its graph reduction.

The target domain is the product of the open disc of radius 2 (first
complex coordinate) with the open disc of radius 1/10 (second coordinate),
viewed as R^4 with coordinates (x1, y1, x2, y2).  The structure matrix
couples the two factors through a single real entry

    lambda(z2) = -2 |z2|^(1/2),

which is only Hoelder-1/2 in z2, and that low regularity is the whole
point of the construction.  A map Z = (Z1, Z2) of a disc into the target
is structure-holomorphic when dZ/dy = J(Z) dZ/dx at every node; the first
two rows of that system say Z1 is holomorphic, and for graph maps
Z(z) = (z, f(z)) the last two rows collapse to the scalar equation
df/dzbar = |f|^(1/2) handled by the dbar module.

reduction_identity checks that collapse with identical stencils on both
sides, so it holds to rounding for ANY masked field, solved or not: the
system rows are grid._dx and grid._dy of the component arrays, and the
scalar side is dbar.residual_values, whose d/dzbar is the same pair.  The
residual of the full 4 x 4 system and the scalar defect are then the same
number by algebra, and any daylight between them is a bug, not
discretization error.  lambda_val deliberately evaluates through
np.sqrt(np.abs(.)), the same floating-point path the dbar right-hand side
uses, to keep that comparison at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dbar import residual_values
from .grid import ComplexField, erode4
from .grid import _dx, _dy, _shrunk

Z1_RADIUS = 2.0
Z2_RADIUS = 0.1
# open-set membership: a point must sit below each radius by at least this
MEMBERSHIP_SLACK = 1e-12

# coupling entries live at rows 3 and 4 (positions [2,1] and [3,0])
_TEMPLATE = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def lambda_val(z2):
    """Coupling entry -2 |z2|^(1/2); vectorized over arrays of points."""
    with np.errstate(invalid="ignore"):
        return -2.0 * np.sqrt(np.abs(z2))


def j_squared_deviation(z1, z2) -> float:
    """Max |J^2 + I| entry over batches of sample points.

    Vectorized so a million-point sweep stays cheap; every sample must lie
    in the target.
    """
    z1 = np.asarray(z1, dtype=np.complex128).ravel()
    z2 = np.asarray(z2, dtype=np.complex128).ravel()
    if z1.shape != z2.shape:
        raise ValueError("component sample arrays must have matching shapes")
    if np.any(np.abs(z1) >= Z1_RADIUS - MEMBERSHIP_SLACK) or np.any(
        np.abs(z2) >= Z2_RADIUS - MEMBERSHIP_SLACK
    ):
        raise ValueError("sample points must lie inside the open target domain")
    eye = np.eye(4)
    worst = 0.0
    chunk = 200_000  # keeps each (chunk, 4, 4) float64 batch near 26 MB
    for start in range(0, z1.size, chunk):
        lam = lambda_val(z2[start : start + chunk])
        mats = np.broadcast_to(_TEMPLATE, (lam.size, 4, 4)).copy()
        mats[:, 2, 1] = lam
        mats[:, 3, 0] = lam
        dev = np.einsum("mij,mjk->mik", mats, mats) + eye
        worst = max(worst, float(np.max(np.abs(dev))))
    return worst


@dataclass(frozen=True)
class DiscMap:
    """A two-component map of a disc grid into the target domain.

    Both components share one grid and one mask, and the sampled range
    must stay strictly inside the open product (the coupling entry is
    defined everywhere, but the target is the open bidisc, so escape is a
    hard error rather than a warning).
    """

    z1: ComplexField
    z2: ComplexField

    def __post_init__(self):
        if self.z1.spec != self.z2.spec:
            raise ValueError("component fields must live on one grid")
        if not np.array_equal(self.z1.mask, self.z2.mask):
            raise ValueError("component masks differ")
        m = self.z1.mask
        if np.max(np.abs(self.z1.values[m])) >= Z1_RADIUS - MEMBERSHIP_SLACK:
            raise ValueError("first component leaves the radius-2 disc")
        if np.max(np.abs(self.z2.values[m])) >= Z2_RADIUS - MEMBERSHIP_SLACK:
            raise ValueError("second component leaves the radius-1/10 disc")


def graph_map(f: ComplexField) -> DiscMap:
    """The graph z -> (z, f(z)) as a DiscMap; DiscMap requires sup |f| < 1/10 on the mask."""
    ident = ComplexField(f.spec, f.spec.nodes(), f.margin, f.mask)
    return DiscMap(ident, f)


def jholo_residual(zmap: DiscMap):
    """Defect of dZ/dy = J(Z) dZ/dx, componentwise.

    Returns ((r1, r2, r3, r4), mask, sup): the four rows of
    dZ/dy - J(Z(z)) dZ/dx as N x N arrays, the stencil mask (the disc one
    spacing inside the margin, less the nodes with an unmasked axis
    neighbour) on which alone they are read, and the max Euclidean norm of
    that 4-vector over the mask.  Rows 1 and 2 do not involve the coupling;
    they vanish to stencil accuracy exactly when the first component is
    holomorphic, and identically when it is linear.
    """
    z1, z2 = zmap.z1, zmap.z2
    h = z1.spec.spacing
    d1x, d1y = _dx(z1.values, h), _dy(z1.values, h)
    d2x, d2y = _dx(z2.values, h), _dy(z2.values, h)
    lam = lambda_val(z2.values)
    mask = _shrunk(z1) & erode4(z1.mask)

    r1 = d1y.real + d1x.imag
    r2 = d1y.imag - d1x.real
    r3 = d2y.real - lam * d1x.imag + d2x.imag
    r4 = d2y.imag - lam * d1x.real - d2x.real

    norm = np.sqrt(r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4)
    return (r1, r2, r3, r4), mask, float(np.max(norm[mask]))


def reduction_identity(f: ComplexField) -> float:
    """Max gap between the graph residual and the scalar dbar defect.

    For the graph of f the system rows 3 and 4 are, by algebra, the real
    and imaginary parts of 2 (df/dzbar - |f|^(1/2)) up to sign, so
    2 |df/dzbar - |f|^(1/2)| and the Euclidean norm of (r3, r4) agree to
    rounding when both sides ride the same centered stencils.  Returns the
    max pointwise discrepancy on the residual's mask; anything above 1e-10
    means the reduction is miswired.
    """
    (_, _, r3, r4), mask, _ = jholo_residual(graph_map(f))
    left = 2.0 * residual_values(f.values, f.spec.spacing)
    return float(np.max(np.abs(left - np.hypot(r3, r4))[mask]))
