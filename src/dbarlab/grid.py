"""Uniform disc grids, sampled fields, and second-order difference operators.

The whole laboratory works on square N x N lattices covering the closed disc
of radius r, with an interior mask selecting the trusted nodes.  Default
masks are concentric discs |z| <= r - margin; stencil operators return fields
whose margin has grown by one spacing, so every reported node had a full
centered stencil inside the input mask.  Coordinates are built as
(index - center) * spacing, which keeps the node set exactly symmetric under
the four-fold lattice symmetry and puts z = 0 on a node (resolution is
restricted to odd N >= 17 for that reason; solvers anchor a value there).

Fields are immutable after construction.  Serialization is a flat binary
layout (header: radius f64, N u32, margin f64, then row-major re/im f64
pairs).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

MIN_RESOLUTION = 17
DEFAULT_MARGIN_CELLS = 2.0
UNWRAP_TOL = 1e-6

_HEADER = struct.Struct("<dId")


class MaskError(ValueError):
    """Mask is empty, or too thin for the requested stencil."""


class VanishingFieldError(ValueError):
    """A field that must stay away from zero vanishes on its mask."""


class PhaseUnwrapError(ValueError):
    """No single-valued continuous argument branch exists on the mask."""


@dataclass(frozen=True)
class GridSpec:
    """Square N x N lattice covering the closed disc |z| <= radius.

    spacing * (resolution - 1) == 2 * radius by definition; the origin sits
    on the central node.
    """

    radius: float
    resolution: int

    def __post_init__(self):
        if not (isinstance(self.resolution, (int, np.integer)) and not isinstance(self.resolution, bool)):
            raise ValueError("resolution must be an integer")
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "radius", float(self.radius))
        # disc_mask compares x^2 + y^2, up to 2 radius^2, against radius^2
        if not (self.radius > 0 and math.isfinite(2.0 * self.radius * self.radius)):
            raise ValueError("radius must be positive, with 2 * radius**2 finite")
        if self.resolution < MIN_RESOLUTION:
            raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
        if self.resolution % 2 == 0:
            raise ValueError("resolution must be odd so z=0 is a node")

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / (self.resolution - 1)

    @property
    def center(self) -> int:
        return (self.resolution - 1) // 2

    def default_margin(self) -> float:
        return DEFAULT_MARGIN_CELLS * self.spacing

    def coords(self) -> np.ndarray:
        return (np.arange(self.resolution) - self.center) * self.spacing

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """X, Y arrays; axis 0 runs along y, axis 1 along x."""
        xs = self.coords()
        return np.meshgrid(xs, xs)

    def nodes(self) -> np.ndarray:
        X, Y = self.mesh()
        return X + 1j * Y

    def disc_mask(self, margin: float) -> np.ndarray:
        if margin < 0:
            raise ValueError("margin must be >= 0")
        rr = self.radius - margin
        if rr < 0:
            return np.zeros((self.resolution, self.resolution), dtype=bool)
        X, Y = self.mesh()
        return X * X + Y * Y <= rr * rr


def make_grid(radius: float, resolution: int) -> GridSpec:
    """Validated grid constructor; rejects even or too-small resolutions."""
    return GridSpec(radius, resolution)


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


def _validate_field(spec, values, margin, mask, dtype):
    n = spec.resolution
    values = np.asarray(values)
    if values.shape != (n, n):
        raise ValueError(f"values must have shape ({n}, {n})")
    margin = float(margin)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if mask is None:
        mask = spec.disc_mask(margin)
    mask = np.asarray(mask)
    if mask.shape != (n, n) or mask.dtype != bool:
        mask = mask.astype(bool)
        if mask.shape != (n, n):
            raise ValueError("mask shape mismatch")
    if not mask.any():
        raise MaskError("empty mask: margin leaves no interior nodes")
    vals = values.astype(dtype)
    if not np.isfinite(vals[mask]).all():
        raise ValueError("non-finite values on masked nodes")
    return _frozen(vals, dtype), margin, _frozen(mask, bool)


@dataclass(frozen=True)
class ComplexField:
    """Complex samples on a grid with an interior mask of trusted nodes."""

    spec: GridSpec
    values: np.ndarray
    margin: float
    mask: np.ndarray | None = None

    def __post_init__(self):
        vals, margin, mask = _validate_field(self.spec, self.values, self.margin, self.mask, np.complex128)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_function(cls, spec: GridSpec, fn: Callable, margin: float | None = None) -> "ComplexField":
        if margin is None:
            margin = spec.default_margin()
        return cls(spec, np.asarray(fn(spec.nodes()), dtype=np.complex128), margin)

    @classmethod
    def constant(cls, spec: GridSpec, value: complex, margin: float | None = None) -> "ComplexField":
        if margin is None:
            margin = spec.default_margin()
        vals = np.full((spec.resolution, spec.resolution), complex(value), dtype=np.complex128)
        return cls(spec, vals, margin)

    def like(self, values: np.ndarray) -> "ComplexField":
        return ComplexField(self.spec, values, self.margin, self.mask)

    def restrict(self, keep: np.ndarray) -> "ComplexField":
        return ComplexField(self.spec, self.values, self.margin, self.mask & keep)

    def at_origin(self) -> complex:
        c = self.spec.center
        return complex(self.values[c, c])


@dataclass(frozen=True)
class RealField:
    """Real samples on a grid with an interior mask of trusted nodes."""

    spec: GridSpec
    values: np.ndarray
    margin: float
    mask: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            raise ValueError("RealField requires real values")
        vals, margin, mask = _validate_field(self.spec, vals, self.margin, self.mask, np.float64)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_function(cls, spec: GridSpec, fn: Callable, margin: float | None = None) -> "RealField":
        if margin is None:
            margin = spec.default_margin()
        X, Y = spec.mesh()
        return cls(spec, np.asarray(fn(X, Y), dtype=np.float64), margin)

    @classmethod
    def constant(cls, spec: GridSpec, value: float, margin: float | None = None) -> "RealField":
        if margin is None:
            margin = spec.default_margin()
        vals = np.full((spec.resolution, spec.resolution), float(value), dtype=np.float64)
        return cls(spec, vals, margin)

    def like(self, values: np.ndarray) -> "RealField":
        return RealField(self.spec, values, self.margin, self.mask)

    def restrict(self, keep: np.ndarray) -> "RealField":
        return RealField(self.spec, self.values, self.margin, self.mask & keep)

    def at_origin(self) -> float:
        c = self.spec.center
        return float(self.values[c, c])


@dataclass(frozen=True)
class PolarField:
    """Modulus/argument pair with a branch-continuous argument on the mask."""

    rho: RealField
    phi: RealField

    def __post_init__(self):
        if self.rho.spec != self.phi.spec:
            raise ValueError("rho and phi live on different grids")
        if not np.array_equal(self.rho.mask, self.phi.mask):
            raise ValueError("rho and phi have different masks")
        if np.min(self.rho.values[self.rho.mask]) <= 0:
            raise VanishingFieldError("rho must be strictly positive on the mask")

    def reconstruct(self) -> ComplexField:
        vals = self.rho.values * np.exp(1j * self.phi.values)
        return ComplexField(self.rho.spec, vals, self.rho.margin, self.rho.mask)


def _shrunk(field) -> tuple[float, np.ndarray]:
    """Margin and disc mask one spacing inside the field's nominal margin."""
    m2 = field.margin + field.spec.spacing
    mk = field.spec.disc_mask(m2)
    if not mk.any():
        raise MaskError("mask too thin for a centered stencil")
    return m2, mk


def _dx(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    with np.errstate(all="ignore"):
        out[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * h)
    return out


def _dy(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    with np.errstate(all="ignore"):
        out[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * h)
    return out


def _lap5(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    with np.errstate(all="ignore"):
        out[1:-1, 1:-1] = (
            values[1:-1, 2:] + values[1:-1, :-2] + values[2:, 1:-1] + values[:-2, 1:-1]
            - 4.0 * values[1:-1, 1:-1]
        ) / (h * h)
    return out


def _masked_out(field, raw: np.ndarray, m2: float, mk: np.ndarray, cls):
    vals = np.where(mk, raw, 0)
    return cls(field.spec, vals, m2, mk)


def central_dx(field):
    """Centered x-derivative, exact on polynomials of degree <= 2 in x."""
    m2, mk = _shrunk(field)
    cls = ComplexField if isinstance(field, ComplexField) else RealField
    return _masked_out(field, _dx(field.values, field.spec.spacing), m2, mk, cls)


def central_dy(field):
    """Centered y-derivative, exact on polynomials of degree <= 2 in y."""
    m2, mk = _shrunk(field)
    cls = ComplexField if isinstance(field, ComplexField) else RealField
    return _masked_out(field, _dy(field.values, field.spec.spacing), m2, mk, cls)


def wirtinger_dzbar(f: ComplexField) -> ComplexField:
    """Discrete d/dzbar = (d/dx + i d/dy)/2 via centered differences.

    Exact on polynomials of degree <= 2 in x and y separately; the result is
    masked one spacing inside f's margin so every node has a full stencil.
    """
    m2, mk = _shrunk(f)
    h = f.spec.spacing
    raw = 0.5 * (_dx(f.values, h) + 1j * _dy(f.values, h))
    return _masked_out(f, raw, m2, mk, ComplexField)


def laplacian5(u: RealField) -> RealField:
    """Five-point Laplacian (E + W + N + S - 4C)/h^2, exact on quadratics."""
    m2, mk = _shrunk(u)
    raw = _lap5(u.values, u.spec.spacing)
    return _masked_out(u, raw, m2, mk, RealField)


def sup_norm(field) -> float:
    """Max of |values| over the mask."""
    if not field.mask.any():
        raise MaskError("sup_norm of an empty mask")
    return float(np.max(np.abs(field.values[field.mask])))


def erode4(mask: np.ndarray) -> np.ndarray:
    """Keep nodes whose four axis neighbours are all inside the mask.

    Stencil outputs are only trustworthy where the stencil never reads an
    off-mask value; intersecting with this erosion guarantees that even for
    masks that are not plain discs (restricted components, branch regions).
    """
    out = np.zeros_like(mask)
    out[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & mask[1:-1, 2:]
        & mask[1:-1, :-2]
        & mask[2:, 1:-1]
        & mask[:-2, 1:-1]
    )
    return out


def _principal(delta: np.ndarray) -> np.ndarray:
    return (delta + np.pi) % (2.0 * np.pi) - np.pi


def basepoint_node(spec: GridSpec, basepoint: complex, mask: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the node nearest basepoint, or None if it is off the grid or the mask."""
    h = spec.spacing
    c = spec.center
    bp = complex(basepoint)
    bi = int(round(bp.imag / h)) + c
    bj = int(round(bp.real / h)) + c
    n = spec.resolution
    if not (0 <= bi < n and 0 <= bj < n) or not mask[bi, bj]:
        return None
    return bi, bj


def _unwrap_outward(phi: np.ndarray, raw: np.ndarray, mask: np.ndarray) -> None:
    """Extend phi from its row 0 down axis 0, in place, column by column.

    Each column whose row-0 entry is set is walked by a running sum of
    principal increments and stops before its first unmasked node.  The
    arguments are same-oriented views (sliced, reversed or transposed) of the
    full arrays; np.cumsum adds strictly in order, so every value is the one
    a node-by-node walk would produce.
    """
    with np.errstate(invalid="ignore"):
        steps = _principal(raw[1:] - raw[:-1])
        walked = np.cumsum(np.concatenate([phi[:1], steps]), axis=0)[1:]
    reached = np.logical_and.accumulate(mask[1:], axis=0) & ~np.isnan(phi[0])
    phi[1:][reached] = walked[reached]


def polar_decompose(g: ComplexField, basepoint: complex = 0j) -> PolarField:
    """Split a nonvanishing field into modulus and a continuous argument branch.

    The branch is fixed by the principal argument at the basepoint node.  It
    is unwrapped outwards along the basepoint's row, then from every seeded
    row node up and down its column, all columns at once; each walk is a
    cumulative sum of principal increments that stops before the first
    unmasked node.  Masked nodes those passes miss (non-disc restrictions) are
    reached by a breadth-first fill seeded, in row-major order, with the set
    nodes that border them.  Afterwards every masked edge is checked: the
    unwrapped increment must match the principal increment to UNWRAP_TOL,
    otherwise no continuous branch exists (a zero of g is enclosed) and
    PhaseUnwrapError is raised.
    """
    spec = g.spec
    mask = g.mask
    rho_vals = np.abs(g.values)
    if np.min(rho_vals[mask]) <= 0.0:
        raise VanishingFieldError("field vanishes on its mask")

    n = spec.resolution
    node = basepoint_node(spec, basepoint, mask)
    if node is None:
        raise ValueError("basepoint is not a masked grid node")
    bi, bj = node

    raw = np.angle(g.values)
    phi = np.full((n, n), np.nan)
    phi[bi, bj] = raw[bi, bj]

    # basepoint row, outwards in both directions
    row = slice(bi, bi + 1)
    for cols in (slice(bj, None), slice(bj, None, -1)):
        _unwrap_outward(phi[row, cols].T, raw[row, cols].T, mask[row, cols].T)
    # columns, from the seeded row, downwards and upwards
    for rows in (slice(bi, None), slice(bi, None, -1)):
        _unwrap_outward(phi[rows], raw[rows], mask[rows])

    # breadth-first fill for masks the row/column passes missed
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
                    phi[a, b] = phi[i, j] + _principal(raw[a, b] - raw[i, j])
                    pending[a, b] = False
                    queue.append((a, b))
        if pending.any():
            raise PhaseUnwrapError("mask is not connected to the basepoint")

    # every masked edge must agree with the principal increment
    worst = 0.0
    for axis in (0, 1):
        a = phi if axis == 0 else phi.T
        r = raw if axis == 0 else raw.T
        m = mask if axis == 0 else mask.T
        both = m[1:, :] & m[:-1, :]
        if both.any():
            d_unwrapped = (a[1:, :] - a[:-1, :])[both]
            d_principal = _principal((r[1:, :] - r[:-1, :])[both])
            worst = max(worst, float(np.max(np.abs(d_unwrapped - d_principal))))
    if worst > UNWRAP_TOL:
        raise PhaseUnwrapError(
            f"unwrap inconsistency {worst:.3e} rad exceeds {UNWRAP_TOL:.0e}; "
            "a zero of the field is enclosed by the mask"
        )

    phi = np.where(mask, phi, 0.0)
    rho = RealField(spec, np.where(mask, rho_vals, 1.0), g.margin, mask)
    return PolarField(rho, RealField(spec, phi, g.margin, mask))


def _is_disc_masked(field) -> bool:
    return np.array_equal(field.mask, field.spec.disc_mask(field.margin))


def save_field(field, path) -> str:
    """Write the flat binary layout: radius f64, N u32, margin f64, row-major re/im pairs.

    Only disc-masked fields serialize; the loader reconstructs the mask from
    the header, so an ad-hoc restricted mask would round-trip wrongly.
    """
    if not _is_disc_masked(field):
        raise ValueError("only disc-masked fields serialize; restricted masks are ephemeral")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(field.spec.radius, field.spec.resolution, field.margin))
        fh.write(np.asarray(field.values, dtype="<c16").tobytes())
    return str(path)


def load_complex_field(path) -> ComplexField:
    """Read the save_field layout back; every stored value, signed zeros included, round-trips."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated field file")
        radius, n, margin = _HEADER.unpack(head)
        body = fh.read()
    expect = n * n * 16
    if len(body) != expect:
        raise ValueError(f"field payload has {len(body)} bytes, expected {expect}")
    values = np.frombuffer(body, dtype="<c16").reshape(n, n)
    return ComplexField(make_grid(radius, n), values, margin)
