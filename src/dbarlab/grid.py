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
        xs = self.coords()
        sq = xs * xs
        return sq[np.newaxis, :] + sq[:, np.newaxis] <= rr * rr


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
    vals = values.astype(dtype, copy=False)
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
    def from_function(cls, spec: GridSpec, fn: Callable) -> "ComplexField":
        return cls(spec, np.asarray(fn(spec.nodes()), dtype=np.complex128), spec.default_margin())

    @classmethod
    def constant(cls, spec: GridSpec, value: complex) -> "ComplexField":
        vals = np.full((spec.resolution, spec.resolution), complex(value), dtype=np.complex128)
        return cls(spec, vals, spec.default_margin())

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
    def constant(cls, spec: GridSpec, value: float) -> "RealField":
        vals = np.full((spec.resolution, spec.resolution), float(value), dtype=np.float64)
        return cls(spec, vals, spec.default_margin())

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
    """Five-point Laplacian (E + W + N + S - 4C)/h^2, exact on quadratics; 0 on the outer frame."""
    out = np.zeros_like(values)
    with np.errstate(all="ignore"):
        out[1:-1, 1:-1] = (
            values[1:-1, 2:] + values[1:-1, :-2] + values[2:, 1:-1] + values[:-2, 1:-1]
            - 4.0 * values[1:-1, 1:-1]
        ) / (h * h)
    return out


def _dzbar(values: np.ndarray, h: float) -> np.ndarray:
    return 0.5 * (_dx(values, h) + 1j * _dy(values, h))


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
    return _masked_out(f, _dzbar(f.values, f.spec.spacing), m2, mk, ComplexField)


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


def mask_window(mask: np.ndarray, halo: int) -> tuple[slice, slice]:
    """Row and column slices of the mask's bounding box grown by halo nodes, clipped to the grid.

    A stencil check on the masked nodes reads nothing outside the window with
    halo 1, and row-major order inside the window is row-major order in the
    grid.  An empty mask gives the empty window (0:0, 0:0).
    """
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if not rows.size:
        return slice(0, 0), slice(0, 0)
    n_rows, n_cols = mask.shape
    return (
        slice(max(int(rows[0]) - halo, 0), min(int(rows[-1]) + 1 + halo, n_rows)),
        slice(max(int(cols[0]) - halo, 0), min(int(cols[-1]) + 1 + halo, n_cols)),
    )


def _principal(delta: np.ndarray) -> np.ndarray:
    """(delta + pi) % 2pi - pi, with the remainder taken only where it changes the value.

    For 0 <= delta + pi < 2pi the remainder returns its operand exactly, so
    skipping it there leaves every bit as the plain formula has it.
    """
    t = np.asarray(delta + np.pi)
    np.remainder(t, 2.0 * np.pi, out=t, where=(t < 0.0) | (t >= 2.0 * np.pi))
    return t - np.pi


def _increments(raw: np.ndarray) -> np.ndarray:
    """Principal increments of the argument from each row of raw to the next."""
    with np.errstate(invalid="ignore"):
        return _principal(raw[1:] - raw[:-1])


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


def _walk(phi: np.ndarray, steps: np.ndarray, mask: np.ndarray) -> None:
    """Extend phi from its row 0 down axis 0, in place, column by column.

    steps[k] is the principal increment from row k to row k + 1.  Each column
    is walked by a running sum of the increments and stops before its first
    unmasked node.  The arguments are same-oriented views (sliced, reversed
    or transposed) of window arrays; np.cumsum adds strictly in order, so
    every value is the one a node-by-node walk would produce.
    """
    walked = np.cumsum(np.concatenate([phi[:1], steps]), axis=0)[1:]
    reached = np.logical_and.accumulate(mask[1:], axis=0)
    phi[1:][reached] = walked[reached]


def polar_decompose(g: ComplexField, basepoint: complex = 0j) -> PolarField:
    """Split a nonvanishing field into modulus and a continuous argument branch.

    The branch is fixed by the principal argument at the basepoint node.  All
    the work runs on the mask's window (its bounding box), since the walks
    stop at the mask and every checked edge joins two masked nodes.  The
    argument is unwrapped outwards along the basepoint's row, then from every
    seeded row node up and down its column, all seeded columns at once; each
    walk is a cumulative sum of principal increments that stops before the
    first unmasked node.  The forward increments (down axis 0, along axis 1)
    are taken once and serve the downward and rightward walks and the edge
    check; the upward and leftward walks difference in the opposite sign,
    which rounds differently, so they take their own.  Masked nodes the
    passes miss (non-disc restrictions) are reached by a breadth-first fill
    seeded, in row-major order, with the set nodes that border them.
    Afterwards every masked edge is checked: the unwrapped increment must
    match the principal increment to UNWRAP_TOL, otherwise no continuous
    branch exists (a zero of g is enclosed) and PhaseUnwrapError is raised.
    Off the mask, phi is 0 and rho is 1.
    """
    spec = g.spec
    n = spec.resolution
    win = mask_window(g.mask, 0)
    mask = g.mask[win]
    values = g.values[win]
    rho_vals = np.abs(values)
    if np.min(rho_vals[mask]) <= 0.0:
        raise VanishingFieldError("field vanishes on its mask")

    node = basepoint_node(spec, basepoint, g.mask)
    if node is None:
        raise ValueError("basepoint is not a masked grid node")
    bi, bj = node[0] - win[0].start, node[1] - win[1].start

    raw = np.angle(values)
    down = _increments(raw)
    across = _increments(raw.T)
    phi = np.full(mask.shape, np.nan)
    phi[bi, bj] = raw[bi, bj]

    # basepoint row, outwards in both directions
    row = slice(bi, bi + 1)
    _walk(phi.T[bj:, row], across[bj:, row], mask.T[bj:, row])
    _walk(phi.T[bj::-1, row], _increments(raw.T[bj::-1, row]), mask.T[bj::-1, row])
    # seeded columns, from the basepoint row, downwards and upwards
    seeded = np.flatnonzero(~np.isnan(phi[bi]))
    cols = slice(seeded[0], seeded[-1] + 1)
    _walk(phi[bi:, cols], down[bi:, cols], mask[bi:, cols])
    _walk(phi[bi::-1, cols], _increments(raw[bi::-1, cols]), mask[bi::-1, cols])

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
        rows_w, cols_w = mask.shape
        while queue:
            i, j = queue.popleft()
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                a, b = i + di, j + dj
                if 0 <= a < rows_w and 0 <= b < cols_w and pending[a, b]:
                    phi[a, b] = phi[i, j] + _principal(raw[a, b] - raw[i, j])
                    pending[a, b] = False
                    queue.append((a, b))
        if pending.any():
            raise PhaseUnwrapError("mask is not connected to the basepoint")

    # every masked edge must agree with the principal increment
    worst = 0.0
    for a, steps, m in ((phi, down, mask), (phi.T, across, mask.T)):
        both = m[1:] & m[:-1]
        if both.any():
            d_unwrapped = (a[1:] - a[:-1])[both]
            worst = max(worst, float(np.max(np.abs(d_unwrapped - steps[both]))))
    if worst > UNWRAP_TOL:
        raise PhaseUnwrapError(
            f"unwrap inconsistency {worst:.3e} rad exceeds {UNWRAP_TOL:.0e}; "
            "a zero of the field is enclosed by the mask"
        )

    phi_full = np.zeros((n, n))
    phi_full[win] = np.where(mask, phi, 0.0)
    rho_full = np.ones((n, n))
    rho_full[win] = np.where(mask, rho_vals, 1.0)
    rho = RealField(spec, rho_full, g.margin, g.mask)
    return PolarField(rho, RealField(spec, phi_full, g.margin, g.mask))


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
