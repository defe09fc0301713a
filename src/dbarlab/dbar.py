"""Regularized Picard solver for df/dzbar = |f|^(1/2) with f(0) anchored.

The fixed-point map is f -> (1 - theta) f + theta [ T(rhs) + (b - T(rhs)(0)) ],
where T is the solid Cauchy transform and rhs = (|f|^2 + eps^2)^(1/4).  The
regularization eps decreases geometrically over the continuation schedule and
the final sweep runs at eps = 0, where the right side is the non-Lipschitz
|f|^(1/2) itself.  Non-convergence (max_iter exhausted, or the update supremum
stalling) is reported data, never an exception; only NaN is a hard error.

b = 0 is special-cased: the zero field is an exact fixed point at eps = 0 but
is repulsive under the regularized sweep (sqrt(eps) kicks the iterate off
zero), so the schedule collapses to the single eps = 0 stage and every
iterate stays exactly zero.

The additive anchor is the only holomorphic freedom used by default; richer
holomorphic parts can be pinned explicitly through holo_coeffs (coefficients
of z, z^2, ... added to the Picard target; the fixed point still solves the
equation because the added part is holomorphic).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cauchy import CauchyTransform
from .grid import ComplexField, GridSpec, RealField, make_grid, sup_norm, wirtinger_dzbar
from . import util

EPSILON_DECAY = 0.2
STALL_WINDOW = 50
STALL_RATIO = 0.9


class NanEncountered(ArithmeticError):
    """The iteration produced a non-finite value on the mask."""


@dataclass(frozen=True)
class DbarProblem:
    """Everything that pins down one solve; immutable and hashable-by-value."""

    grid: GridSpec
    b: complex
    epsilon: float = 1e-2
    theta: float = 0.5
    tol: float = 1e-8
    max_iter: int = 500
    continuation_steps: int = 8
    margin_cells: float = 2.0
    holo_coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "holo_coeffs", tuple(complex(c) for c in self.holo_coeffs))
        for name in ("max_iter", "continuation_steps"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.continuation_steps < 1:
            raise ValueError("continuation_steps must be >= 1")
        if self.margin_cells < 0:
            raise ValueError("margin_cells must be >= 0")

    @property
    def margin(self) -> float:
        return self.margin_cells * self.grid.spacing

    def epsilon_schedule(self) -> list:
        """Geometric decrease from epsilon down to the final eps = 0 sweep."""
        if self.b == 0 or self.epsilon == 0.0:
            return [0.0]
        stages = [self.epsilon * EPSILON_DECAY ** k for k in range(self.continuation_steps - 1)]
        return stages + [0.0]

    def to_json_dict(self) -> dict:
        return {
            "radius": self.grid.radius,
            "resolution": self.grid.resolution,
            "b": util.as_complex_pair(self.b),
            "epsilon": self.epsilon,
            "theta": self.theta,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "continuation_steps": self.continuation_steps,
            "margin_cells": self.margin_cells,
            "holo_coeffs": [util.as_complex_pair(c) for c in self.holo_coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DbarProblem":
        return cls(
            grid=make_grid(d["radius"], d["resolution"]),
            b=util.from_complex_pair(d["b"]),
            epsilon=d["epsilon"],
            theta=d["theta"],
            tol=d["tol"],
            max_iter=d["max_iter"],
            continuation_steps=d["continuation_steps"],
            margin_cells=d["margin_cells"],
            holo_coeffs=tuple(util.from_complex_pair(c) for c in d.get("holo_coeffs", [])),
        )


@dataclass(frozen=True)
class DbarSolution:
    """Solver output; converged=False is a valid, reportable outcome."""

    problem: DbarProblem
    f: ComplexField
    residual_sup: float
    sup_f: float
    converged: bool
    iterations: int
    update_history: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.converged:
            err = abs(self.f.at_origin() - self.problem.b)
            if err > 1e-12:
                raise ValueError(f"converged solution violates the anchor: |f(0)-b| = {err:.3e}")

    def to_json_dict(self) -> dict:
        last = self.update_history[-1] if self.update_history else None
        return {
            "schema_version": util.SCHEMA_VERSION,
            "problem": self.problem.to_json_dict(),
            "converged": self.converged,
            "residual_sup": self.residual_sup,
            "sup_f": self.sup_f,
            "iterations": self.iterations,
            "final_update": last,
        }

    def save(self, directory, stem: str = "solution") -> dict:
        """Write {stem}.json plus the binary field {stem}.f64; returns the paths."""
        import os

        from .grid import save_field

        field_path = os.path.join(str(directory), stem + ".f64")
        json_path = os.path.join(str(directory), stem + ".json")
        save_field(self.f, field_path)
        record = self.to_json_dict()
        record["field"] = stem + ".f64"
        util.write_json(json_path, record)
        return {"json": json_path, "field": field_path}


def load_solution(json_path) -> DbarSolution:
    """Read a solution.json record and its field file.

    Any malformed record raises ValueError (JSON syntax errors included),
    KeyError for a missing key, or OSError for an unreadable file.
    """
    import json as _json
    import os

    from .grid import load_complex_field

    with open(json_path, "r", encoding="ascii") as fh:
        record = _json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"solution record is a JSON {type(record).__name__}, expected an object")
    version = record.get("schema_version")
    if type(version) is not int or version != util.SCHEMA_VERSION:  # True == 1.0 == 1
        raise ValueError(f"solution schema_version is {version!r}, expected {util.SCHEMA_VERSION}")
    try:
        problem = DbarProblem.from_json_dict(record["problem"])
        field_path = os.path.join(os.path.dirname(str(json_path)), record["field"])
        scalars = dict(
            residual_sup=float(record["residual_sup"]),
            sup_f=float(record["sup_f"]),
            converged=bool(record["converged"]),
            iterations=int(record["iterations"]),
        )
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed solution record: {exc}") from exc
    f = load_complex_field(field_path)
    if f.spec != problem.grid:
        raise ValueError("field file does not match the recorded problem grid")
    return DbarSolution(problem=problem, f=f, **scalars)


def _rhs_values(values: np.ndarray, eps: float) -> np.ndarray:
    if eps == 0.0:
        return np.sqrt(np.abs(values))
    a = values.real * values.real + values.imag * values.imag
    return (a + eps * eps) ** 0.25


def profile_exact(c: float, spec: GridSpec, margin: float | None = None) -> ComplexField:
    """The translated exact solution (max(x - c, 0))^2; vanishes left of x = c."""
    if margin is None:
        margin = spec.default_margin()
    X, _ = spec.mesh()
    vals = np.maximum(X - float(c), 0.0) ** 2
    return ComplexField(spec, vals.astype(np.complex128), margin)


def residual_dbar(f: ComplexField) -> tuple[RealField, float]:
    """Pointwise |df/dzbar - |f|^(1/2)| on the stencil interior, plus its sup."""
    d = wirtinger_dzbar(f)
    rhs = np.sqrt(np.abs(f.values))
    vals = np.where(d.mask, np.abs(d.values - rhs), 0.0)
    out = RealField(f.spec, vals, d.margin, d.mask)
    return out, float(np.max(vals[d.mask]))


def _stalled(history: list) -> bool:
    if len(history) < 2 * STALL_WINDOW:
        return False
    if len(history) % STALL_WINDOW:
        return False
    recent = min(history[-STALL_WINDOW:])
    older = min(history[-2 * STALL_WINDOW : -STALL_WINDOW])
    return recent > STALL_RATIO * older


def picard_solve(problem: DbarProblem, f0: ComplexField | None = None) -> DbarSolution:
    """Run the damped Picard iteration through the continuation schedule.

    Starts from f identically b (or the warm start f0 on the same grid).  Each
    stage iterates until the sup-norm update falls below tol, max_iter is
    exhausted, or the update stalls; converged reports whether the final
    eps = 0 stage met tol.  The anchor f(0) = b holds exactly at every iterate.
    """
    spec = problem.grid
    margin = problem.margin
    mask = spec.disc_mask(margin)
    if not mask.any():
        raise ValueError("margin leaves no interior nodes")
    c = spec.center
    if not mask[c, c]:
        raise ValueError("origin node must be masked to anchor f(0)")

    if f0 is None:
        f = np.full((spec.resolution, spec.resolution), problem.b, dtype=np.complex128)
    else:
        if f0.spec != spec:
            raise ValueError("warm start lives on a different grid")
        f = np.array(f0.values, dtype=np.complex128, copy=True)

    holo = None
    if problem.holo_coeffs:
        zz = spec.nodes()
        holo = np.zeros_like(zz)
        for k, ck in enumerate(problem.holo_coeffs, start=1):
            holo = holo + ck * zz ** k

    transform = CauchyTransform(spec, mask)
    theta = problem.theta
    b = problem.b
    new = np.empty_like(f)
    history: list = []
    iterations = 0
    stage_converged = False

    for eps in problem.epsilon_schedule():
        stage_history: list = []
        stage_converged = False
        for _ in range(problem.max_iter):
            # overflow here is diagnosed by the finiteness check, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                g = _rhs_values(f, eps)
                target = transform.apply_values(g)
                target += b - target[c, c]
                if holo is not None:
                    target += holo
                target[c, c] = b
                target *= theta
                np.multiply(f, 1.0 - theta, out=new)
                new += target
                new[c, c] = b
                update = float(np.max(np.abs((new - f)[mask])))
            # f is finite on the mask, so a non-finite update means a non-finite iterate there
            if not np.isfinite(update):
                raise NanEncountered("non-finite iterate on the mask")
            history.append(update)
            stage_history.append(update)
            iterations += 1
            f, new = new, f
            if update <= problem.tol:
                stage_converged = True
                break
            if _stalled(stage_history):
                break

    field_out = ComplexField(spec, f, margin, mask)
    _, res_sup = residual_dbar(field_out)
    return DbarSolution(
        problem=problem,
        f=field_out,
        residual_sup=res_sup,
        sup_f=sup_norm(field_out),
        converged=stage_converged,
        iterations=iterations,
        update_history=tuple(history),
    )


def rescale_solution(f: ComplexField, r: float, resolution: int | None = None) -> ComplexField:
    """Pull a field on the radius-r disc back to the unit disc: F(w) = f(r w) / r^2.

    If f solves the equation on the large disc, F solves it on the unit disc.
    Values are bilinearly resampled; when source and target share a resolution
    the sample points land exactly on source nodes and the resample is exact.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    src = f.spec
    if abs(src.radius - r) > 1e-12 * max(1.0, r):
        raise ValueError("r must equal the radius of f's grid")
    n = src.resolution if resolution is None else resolution
    target = make_grid(1.0, n)
    # keep every bilinear corner inside the source mask
    margin_t = max(target.default_margin(), (f.margin + 1.5 * src.spacing) / r)
    mask_t = target.disc_mask(margin_t)
    if not mask_t.any():
        raise ValueError("rescale target mask is empty")

    Xt, Yt = target.mesh()
    gx = (Xt * r) / src.spacing + src.center
    gy = (Yt * r) / src.spacing + src.center
    i0 = np.clip(np.floor(gy).astype(int), 0, src.resolution - 2)
    j0 = np.clip(np.floor(gx).astype(int), 0, src.resolution - 2)
    ty = gy - i0
    tx = gx - j0
    v = f.values
    interp = (
        v[i0, j0] * (1 - ty) * (1 - tx)
        + v[i0, j0 + 1] * (1 - ty) * tx
        + v[i0 + 1, j0] * ty * (1 - tx)
        + v[i0 + 1, j0 + 1] * ty * tx
    )
    out = np.where(mask_t, interp / (r * r), 0)
    return ComplexField(target, out, margin_t, mask_t)


def rescaled_solution_record(sol: DbarSolution, resolution: int | None = None) -> DbarSolution:
    """Rescale a solve from D_r to the unit disc and re-measure its residual."""
    r = sol.problem.grid.radius
    F = rescale_solution(sol.f, r, resolution)
    _, res = residual_dbar(F)
    problem = replace(
        sol.problem,
        grid=F.spec,
        b=F.at_origin(),
        margin_cells=F.margin / F.spec.spacing,
    )
    return DbarSolution(
        problem=problem,
        f=F,
        residual_sup=res,
        sup_f=sup_norm(F),
        converged=sol.converged,
        iterations=sol.iterations,
    )
