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

from dataclasses import dataclass, replace

import numpy as np

from .cauchy import CauchyTransform
from .grid import ComplexField, GridSpec, RealField, make_grid, sup_norm
from .grid import _dzbar, _shrunk
from . import util

EPSILON_DECAY = 0.2
STALL_WINDOW = 50
STALL_RATIO = 0.9
# a solve is certified when its dbar residual is within this many grid spacings
RESIDUAL_GATE_FACTOR = 5.0


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
    """Solver output; converged=False is a valid, reportable outcome.

    final_update is the sup-norm change of the last Picard step, if any.
    """

    problem: DbarProblem
    f: ComplexField
    residual_sup: float
    sup_f: float
    converged: bool
    iterations: int
    final_update: float | None = None

    def __post_init__(self):
        if self.converged:
            err = abs(self.f.at_origin() - self.problem.b)
            if err > 1e-12:
                raise ValueError(f"converged solution violates the anchor: |f(0)-b| = {err:.3e}")

    @property
    def residual_gate(self) -> float:
        """The certification bound on residual_sup: 5h on the solution's own grid."""
        return RESIDUAL_GATE_FACTOR * self.f.spec.spacing

    @property
    def certified(self) -> bool:
        """Converged with the dbar residual within the gate; the lemmas apply only then."""
        return self.converged and self.residual_sup <= self.residual_gate

    def to_json_dict(self) -> dict:
        return {
            "schema_version": util.SCHEMA_VERSION,
            "problem": self.problem.to_json_dict(),
            "converged": self.converged,
            "residual_sup": self.residual_sup,
            "sup_f": self.sup_f,
            "iterations": self.iterations,
            "final_update": self.final_update,
        }

    def save(self, directory) -> dict:
        """Write solution.json plus the binary field solution.f64; returns the paths."""
        import os

        from .grid import save_field

        field_path = os.path.join(str(directory), "solution.f64")
        json_path = os.path.join(str(directory), "solution.json")
        save_field(self.f, field_path)
        record = self.to_json_dict()
        record["field"] = "solution.f64"
        util.write_json(json_path, record)
        return {"json": json_path, "field": field_path}


# the JSON types load_solution accepts for each scalar of a solution record
_RECORD_SCALARS = {
    "converged": (bool,),
    "iterations": (int,),
    "residual_sup": (int, float),
    "sup_f": (int, float),
    "final_update": (int, float, type(None)),
}


def load_solution(json_path) -> DbarSolution:
    """Read a solution.json record and its field file.

    Any malformed record raises ValueError (JSON syntax errors included),
    KeyError for a missing key, or OSError for an unreadable file.  Scalars
    are taken only with their JSON type: converged a boolean, iterations an
    integer, residual_sup and sup_f numbers, final_update a number or null.
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
        for key, kinds in _RECORD_SCALARS.items():
            value = record[key]
            if type(value) not in kinds:  # bool is not an int here
                raise TypeError(f"{key} is a JSON {type(value).__name__}")
        final_update = record["final_update"]
        scalars = dict(
            residual_sup=float(record["residual_sup"]),
            sup_f=float(record["sup_f"]),
            converged=record["converged"],
            iterations=record["iterations"],
            final_update=None if final_update is None else float(final_update),
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
    a += eps * eps
    # the quarter power as two square roots: cheaper than pow
    np.sqrt(a, out=a)
    return np.sqrt(a, out=a)


def profile_exact(c: float, spec: GridSpec) -> ComplexField:
    """The translated exact solution (max(x - c, 0))^2; vanishes left of x = c."""
    X, _ = spec.mesh()
    vals = np.maximum(X - float(c), 0.0) ** 2
    return ComplexField(spec, vals.astype(np.complex128), spec.default_margin())


def residual_values(values: np.ndarray, h: float) -> np.ndarray:
    """|df/dzbar - |f|^(1/2)| at every node of an array of f values with spacing h.

    Only nodes whose centered stencil lies inside the array are meaningful,
    so a window of the grid gives, on its inner nodes, the grid's values.
    """
    return np.abs(_dzbar(values, h) - np.sqrt(np.abs(values)))


def residual_dbar(f: ComplexField) -> tuple[RealField, float]:
    """Pointwise |df/dzbar - |f|^(1/2)| on the stencil interior, plus its sup."""
    margin, mask = _shrunk(f)
    vals = np.where(mask, residual_values(f.values, f.spec.spacing), 0.0)
    out = RealField(f.spec, vals, margin, mask)
    return out, float(np.max(vals[mask]))


def _stalled(history: list) -> bool:
    if len(history) < 2 * STALL_WINDOW:
        return False
    if len(history) % STALL_WINDOW:
        return False
    recent = min(history[-STALL_WINDOW:])
    older = min(history[-2 * STALL_WINDOW : -STALL_WINDOW])
    return recent > STALL_RATIO * older


def picard_solve(problem: DbarProblem) -> DbarSolution:
    """Run the damped Picard iteration through the continuation schedule.

    Starts from f identically b.  Each stage iterates until the sup-norm
    update falls below tol, max_iter is exhausted, or the update stalls;
    converged reports whether the final eps = 0 stage met tol.  The anchor f(0) = b holds exactly at every iterate.
    """
    spec = problem.grid
    margin = problem.margin
    mask = spec.disc_mask(margin)
    if not mask.any():
        raise ValueError("margin leaves no interior nodes")
    c = spec.center
    if not mask[c, c]:
        raise ValueError("origin node must be masked to anchor f(0)")

    f = np.full((spec.resolution, spec.resolution), problem.b, dtype=np.complex128)

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
        final_update=update,
    )


def rescale_solution(f: ComplexField) -> ComplexField:
    """Pull a field on the radius-r disc back to the unit disc: F(w) = f(r w) / r^2.

    If f solves the equation on the large disc, F solves it on the unit disc.
    The unit grid at the same resolution has its nodes at the source nodes
    divided by r, so the pull-back is the exact relabel F = f / r^2, node for
    node.  The target margin is the source margin plus 1.5 source cells,
    scaled by 1/r and at least two target cells; the 1.5-cell allowance is
    kept so the certified mask is unchanged.
    """
    src = f.spec
    r = src.radius
    target = make_grid(1.0, src.resolution)
    margin_t = max(target.default_margin(), (f.margin + 1.5 * src.spacing) / r)
    mask_t = target.disc_mask(margin_t)
    if not mask_t.any():
        raise ValueError("rescale target mask is empty")
    return ComplexField(target, np.where(mask_t, f.values / (r * r), 0), margin_t, mask_t)


def rescaled_solution_record(sol: DbarSolution) -> DbarSolution:
    """Relabel a solve from D_r onto the unit disc and re-measure residual and sup there."""
    F = rescale_solution(sol.f)
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
