"""Regularized Picard solver for df/dzbar = |f|^(1/2) with f(0) anchored.

The fixed-point map is f -> (1 - theta) f + theta [ T(rhs) + (b - T(rhs)(0)) ],
where T is the solid Cauchy transform and rhs = (|f|^2 + eps^2)^(1/4).  A step
runs it as f <- f + theta d with d = T(rhs) + (b - T(rhs)(0)) - f, built in
the array the transform returns and set to zero at the anchor, so f(0) = b
stays exact; the update is max |theta d| on the mask.  f is updated in place
and is the only array the solver allocates: the right side and |theta d| go
through the transform's scratch, which is idle between applies.  The
transform is built before f exists, so the kernel build's temporaries do not
stack on the iteration's arrays.  A step drops d once the update is read, so
one step array is alive at a time, and the transform is released before the
solution copies f.  The regularization eps decreases geometrically over the
continuation schedule and the final sweep runs at eps = 0, where the right
side is the non-Lipschitz |f|^(1/2) itself.  Non-convergence (MAX_ITER
exhausted, or the update supremum stalling) is reported data, never an
exception; only NaN is a hard error.

A problem is a grid and an anchor b.  A solution is its field plus how the
iteration ended; its problem, dbar residual array and sup derive from the
field, the residual and sup on first read, so a solve, its relabel to the
unit disc and a record read back from disk share one rule for each, and a
solve measures its residual once for every reader.  The solver's
settings are the module constants EPSILON (the first eps), EPSILON_DECAY,
CONTINUATION_STEPS (stages, the eps = 0 sweep included), THETA (the
damping), TOL (the update that ends a stage), MAX_ITER (steps per stage),
STALL_WINDOW and STALL_RATIO; picard_solve reads them when it runs.  The
mask is the grid's disc less its default margin (grid.DEFAULT_MARGIN_CELLS).

b = 0 is special-cased: the zero field is an exact fixed point at eps = 0 but
is repulsive under the regularized sweep (sqrt(eps) kicks the iterate off
zero), so the schedule collapses to the single eps = 0 stage and every
iterate stays exactly zero.
"""

from __future__ import annotations

import cmath
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .cauchy import CauchyTransform
from .grid import ComplexField, GridSpec, make_grid, sup_norm
from .grid import _dzbar, _shrunk, load_complex_field, save_field
from . import util

EPSILON = 1e-2
EPSILON_DECAY = 0.2
CONTINUATION_STEPS = 8
THETA = 0.5
TOL = 1e-8
MAX_ITER = 500
STALL_WINDOW = 50
STALL_RATIO = 0.9
# a solve is certified when its dbar residual is within this many grid spacings
RESIDUAL_GATE_FACTOR = 5.0


class NanEncountered(ArithmeticError):
    """The iteration produced a non-finite value on the mask."""


class ResidualError(ValueError):
    """The dbar residual of a field is not finite on its trusted nodes."""


@dataclass(frozen=True)
class DbarProblem:
    """Everything that pins down one solve; immutable and hashable-by-value."""

    grid: GridSpec
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "b", complex(self.b))
        if not cmath.isfinite(self.b):
            raise ValueError("b must be finite")

    def epsilon_schedule(self) -> list:
        """Geometric decrease from EPSILON down to the final eps = 0 sweep."""
        if self.b == 0:
            return [0.0]
        return [EPSILON * EPSILON_DECAY ** k for k in range(CONTINUATION_STEPS - 1)] + [0.0]

    def to_json_dict(self) -> dict:
        return {
            "radius": self.grid.radius,
            "resolution": self.grid.resolution,
            "b": util.as_complex_pair(self.b),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DbarProblem":
        """Read to_json_dict's keys; any other key is refused with ValueError."""
        extra = set(d) - {"radius", "resolution", "b"}
        if extra:
            raise ValueError(f"unknown problem keys: {sorted(extra)}")
        return cls(grid=make_grid(d["radius"], d["resolution"]), b=util.from_complex_pair(d["b"]))


@dataclass(frozen=True)
class DbarSolution:
    """Solver output; converged=False is a valid, reportable outcome.

    final_update is the sup-norm change of the last Picard step, if any.
    The rest derives from f: the problem is f's grid and f(0), which every
    iterate keeps equal to the anchor; residual (residual_dbar's array,
    ResidualError if it is not finite) and sup_f are measured on f when
    first read and kept, and residual_sup is the residual's max.
    """

    f: ComplexField
    converged: bool
    iterations: int
    final_update: float | None = None

    @property
    def problem(self) -> DbarProblem:
        return DbarProblem(self.f.spec, self.f.at_origin())

    @functools.cached_property
    def residual(self) -> np.ndarray:
        return residual_dbar(self.f)

    @property
    def residual_sup(self) -> float:
        # the array is 0 off its nonempty mask and >= 0 on it, so its max is the mask's
        return float(np.max(self.residual))

    @functools.cached_property
    def sup_f(self) -> float:
        return sup_norm(self.f)

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
    KeyError for a missing key, or OSError for an unreadable file.  The
    field must be a bare file name, read from the record's own directory,
    and its grid and f(0) must equal the recorded problem's grid and anchor
    exactly.  Scalars are taken only with their JSON type: converged a
    boolean, iterations an integer, residual_sup and sup_f numbers,
    final_update a number or null.  The recorded residual_sup and sup_f are
    checked but not kept: the solution measures both on its field.
    """
    with open(json_path, "r", encoding="ascii") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"solution record is a JSON {type(record).__name__}, expected an object")
    version = record.get("schema_version")
    if type(version) is not int or version != util.SCHEMA_VERSION:  # True == 1.0 == 1
        raise ValueError(f"solution schema_version is {version!r}, expected {util.SCHEMA_VERSION}")
    name = record["field"]
    if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
        raise ValueError(f"solution field {name!r} is not a bare file name")
    try:
        problem = DbarProblem.from_json_dict(record["problem"])
        field_path = os.path.join(os.path.dirname(str(json_path)), name)
        for key, kinds in _RECORD_SCALARS.items():
            value = record[key]
            if type(value) not in kinds:  # bool is not an int here
                raise TypeError(f"{key} is a JSON {type(value).__name__}")
        final_update = record["final_update"]
        final_update = None if final_update is None else float(final_update)
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed solution record: {exc}") from exc
    f = load_complex_field(field_path)
    if f.spec != problem.grid:
        raise ValueError("field file does not match the recorded problem grid")
    if f.at_origin() != problem.b:
        raise ValueError(f"field f(0) = {f.at_origin()!r} does not match the recorded anchor b")
    return DbarSolution(f, record["converged"], record["iterations"], final_update)


def _rhs_values(values: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """(|f|^2 + eps^2)^(1/4) at every node, written into out and returned."""
    out = np.abs(values, out=out)
    if eps != 0.0:
        # |f|^2 overflows to inf for a huge iterate, which the solver reports
        out *= out
        out += eps * eps
        # the quarter power as two square roots: cheaper than pow
        np.sqrt(out, out=out)
    return np.sqrt(out, out=out)


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


def residual_dbar(f: ComplexField) -> np.ndarray:
    """|df/dzbar - |f|^(1/2)| as an N x N array, 0 off f's _shrunk mask; ResidualError unless finite."""
    vals = np.where(_shrunk(f), residual_values(f.values, f.spec.spacing), 0.0)
    if not np.isfinite(np.max(vals)):
        raise ResidualError("non-finite dbar residual on masked nodes")
    return vals


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
    update falls below TOL, MAX_ITER is exhausted, or the update stalls;
    converged reports whether the final eps = 0 stage met TOL.  The anchor
    f(0) = b holds exactly at every iterate.
    """
    spec = problem.grid
    margin = spec.default_margin()
    # GridSpec's MIN_RESOLUTION keeps the origin inside the default margin
    mask = spec.disc_mask(margin)
    c = spec.center
    # the kernel build's temporaries must not share the peak with f
    transform = CauchyTransform(spec, mask)
    f = np.full((spec.resolution, spec.resolution), problem.b, dtype=np.complex128)
    b = problem.b
    rhs = transform.scratch
    iterations = 0
    stage_converged = False

    # overflow here is diagnosed by the finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for eps in problem.epsilon_schedule():
            stage_history: list = []
            stage_converged = False
            for _ in range(MAX_ITER):
                # d = T(rhs) + (b - T(rhs)(0)) - f, zero at the anchor
                d = transform.apply_values(_rhs_values(f, eps, out=rhs))
                d += b - d[c, c]
                d -= f
                d[c, c] = 0.0
                d *= THETA
                f += d
                update = float(np.max(np.abs(d, out=rhs), where=mask, initial=0.0))
                del d
                # f was finite on the mask, so a non-finite update means a non-finite iterate there
                if not np.isfinite(update):
                    raise NanEncountered("non-finite iterate on the mask")
                stage_history.append(update)
                iterations += 1
                if update <= TOL:
                    stage_converged = True
                    break
                if _stalled(stage_history):
                    break

    # the field's copy of f need not share the peak with the transform
    del transform, rhs
    return DbarSolution(ComplexField(spec, f, margin, mask), stage_converged, iterations, update)


def rescale_solution(f: ComplexField) -> ComplexField:
    """Pull a field on the radius-r disc back to the unit disc: F(w) = f(r w) / r^2.

    If f solves the equation on D_r, F solves it on the unit disc.  The unit
    grid at the same resolution has its nodes at the source nodes divided by
    r, so the pull-back is the exact relabel F = f / r^2 of the same nodes and
    mask, with the margin scaled by 1/r; at r = 1 it is the identity, bit for
    bit.  A value that overflows fails ComplexField's finiteness check.
    """
    r = f.spec.radius
    with np.errstate(over="ignore"):
        return ComplexField(make_grid(1.0, f.spec.resolution), f.values / (r * r), f.margin / r, f.mask)


def rescaled_solution_record(sol: DbarSolution) -> DbarSolution:
    """Relabel a solve onto the unit disc; its residual and its gate both scale by 1/r."""
    return DbarSolution(rescale_solution(sol.f), sol.converged, sol.iterations)
