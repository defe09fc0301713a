"""One-dimensional analogue g' = |g|^(1/2) on [-1, 1].

Everything about the planar equation has a scalar shadow here: a strictly
positive initial value forces quadratic growth (g(1) exceeds 1/4 whenever
g(0) > 0), while from a zero value the equation branches into a whole
family of solutions that stay identically zero on an interval of any
length before lifting off.  The closed forms make the module an oracle
for the PDE-side expectations rather than a consumer of them;
lower_bound_check gives the first fact as a number, the slack g(1) - 1/4.

rk4_integrate applies the textbook fourth-order scheme to the literal
right-hand side, no smoothing at g = 0.  Started exactly at zero every
stage evaluates to zero, so the scheme selects the identically-zero
member of the family; that selection is reported output, not an error,
mirroring how the planar solver treats a zero anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

# the ode command's workload, shared with selftest criterion 8
RK4_STEPS = 1000
FAMILY_SAMPLES = 2001
FAMILY_KINKS = (0.0, 0.3, 0.9)


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled solution curve; xs strictly increasing, values finite."""

    xs: np.ndarray
    gs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        gs = np.asarray(self.gs, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != gs.shape:
            raise ValueError("xs and gs must be matching 1-d arrays")
        if xs.size < 2:
            raise ValueError("a trajectory needs at least two samples")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("xs must be strictly increasing")
        if not (np.isfinite(xs).all() and np.isfinite(gs).all()):
            raise ValueError("non-finite trajectory data")
        xs.setflags(write=False)
        gs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "gs", gs)

    def value_at_end(self) -> float:
        return float(self.gs[-1])

    def to_csv(self, path) -> str:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("x,g\n")
            for x, g in zip(self.xs, self.gs):
                fh.write(f"{float(x)!r},{float(g)!r}\n")
        return str(path)


def exact_forward(g0: float, x: float) -> float:
    """The forward solution (x/2 + sqrt(g0))^2; unique branch for g0 > 0."""
    g0 = float(g0)
    x = float(x)
    if g0 < 0:
        raise ValueError("initial value must be >= 0")
    if x < 0:
        raise ValueError("forward evaluation needs x >= 0")
    root = x / 2.0 + sqrt(g0)
    return root * root


def rk4_integrate(g0: float) -> OdeTrajectory:
    """Classical fourth-order march of g' = |g|^(1/2) across [0, 1] in RK4_STEPS steps."""
    steps = RK4_STEPS
    g0 = float(g0)
    h = 1.0 / steps
    xs = np.linspace(0.0, 1.0, steps + 1)
    gs = np.empty(steps + 1)
    gs[0] = g0
    g = g0

    def rhs(v: float) -> float:
        return sqrt(abs(v))

    for i in range(steps):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * h * k1)
        k3 = rhs(g + 0.5 * h * k2)
        k4 = rhs(g + h * k3)
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        gs[i + 1] = g
    return OdeTrajectory(xs, gs)


def nonuniq_family(c: float, x):
    """Member g_c: zero up to x = c, then ((x - c)/2)^2; solves the ODE.

    Vectorized in x.  Every member has g_c(0) = 0 for c >= 0, so the
    family witnesses non-uniqueness from a vanishing initial value.
    """
    c = float(c)
    if c < 0:
        raise ValueError("transition point must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    t = np.maximum(x - c, 0.0) / 2.0
    out = t * t
    if out.ndim == 0:
        return float(out)
    return out


def family_trajectory(c: float) -> OdeTrajectory:
    """nonuniq_family(c) sampled at FAMILY_SAMPLES uniform points of [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, FAMILY_SAMPLES)
    return OdeTrajectory(xs, nonuniq_family(c, xs))


def lower_bound_check(g0: float) -> float:
    """The slack g(1) - 1/4 of the forward solution from g0 > 0; the bound holds when it is positive.

    The closed form gives the slack sqrt(g0) + g0, strictly positive for
    every positive initial value.
    """
    g0 = float(g0)
    if g0 <= 0:
        raise ValueError("the bound concerns strictly positive initial values")
    return exact_forward(g0, 1.0) - 0.25
