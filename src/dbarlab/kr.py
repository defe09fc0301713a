"""Disc-radius estimates for the tangent vector (1, 0) on the coupled bidisc.

The pseudo-norm of a tangent vector is the infimum of 1/r over radii r of
structure-holomorphic discs through the point with derivative matching the
vector.  At the origin the explicit disc z -> (z, 0) on the radius-2 disc
certifies the upper bound ORIGIN_BOUND = 1/2, and that certificate is
checked (origin_witness_residual must vanish), never assumed.

Away from the origin, at basepoints (0, b) with b != 0, this module scans
graph discs z -> (z, f(z)) over radii in (0, 2]; a wider disc cannot lie
in the radius-2 first factor and is refused.  check_scan is the one rule
on a scan's anchors, radii and resolution: graph_feasibility, radius_scan
and usc_report each refuse their input through it, and usc_report does so
before it makes its output directory, so a refused scan writes nothing.
A radius is feasible when the solve is DbarSolution.certified (converged,
residual within 5h) and its sup stays inside the radius-1/10 factor; a
record derives that from its solve.
With a the largest feasible radius, 1/a is Picard's estimate of the
pseudo-norm, not a bound: that Picard's disc fails at a larger radius says
nothing of other discs.  A feasible certified disc bounds the pseudo-norm
from above once the scan pins the disc's tangent to (1, 0); the rigorous
lower side is the source paper's Theorem 2.  A scan is grid-level evidence,
not proof, so every report carries an empirical=true flag.  Each certified
solve also runs the Theorem 2 chain on its exact relabel to the unit disc,
which keeps its gate verdict; the chain stays on the record as certify's
sup_bound entry (certify.attempt's report or reason), but no report writes
it, so the rigorous content reaches no output yet.  The punchline
the reports juxtapose: 1/2 at the origin against estimates above 1/2
arbitrarily close to it.

Every solve runs on a grid of the resolution the caller passes with the
solver's default parameters.
Scan points are independent jobs; records are assembled in radius order
so reports are byte-identical for every thread count.  A record keeps what
the reports read of its solve, the scalars and the |f| heatmap as 8-bit
pixels, not the complex field, so a scan holds N^2 bytes per radius where
the field takes 16 N^2; usc_report frees each anchor's records once its
rows, CSV lines and heatmaps are written.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .acs import MEMBERSHIP_SLACK, Z1_RADIUS, Z2_RADIUS, DiscMap, jholo_residual
from .certify import attempt, theorem2_chain
from .dbar import DbarProblem, picard_solve, rescaled_solution_record
from .grid import ComplexField, check_radius, make_grid
from .util import (
    SCHEMA_VERSION,
    as_complex_pair,
    heatmap_pixels,
    parallel_map,
    write_json,
    write_pgm,
)

DEFAULT_RESOLUTION = 65
DEFAULT_RADIUS_RANGE = (0.25, 2.0)
DEFAULT_RADIUS_COUNT = 16
VECTOR = (1.0, 0.0)  # the tangent vector every scan uses
# the pseudo-norm bound at ((0, 0), (1, 0)) from the disc z -> (z, 0) filling
# the first factor; origin_witness_residual checks that disc
ORIGIN_BOUND = 1.0 / Z1_RADIUS
# anchor sweep used by reports: three magnitudes on the real axis; an
# anchor i*b would repeat b exactly, since the quarter turn maps the grid,
# the disc and the solve onto themselves
DEFAULT_B_SWEEP = (0.05, 0.01, 0.001)


def default_radii() -> np.ndarray:
    lo, hi = DEFAULT_RADIUS_RANGE
    return np.geomspace(lo, hi, DEFAULT_RADIUS_COUNT)


def check_scan(b_list, radii, resolution) -> tuple:
    """The anchors as complex numbers and the radii a scan visits, sorted.

    radii None means default_radii().  ValueError for no anchor or no radius,
    a repeated anchor or radius (its disc would be solved and written twice),
    an anchor outside 0 < |b| < 1/10 (which NaN fails), a radius
    grid.check_radius refuses or one above 2, and a radius whose grid
    make_grid refuses at this resolution.  A graph over a disc wider than 2
    cannot lie in the radius-2 first factor; at r <= 2 every masked node has
    |z| <= r - 2h, inside it.
    """
    anchors = [complex(b) for b in b_list]
    if not anchors:
        raise ValueError("scan needs at least one anchor")
    if 0 in anchors:
        raise ValueError("anchor must be nonzero; the zero graph is trivial")
    if not all(abs(b) < Z2_RADIUS - MEMBERSHIP_SLACK for b in anchors):
        raise ValueError("anchor must lie strictly inside the radius-1/10 disc")
    if len(set(anchors)) < len(anchors):
        raise ValueError("scan repeats an anchor")
    radii = sorted(map(check_radius, default_radii() if radii is None else radii))
    if not radii:
        raise ValueError("radius scan needs at least one radius")
    if radii[-1] > Z1_RADIUS:
        raise ValueError("scan radius must be at most 2, the radius of the first factor")
    if len(set(radii)) < len(radii):
        raise ValueError("radius scan repeats a radius")
    for r in radii:  # a grid no solve can run on
        make_grid(r, resolution)
    return anchors, radii


@dataclass(frozen=True)
class FeasibilityRecord:
    """Outcome of one graph-disc attempt at one radius: what the reports read of its solve.

    sup_f, residual_sup and certified (DbarSolution.certified) are the
    solve's; heatmap is util.heatmap_pixels of |f|, one byte per node where
    the complex field takes sixteen.  The field is dropped.  inside says
    whether sup_f stays inside the radius-1/10 factor, and the radius is
    feasible when the solve is certified and inside.  A certified record
    that is not inside breaks the sup bound, which is what the sup lower
    bound demands; an uncertified one says nothing of the sup.  chain is
    the sup_bound entry certify writes for the solve: the Theorem 2 report,
    or the reason there is none.
    """

    radius: float
    sup_f: float
    residual_sup: float
    certified: bool
    heatmap: np.ndarray
    chain: dict

    @property
    def inside(self) -> bool:
        return self.sup_f < Z2_RADIUS - MEMBERSHIP_SLACK

    @property
    def feasible(self) -> bool:
        return self.certified and self.inside


def scan_verdict(records) -> dict:
    """The reported verdict of one anchor's scan, a function of its records.

    a_observed is the largest feasible radius, zero when none is.  The key
    lower_bound holds Picard's estimate 1/a_observed of the pseudo-norm, not
    a bound on it (that no larger Picard disc worked says nothing of other
    discs), null plus no_feasible_disc when no disc is feasible.
    gap_positive says whether the estimate, infinite when no disc is
    feasible, exceeds ORIGIN_BOUND.  scan_consistent says that no radius is
    feasible above one where a certified solution broke the sup bound.
    """
    a = max((rec.radius for rec in records if rec.feasible), default=0.0)
    broke = min((rec.radius for rec in records if rec.certified and not rec.inside),
                default=np.inf)
    return {
        "a_observed": a,
        "gap_positive": a == 0.0 or 1.0 / a > ORIGIN_BOUND,
        "lower_bound": None if a == 0.0 else 1.0 / a,
        "no_feasible_disc": a == 0.0,
        "scan_consistent": all(rec.radius <= broke for rec in records if rec.feasible),
    }


def origin_witness_residual() -> float:
    """The holomorphy residual of the disc z -> (z, 0) that certifies ORIGIN_BOUND.

    The witness lives on the radius-2 grid at DEFAULT_RESOLUTION.  It is
    checked, not asserted: a residual above 1e-13 raises ArithmeticError
    (it vanishes exactly on dyadic spacings, where centered differences of
    linear data are exact).
    """
    spec = make_grid(2.0, DEFAULT_RESOLUTION)
    witness = DiscMap(
        ComplexField.from_function(spec, lambda z: z),
        ComplexField.constant(spec, 0.0),
    )
    _, _, sup = jholo_residual(witness)
    if sup > 1e-13:
        raise ArithmeticError(f"origin witness residual {sup:.3e} is not zero")
    return sup


def graph_feasibility(r: float, b: complex, resolution: int) -> FeasibilityRecord:
    """Attempt a graph disc of radius r in (0, 2] anchored at f(0) = b.

    The solve runs on a resolution x resolution grid of the disc; the
    record's feasibility follows from it.  Infeasible records are data,
    not errors.  For a certified solve, the theorem chain runs through
    certify.attempt on the unit-disc rescale of the solution, as certify
    runs it on a saved one, and rides along.  The record keeps the solve's
    scalars and |f| pixels; the field is dropped.
    """
    (b,), (radius,) = check_scan([b], [r], resolution)
    sol = picard_solve(DbarProblem(make_grid(radius, resolution), b=b))
    if sol.certified:
        chain = attempt(theorem2_chain, rescaled_solution_record(sol))
    else:
        chain = {"available": False, "reason": "no certificate: solve missed the residual gate"}
    return FeasibilityRecord(
        radius,
        sol.sup_f,
        sol.residual_sup,
        sol.certified,
        heatmap_pixels(np.abs(sol.f.values)),
        chain,
    )


def radius_scan(b: complex, radii, resolution: int, threads: int) -> list:
    """The feasibility records of anchor b over a radius grid, in radius order.

    radii None means default_radii().  scan_verdict reads the anchor's
    verdict from the records.
    """
    (b,), radii = check_scan([b], radii, resolution)
    return parallel_map(lambda r: graph_feasibility(r, b, resolution), radii, threads=threads)


def _csv_complex(b: complex) -> str:
    s = repr(complex(b))
    return s[1:-1] if s.startswith("(") else s


def usc_report(b_list, out_dir, radii, resolution: int, *, threads: int) -> dict:
    """Juxtapose the exact origin bound with scan estimates near the origin.

    Writes usc_report.json (summary), usc_table.csv (one row per scanned
    radius), and one heatmap of |f| per scanned radius (the pixels its
    record keeps).  The headline flag all_gaps_positive records whether
    every tested basepoint's estimate 1/a_observed exceeded the origin's
    exact 1/2.  Values that would be infinite are encoded as null plus the
    no_feasible_disc flag.  Returns the summary and the names of the files
    written, relative to out_dir: the json, the csv, the heatmaps.
    radii None means default_radii().  A scan check_scan refuses raises
    ValueError before out_dir is made.
    """
    b_list, radii = check_scan(b_list, radii, resolution)
    os.makedirs(out_dir, exist_ok=True)
    witness_residual = origin_witness_residual()

    rows = []
    csv_lines = ["b,r,feasible,sup_f,residual"]
    heatmaps = []
    for bi, b in enumerate(b_list):
        records = radius_scan(b, radii=radii, resolution=resolution, threads=threads)
        rows.append({"b": as_complex_pair(b), **scan_verdict(records)})
        for ri, rec in enumerate(records):
            csv_lines.append(
                f"{_csv_complex(b)},{rec.radius!r},{str(rec.feasible).lower()},"
                f"{rec.sup_f!r},{rec.residual_sup!r}"
            )
            name = f"scan_b{bi:02d}_r{ri:02d}_absf.pgm"
            write_pgm(os.path.join(out_dir, name), rec.heatmap)
            heatmaps.append(name)
        del records  # this anchor is written; free them before the next scan

    summary = {
        "schema_version": SCHEMA_VERSION,
        "vector": [as_complex_pair(c) for c in VECTOR],
        "origin_upper_bound": ORIGIN_BOUND,
        "origin_witness_residual": witness_residual,
        "empirical": True,  # a scan is grid-level evidence, never a proof
        "rows": rows,
        "all_gaps_positive": all(row["gap_positive"] for row in rows),
    }
    write_json(os.path.join(out_dir, "usc_report.json"), summary)
    with open(os.path.join(out_dir, "usc_table.csv"), "w", encoding="ascii") as fh:
        fh.write("\n".join(csv_lines) + "\n")
    return {"summary": summary, "files": ["usc_report.json", "usc_table.csv", *heatmaps]}
