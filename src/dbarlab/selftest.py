"""Self-check battery: every shipped guarantee exercised in one pass.

Each criterion function runs one guarantee end to end and returns
(passed, details), the verdict and the measured numbers; criterion 10
adds the report files it wrote.  CRITERIA registers each under its index
and name.  The only config key is criteria, the indices to run, which
the CLI merges and check_criteria checks; the workload of each criterion
(grid resolutions, sample counts, anchors, wall clock budgets) is fixed
by the constants below, or by the scan and integrator constants it
shares with kr and ode.  run_selftest takes the checked criteria and
aggregates the results into a summary dict that intentionally contains
no timestamps, paths, or timing figures (the CLI adds the config digest):
two runs with the same config must produce byte-identical canonical JSON
regardless of thread count.  The last criterion checks the
same property on the files kr-scan writes: a reduced scan's report at 1
and at 8 threads, byte for byte.  Wall clock budgets are
enforced where a guarantee includes one, but only the boolean verdict
lands in the summary.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from . import util
from .acs import j_squared_deviation, reduction_identity
from .cauchy import cauchy_transform, cauchy_transform_direct
from .certify import (
    FD_TOLERANCE,
    SUP_FLOOR,
    eq_chain_check,
    lemma1_check,
    lemma2_check,
    sqrt_branch,
)
from .dbar import DbarProblem, picard_solve, profile_exact, residual_dbar
from .grid import ComplexField, RealField, make_grid
from .kr import DEFAULT_RESOLUTION, ORIGIN_BOUND, origin_witness_residual, usc_report
from .ode import (
    FAMILY_KINKS,
    exact_forward,
    family_trajectory,
    lower_bound_check,
    nonuniq_family,
    rk4_integrate,
)
from .util import json_dumps, parallel_map

# the workload; scans run at kr.DEFAULT_RESOLUTION, the integrator and the
# family at the ode command's ode.RK4_STEPS, FAMILY_KINKS and FAMILY_SAMPLES
RANDOM_FIELD_COUNT = 20
RANDOM_FIELD_RESOLUTION = 129
REDUCTION_BUDGET_SECONDS = 10.0
FAMILY_KINK = 0.0
FAMILY_RESOLUTIONS = (129, 257)
SHARPNESS_RESOLUTION = 257
CHAIN_RESOLUTION = 257
MAX_PRINCIPLE_RESOLUTION = 257
SWEEP_RESOLUTION = 257
SWEEP_MAGNITUDES = (0.001, 0.01, 0.05, 0.1)
SWEEP_PHASES = (complex(1.0, 0.0), complex(0.7071067811865476, 0.7071067811865476))
SWEEP_BUDGET_SECONDS = 1800.0
TRANSFORM_RESOLUTIONS = (129, 257)
TRANSFORM_AGREEMENT_RESOLUTION = 65
STRUCTURE_SAMPLE_COUNT = 1_000_000
SCAN_ANCHOR = complex(0.05, 0.0)


def check_criteria(criteria) -> list:
    """The requested criteria, sorted and deduplicated; ValueError for an unknown one or none."""
    known = list(CRITERIA)  # compared by ==, so an unhashable entry is refused, not a crash
    bad = [c for c in criteria if c not in known]
    if bad:
        raise ValueError(f"unknown criteria requested: {bad}")
    if not criteria:
        raise ValueError("selftest needs at least one criterion")
    return sorted(set(criteria))


def _random_small_field(spec, seed: int) -> ComplexField:
    rng = np.random.default_rng(seed)
    Z = spec.nodes()
    c = rng.normal(size=5) + 1j * rng.normal(size=5)
    vals = c[0] + c[1] * Z + c[2] * Z * Z + c[3] * np.conj(Z) + c[4] * np.abs(Z)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = 0.09 * vals / peak
    return ComplexField(spec, vals, spec.default_margin())


def criterion_01(threads: int) -> tuple:
    """Graph system and scalar equation agree to rounding on random fields."""
    spec = make_grid(1.0, RANDOM_FIELD_RESOLUTION)
    start = time.monotonic()
    gaps = parallel_map(
        lambda i: reduction_identity(_random_small_field(spec, 1000 + i)),
        range(RANDOM_FIELD_COUNT),
        threads=threads,
    )
    elapsed = time.monotonic() - start
    worst = float(max(gaps))
    runtime_ok = elapsed < REDUCTION_BUDGET_SECONDS
    return worst <= 1e-10 and runtime_ok, {
        "fields": RANDOM_FIELD_COUNT,
        "resolution": spec.resolution,
        "max_discrepancy": worst,
        "tolerance": 1e-10,
        "runtime_ok": runtime_ok,
    }


def criterion_02(threads: int) -> tuple:
    """Closed-form family: kink-line residual scale and its halving."""
    sups = []
    away = []
    spacings = []
    for n in FAMILY_RESOLUTIONS:
        spec = make_grid(1.0, n)
        res = residual_dbar(profile_exact(FAMILY_KINK, spec))
        X, _ = spec.mesh()
        # res is 0 off the stencil interior, so a max over all nodes, or all off the kink, is its max there
        sups.append(float(np.max(res)))
        away.append(float(np.max(res[np.abs(X - FAMILY_KINK) >= 3 * spec.spacing])))
        spacings.append(spec.spacing)
    away_ok = all(a <= 2.0 * h for a, h in zip(away, spacings))
    ratio = sups[-1] / sups[0]
    halves = 0.375 <= ratio <= 0.625
    return away_ok and halves, {
        "kink": FAMILY_KINK,
        "resolutions": list(FAMILY_RESOLUTIONS),
        "residual_sup": sups,
        "residual_sup_off_kink": away,
        "constant_bound": 2.0,
        "halving_ratio": ratio,
    }


def criterion_03(threads: int) -> tuple:
    """Sharpness: the smoothness inequality is an equality on the profile."""
    spec = make_grid(1.0, SHARPNESS_RESOLUTION)
    X, _ = spec.mesh()
    rep = lemma1_check(profile_exact(-1.0, spec).restrict(X > -0.5))
    tol = 10.0 * spec.spacing ** 2
    ok = abs(rep.min_slack) <= tol and rep.hypothesis_ok
    return ok, {
        "resolution": spec.resolution,
        "min_slack": rep.min_slack,
        "tolerance": tol,
        "hypothesis_ok": rep.hypothesis_ok,
        "inequality_ok": rep.details["inequality_ok"],
    }


def criterion_04(threads: int) -> tuple:
    """Identity chain on the explicit branch of the profile."""
    spec = make_grid(1.0, CHAIN_RESOLUTION)
    branch = sqrt_branch(profile_exact(-1.0, spec))
    rep = eq_chain_check(branch)
    tol = 10.0 * spec.spacing
    worst = max(rep.details["violations"].values())
    ok = worst <= tol and rep.min_slack >= -tol
    return ok, {
        "resolution": spec.resolution,
        "violations": rep.details["violations"],
        "laplacian_slack_min": rep.min_slack,
        "tolerance": tol,
    }


def criterion_05(threads: int) -> tuple:
    """Discrete maximum principle calibration on the exact quadratic."""
    spec = make_grid(1.0, MAX_PRINCIPLE_RESOLUTION)
    u = RealField.from_function(
        spec, lambda X, Y: 0.25 * (X * X + Y * Y) + 0.01, margin=0.0
    )
    rep = lemma2_check(u)
    tol = 10.0 * spec.spacing ** 2
    quad_ok = (
        rep.hypothesis_ok
        and rep.details["triggered"]
        and abs(rep.details["conclusion_slack"] - 0.01) <= tol
    )
    zero = lemma2_check(RealField.constant(spec, 0.0))
    zero_ok = not zero.details["triggered"]
    return quad_ok and zero_ok, {
        "resolution": spec.resolution,
        "conclusion_slack": rep.details["conclusion_slack"],
        "target_slack": 0.01,
        "tolerance": tol,
        "hypothesis_ok": rep.hypothesis_ok,
        "zero_field_triggered": zero.details["triggered"],
    }


def criterion_06(threads: int) -> tuple:
    """No gate-passing solve with nonzero anchor undercuts the sup floor."""
    anchors = [mag * ph for mag in SWEEP_MAGNITUDES for ph in SWEEP_PHASES]

    floor = SUP_FLOOR - FD_TOLERANCE

    def run(b: complex) -> dict:
        sol = picard_solve(DbarProblem(make_grid(1.0, SWEEP_RESOLUTION), b=b))
        return {
            "b": [b.real, b.imag],
            "converged": sol.converged,
            "residual_sup": sol.residual_sup,
            "residual_gate": sol.residual_gate,
            "gate_ok": sol.certified,
            "sup_f": sol.sup_f,
            "undercuts_floor": bool(sol.certified and sol.sup_f < floor),
        }

    start = time.monotonic()
    rows = parallel_map(run, anchors, threads=threads)
    elapsed = time.monotonic() - start
    runtime_ok = elapsed < SWEEP_BUDGET_SECONDS
    none_undercut = not any(row["undercuts_floor"] for row in rows)
    return none_undercut and runtime_ok, {
        "resolution": SWEEP_RESOLUTION,
        "floor": floor,
        "gate_passing": sum(row["gate_ok"] for row in rows),
        "rows": rows,
        "runtime_ok": runtime_ok,
    }


def criterion_07(threads: int) -> tuple:
    """Transform accuracy on the disc indicator plus path agreement."""
    errs = []
    for n in TRANSFORM_RESOLUTIONS:
        spec = make_grid(1.0, n)
        chi = ComplexField.constant(spec, 1.0)
        out = cauchy_transform(chi)
        zz = spec.nodes()
        inner = chi.mask & (np.abs(zz) <= 0.8)
        errs.append(float(np.max(np.abs(out.values - np.conj(zz))[inner])))
    spec_a = make_grid(1.0, TRANSFORM_AGREEMENT_RESOLUTION)
    chi_a = ComplexField.constant(spec_a, 1.0)
    fast = cauchy_transform(chi_a)
    direct = cauchy_transform_direct(chi_a)
    agreement = float(np.max(np.abs(fast.values - direct.values)))
    ok = errs[0] <= 0.05 and errs[-1] < errs[0] and agreement <= 1e-10
    return ok, {
        "resolutions": list(TRANSFORM_RESOLUTIONS),
        "indicator_errors": errs,
        "error_bound": 0.05,
        "path_agreement": agreement,
        "agreement_bound": 1e-10,
    }


def criterion_08(threads: int) -> tuple:
    """Scalar analogue: integrator accuracy, family validity, bound slack."""
    rk_errs = {}
    for g0 in (0.01, 1.0):
        traj = rk4_integrate(g0)
        rk_errs[repr(g0)] = abs(traj.value_at_end() - exact_forward(g0, 1.0))
    rk_ok = all(e <= 1e-6 for e in rk_errs.values())

    fam_resid = {}
    fam_ok = True
    for c in FAMILY_KINKS:
        traj = family_trajectory(c)
        step = traj.xs[1] - traj.xs[0]
        fd = (traj.gs[2:] - traj.gs[:-2]) / (2 * step)
        resid = np.abs(fd - np.sqrt(traj.gs[1:-1]))
        off = np.abs(traj.xs[1:-1] - c) > step
        fam_resid[repr(c)] = float(np.max(resid[off]))
        fam_ok = fam_ok and fam_resid[repr(c)] <= 2 * step

    slack_gaps = {}
    for g0 in (0.01, 0.25, 1.0):
        slack_gaps[repr(g0)] = abs(lower_bound_check(g0) - (np.sqrt(g0) + g0))
    slack_ok = all(v <= 1e-12 for v in slack_gaps.values())

    distinct = nonuniq_family(0.0, 1.0) - nonuniq_family(0.9, 1.0)
    return rk_ok and fam_ok and slack_ok, {
        "rk4_errors": rk_errs,
        "family_fd_residuals": fam_resid,
        "slack_formula_gaps": slack_gaps,
        "nonuniqueness_witness_gap": distinct,
    }


def criterion_09(threads: int) -> tuple:
    """Structure matrix algebra and the certified origin witness."""
    count = STRUCTURE_SAMPLE_COUNT
    rng = np.random.default_rng(0)
    z1 = 1.999 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    z2 = 0.0999 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    dev = j_squared_deviation(z1, z2)
    witness = origin_witness_residual()
    ok = dev <= 1e-14 and witness == 0.0 and ORIGIN_BOUND == 0.5
    return ok, {
        "samples": count,
        "max_square_deviation": dev,
        "deviation_bound": 1e-14,
        "origin_bound": ORIGIN_BOUND,
        "origin_witness_residual": witness,
    }


def criterion_10(threads: int, out_dir) -> tuple:
    """Strict gap between the origin bound and Picard's estimate 1/a_observed nearby.

    Returns (passed, details, written): written names the report files the
    scan wrote into out_dir, relative to it.
    """
    report = usc_report([SCAN_ANCHOR], out_dir, threads=threads)
    summary = report["summary"]
    row = summary["rows"][0]
    gap_ok = row["a_observed"] < 2.0 and row["gap_positive"]
    ok = (
        gap_ok
        and summary["empirical"] is True
        and summary["all_gaps_positive"] is True
        and summary["origin_upper_bound"] == 0.5
    )
    details = {
        "anchor": util.as_complex_pair(SCAN_ANCHOR),
        "origin_upper_bound": summary["origin_upper_bound"],
        "empirical": summary["empirical"],
        "all_gaps_positive": summary["all_gaps_positive"],
        **{
            k: row[k]
            for k in ("a_observed", "lower_bound", "no_feasible_disc", "scan_consistent")
        },
    }
    return ok, details, report["files"]


def criterion_11(threads: int) -> tuple:
    """A reduced scan's report files and six reduction gaps, compared at 1 and 8 threads.

    Each run writes usc_report into its own temporary directory; every file
    it returns is compared byte for byte, and the gaps by their canonical
    JSON.  differing names what differs: report files, and reduction_gaps.
    """
    spec = make_grid(1.0, DEFAULT_RESOLUTION)

    def outputs(t: int) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            files = usc_report([SCAN_ANCHOR], tmp, radii=[0.25, 0.5, 1.0], threads=t)["files"]
            got = {}
            for name in files:
                with open(os.path.join(tmp, name), "rb") as fh:
                    got[name] = fh.read()
        gaps = parallel_map(
            lambda i: reduction_identity(_random_small_field(spec, 2000 + i)),
            range(6),
            threads=t,
        )
        got["reduction_gaps"] = json_dumps([float(g) for g in gaps])
        return got

    one, many = outputs(1), outputs(8)
    differing = [k for k in dict.fromkeys([*one, *many]) if one.get(k) != many.get(k)]
    identical = not differing
    return identical, {
        "thread_counts": [1, 8],
        "identical": identical,
        "files": [k for k in one if k != "reduction_gaps"],
        "differing": differing,
    }


# index -> (name, function): the battery's one registry
CRITERIA = {
    1: ("reduction_identity", criterion_01),
    2: ("exact_family", criterion_02),
    3: ("lemma1_sharpness", criterion_03),
    4: ("identity_chain", criterion_04),
    5: ("max_principle", criterion_05),
    6: ("sup_lower_bound_sweep", criterion_06),
    7: ("cauchy_transform", criterion_07),
    8: ("ode_analogue", criterion_08),
    9: ("structure_matrix", criterion_09),
    10: ("usc_gap", criterion_10),
    11: ("determinism", criterion_11),
}

SELFTEST_DEFAULTS = {"criteria": sorted(CRITERIA)}


def run_selftest(criteria: list, threads: int, out_dir) -> tuple:
    """Run the criteria check_criteria returned; return the summary and the files written.

    The summary carries no timestamps, no paths, and no timings, so
    identical configs give byte-identical canonical JSON for any thread
    count; the CLI adds the config digest and the schema version.  out_dir
    receives the report files criterion 10 emits; the summary never
    references them, and the second item lists their names relative to
    out_dir (empty when criterion 10 did not run).
    """
    rows = []
    written = []
    for idx in criteria:
        name, fn = CRITERIA[idx]
        try:
            if idx == 10:
                passed, details, files = fn(threads, out_dir)
                written += files
            else:
                passed, details = fn(threads)
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        rows.append({"index": idx, "name": name, "passed": passed, "details": details})
    return {"criteria": rows, "all_passed": all(r["passed"] for r in rows)}, written


def format_table(summary: dict) -> list:
    """Human-readable pass/fail lines for terminal output."""
    lines = []
    for row in summary["criteria"]:
        mark = "PASS" if row["passed"] else "FAIL"
        lines.append(f"criterion {row['index']:02d} {row['name']:<24s} {mark}")
    verdict = "all criteria passed" if summary["all_passed"] else "FAILURES PRESENT"
    lines.append(verdict)
    return lines
