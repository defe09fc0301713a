"""Command-line front end: reproducible runs with records, figures, CSV.

Each subcommand owns one JSON config whose defaults are embedded here and
printable via --print-config.  A run writes into the output directory:

  run_record.json   command, full config, digest, timestamps, output list
  summary.json      key scalars only; deterministic (no paths, no times)

plus command-specific files (solution fields, PGM heatmaps, CSV tables).
summary.json is the file to diff across machines and thread counts; the
run record is the provenance trail.  Exit codes: 0 for a completed run,
including declared non-convergence; 1 for selftest criteria failures;
2 for invalid configs, unreadable inputs, or bad flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import certify as cert
from . import util
from .dbar import (
    DbarProblem,
    load_solution,
    picard_solve,
    rescaled_solution_record,
    residual_dbar,
)
from .grid import MaskError, PhaseUnwrapError, load_complex_field, make_grid
from .kr import DEFAULT_B_SWEEP, check_anchor, scan_radii, usc_report
from .ode import exact_forward, family_trajectory, lower_bound_check, rk4_integrate
from .selftest import SELFTEST_DEFAULTS, format_table, merge_config, run_selftest

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_BAD_CONFIG = 2

SOLVE_DEFAULTS = {
    "radius": 1.0,
    "resolution": 129,
    "b": [0.25, 0.0],
    "epsilon": 0.01,
    "theta": 0.5,
    "tol": 1e-8,
    "max_iter": 500,
    "continuation_steps": 8,
    "margin_cells": 2.0,
    "holo_coeffs": [],
}

CERTIFY_DEFAULTS = {
    "input": None,
    "delta0": cert.DELTA0_DEFAULT,
    "kappa": cert.KAPPA_DEFAULT,
    "standoff_cells": cert.STANDOFF_CELLS,
    "basepoint": [0.0, 0.0],
}

KR_DEFAULTS = {
    "b_list": [util.as_complex_pair(b) for b in DEFAULT_B_SWEEP],
    "radii": None,
    "resolution": 65,
}

ODE_DEFAULTS = {
    "g0": 0.01,
    "steps": 1000,
    "family_kinks": [0.0, 0.3, 0.9],
    "samples": 2001,
}

COMMAND_DEFAULTS = {
    "solve-dbar": SOLVE_DEFAULTS,
    "certify": CERTIFY_DEFAULTS,
    "kr-scan": KR_DEFAULTS,
    "ode": ODE_DEFAULTS,
    "selftest": SELFTEST_DEFAULTS,
}


class ConfigError(ValueError):
    """Config rejected before any output is written."""


def _load_overrides(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _write_outputs(out_dir, command, cfg, started, outputs, summary,
                   record_summary=None) -> None:
    """Emit summary.json and run_record.json; outputs are out_dir-relative."""
    summary_full = {"schema_version": util.SCHEMA_VERSION, "command": command}
    summary_full.update(summary)
    util.write_json(os.path.join(out_dir, "summary.json"), summary_full)
    listed = list(outputs) + ["summary.json"]
    missing = [p for p in listed if not os.path.exists(os.path.join(out_dir, p))]
    if missing:
        raise RuntimeError(f"outputs listed but absent: {missing}")
    record = {
        "schema_version": util.SCHEMA_VERSION,
        "command": command,
        "config": cfg,
        "config_digest": util.config_digest(cfg),
        "started": started,
        "finished": _utcnow(),
        "outputs": sorted(listed),
        "summary": summary if record_summary is None else record_summary,
    }
    util.write_json(os.path.join(out_dir, "run_record.json"), record)


def cmd_solve_dbar(cfg: dict, out_dir, threads: int) -> int:
    try:
        problem = DbarProblem.from_json_dict(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid solve config: {exc}") from exc
    started = _utcnow()
    os.makedirs(out_dir, exist_ok=True)
    sol = picard_solve(problem)
    paths = sol.save(out_dir)
    res_field, _ = residual_dbar(sol.f)
    util.write_pgm(os.path.join(out_dir, "abs_f.pgm"), np.abs(sol.f.values))
    util.write_pgm(os.path.join(out_dir, "residual.pgm"), res_field.values)
    summary = {
        "config_digest": util.config_digest(cfg),
        "b": cfg["b"],
        "radius": problem.grid.radius,
        "resolution": problem.grid.resolution,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residual_sup": sol.residual_sup,
        "sup_f": sol.sup_f,
    }
    outputs = [os.path.basename(paths["json"]), os.path.basename(paths["field"]),
               "abs_f.pgm", "residual.pgm"]
    _write_outputs(out_dir, "solve-dbar", cfg, started, outputs, summary)
    return EXIT_OK


def _guarded(fn, *args, **kwargs) -> dict:
    """Run one certificate; failures become data instead of aborting the run."""
    try:
        return {"available": True, "report": fn(*args, **kwargs).to_json_dict()}
    except (ValueError, MaskError, PhaseUnwrapError, ArithmeticError) as exc:
        return {"available": False, "reason": f"{type(exc).__name__}: {exc}"}


def cmd_certify(cfg: dict, out_dir, threads: int) -> int:
    path = cfg["input"]
    if not path or not isinstance(path, str):
        raise ConfigError("certify needs config key 'input' (solution .json or field .f64)")
    if not os.path.exists(path):
        raise ConfigError(f"input not found: {path}")
    try:
        basepoint = util.from_complex_pair(cfg["basepoint"])
        delta0 = float(cfg["delta0"])
        kappa = float(cfg["kappa"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid certify config: {exc}") from exc
    for key, value in (("delta0", delta0), ("kappa", kappa)):
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"invalid certify config: {key} must be positive and finite")
    standoff = cfg["standoff_cells"]
    if standoff < 0:
        raise ConfigError("invalid certify config: standoff_cells must be >= 0")

    sol = None
    if str(path).endswith(".json"):
        try:
            sol = load_solution(path)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load solution {path}: {exc}") from exc
        if sol.f.spec.radius != 1.0:
            sol = rescaled_solution_record(sol)
        f = sol.f
    elif str(path).endswith(".f64"):
        try:
            f = load_complex_field(path)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"cannot load field {path}: {exc}") from exc
    else:
        raise ConfigError("certify input must end in .json (solution) or .f64 (field)")

    started = _utcnow()
    os.makedirs(out_dir, exist_ok=True)

    def branch_chain():
        branch = cert.sqrt_branch(f, delta0=delta0, basepoint=basepoint)
        return cert.eq_chain_check(
            branch, kappa=kappa, basepoint=basepoint, standoff_cells=standoff
        )

    certs = {
        "smoothness": _guarded(cert.lemma1_check, f, delta0=delta0, standoff_cells=standoff),
        "identity_chain": _guarded(branch_chain),
        "max_principle": _guarded(cert.lemma2_check, cert.abs_power_34(f),
                                  delta0=delta0 ** 0.75, standoff_cells=standoff),
    }
    if sol is not None:
        certs["sup_bound"] = _guarded(
            cert.theorem2_chain, sol, delta0=delta0, standoff_cells=standoff
        )

    util.write_json(os.path.join(out_dir, "certificates.json"),
                    {"schema_version": util.SCHEMA_VERSION, "certificates": certs})

    summary = {"config_digest": util.config_digest(cfg)}
    lem1 = certs["smoothness"]
    summary["lemma1_available"] = lem1["available"]
    if lem1["available"]:
        summary["min_slack"] = lem1["report"]["min_slack"]
    lem2 = certs["max_principle"]
    if lem2["available"]:
        summary["max_principle_triggered"] = lem2["report"]["details"]["triggered"]
    if sol is not None:
        summary["residual_sup"] = sol.residual_sup
        summary["sup_f"] = sol.sup_f
        chain = certs["sup_bound"]
        summary["chain_available"] = chain["available"]
        if chain["available"]:
            summary["verdict"] = chain["report"]["details"]["verdict"]
    _write_outputs(out_dir, "certify", cfg, started, ["certificates.json"], summary)
    return EXIT_OK


def cmd_kr_scan(cfg: dict, out_dir, threads: int) -> int:
    try:
        b_list = [check_anchor(util.from_complex_pair(p)) for p in cfg["b_list"]]
        radii = scan_radii(cfg["radii"])
        make_grid(1.0, cfg["resolution"])  # refuse a bad resolution before writing
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scan config: {exc}") from exc
    started = _utcnow()
    os.makedirs(out_dir, exist_ok=True)
    report = usc_report(b_list, out_dir, radii=radii, resolution=cfg["resolution"],
                        threads=threads)
    summary = dict(report["summary"])
    summary["config_digest"] = util.config_digest(cfg)
    rel = [os.path.basename(report["paths"]["json"]), os.path.basename(report["paths"]["csv"])]
    rel += [os.path.basename(p) for p in report["paths"]["heatmaps"]]
    record_summary = {
        "config_digest": summary["config_digest"],
        "origin_upper_bound": summary["origin_upper_bound"],
        "all_gaps_positive": summary["all_gaps_positive"],
        "a_observed": [row["a_observed"] for row in summary["rows"]],
    }
    _write_outputs(out_dir, "kr-scan", cfg, started, rel, summary, record_summary)
    return EXIT_OK


def cmd_ode(cfg: dict, out_dir, threads: int) -> int:
    try:
        g0 = float(cfg["g0"])
        traj = rk4_integrate(g0, steps=cfg["steps"])
        kinks = [float(c) for c in cfg["family_kinks"]]
        fams = [family_trajectory(c, samples=cfg["samples"]) for c in kinks]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid ode config: {exc}") from exc
    started = _utcnow()
    os.makedirs(out_dir, exist_ok=True)
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"))
    outputs = ["trajectory.csv"]
    for i, fam in enumerate(fams):
        name = f"family_{i:02d}.csv"
        fam.to_csv(os.path.join(out_dir, name))
        outputs.append(name)
    exact = exact_forward(g0, 1.0)
    summary = {
        "config_digest": util.config_digest(cfg),
        "g0": g0,
        "g_at_one": traj.value_at_end(),
        "exact_g_at_one": exact,
        "abs_error": abs(traj.value_at_end() - exact),
        "family_kinks": kinks,
    }
    if g0 > 0:
        res = lower_bound_check(g0)
        summary["lower_bound_holds"] = res.holds
        summary["lower_bound_slack"] = res.slack
    _write_outputs(out_dir, "ode", cfg, started, outputs, summary)
    return EXIT_OK


def cmd_selftest(cfg: dict, out_dir, threads: int) -> int:
    started = _utcnow()
    os.makedirs(out_dir, exist_ok=True)
    summary = run_selftest(config=cfg, threads=threads, out_dir=out_dir)
    for line in format_table(summary):
        print(line)
    scan_files = [p for p in sorted(os.listdir(out_dir))
                  if p.startswith("scan_") or p.startswith("usc_")]
    record_summary = {
        "config_digest": summary["config_digest"],
        "all_passed": summary["all_passed"],
        "failed": [c["name"] for c in summary["criteria"] if not c["passed"]],
    }
    _write_outputs(out_dir, "selftest", cfg, started, scan_files, summary, record_summary)
    return EXIT_OK if summary["all_passed"] else EXIT_SELFTEST_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbarlab",
        description="grid laboratory for df/dzbar = |f|^(1/2): solves, "
        "certificates, feasibility scans, and the scalar analogue",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve-dbar", "run the damped continuation solver on one disc"),
        ("certify", "run the certificate battery on a saved solution or field"),
        ("kr-scan", "scan disc radii per anchor value and report bound gaps"),
        ("ode", "integrate the scalar analogue and emit trajectories"),
        ("selftest", "run the full invariant suite and print a pass/fail table"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON overrides for this command's defaults")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (env DBARLAB_OUT wins over this)")
        p.add_argument("--print-config", action="store_true",
                       help="print the merged config as JSON and exit")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="worker threads; 0 means auto; results do not depend on N")
    return parser


_RUNNERS = {
    "solve-dbar": cmd_solve_dbar,
    "certify": cmd_certify,
    "kr-scan": cmd_kr_scan,
    "ode": cmd_ode,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 0:
        print("error: --threads must be >= 0", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        overrides = _load_overrides(args.config) if args.config else None
        if args.command == "selftest":
            merged = merge_config(overrides)
        else:
            merged = util.merge_config(COMMAND_DEFAULTS[args.command], overrides)
        if args.print_config:
            sys.stdout.write(util.json_dumps(merged))
            return EXIT_OK
        out_dir = os.environ.get("DBARLAB_OUT") or args.out or "."
        return _RUNNERS[args.command](merged, out_dir, args.threads)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
