"""Command-line front end: reproducible runs with records, figures, CSV.

Each subcommand owns one JSON config whose defaults are embedded here and
printable via --print-config.  main owns the run: it merges the config,
refuses an output directory that a file blocks, runs the command, which
validates its config and writes its own files (solution fields, PGM
heatmaps, CSV tables), and then writes for every command:

  run_record.json   command, full config, digest, timestamps, output list,
                    and the run's wall and CPU seconds and peak RSS
  summary.json      key scalars and the config digest only; deterministic
                    (no paths, no times)

summary.json is the file to diff across machines and thread counts; the
run record is the provenance trail.  Exit codes: 0 for a completed run,
including declared non-convergence; 1 when the summary reports
all_passed false (selftest criteria failures); 2 for invalid configs (a
solve that turns non-finite included), unreadable inputs, an output
directory that cannot be made or written, or bad flags.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import certify as cert
from . import util
from .dbar import (
    DbarProblem,
    NanEncountered,
    ResidualError,
    load_solution,
    picard_solve,
    rescale_solution,
    rescaled_solution_record,
)
from .grid import load_complex_field
from .kr import DEFAULT_B_SWEEP, DEFAULT_RESOLUTION, usc_report
from .ode import FAMILY_KINKS, exact_forward, family_trajectory, lower_bound_check, rk4_integrate
from .selftest import SELFTEST_DEFAULTS, check_criteria, format_table, run_selftest

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_BAD_CONFIG = 2

SOLVE_DEFAULTS = {
    "radius": 1.0,
    "resolution": 129,
    "b": [0.25, 0.0],
}

CERTIFY_DEFAULTS = {
    "input": None,
    "basepoint": [0.0, 0.0],
}

KR_DEFAULTS = {
    "b_list": [util.as_complex_pair(b) for b in DEFAULT_B_SWEEP],
    "radii": None,
    "resolution": DEFAULT_RESOLUTION,
}

ODE_DEFAULTS = {
    "g0": 0.01,
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


def _resources(clocks: tuple) -> dict:
    """Wall and CPU seconds since clocks, and the peak RSS so far in MB.

    clocks holds perf_counter and process_time at the start of main.
    ru_maxrss is the process's high-water mark, in KiB on Linux and in bytes
    on macOS.
    """
    wall0, cpu0 = clocks
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": (rss if sys.platform == "darwin" else rss * 1024) / 1e6,
    }


def _check_out_dir(out_dir) -> None:
    """Refuse an empty --out, or one that is a file or a dangling link, or lies under one."""
    if not out_dir:
        raise ConfigError("--out must name a directory")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot write into {out_dir}: {path} is not a directory")


def _write_outputs(out_dir, command, cfg, started, clocks, outputs, summary,
                   record_summary) -> None:
    """Emit summary.json and run_record.json; outputs are out_dir-relative.

    Both summaries gain the config digest; record_summary None puts the
    whole summary in the run record.
    """
    digest = util.config_digest(cfg)
    summary = {"config_digest": digest, **summary}
    summary_full = {"schema_version": util.SCHEMA_VERSION, "command": command, **summary}
    util.write_json(os.path.join(out_dir, "summary.json"), summary_full)
    listed = list(outputs) + ["summary.json"]
    missing = [p for p in listed if not os.path.exists(os.path.join(out_dir, p))]
    if missing:
        raise RuntimeError(f"outputs listed but absent: {missing}")
    record = {
        "schema_version": util.SCHEMA_VERSION,
        "command": command,
        "config": cfg,
        "config_digest": digest,
        "started": started,
        "finished": _utcnow(),
        "outputs": sorted(listed),
        "summary": summary if record_summary is None else {"config_digest": digest,
                                                           **record_summary},
        "resources": _resources(clocks),
    }
    util.write_json(os.path.join(out_dir, "run_record.json"), record)


def cmd_solve_dbar(cfg: dict, out_dir, threads: int) -> tuple:
    try:
        problem = DbarProblem.from_json_dict(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid solve config: {exc}") from exc
    try:
        sol = picard_solve(problem)
    except NanEncountered as exc:
        raise ConfigError(f"solve failed: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    paths = sol.save(out_dir)
    util.write_pgm(os.path.join(out_dir, "abs_f.pgm"), np.abs(sol.f.values))
    util.write_pgm(os.path.join(out_dir, "residual.pgm"), sol.residual)
    summary = {
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
    return outputs, summary, None


def cmd_certify(cfg: dict, out_dir, threads: int) -> tuple:
    """Certify a solution.json or a .f64 field on its pull-back to the unit disc.

    The lemmas and Theorem 2 speak of the unit disc, so the basepoint is read
    there (w = z/r).  A solution.json also gets the sup_bound chain.  Each
    entry of certificates.json is certify.attempt's report or reason.
    """
    path = cfg["input"]
    if not path or not isinstance(path, str):
        raise ConfigError("certify needs config key 'input' (solution .json or field .f64)")
    if not os.path.exists(path):
        raise ConfigError(f"input not found: {path}")
    try:
        basepoint = util.from_complex_pair(cfg["basepoint"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid certify config: {exc}") from exc
    if not cmath.isfinite(basepoint):
        raise ConfigError("invalid certify config: basepoint must be finite")

    sol = None
    if str(path).endswith(".json"):
        try:
            sol = load_solution(path)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load solution {path}: {exc}") from exc
    elif str(path).endswith(".f64"):
        try:
            f = load_complex_field(path)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"cannot load field {path}: {exc}") from exc
    else:
        raise ConfigError("certify input must end in .json (solution) or .f64 (field)")
    try:
        if sol is not None:
            sol = rescaled_solution_record(sol)
            sol.residual_sup  # measured here, before anything is written
        f = rescale_solution(f) if sol is None else sol.f
    except ResidualError as exc:  # the pull-back succeeded; its residual did not
        raise ConfigError(f"cannot certify {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot pull back {path} to the unit disc: {exc}") from exc

    os.makedirs(out_dir, exist_ok=True)

    def branch_chain():
        return cert.eq_chain_check(cert.sqrt_branch(f, basepoint))

    certs = {
        "smoothness": cert.attempt(cert.lemma1_check, f),
        "identity_chain": cert.attempt(branch_chain),
        "max_principle": cert.attempt(cert.max_principle_check, f),
    }
    if sol is not None:
        certs["sup_bound"] = cert.attempt(cert.theorem2_chain, sol)

    util.write_json(os.path.join(out_dir, "certificates.json"),
                    {"schema_version": util.SCHEMA_VERSION, "certificates": certs})

    lem1 = certs["smoothness"]
    summary = {"lemma1_available": lem1["available"]}
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
    return ["certificates.json"], summary, None


def cmd_kr_scan(cfg: dict, out_dir, threads: int) -> tuple:
    try:
        b_list = [util.from_complex_pair(p) for p in cfg["b_list"]]
        report = usc_report(b_list, out_dir, radii=cfg["radii"], resolution=cfg["resolution"],
                            threads=threads)
    except (ValueError, TypeError) as exc:  # usc_report refuses a scan before it writes
        raise ConfigError(f"invalid scan config: {exc}") from exc
    summary = report["summary"]
    record_summary = {
        "origin_upper_bound": summary["origin_upper_bound"],
        "all_gaps_positive": summary["all_gaps_positive"],
        "a_observed": [row["a_observed"] for row in summary["rows"]],
    }
    return report["files"], summary, record_summary


def cmd_ode(cfg: dict, out_dir, threads: int) -> tuple:
    try:
        g0 = float(cfg["g0"])
        traj = rk4_integrate(g0)
        fams = [family_trajectory(c) for c in FAMILY_KINKS]
        exact = exact_forward(g0, 1.0)
        slack = lower_bound_check(g0) if g0 > 0 else None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid ode config: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"))
    outputs = ["trajectory.csv"]
    for i, fam in enumerate(fams):
        name = f"family_{i:02d}.csv"
        fam.to_csv(os.path.join(out_dir, name))
        outputs.append(name)
    summary = {
        "g0": g0,
        "g_at_one": traj.value_at_end(),
        "exact_g_at_one": exact,
        "abs_error": abs(traj.value_at_end() - exact),
        "family_kinks": list(FAMILY_KINKS),
    }
    if slack is not None:
        summary["lower_bound_holds"] = slack > 0
        summary["lower_bound_slack"] = slack
    return outputs, summary, None


def cmd_selftest(cfg: dict, out_dir, threads: int) -> tuple:
    criteria = check_criteria(cfg["criteria"])
    os.makedirs(out_dir, exist_ok=True)
    summary, written = run_selftest(criteria, threads, out_dir)
    for line in format_table(summary):
        print(line)
    record_summary = {
        "all_passed": summary["all_passed"],
        "failed": [c["name"] for c in summary["criteria"] if not c["passed"]],
    }
    return written, summary, record_summary


# name -> (runner, help line); a runner validates its config, writes its own
# files into out_dir and returns (outputs, summary, record_summary)
_RUNNERS = {
    "solve-dbar": (cmd_solve_dbar, "run the damped continuation solver on one disc"),
    "certify": (cmd_certify, "run the certificate battery on a saved solution or field"),
    "kr-scan": (cmd_kr_scan, "scan disc radii per anchor value and report bound gaps"),
    "ode": (cmd_ode, "integrate the scalar analogue and emit trajectories"),
    "selftest": (cmd_selftest, "run the full invariant suite and print a pass/fail table"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbarlab",
        description="grid laboratory for df/dzbar = |f|^(1/2): solves, "
        "certificates, feasibility scans, and the scalar analogue",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _RUNNERS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON overrides for this command's defaults")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (default: the current directory)")
        p.add_argument("--print-config", action="store_true",
                       help="print the merged config as JSON and exit")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="worker threads; 0 means auto; results do not depend on N")
    return parser


def main(argv=None) -> int:
    clocks = (time.perf_counter(), time.process_time())
    args = build_parser().parse_args(argv)
    if args.threads < 0:
        print("error: --threads must be >= 0", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        overrides = _load_overrides(args.config) if args.config else None
        merged = util.merge_config(COMMAND_DEFAULTS[args.command], overrides)
        if args.print_config:
            sys.stdout.write(util.json_dumps(merged))
            return EXIT_OK
        out_dir = args.out
        _check_out_dir(out_dir)
        started = _utcnow()
        run = _RUNNERS[args.command][0]
        outputs, summary, record_summary = run(merged, out_dir, args.threads)
        _write_outputs(out_dir, args.command, merged, started, clocks, outputs, summary,
                       record_summary)
    except (ValueError, OSError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_SELFTEST_FAIL if summary.get("all_passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
