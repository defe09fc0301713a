"""Workload case lists, input construction and output checks.

A workload is a fixed list of CLI cases.  The seed draws only anchor phases,
exact-family kink positions and basepoints; magnitudes, grid sizes and radii
are fixed, so the amount of work is comparable across seeds.  Each check
returns the case's observations (the values compared against the committed
reference) and raises CheckError on a broken seed-independent invariant.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

SOLVE_CASES = ((129, 0.05), (129, 0.001), (257, 0.25), (257, 0.05))
SCAN_MAGNITUDES = (0.05, 0.001)
SCAN_RESOLUTION = 65
SCAN_THREADS = 2
CERTIFY_SOLVE = (257, 0.25)
CERTIFY_KINK_PAIRS = 2
# grid.save_field layout: radius f64, N u32, margin f64, then row-major re/im pairs
FIELD_HEADER = struct.Struct("<dId")


class CheckError(AssertionError):
    """An output broke an invariant that holds for every seed."""


@dataclass
class Case:
    id: str
    command: str
    config: dict
    check: object  # callable(out_dir, case) -> (observations, reported iterations or None)
    threads: int = 1
    source: dict = field(default_factory=dict)  # what build_certify_inputs makes the input from

    def argv(self, config_path, out_dir) -> list:
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--threads", str(self.threads)]


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _anchor(rng, magnitude: float) -> complex:
    return magnitude * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _load_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _require(cond, message) -> None:
    if not cond:
        raise CheckError(message)


def _versioned(path) -> dict:
    doc = _load_json(path)
    _require("schema_version" in doc, f"{os.path.basename(path)} has no schema_version")
    return doc


def field_origin(path) -> complex:
    """f(0) read straight from a saved field file, bypassing the package loader."""
    with open(path, "rb") as fh:
        raw = fh.read()
    _, n, _ = FIELD_HEADER.unpack_from(raw)
    c = (n - 1) // 2
    re, im = struct.unpack_from("<dd", raw, FIELD_HEADER.size + 16 * (c * n + c))
    return complex(re, im)


def check_solve(out_dir, case) -> tuple:
    summary = _versioned(os.path.join(out_dir, "summary.json"))
    record = _versioned(os.path.join(out_dir, "solution.json"))
    b = complex(*case.config["b"])
    got = field_origin(os.path.join(out_dir, record["field"]))
    _require(got == b, f"f(0) = {got!r} in the saved field, expected b = {b!r}")
    _require(record["iterations"] == summary["iterations"], "solution.json and summary.json "
             "disagree on iterations")
    obs = {k: summary[k] for k in ("converged", "iterations", "residual_sup", "sup_f")}
    return obs, record["iterations"]


def check_scan(out_dir, case) -> tuple:
    summary = _versioned(os.path.join(out_dir, "summary.json"))
    obs = {}
    for i, row in enumerate(summary["rows"]):
        _require(row["scan_consistent"] is True, f"anchor {i}: scan_consistent is not true")
        for key in ("a_observed", "no_feasible_disc", "gap_positive"):
            obs[f"row{i}.{key}"] = row[key]
    with open(os.path.join(out_dir, "usc_table.csv"), newline="", encoding="ascii") as fh:
        records = list(csv.DictReader(fh))
    for i, rec in enumerate(records):
        obs[f"rec{i:02d}.feasible"] = rec["feasible"] == "true"
        for key in ("sup_f", "residual"):
            obs[f"rec{i:02d}.{key}"] = float(rec[key]) if rec[key] else None
    # kr-scan writes no per-record iteration counts
    return obs, None


def check_certify(out_dir, case) -> tuple:
    summary = _versioned(os.path.join(out_dir, "summary.json"))
    certs = _versioned(os.path.join(out_dir, "certificates.json"))["certificates"]
    obs = {}
    for name, cert in sorted(certs.items()):
        obs[f"{name}.available"] = cert["available"]
        if cert["available"]:
            obs[f"{name}.min_slack"] = cert["report"]["min_slack"]
            obs[f"{name}.hypothesis_ok"] = cert["report"]["hypothesis_ok"]
            obs[f"{name}.checked_nodes"] = cert["report"]["checked_nodes"]
            if "verdict" in cert["report"]["details"]:
                obs[f"{name}.verdict"] = cert["report"]["details"]["verdict"]
    if "verdict" in summary:
        obs["verdict"] = summary["verdict"]
    return obs, 0


def solve_cases(rng) -> list:
    cases = []
    for n, mag in SOLVE_CASES:
        config = {"radius": 1.0, "resolution": n, "b": _pair(_anchor(rng, mag))}
        cases.append(Case(f"solve_n{n}_b{mag:g}", "solve-dbar", config, check_solve))
    return cases


def scan_cases(rng) -> list:
    config = {"b_list": [_pair(_anchor(rng, mag)) for mag in SCAN_MAGNITUDES],
              "resolution": SCAN_RESOLUTION}
    return [Case("scan_n65", "kr-scan", config, check_scan, threads=SCAN_THREADS)]


def certify_cases(rng) -> list:
    """Certify cases; their inputs do not exist until build_certify_inputs runs."""
    n, mag = CERTIFY_SOLVE
    solve = {"radius": 1.0, "resolution": n, "b": _pair(_anchor(rng, mag))}
    cases = [Case(f"certify_solve_n{n}", "certify", {"input": None}, check_certify,
                  source={"solve": solve})]
    for k in range(CERTIFY_KINK_PAIRS):
        c = rng.uniform(0.1, 0.4)
        # a +c / -c pair keeps the summed area of {|f| > delta0}, hence the work, fixed
        for j, kink in enumerate((c, -c)):
            # basepoint on the positive side of the kink, where |f| >= 0.15^2
            bp = [kink + rng.uniform(0.15, 0.3), rng.uniform(-0.2, 0.2)]
            cases.append(Case(f"certify_kink{2 * k + j}", "certify",
                              {"input": None, "basepoint": bp}, check_certify,
                              source={"kink": kink}))
    return cases


def build_certify_inputs(cases, in_dir, cli) -> None:
    """Solve through the CLI and save exact-family fields; point each case at its input."""
    from dbarlab.dbar import profile_exact
    from dbarlab.grid import make_grid, save_field

    os.makedirs(in_dir, exist_ok=True)
    for case in cases:
        if "solve" in case.source:
            cfg = os.path.join(in_dir, "solve.json")
            with open(cfg, "w", encoding="ascii") as fh:
                json.dump(case.source["solve"], fh)
            out = os.path.join(in_dir, case.id)
            if cli.main(["solve-dbar", "--config", cfg, "--out", out]) != 0:
                raise CheckError("solve-dbar failed while building the certify inputs")
            case.config["input"] = os.path.join(out, "solution.json")
            got = field_origin(os.path.join(out, "solution.f64"))
            want = complex(*case.source["solve"]["b"])
        else:
            kink = case.source["kink"]
            path = os.path.join(in_dir, case.id + ".f64")
            save_field(profile_exact(kink, make_grid(1.0, CERTIFY_SOLVE[0])), path)
            case.config["input"] = path
            got, want = field_origin(path), complex(max(-kink, 0.0) ** 2)
        _require(got == want, f"{case.id}: f(0) = {got!r} in the saved input, expected {want!r}")


WORKLOADS = {"solve": solve_cases, "scan": scan_cases, "certify": certify_cases}


def compare(observed: dict, reference: dict, rtol: float, atol: float) -> list:
    """Mismatches between one case's observations and its reference entry."""
    problems = []
    if set(observed) != set(reference):
        problems.append(f"keys differ: {sorted(set(observed) ^ set(reference))}")
    for key in sorted(set(observed) & set(reference)):
        got, want = observed[key], reference[key]
        is_float = isinstance(want, float) and isinstance(got, float)
        if is_float and not key.endswith("a_observed"):
            ok = bool(np.isclose(got, want, rtol=rtol, atol=atol))
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems
