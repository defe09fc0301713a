"""dbarlab benchmark: drives the CLI in-process and reports end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve|scan|certify --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The package is imported from ./src of the checkout; nothing is installed.
One run builds the workload's inputs BUILD_REPEATS times, then repeats
passes over the workload's case list until the next pass would end after
--seconds, with at least MIN_PASSES passes.  Before every pass a fresh
interpreter imports dbarlab; setup_s is the median import plus the median
build.  Only the ``dbarlab.cli.main`` calls are timed; output
checks run between them.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and
it carries the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  Scratch output goes to .bench_out/ and is removed, except
records.jsonl (one provenance-stamped record per run) and the span dump of
the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
BUILD_REPEATS = 3
SIZES = (65, 129, 257)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dbarlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_frequency_controlled": False,
        "core_isolation": False,
    }


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import dbarlab.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import dbarlab.cli"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("importing dbarlab failed: " + proc.stderr.decode(errors="replace"))
    return elapsed


def kernel_model(n: int) -> dict:
    """Computed, not measured: cost of one FFT Cauchy apply at grid size n.

    m = next_fast_len(2n - 1) is the padded size.  Flops count two complex
    m x m FFTs at 5 m^2 log2(m^2) each, the kernel product (6 m^2) and the
    masked scaling (2 n^2).  Bytes count one pass over each array touched:
    zero fill (16 m^2), masked copy in (33 n^2), each 2-D FFT as two
    read+write sweeps (64 m^2 each), the product (48 m^2), crop out (32 n^2).
    """
    from scipy.fft import next_fast_len

    m = next_fast_len(2 * n - 1)
    return {
        f"cauchy.flops_per_apply.n{n}": 2 * 5 * m * m * math.log2(m * m) + 6 * m * m + 2 * n * n,
        f"cauchy.bytes_per_apply.n{n}": 192 * m * m + 65 * n * n,
        f"cauchy.live_frac.n{n}": n * n / (m * m),
    }


def run_case(case, cli, work, tracer):
    """One timed CLI call plus its output check; returns (wall, cpu, error, obs, iters)."""
    out = os.path.join(work, "out", case.id)
    if tracer is not None:
        tracer.case = case.id
    error = obs = iters = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(case.argv(os.path.join(work, "cfg", case.id + ".json"), out))
        if code != 0:
            error = f"exit code {code}"
    except Exception as exc:  # a crashing case is a failed case, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None:
        try:
            obs, iters = case.check(out, case)
        except (wl.CheckError, OSError, KeyError, TypeError, ValueError) as exc:
            error = f"output check: {type(exc).__name__}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return wall, cpu, error, obs, iters


def trace_problems(m: dict, outputs: list) -> list:
    """Counts the trace must share with the program's own outputs.

    outputs holds (observations, reported iterations) per case of the pass.
    """
    problems = []
    if m["cauchy.apply_calls"] != m["dbar.iterations"]:
        problems.append(f"cauchy.apply_calls {m['cauchy.apply_calls']} != "
                        f"dbar.iterations {m['dbar.iterations']}")
    reported = [iters for _, iters in outputs]
    if None not in reported and m["dbar.iterations"] != sum(reported):
        problems.append(f"dbar.iterations {m['dbar.iterations']} != "
                        f"{sum(reported)} reported in the outputs")
    rows = [v for obs, _ in outputs for k, v in (obs or {}).items()
            if k.startswith("rec") and k.endswith(".feasible")]
    for key, written in (("records", len(rows)), ("feasible", sum(rows))):
        if m[f"kr.{key}"] != written:
            problems.append(f"kr.{key} {m[f'kr.{key}']} != {written} rows in usc_table.csv")
    return problems


def quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def build_inputs(args, cases, cli, work) -> float:
    """Write the case configs (and the certify inputs); returns the seconds taken."""
    t0 = time.perf_counter()
    if args.workload == "certify":
        wl.build_certify_inputs(cases, os.path.join(work, "in"), cli)
    os.makedirs(os.path.join(work, "cfg"), exist_ok=True)
    for case in cases:
        with open(os.path.join(work, "cfg", case.id + ".json"), "w", encoding="ascii") as fh:
            json.dump(case.config, fh)
    return time.perf_counter() - t0


class Run:
    """Pass results of one benchmark run."""

    def __init__(self, args):
        from dbarlab import cli

        self.args = args
        self.cli = cli
        self.cases = wl.WORKLOADS[args.workload](random.Random(args.seed))
        self.work = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
        self.reference = None  # (observations per case, rtol, atol) at the default seed
        if args.seed == DEFAULT_SEED and not args.write_reference:
            ref = json.loads(REFERENCE.read_text())
            self.reference = (ref["workloads"][args.workload], ref["rtol"], ref["atol"])
        self.first = {}
        self.passes = {False: [], True: []}  # traced? -> [(wall, cpu)]
        self.imports, self.builds = [], []
        self.layers, self.spans, self.failures, self.problems = [], [], [], []
        self.attempted = 0
        self.tracer = tr.Tracer()

    def check(self, case, obs) -> list:
        """Exact repeat of the first pass, and the reference at the default seed."""
        mismatch = wl.compare(obs, self.first.setdefault(case.id, obs), 0.0, 0.0)
        if self.reference is not None:
            cases, rtol, atol = self.reference
            mismatch += wl.compare(obs, cases.get(case.id, {}), rtol, atol)
        return mismatch

    def one_pass(self, traced: bool) -> None:
        wall = cpu = 0.0
        outputs = []
        if traced:
            self.tracer.install()
        try:
            for case in self.cases:
                w, c, error, obs, iters = run_case(case, self.cli, self.work,
                                                   self.tracer if traced else None)
                wall, cpu, self.attempted = wall + w, cpu + c, self.attempted + 1
                outputs.append((obs, iters))
                if error is None:
                    mismatch = self.check(case, obs)
                    if mismatch:
                        error = "output mismatch: " + "; ".join(mismatch[:5])
                if error is not None:
                    self.failures.append({"case": case.id, "pass": len(self.passes[traced]),
                                          "traced": traced, "error": error})
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes[traced].append((wall, cpu))
        if traced:
            spans = self.tracer.take()
            self.spans.extend(spans)
            self.layers.append(tr.layer_metrics(spans, SIZES))
            self.problems += trace_problems(self.layers[-1], outputs)

    def execute(self) -> None:
        """Set up, then alternate an import sample and a pass until --seconds is spent.

        The fresh-interpreter import is sampled before every pass, so its
        samples span the run the way the passes do.
        """
        os.makedirs(self.work, exist_ok=True)
        try:
            self.builds = [build_inputs(self.args, self.cases, self.cli, self.work)
                           for _ in range(BUILD_REPEATS)]
            min_passes = 2 if self.args.trace else MIN_PASSES
            deadline = time.perf_counter() + self.args.seconds
            while True:
                t_pass = time.perf_counter()
                self.imports.append(import_seconds())
                done = len(self.passes[False]) + len(self.passes[True])
                self.one_pass(bool(self.args.trace) and done % 2 == 1)
                now = time.perf_counter()
                if done + 1 >= min_passes and now + (now - t_pass) > deadline:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)


def run_workload(args, declared: dict) -> dict:
    """Execute one run and assemble its record."""
    run = Run(args)
    run.execute()
    failures, problems, passes = run.failures, run.problems, run.passes
    threads = max(case.threads for case in run.cases)
    setup_s = statistics.median(run.imports) + statistics.median(run.builds)
    if args.write_reference:
        if failures:
            raise RuntimeError(f"not writing a reference from a run with failures: {failures}")
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {
            "seed": DEFAULT_SEED, "rtol": 1e-8, "atol": 1e-12, "workloads": {}}
        ref["workloads"][args.workload] = run.first
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    untraced = [w for w, _ in passes[False]]
    if args.trace:
        try:
            metrics = tr.combine(run.layers)
        except ValueError as exc:
            problems.append(str(exc))
            metrics = dict(run.layers[0])
        for n in SIZES:
            metrics.update(kernel_model(n))
        base = statistics.median(untraced)
        traced_wall = statistics.median(w for w, _ in passes[True])
        metrics["trace.overhead_frac"] = (traced_wall - base) / base
        tr.write_spans(OUT / f"trace-{args.workload}.jsonl", run.spans)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced),
            "cpu_s": statistics.median(c for _, c in passes[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "pass_frac": 1.0 - len(failures) / run.attempted,
        }
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    return {
        "workload": args.workload,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "provenance": provenance(args, threads),
        "wall_s": quartiles(untraced),
        "cpu_s": quartiles([c for _, c in passes[False]]),
        "traced_wall_s": quartiles([w for w, _ in passes[True]]) if args.trace else None,
        "setup_s": setup_s,
        "import_s": quartiles(run.imports),
        "build_s": quartiles(run.builds),
        "attempted": run.attempted,
        "failures": failures,
        "trace_problems": problems,
        "computed_metrics": sorted(k for k in metrics if k.startswith(
            ("cauchy.flops_", "cauchy.bytes_", "cauchy.live_"))),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in sorted(metrics.items())},
    }


def selftest() -> int:
    """A reduced scan must write byte-identical summaries and equal counts at 1 and 2 threads."""
    from dbarlab import cli

    work = os.path.join(OUT, f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        cfg = os.path.join(work, "scan.json")
        with open(cfg, "w", encoding="ascii") as fh:
            json.dump({"b_list": [[0.05, 0.0], [0.0, 0.001]], "radii": [0.25, 0.5, 1.0, 2.0],
                       "resolution": 33}, fh)
        seen = {}
        for threads in (1, 2):
            out = os.path.join(work, f"t{threads}")
            tracer = tr.Tracer()
            tracer.install()
            try:
                code = cli.main(["kr-scan", "--config", cfg, "--out", out,
                                 "--threads", str(threads)])
            finally:
                tracer.uninstall()
            m = tr.layer_metrics(tracer.take())
            with open(os.path.join(out, "summary.json"), "rb") as fh:
                seen[threads] = (code, fh.read(), {k: m[k] for k in tr.COUNTERS})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = seen[1] == seen[2] and seen[1][0] == 0
    print(json.dumps({"selftest": "scan threads 1 vs 2", "passed": ok,
                      "counters": {t: s[2] for t, s in seen.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check scan output and counts across thread counts, then exit")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"the reference is kept for seed {DEFAULT_SEED} only")

    if not (SRC / "dbarlab" / "cli.py").is_file():
        return fail(f"no dbarlab sources under {SRC}; run from a repository checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    os.environ.pop("DBARLAB_OUT", None)  # it would redirect every CLI output
    sys.path.insert(0, str(SRC))
    import dbarlab

    if Path(dbarlab.__file__).resolve().parent != (SRC / "dbarlab").resolve():
        return fail(f"imported dbarlab from {dbarlab.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)
    if args.selftest:
        return selftest()

    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    record = run_workload(args, declared)
    with open(OUT / "records.jsonl", "a", encoding="ascii") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for key in ("wall_s", "cpu_s", "traced_wall_s"):
        if record[key]:
            q = record[key]
            print(f"{key}: median {q['median']:.4f} q1 {q['q1']:.4f} q3 {q['q3']:.4f} "
                  f"n {q['n']}")
    for item in record["failures"] + record["trace_problems"]:
        print(f"FAIL {item}")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    correct = not record["failures"] and not record["trace_problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
