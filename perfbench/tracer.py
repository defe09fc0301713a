"""In-memory span tracer for the layer boundaries of dbarlab.

The tracer wraps public functions of the package from the outside, so the
package itself carries no instrumentation.  A function imported by name into
another module (``picard_solve`` in ``kr`` and ``cli``, ``polar_decompose`` in
``certify``, ...) is wrapped at every binding that holds the original object,
so each call is timed whichever module makes it.

One span is recorded per call: name, start, end, parent span, case id and a
few facts taken from the arguments or the result (grid size, iterations,
bytes).  Spans opened on a pool thread have no parent on their own thread;
they get the ``parallel_map`` span that started the pool.  Spans stay in
memory; the caller turns them into per-layer metrics and writes them out at
the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time


class Span:
    __slots__ = ("id", "name", "parent", "case", "start", "end", "error", "info")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _resolution(args, kwargs, result):
    return {"n": args[0].spec.resolution}


def _solve_info(args, kwargs, result):
    return {"n": result.problem.grid.resolution, "iterations": result.iterations,
            "converged": bool(result.converged)}


def _pool_info(args, kwargs, result):
    threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
    return {"threads": threads or (os.cpu_count() or 1)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, attribute, class or None, info hook); the span name
# carries the layer as its prefix
TARGETS = {
    "cauchy.setup": ("dbarlab.cauchy", "__init__", "CauchyTransform", None),
    "cauchy.apply": ("dbarlab.cauchy", "apply_values", "CauchyTransform", _resolution),
    "dbar.picard_solve": ("dbarlab.dbar", "picard_solve", None, _solve_info),
    "dbar.residual_dbar": ("dbarlab.dbar", "residual_dbar", None, None),
    "dbar.load_solution": ("dbarlab.dbar", "load_solution", None, None),
    "dbar.rescaled_solution_record": ("dbarlab.dbar", "rescaled_solution_record", None, None),
    "grid.polar_decompose": ("dbarlab.grid", "polar_decompose", None, None),
    "grid.save_field": ("dbarlab.grid", "save_field", None, _written_bytes),
    "grid.load_complex_field": ("dbarlab.grid", "load_complex_field", None, _read_bytes),
    "certify.lemma1_check": ("dbarlab.certify", "lemma1_check", None, None),
    "certify.sqrt_branch": ("dbarlab.certify", "sqrt_branch", None, None),
    "certify.eq_chain_check": ("dbarlab.certify", "eq_chain_check", None, None),
    "certify.lemma2_check": ("dbarlab.certify", "lemma2_check", None, None),
    "certify.theorem2_chain": ("dbarlab.certify", "theorem2_chain", None, None),
    "kr.usc_report": ("dbarlab.kr", "usc_report", None, None),
    "kr.radius_scan": ("dbarlab.kr", "radius_scan", None, None),
    "kr.graph_feasibility": ("dbarlab.kr", "graph_feasibility", None,
                             lambda a, k, r: {"feasible": bool(r.feasible)}),
    "util.parallel_map": ("dbarlab.util", "parallel_map", None, _pool_info),
    "util.write_json": ("dbarlab.util", "write_json", None, None),
    "util.write_pgm": ("dbarlab.util", "write_pgm", None, None),
    "cli.main": ("dbarlab.cli", "main", None, None),
}

CERTIFICATES = ("certify.lemma1_check", "certify.sqrt_branch", "certify.eq_chain_check",
                "certify.lemma2_check", "certify.theorem2_chain")


class Tracer:
    """Collects spans while installed; ``case`` labels the spans of one case."""

    def __init__(self):
        self.spans: list = []
        self.case = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, info, pool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span()
            span.id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._pool_parent
            span.parent = None if parent is None else parent.id
            span.name, span.case, span.error, span.info = name, tracer.case, False, None
            stack.append(span)
            if pool:
                outer, tracer._pool_parent = tracer._pool_parent, span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if pool:
                    tracer._pool_parent = outer
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every dbarlab module binding of the original."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "dbarlab" or k.startswith("dbarlab.")]
        for name, (modname, attr, clsname, info) in TARGETS.items():
            owner = sys.modules[modname]
            if clsname is not None:
                owner = getattr(owner, clsname)
                original = owner.__dict__[attr]
                holders = [owner]
            else:
                original = getattr(owner, attr)
                holders = modules
            wrapped = self._wrap(name, original, info, name == "util.parallel_map")
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _self_time(spans, children, keep=lambda s: True) -> float:
    return sum((s.end - s.start - _covered(s.start, s.end, [(c.start, c.end)
                for c in children.get(s.id, ()) if keep(c)]) for s in spans), 0.0)


def layer_metrics(spans: list, sizes=(65, 129, 257)) -> dict:
    """Per-layer counts and times of one pass, from that pass's spans."""
    by_name: dict = {}
    children: dict = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum((s.end - s.start for s in named(name)), 0.0)

    def parent_name(s):
        p = by_id.get(s.parent)
        return None if p is None else p.name

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    applies = named("cauchy.apply")
    m["cauchy.apply_calls"] = len(applies)
    m["cauchy.apply_s"] = total("cauchy.apply")
    for n in sizes:
        at_n = [s.end - s.start for s in applies if s.info["n"] == n]
        m[f"cauchy.apply_ms.n{n}"] = 1e3 * ratio(sum(at_n), len(at_n))
    m["cauchy.setup_calls"] = len(named("cauchy.setup"))
    m["cauchy.setup_s"] = total("cauchy.setup")

    solves = [s for s in named("dbar.picard_solve") if not s.error]
    iterations = sum(s.info["iterations"] for s in solves)
    m["dbar.solves"] = len(named("dbar.picard_solve"))
    m["dbar.iterations"] = iterations
    m["dbar.converged_frac"] = ratio(sum(s.info["converged"] for s in solves), len(solves))
    for n in sizes:
        at_n = [s for s in solves if s.info["n"] == n]
        m[f"dbar.iter_ms.n{n}"] = 1e3 * ratio(sum(s.end - s.start for s in at_n),
                                              sum(s.info["iterations"] for s in at_n))
    m["dbar.self_s"] = _self_time(named("dbar.picard_solve"), children,
                                  lambda c: c.name.startswith("cauchy."))
    m["dbar.residual_s"] = total("dbar.residual_dbar")

    m["grid.polar_calls"] = len(named("grid.polar_decompose"))
    m["grid.polar_s"] = total("grid.polar_decompose")
    m["grid.save_s"] = total("grid.save_field")
    m["grid.load_s"] = total("grid.load_complex_field")
    m["grid.bytes_written"] = sum(s.info["bytes"] for s in named("grid.save_field") if s.info)
    m["grid.bytes_read"] = sum(s.info["bytes"] for s in named("grid.load_complex_field")
                               if s.info)

    m["certify.lemma1_s"] = total("certify.lemma1_check")
    m["certify.sqrt_branch_s"] = total("certify.sqrt_branch")
    m["certify.eq_chain_s"] = total("certify.eq_chain_check")
    m["certify.lemma2_s"] = total("certify.lemma2_check")
    m["certify.theorem2_s"] = total("certify.theorem2_chain")
    cert_calls = [s for name in CERTIFICATES for s in named(name)]
    m["certify.calls"] = len(cert_calls)
    m["certify.available_frac"] = ratio(sum(not s.error for s in cert_calls), len(cert_calls))
    theorem2 = named("certify.theorem2_chain")
    records = named("kr.graph_feasibility")
    m["certify.theorem2_runs"] = sum(not s.error for s in theorem2)
    # a verdict is sought for every scanned radius and every solution handed to certify
    m["certify.theorem2_attempts"] = len(records) + sum(
        parent_name(s) == "cli.main" for s in theorem2)

    gate_passes = sum(parent_name(s) == "kr.graph_feasibility" for s in theorem2)
    m["kr.records"] = len(records)
    m["kr.feasible"] = sum(bool(s.info and s.info["feasible"]) for s in records)
    m["kr.gate_pass_frac"] = ratio(gate_passes, len(records))
    m["kr.feasibility_s"] = total("kr.graph_feasibility")

    pools = named("util.parallel_map")
    busy = sum(c.end - c.start for p in pools for c in children.get(p.id, ()))
    capacity = sum(p.info["threads"] * (p.end - p.start) for p in pools if p.info)
    m["util.pool_efficiency"] = ratio(busy, capacity)
    m["util.write_s"] = total("util.write_json") + total("util.write_pgm")

    m["cli.self_s"] = _self_time(named("cli.main"), children)
    return m


COUNTERS = ("cauchy.apply_calls", "cauchy.setup_calls", "dbar.solves", "dbar.iterations",
            "grid.polar_calls", "grid.bytes_written", "grid.bytes_read", "certify.calls",
            "certify.theorem2_runs", "certify.theorem2_attempts", "kr.records", "kr.feasible")


def combine(passes: list) -> dict:
    """Median of each metric over traced passes; counters must agree exactly."""
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in COUNTERS:
            if len(set(values)) != 1:
                raise ValueError(f"counter {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for s in spans:
            fh.write(json.dumps(s.to_json(), separators=(",", ":")) + "\n")
