import cmath
import dataclasses
import gc
import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dbarlab import cli, dbar, kr
from dbarlab.acs import MEMBERSHIP_SLACK, Z1_RADIUS, Z2_RADIUS
from dbarlab.dbar import DbarProblem, load_solution, picard_solve, residual_dbar
from dbarlab.grid import make_grid
from dbarlab.kr import (
    DEFAULT_RESOLUTION,
    ORIGIN_BOUND,
    check_scan,
    default_radii,
    graph_feasibility,
    origin_witness_residual,
    radius_scan,
    scan_verdict,
    usc_report,
)
from dbarlab.util import json_dumps, write_pgm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _p5(values):
    """P5 bytes of a heatmap, spelled out: [0, max] mapped linearly onto 0..255."""
    v = np.asarray(values, dtype=float)
    vmax = v.max()
    if vmax > 0:
        pix = np.rint(np.clip(v / vmax, 0.0, 1.0) * 255.0).astype(np.uint8)
    else:
        pix = np.zeros(v.shape, dtype=np.uint8)
    return f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii") + pix.tobytes()


@pytest.fixture(scope="module")
def solved():
    """One certified, inside record; the scan-verdict tests edit copies of it."""
    rec = graph_feasibility(0.25, 0.001, 33)
    assert rec.feasible
    return rec


def _rec(solved, radius, *, certified=True, sup_f=0.01):
    return dataclasses.replace(solved, radius=radius, certified=certified, sup_f=sup_f)


class TestOriginBound:
    def test_certified_half(self):
        assert ORIGIN_BOUND == 1.0 / Z1_RADIUS == 0.5
        assert origin_witness_residual() == 0.0


class TestGraphFeasibility:
    def test_input_validation(self):
        with pytest.raises(ValueError):
            graph_feasibility(1.0, 0.0, 65)
        with pytest.raises(ValueError):
            graph_feasibility(1.0, 0.2, 65)
        with pytest.raises(ValueError):
            graph_feasibility(-1.0, 0.05, 65)
        with pytest.raises(ValueError, match="radius-1/10"):
            graph_feasibility(1.0, complex(float("nan"), 0.0), 65)
        # a graph over D_r with r > 2 cannot lie in D_2 x D_(1/10)
        with pytest.raises(ValueError, match="at most 2"):
            graph_feasibility(2.5, 0.05, 65)

    def test_unit_disc_anchor_is_infeasible(self):
        # a certified solve exists but its sup exceeds the target factor;
        # that is the sup lower bound doing its job
        rec = graph_feasibility(1.0, 0.05, 65)
        assert not rec.feasible
        assert rec.certified and not rec.inside
        assert rec.sup_f > 0.1
        assert rec.chain["available"] is True
        assert rec.chain["report"]["details"]["verdict"] == "consistent"

    def test_gate_failure_is_infeasible(self):
        rec = graph_feasibility(0.25, 0.05, 65)
        assert not rec.certified
        assert not rec.feasible
        assert rec.chain == {"available": False,
                             "reason": "no certificate: solve missed the residual gate"}

    @pytest.mark.parametrize("r, b", [(1.0, 0.05), (0.5, 0.0125)])
    def test_chain_is_certifys_sup_bound_entry(self, tmp_path, r, b):
        # the same problem through solve-dbar and certify of its solution.json
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"radius": r, "resolution": 65, "b": [b, 0.0]}))
        assert cli.main(["solve-dbar", "--config", str(cfg), "--out", str(tmp_path / "sol")]) == 0
        cfg = tmp_path / "cert.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "sol" / "solution.json")}))
        assert cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / "cert")]) == 0
        certs = json.loads((tmp_path / "cert" / "certificates.json").read_text())["certificates"]
        chain = graph_feasibility(r, b, 65).chain
        assert chain["available"] is True
        assert json.loads(json_dumps(chain)) == certs["sup_bound"]

    def test_small_radius_small_anchor_feasible(self):
        rec = graph_feasibility(0.25, 0.001, 65)
        assert rec.feasible
        assert rec.certified and rec.inside
        assert rec.sup_f < 0.1
        assert rec.residual_sup <= 5 * make_grid(0.25, 65).spacing
        assert rec.chain["available"] is True

    def test_resolution_controls_grid(self):
        rec = graph_feasibility(0.25, 0.001, resolution=33)
        assert rec.heatmap.shape == (33, 33)
        assert rec.heatmap.dtype == np.uint8

    def test_record_flag_consistency_enforced(self):
        # inside and feasible are derived from the record's solve, so a
        # record cannot claim a verdict its solve contradicts
        rec = graph_feasibility(0.25, 0.001, 65)
        assert rec.feasible
        for edits, inside in (({"certified": False}, True),
                              ({"sup_f": 0.1}, False)):
            edited = dataclasses.replace(rec, **edits)
            assert edited.inside is inside
            assert not edited.feasible

    def test_inside_is_strict_at_the_slack(self, solved):
        # the sup must stay strictly below the radius-1/10 factor less its slack
        edge = Z2_RADIUS - MEMBERSHIP_SLACK
        at_edge = _rec(solved, 0.25, sup_f=edge)
        assert not at_edge.inside and not at_edge.feasible
        below = _rec(solved, 0.25, sup_f=float(np.nextafter(edge, 0.0)))
        assert below.inside and below.feasible

    @pytest.mark.parametrize("n", [17, 33])
    def test_every_admitted_corner_is_finite(self, n):
        # the corners check_scan admits: the smallest radius make_grid takes
        # at this resolution (h^2 just above the smallest normal float), an
        # anchor at the edge of the radius-1/10 disc on and off the real
        # axis, and the smallest anchor; no solve there leaves the
        # floating-point range, so every record has its scalars and pixels
        r_min = math.sqrt(sys.float_info.min) * (n - 1) / 2 * (1 + 1e-15)
        with pytest.raises(ValueError, match="underflows"):
            make_grid(r_min * (1 - 2e-15), n)
        edge = 0.1 - 2e-12
        for r in (r_min, 1e-3, 2.0):
            for b in (edge, edge * cmath.exp(2.3j), 1e-300):
                rec = graph_feasibility(r, b, resolution=n)
                assert math.isfinite(rec.sup_f) and math.isfinite(rec.residual_sup), (r, b)
                assert rec.heatmap.shape == (n, n) and rec.heatmap.dtype == np.uint8


class TestRadiusScan:
    def test_moderate_anchor(self):
        records = radius_scan(0.01, None, 65, threads=1)
        radii = default_radii()
        assert isinstance(records, list)
        assert [rec.radius for rec in records] == sorted(float(r) for r in radii)
        verdict = scan_verdict(records)
        assert verdict["a_observed"] == pytest.approx(float(radii[2]))
        assert verdict["lower_bound"] == pytest.approx(1.0 / float(radii[2]))
        assert verdict["lower_bound"] == 1.0 / verdict["a_observed"] > 0.5
        assert verdict["gap_positive"] is True
        assert verdict["no_feasible_disc"] is False
        assert verdict["scan_consistent"] is True

    def test_no_feasible_disc_encodes_as_null(self):
        records = radius_scan(0.05, [0.25, 0.5, 1.0], 65, threads=1)
        verdict = scan_verdict(records)
        assert verdict["a_observed"] == 0.0
        assert verdict["lower_bound"] is None
        assert verdict["no_feasible_disc"] is True
        assert verdict["gap_positive"] is True  # an infinite estimate exceeds 1/2
        json_dumps(verdict)  # must not trip the NaN/inf guard

    def test_validation(self):
        with pytest.raises(ValueError):
            radius_scan(0.0, None, 65, threads=1)
        with pytest.raises(ValueError):
            radius_scan(0.01, [], 65, threads=1)
        with pytest.raises(ValueError, match="2 \\* radius\\*\\*2 finite"):
            check_scan([0.01], [0.5, 1e200], 65)  # refused before any radius is solved
        with pytest.raises(ValueError, match="at most 2"):
            check_scan([0.01], [0.5, 2.0 + 1e-15], 65)
        with pytest.raises(ValueError, match="repeats a radius"):
            check_scan([0.01], [0.5, 0.25, 0.5], 65)  # the disc would be solved and written twice
        assert check_scan([0.01], [2.0, 0.5], 65)[1] == [0.5, 2.0]


class TestScanConsistency:
    def test_real_scan_is_consistent(self):
        records = radius_scan(0.001, [0.25, 0.5], 65, threads=1)
        assert records[0].feasible
        assert records[1].certified and not records[1].inside
        assert scan_verdict(records)["scan_consistent"] is True

    def test_detects_feasible_above_violation(self, solved):
        records = [_rec(solved, 0.5, sup_f=0.2), _rec(solved, 1.0)]
        assert scan_verdict(records)["scan_consistent"] is False

    def test_vacuous_without_sup_violations(self, solved):
        assert scan_verdict([_rec(solved, 0.5, certified=False)])["scan_consistent"] is True

    def test_uncertified_sup_is_no_violation(self, solved):
        # an uncertified solve's sup says nothing, so a feasible radius above it stands
        for sup_f in (0.1, 0.2):
            records = [_rec(solved, 0.5, certified=False, sup_f=sup_f), _rec(solved, 1.0)]
            verdict = scan_verdict(records)
            assert verdict["scan_consistent"] is True
            assert verdict["a_observed"] == 1.0

    def test_a_observed_is_the_largest_feasible_radius(self, solved):
        records = [_rec(solved, 0.25), _rec(solved, 0.5), _rec(solved, 1.0, certified=False)]
        assert scan_verdict(records)["a_observed"] == 0.5
        assert scan_verdict(records[2:])["a_observed"] == 0.0
        assert scan_verdict(records[2:])["no_feasible_disc"] is True

    def test_empty_scan(self):
        assert scan_verdict(()) == {
            "a_observed": 0.0,
            "gap_positive": True,
            "lower_bound": None,
            "no_feasible_disc": True,
            "scan_consistent": True,
        }

    def test_gap_positive_compares_the_estimate_with_the_origin_bound(self, solved):
        # feasible at 0.5 (estimate 2), at 2 (estimate 1/2, no gap), and nowhere (inf)
        for records, gap in (([_rec(solved, 0.5)], True),
                             ([_rec(solved, 2.0)], False),
                             ([_rec(solved, 0.5, certified=False)], True)):
            verdict = scan_verdict(records)
            estimate = math.inf if verdict["no_feasible_disc"] else verdict["lower_bound"]
            assert verdict["gap_positive"] is (estimate > ORIGIN_BOUND) is gap


class TestUscReport:
    def test_single_anchor(self, tmp_path):
        out = usc_report([0.01], tmp_path, [0.25, 0.33, 0.5], DEFAULT_RESOLUTION, threads=1)
        summary = out["summary"]
        assert summary["origin_upper_bound"] == 0.5
        assert summary["origin_witness_residual"] == 0.0
        assert summary["empirical"] is True
        assert len(summary["rows"]) == 1
        row = summary["rows"][0]
        # a row is its anchor and scan_verdict's keys, nothing more
        assert set(row) == {"b", "a_observed", "gap_positive", "lower_bound",
                            "no_feasible_disc", "scan_consistent"}
        assert row["gap_positive"] is True
        assert row["scan_consistent"] is True
        assert summary["all_gaps_positive"] is True

        assert out["files"] == ["usc_report.json", "usc_table.csv",
                                *(f"scan_b00_r{ri:02d}_absf.pgm" for ri in range(3))]
        on_disk = json.loads((tmp_path / "usc_report.json").read_text())
        assert on_disk == json.loads(json_dumps(summary))

        lines = (tmp_path / "usc_table.csv").read_text().strip().split("\n")
        assert lines[0] == "b,r,feasible,sup_f,residual"
        assert len(lines) == 4
        for name in out["files"][2:]:
            head = open(tmp_path / name, "rb").read(2)
            assert head == b"P5"

    def test_empty_list_refused(self, tmp_path):
        # no anchor, or a scan no grid or report can take, no verdict:
        # refused before anything is written
        out = tmp_path / "out"
        for b_list, kwargs, match in [
            ([], {}, "at least one anchor"),
            ([0.01], {"radii": [2.5]}, "at most 2"),
            ([0.01], {"radii": [0.5, 0.5]}, "repeats a radius"),
            ([0.01], {"radii": [1e-200]}, "underflows"),
            ([0.01], {"radii": [0.5], "resolution": 64}, "odd"),
            ([0.01, 0.01 + 0j], {"radii": [0.5]}, "repeats an anchor"),
        ]:
            scan = {"radii": None, "resolution": DEFAULT_RESOLUTION, **kwargs}
            with pytest.raises(ValueError, match=match):
                usc_report(b_list, out, **scan, threads=1)
            assert not out.exists(), (b_list, kwargs)

    def test_zero_anchor_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            usc_report([0.01, 0.0], tmp_path, None, DEFAULT_RESOLUTION, threads=1)


class TestScanMemory:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_records_keep_pixels_not_fields(self, threads):
        # a record holding its complex field would keep 16 N^2 bytes a radius
        n, radii = 33, np.geomspace(0.25, 2.0, 8)
        radius_scan(0.01, radii=radii, resolution=n, threads=threads)  # warm numpy's caches
        gc.collect()
        tracemalloc.start()
        try:
            records = radius_scan(0.01, radii=radii, resolution=n, threads=threads)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        assert len(records) == 8
        # numpy's array data, traced in its own domain: the pixels, with no
        # slack beyond 64 bytes a record
        assert sum(t.size for t in arrays.traces) <= len(records) * (n * n + 64)
        # everything held, the records' Python objects included (dataclasses,
        # the chain reports' dicts), whose size varies with the interpreter:
        # under half of what the fields alone would take
        assert held < len(records) * 16 * n * n // 2


class TestTracerReadsTheScan:
    def test_layer_metrics_count_the_records(self, tmp_path):
        # the benchmark tracer wraps radius_scan and graph_feasibility by name
        # and reads each record's feasible; its counts must match the table
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        tracer_mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_mod)
        tracer = tracer_mod.Tracer()
        tracer.install()  # cli is imported above, so every dbarlab module is bound
        try:
            kr.usc_report([0.001], tmp_path, [0.25, 1.0], 17, threads=2)
        finally:
            tracer.uninstall()
        metrics = tracer_mod.layer_metrics(tracer.take())
        lines = (tmp_path / "usc_table.csv").read_text().strip().split("\n")[1:]
        feasible = sum(line.split(",")[2] == "true" for line in lines)
        assert metrics["kr.records"] == len(lines) == 2
        assert metrics["kr.feasible"] == feasible == 1


class TestHeatmaps:
    def test_scan_heatmap_is_the_solves_pgm(self, tmp_path):
        r, b, n = 0.5, 0.01, 33
        out = usc_report([b], tmp_path / "scan", radii=[r], resolution=n, threads=1)
        got = (tmp_path / "scan" / out["files"][2]).read_bytes()
        abs_f = np.abs(picard_solve(DbarProblem(make_grid(r, n), b)).f.values)
        write_pgm(tmp_path / "direct.pgm", abs_f)
        assert got == (tmp_path / "direct.pgm").read_bytes() == _p5(abs_f)

    def test_solve_dbar_heatmaps_unchanged(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 33, "b": [0.05, 0.0]}), encoding="ascii")
        out = tmp_path / "solve"
        assert cli.main(["solve-dbar", "--config", str(cfg), "--out", str(out)]) == 0
        f = load_solution(out / "solution.json").f
        assert (out / "abs_f.pgm").read_bytes() == _p5(np.abs(f.values))
        assert (out / "residual.pgm").read_bytes() == _p5(residual_dbar(f))

    def test_solve_dbar_measures_its_residual_once(self, tmp_path, monkeypatch):
        # every dbarlab binding of residual_dbar counts, as the benchmark tracer wraps them all
        calls = []
        original = dbar.residual_dbar

        def counted(f):
            calls.append(f.spec.resolution)
            return original(f)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dbarlab":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 33, "b": [0.05, 0.0]}), encoding="ascii")
        out = tmp_path / "solve"
        assert cli.main(["solve-dbar", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == [33]
        write_pgm(tmp_path / "direct.pgm", load_solution(out / "solution.json").residual)
        assert (out / "residual.pgm").read_bytes() == (tmp_path / "direct.pgm").read_bytes()
