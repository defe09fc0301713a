import cmath
import dataclasses
import gc
import json
import math
import sys
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from dbarlab import cli, dbar
from dbarlab.acs import Z1_RADIUS
from dbarlab.dbar import DbarProblem, load_solution, picard_solve, residual_dbar
from dbarlab.grid import make_grid
from dbarlab.kr import (
    FAILURE_NONCONV,
    FAILURE_NONE,
    FAILURE_SUP,
    ORIGIN_BOUND,
    KrEstimate,
    check_scan,
    default_radii,
    graph_feasibility,
    origin_witness_residual,
    radius_scan,
    usc_report,
)
from dbarlab.util import json_dumps, write_pgm


def _p5(values):
    """P5 bytes of a heatmap, spelled out: [0, max] mapped linearly onto 0..255."""
    v = np.asarray(values, dtype=float)
    vmax = v.max()
    if vmax > 0:
        pix = np.rint(np.clip(v / vmax, 0.0, 1.0) * 255.0).astype(np.uint8)
    else:
        pix = np.zeros(v.shape, dtype=np.uint8)
    return f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii") + pix.tobytes()


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
        assert rec.failure_mode == FAILURE_SUP
        assert rec.sup_f > 0.1
        assert rec.chain is not None
        assert rec.chain.details["verdict"] == "consistent"

    def test_gate_failure_is_non_convergence(self):
        rec = graph_feasibility(0.25, 0.05, 65)
        assert rec.failure_mode == FAILURE_NONCONV
        assert not rec.certified
        assert rec.chain is None
        assert "gate" in rec.chain_note

    def test_small_radius_small_anchor_feasible(self):
        rec = graph_feasibility(0.25, 0.001, 65)
        assert rec.feasible
        assert rec.failure_mode == FAILURE_NONE
        assert rec.sup_f < 0.1
        assert rec.certified
        assert rec.residual_sup <= 5 * make_grid(0.25, 65).spacing
        assert rec.chain is not None

    def test_resolution_controls_grid(self):
        rec = graph_feasibility(0.25, 0.001, resolution=33)
        assert rec.heatmap.shape == (33, 33)
        assert rec.heatmap.dtype == np.uint8

    def test_record_flag_consistency_enforced(self):
        # the failure mode is derived from the record's solve, so a record
        # cannot claim a mode its solve contradicts
        rec = graph_feasibility(0.25, 0.001, 65)
        assert rec.failure_mode == FAILURE_NONE
        for edits, mode in (({"certified": False}, FAILURE_NONCONV),
                            ({"sup_f": 0.1}, FAILURE_SUP)):
            edited = dataclasses.replace(rec, **edits)
            assert edited.failure_mode == mode
            assert not edited.feasible

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
        est = radius_scan(0.01, None, 65, threads=1)
        radii = default_radii()
        assert est.a_observed == pytest.approx(float(radii[2]))
        assert est.lower_bound() == pytest.approx(1.0 / float(radii[2]))
        assert est.verdict()["gap_positive"] is True
        assert est.verdict()["lower_bound"] == est.lower_bound()
        assert est.scan_consistent()
        assert [rec.radius for rec in est.records] == sorted(
            float(r) for r in radii
        )
        assert est.lower_bound() > 0.5

    def test_no_feasible_disc_encodes_as_null(self):
        est = radius_scan(0.05, [0.25, 0.5, 1.0], 65, threads=1)
        assert est.a_observed == 0.0
        assert est.lower_bound() == np.inf
        verdict = est.verdict()
        assert verdict["lower_bound"] is None
        assert verdict["no_feasible_disc"] is True
        assert verdict["gap_positive"] is True  # inf > 1/2
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
    FakeRec = namedtuple("FakeRec", "radius feasible failure_mode")

    def test_real_scan_is_consistent(self):
        est = radius_scan(0.001, [0.25, 0.5], 65, threads=1)
        assert est.records[0].feasible
        assert est.records[1].failure_mode == FAILURE_SUP
        assert est.scan_consistent()

    def test_detects_feasible_above_violation(self):
        recs = [
            self.FakeRec(0.5, False, FAILURE_SUP),
            self.FakeRec(1.0, True, FAILURE_NONE),
        ]
        assert not KrEstimate(0.01, recs).scan_consistent()

    def test_vacuous_without_sup_violations(self):
        recs = [self.FakeRec(0.5, False, FAILURE_NONCONV)]
        assert KrEstimate(0.01, recs).scan_consistent()

    def test_a_observed_is_the_largest_feasible_radius(self):
        recs = [
            self.FakeRec(0.25, True, FAILURE_NONE),
            self.FakeRec(0.5, True, FAILURE_NONE),
            self.FakeRec(1.0, False, FAILURE_NONCONV),
        ]
        assert KrEstimate(0.01, recs).a_observed == 0.5
        assert KrEstimate(0.01, recs[2:]).a_observed == 0.0
        assert KrEstimate(0.01, ()).no_feasible_disc

    def test_gap_positive_compares_the_estimate_with_the_origin_bound(self):
        # feasible at 0.5 (estimate 2), at 2 (estimate 1/2, no gap), and nowhere (inf)
        for recs, gap in (([self.FakeRec(0.5, True, FAILURE_NONE)], True),
                          ([self.FakeRec(2.0, True, FAILURE_NONE)], False),
                          ([self.FakeRec(0.5, False, FAILURE_NONCONV)], True)):
            est = KrEstimate(0.01, recs)
            assert est.verdict()["gap_positive"] is (est.lower_bound() > ORIGIN_BOUND) is gap


class TestUscReport:
    def test_single_anchor(self, tmp_path):
        out = usc_report([0.01], tmp_path, radii=[0.25, 0.33, 0.5])
        summary = out["summary"]
        assert summary["origin_upper_bound"] == 0.5
        assert summary["origin_witness_residual"] == 0.0
        assert summary["empirical"] is True
        assert len(summary["rows"]) == 1
        row = summary["rows"][0]
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
            with pytest.raises(ValueError, match=match):
                usc_report(b_list, out, **kwargs)
            assert not out.exists(), (b_list, kwargs)

    def test_zero_anchor_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            usc_report([0.01, 0.0], tmp_path)


class TestScanMemory:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_records_keep_pixels_not_fields(self, threads):
        # a record holding its complex field would keep 16 N^2 bytes a radius
        n, radii = 33, np.geomspace(0.25, 2.0, 8)
        radius_scan(0.01, radii=radii, resolution=n, threads=threads)  # warm numpy's caches
        gc.collect()
        tracemalloc.start()
        try:
            est = radius_scan(0.01, radii=radii, resolution=n, threads=threads)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        records = len(est.records)
        assert records == 8
        # numpy's array data, traced in its own domain: the pixels, with no
        # slack beyond 64 bytes a record
        assert sum(t.size for t in arrays.traces) <= records * (n * n + 64)
        # everything held, the records' Python objects included (dataclasses,
        # the chain reports' dicts), whose size varies with the interpreter:
        # under half of what the fields alone would take
        assert held < records * 16 * n * n // 2


class TestHeatmaps:
    def test_scan_heatmap_is_the_solves_pgm(self, tmp_path):
        r, b, n = 0.5, 0.01, 33
        out = usc_report([b], tmp_path / "scan", radii=[r], resolution=n)
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
