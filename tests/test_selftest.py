"""Config handling and summary shape of the self-check battery.

The criteria themselves get their full workout in test_acceptance; here
we pin the config rules (criteria is the only key), how the registry's
(name, function) pairs become summary rows, the deterministic summary
layout, the crashed-criterion path, and that the determinism criterion
fails when a scan's files depend on the thread count.
"""

import pytest

from dbarlab import kr, selftest, util
from dbarlab.util import config_digest, json_dumps


def _stub_battery(monkeypatch):
    """Replace every criterion by an instant pass so the config path runs alone."""
    for idx, (name, _) in selftest.CRITERIA.items():
        monkeypatch.setitem(selftest.CRITERIA, idx, (name, lambda threads: (True, {})))
    monkeypatch.setitem(selftest.CRITERIA, 10,
                        (selftest.CRITERIA[10][0], lambda threads, out_dir=None: (True, {}, [])))


class TestMergeConfig:
    def test_defaults_returned_on_none(self, monkeypatch):
        assert selftest.SELFTEST_DEFAULTS == {"criteria": list(range(1, 12))}
        _stub_battery(monkeypatch)
        summary, _ = selftest.run_selftest(None)
        assert [c["index"] for c in summary["criteria"]] == list(range(1, 12))
        assert summary["config_digest"] == config_digest(selftest.SELFTEST_DEFAULTS)

    def test_override_applied(self, monkeypatch):
        _stub_battery(monkeypatch)
        summary, _ = selftest.run_selftest({"criteria": [9, 3, 9]})
        assert [c["index"] for c in summary["criteria"]] == [3, 9]
        assert summary["config_digest"] == config_digest({"criteria": [9, 3, 9]})

    def test_unknown_key_rejected(self):
        for key in ("extra_knob", "ode_steps", "scan_resolution"):
            with pytest.raises(ValueError, match="unknown selftest config key"):
                selftest.run_selftest({key: 1})

    def test_list_scalar_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must be a list"):
            selftest.run_selftest({"criteria": 3})

    def test_unknown_criterion_rejected(self):
        for criteria in ([1, 12], [[1]], [{"a": 1}]):
            with pytest.raises(ValueError, match="unknown criteria"):
                selftest.check_criteria(criteria)
            with pytest.raises(ValueError, match="unknown criteria"):
                selftest.run_selftest({"criteria": criteria})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            selftest.run_selftest([1, 2])


class TestRunSelftest:
    def test_subset_runs_in_order_and_passes(self):
        summary, _ = selftest.run_selftest({"criteria": [8, 2]}, threads=1)
        assert [c["index"] for c in summary["criteria"]] == [2, 8]
        assert summary["all_passed"] is True
        assert set(summary) == {"schema_version", "config_digest", "criteria", "all_passed"}

    def test_summary_bytes_thread_independent(self):
        cfg = {"criteria": [2, 9]}
        one = json_dumps(selftest.run_selftest(cfg, threads=1)[0])
        many = json_dumps(selftest.run_selftest(cfg, threads=4)[0])
        assert one == many

    def test_criterion_result_becomes_its_row(self, monkeypatch):
        # index and name come from the table, passed and details from the
        # criterion, and a crash is a failed row in its own place
        def boom(threads):
            raise RuntimeError("synthetic fault")

        monkeypatch.setitem(selftest.CRITERIA, 2, ("first", lambda threads: (True, {"x": 0.5})))
        monkeypatch.setitem(selftest.CRITERIA, 4, ("second", lambda threads: (False, {})))
        monkeypatch.setitem(selftest.CRITERIA, 9, ("third", boom))
        summary, _ = selftest.run_selftest({"criteria": [9, 4, 2]}, threads=1)
        assert summary["criteria"] == [
            {"index": 2, "name": "first", "passed": True, "details": {"x": 0.5}},
            {"index": 4, "name": "second", "passed": False, "details": {}},
            {"index": 9, "name": "third", "passed": False,
             "details": {"error": "RuntimeError: synthetic fault"}},
        ]
        assert summary["all_passed"] is False

    def test_format_table_shape(self):
        summary, _ = selftest.run_selftest({"criteria": [8]}, threads=1)
        lines = selftest.format_table(summary)
        assert lines[0].startswith("criterion 08 ode_analogue")
        assert lines[0].endswith("PASS")
        assert lines[-1] == "all criteria passed"


class TestDeterminismCriterion:
    def test_thread_dependent_scan_fails(self, monkeypatch):
        # a scan whose 8-thread run lists its records in reverse writes the
        # table and the outer heatmaps in another order; the middle radius
        # and the order-free verdicts of usc_report.json stay the same
        def reversed_map(fn, items, threads=1):
            out = util.parallel_map(fn, items, threads=threads)
            return out[::-1] if threads > 1 else out

        monkeypatch.setattr(kr, "parallel_map", reversed_map)
        passed, details = selftest.criterion_11(1)
        assert passed is False
        assert details["identical"] is False
        assert details["files"] == ["usc_report.json", "usc_table.csv",
                                    *(f"scan_b00_r{ri:02d}_absf.pgm" for ri in range(3))]
        assert details["differing"] == ["usc_table.csv", "scan_b00_r00_absf.pgm",
                                        "scan_b00_r02_absf.pgm"]
