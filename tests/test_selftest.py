"""Config handling and summary shape of the self-check battery.

The criteria themselves get their full workout in test_acceptance; here
we pin the config rules (criteria is the only key), which the CLI
applies before the battery runs, the digest it adds to the summary, how
the registry's (name, function) pairs become summary rows, the
deterministic summary layout, the crashed-criterion path, and that the
determinism criterion fails when a scan's files depend on the thread
count.
"""

import json

import pytest

from dbarlab import cli, kr, selftest, util
from dbarlab.util import config_digest, json_dumps


def _stub_battery(monkeypatch):
    """Replace every criterion by an instant pass so the config path runs alone."""
    for idx, (name, _) in selftest.CRITERIA.items():
        monkeypatch.setitem(selftest.CRITERIA, idx, (name, lambda threads: (True, {})))
    monkeypatch.setitem(selftest.CRITERIA, 10,
                        (selftest.CRITERIA[10][0], lambda threads, out_dir: (True, {}, [])))


def _run_cli(tmp_path, payload=None) -> tuple:
    """selftest through the CLI with payload as its config file; (exit code, output dir)."""
    argv = ["selftest", "--out", str(tmp_path / "out")]
    if payload is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        argv += ["--config", str(cfg)]
    return cli.main(argv), tmp_path / "out"


def _summary(out) -> dict:
    return json.loads((out / "summary.json").read_text())


class TestMergeConfig:
    def test_defaults_returned_on_none(self, tmp_path, monkeypatch):
        assert selftest.SELFTEST_DEFAULTS == {"criteria": list(range(1, 12))}
        _stub_battery(monkeypatch)
        code, out = _run_cli(tmp_path)
        assert code == 0
        summary = _summary(out)
        assert [c["index"] for c in summary["criteria"]] == list(range(1, 12))
        assert summary["config_digest"] == config_digest(selftest.SELFTEST_DEFAULTS)

    def test_override_applied(self, tmp_path, monkeypatch):
        _stub_battery(monkeypatch)
        assert selftest.check_criteria([9, 3, 9]) == [3, 9]
        code, out = _run_cli(tmp_path, {"criteria": [9, 3, 9]})
        assert code == 0
        summary = _summary(out)
        assert [c["index"] for c in summary["criteria"]] == [3, 9]
        assert summary["config_digest"] == config_digest({"criteria": [9, 3, 9]})

    @staticmethod
    def _refused(tmp_path, capsys, payload, message):
        code, out = _run_cli(tmp_path, payload)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        for key in ("extra_knob", "ode_steps", "scan_resolution"):
            self._refused(tmp_path, capsys, {key: 1}, "unknown config key")

    def test_list_scalar_mismatch_rejected(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, {"criteria": 3}, "must be a list")

    def test_unknown_criterion_rejected(self, tmp_path, capsys):
        for criteria in ([1, 12], [[1]], [{"a": 1}]):
            with pytest.raises(ValueError, match="unknown criteria"):
                selftest.check_criteria(criteria)
            self._refused(tmp_path, capsys, {"criteria": criteria}, "unknown criteria")

    def test_non_dict_rejected(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, [1, 2], "must be a JSON object")


class TestRunSelftest:
    def test_subset_runs_in_order_and_passes(self, tmp_path):
        summary, _ = selftest.run_selftest(selftest.check_criteria([8, 2]), 1, tmp_path)
        assert [c["index"] for c in summary["criteria"]] == [2, 8]
        assert summary["all_passed"] is True
        assert set(summary) == {"criteria", "all_passed"}

    def test_summary_bytes_thread_independent(self, tmp_path):
        one = json_dumps(selftest.run_selftest([2, 9], 1, tmp_path)[0])
        many = json_dumps(selftest.run_selftest([2, 9], 4, tmp_path)[0])
        assert one == many

    def test_criterion_result_becomes_its_row(self, tmp_path, monkeypatch):
        # index and name come from the table, passed and details from the
        # criterion, and a crash is a failed row in its own place
        def boom(threads):
            raise RuntimeError("synthetic fault")

        monkeypatch.setitem(selftest.CRITERIA, 2, ("first", lambda threads: (True, {"x": 0.5})))
        monkeypatch.setitem(selftest.CRITERIA, 4, ("second", lambda threads: (False, {})))
        monkeypatch.setitem(selftest.CRITERIA, 9, ("third", boom))
        summary, _ = selftest.run_selftest(selftest.check_criteria([9, 4, 2]), 1, tmp_path)
        assert summary["criteria"] == [
            {"index": 2, "name": "first", "passed": True, "details": {"x": 0.5}},
            {"index": 4, "name": "second", "passed": False, "details": {}},
            {"index": 9, "name": "third", "passed": False,
             "details": {"error": "RuntimeError: synthetic fault"}},
        ]
        assert summary["all_passed"] is False

    def test_format_table_shape(self, tmp_path):
        summary, _ = selftest.run_selftest([8], 1, tmp_path)
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
