"""Config handling and summary shape of the self-check battery.

The criteria themselves get their full workout in test_acceptance; here
we pin the config rules (criteria is the only key), the deterministic
summary layout, and the crashed-criterion path.
"""

import pytest

from dbarlab import selftest
from dbarlab.util import config_digest, json_dumps


def _stub_battery(monkeypatch):
    """Replace every criterion by an instant pass so the config path runs alone."""
    for idx, name in selftest.CRITERION_NAMES.items():
        def stub(threads, out_dir=None, idx=idx, name=name):
            return selftest.CriterionResult(idx, name, True, {})

        monkeypatch.setitem(selftest._CRITERIA, idx, stub)


class TestMergeConfig:
    def test_defaults_returned_on_none(self, monkeypatch):
        assert selftest.SELFTEST_DEFAULTS == {"criteria": sorted(selftest.CRITERION_NAMES)}
        _stub_battery(monkeypatch)
        summary = selftest.run_selftest(None)
        assert [c["index"] for c in summary["criteria"]] == list(range(1, 12))
        assert summary["config_digest"] == config_digest(selftest.SELFTEST_DEFAULTS)

    def test_override_applied(self, monkeypatch):
        _stub_battery(monkeypatch)
        summary = selftest.run_selftest({"criteria": [9, 3, 9]})
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
        summary = selftest.run_selftest({"criteria": [8, 2]}, threads=1)
        assert [c["index"] for c in summary["criteria"]] == [2, 8]
        assert summary["all_passed"] is True
        assert set(summary) == {"schema_version", "config_digest", "criteria", "all_passed"}

    def test_summary_bytes_thread_independent(self):
        cfg = {"criteria": [2, 9]}
        one = json_dumps(selftest.run_selftest(cfg, threads=1))
        many = json_dumps(selftest.run_selftest(cfg, threads=4))
        assert one == many

    def test_crashed_criterion_reports_failure(self, monkeypatch):
        def boom(threads):
            raise RuntimeError("synthetic fault")

        monkeypatch.setitem(selftest._CRITERIA, 8, boom)
        summary = selftest.run_selftest({"criteria": [8]}, threads=1)
        assert summary["all_passed"] is False
        row = summary["criteria"][0]
        assert row["passed"] is False
        assert "synthetic fault" in row["details"]["error"]

    def test_format_table_shape(self):
        summary = selftest.run_selftest({"criteria": [8]}, threads=1)
        lines = selftest.format_table(summary)
        assert lines[0].startswith("criterion 08 ode_analogue")
        assert lines[0].endswith("PASS")
        assert lines[-1] == "all criteria passed"
