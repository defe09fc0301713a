"""Config handling and summary shape of the self-check battery.

The criteria themselves get their full workout in test_acceptance; here
we pin the merge rules, the deterministic summary layout, and the
crashed-criterion path.
"""

import pytest

from dbarlab import selftest
from dbarlab.util import json_dumps


class TestMergeConfig:
    def test_defaults_returned_on_none(self):
        cfg = selftest.merge_config(None)
        assert cfg == selftest.SELFTEST_DEFAULTS
        assert cfg is not selftest.SELFTEST_DEFAULTS

    def test_override_applied(self):
        cfg = selftest.merge_config({"ode_steps": 500})
        assert cfg["ode_steps"] == 500
        assert cfg["random_field_count"] == selftest.SELFTEST_DEFAULTS["random_field_count"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown selftest config key"):
            selftest.merge_config({"extra_knob": 1})

    def test_list_scalar_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must be a list"):
            selftest.merge_config({"criteria": 3})
        with pytest.raises(ValueError, match="must be a scalar"):
            selftest.merge_config({"ode_steps": [1000]})

    def test_unknown_criterion_rejected(self):
        for criteria in ([1, 12], [[1]]):
            with pytest.raises(ValueError, match="unknown criteria"):
                selftest.merge_config({"criteria": criteria})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            selftest.merge_config([1, 2])


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
        def boom(cfg, threads):
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
