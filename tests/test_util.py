import pytest

from dbarlab.util import merge_config

DEFAULTS = {"n": 1, "x": 0.5, "name": "a", "items": [1, 2], "optional": None}


def test_defaults_copied():
    cfg = merge_config(DEFAULTS, None)
    assert cfg == DEFAULTS
    assert cfg["items"] is not DEFAULTS["items"]


def test_overrides_applied():
    cfg = merge_config(DEFAULTS, {"n": 3, "x": 2, "name": "b", "items": [], "optional": [0.5]})
    assert cfg == {"n": 3, "x": 2, "name": "b", "items": [], "optional": [0.5]}
    assert merge_config(DEFAULTS, {"optional": None})["optional"] is None


@pytest.mark.parametrize("overrides, message", [
    ([1], "must be a JSON object"),
    ({"extra": 1}, "unknown config key"),
    ({"n": [1]}, "must be a scalar"),
    ({"items": 1}, "must be a list"),
    ({"name": 5}, "wrong type"),
    ({"n": "5"}, "wrong type"),
    ({"x": True}, "must be numeric"),
    ({"x": {"value": 1}}, "must be numeric"),
    ({"n": None}, "must not be null"),
    ({"items": None}, "must not be null"),
    ({"n": 17.9}, "must be an integer"),
    ({"n": 2.0}, "must be an integer"),
    ({"items": [1, 2.5]}, "must list integers"),
    ({"items": [True]}, "must list integers"),
    ({"items": ["2"]}, "must list integers"),
    ({"items": [None]}, "must list integers"),
])
def test_rejected(overrides, message):
    with pytest.raises(ValueError, match=message):
        merge_config(DEFAULTS, overrides)
