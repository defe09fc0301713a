import numpy as np
import pytest

from dbarlab.util import heatmap_pixels, merge_config, write_pgm

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


def test_heatmap_pixels_map_zero_to_max_onto_the_byte_range():
    pix = heatmap_pixels(np.array([[0.0, 1.0], [2.0, 4.0]]))
    assert pix.dtype == np.uint8
    assert pix.tolist() == [[0, 64], [128, 255]]
    assert heatmap_pixels(np.zeros((2, 3))).tolist() == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="2-d"):
        heatmap_pixels(np.zeros(4))


def test_write_pgm_of_heatmap_pixels_writes_them_unchanged(tmp_path):
    values = np.array([[0.0, 3.0, 1.5]])
    write_pgm(tmp_path / "a.pgm", values)
    write_pgm(tmp_path / "b.pgm", heatmap_pixels(values))
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
    assert (tmp_path / "a.pgm").read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 255, 128])
    # every byte value survives the mapping once the max is 255
    pix = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert np.array_equal(heatmap_pixels(pix), pix)
