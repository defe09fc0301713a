"""Small shared plumbing: canonical JSON, digests, PGM heatmaps, thread maps.

Everything that writes run artifacts funnels through these helpers so that
identical inputs produce byte-identical files regardless of thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SCHEMA_VERSION = 1


def as_complex_pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def is_number(value) -> bool:
    """A real number and not a bool: the one rule for a value where a number is due."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def from_complex_pair(pair) -> complex:
    """[re, im] as a complex number; ValueError unless both are numbers (is_number)."""
    re, im = pair
    if not (is_number(re) and is_number(im)):
        raise ValueError(f"complex pair {pair!r} must hold two numbers")
    return complex(float(re), float(im))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def merge_config(defaults: dict, overrides) -> dict:
    """Strict merge of JSON overrides into a copy of defaults.

    Every override must name a default key and match its kind: list or
    scalar, string or not, numeric (bool excluded) where the default is a
    number, an integer where the default is one, and no scalar but an
    integer inside a list whose default holds only integers (nested lists
    and objects are left to the key's consumer).  null is accepted only
    where the default is None.  Anything else raises ValueError.
    """
    cfg = {k: (list(v) if isinstance(v, list) else v) for k, v in defaults.items()}
    if overrides is None:
        return cfg
    if not isinstance(overrides, dict):
        raise ValueError("config must be a JSON object")
    for key, value in overrides.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        want = defaults[key]
        if want is not None:
            if value is None:
                raise ValueError(f"config key {key!r} must not be null")
            if isinstance(want, list) != isinstance(value, list):
                kind = "a list" if isinstance(want, list) else "a scalar"
                raise ValueError(f"config key {key!r} must be {kind}")
            if isinstance(want, str) != isinstance(value, str):
                raise ValueError(f"config key {key!r} has the wrong type")
            if isinstance(want, (int, float)) and not is_number(value):
                raise ValueError(f"config key {key!r} must be numeric")
            if _is_int(want) and not _is_int(value):
                raise ValueError(f"config key {key!r} must be an integer")
            if (isinstance(want, list) and want and all(map(_is_int, want))
                    and any(not (_is_int(v) or isinstance(v, (list, dict))) for v in value)):
                raise ValueError(f"config key {key!r} must list integers")
        cfg[key] = value
    return cfg


def json_dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, trailing newline.

    Tuples are written as arrays and numpy float64 values as Python floats
    (float.__repr__).  NaN/inf are rejected; callers encode unbounded
    quantities as null plus a flag.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json_dumps(obj))
    return str(path)


def config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def heatmap_pixels(values: np.ndarray) -> np.ndarray:
    """8-bit heatmap pixels of a 2-d array, linearly mapped from [0, max] to [0, 255]."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM heatmap needs a 2-d array")
    vmax = float(v.max()) if v.size else 0.0
    if vmax > 0:
        return np.rint(np.clip(v / vmax, 0.0, 1.0) * 255.0).astype(np.uint8)
    return np.zeros(v.shape, dtype=np.uint8)


def write_pgm(path, values: np.ndarray) -> str:
    """8-bit binary PGM (P5) heatmap of a 2-d array, pixels from heatmap_pixels.

    Pixels already made by heatmap_pixels come back unchanged from it (their
    max is 255, or they are all zero), so they can be written again as is.
    """
    pix = heatmap_pixels(values)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
    return str(path)


def parallel_map(fn, items, threads: int) -> list:
    """Map fn over items on `threads` threads (0: one per CPU), preserving input order.

    Jobs must be pure; the output list is assembled in input order so the result
    (and anything serialized from it) is identical for every thread count.
    """
    items = list(items)
    if threads < 0:
        raise ValueError("threads must be >= 0")
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
