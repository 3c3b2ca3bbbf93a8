"""Bit-exact JSON serialization for parameter sets.

Format (one JSON object per file)::

    {"format": "flowrl-params-v1",
     "params": {"w0": {"shape": [4, 64], "dtype": "float64", "data": "<base64>"}}}

``data`` is the base64 of the array's little-endian float64 bytes in row-major
order, so a save/load round trip reproduces every parameter bit for bit.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from flowrl.errors import ConfigError
from flowrl.diffcore.nn import ParamSet

FORMAT_TAG = "flowrl-params-v1"


def params_to_obj(params: ParamSet) -> dict:
    entries = {}
    for name, arr in params.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        entries[name] = {
            "shape": list(arr.shape),
            "dtype": "float64",
            "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
        }
    return {"format": FORMAT_TAG, "params": entries}


def params_from_obj(obj: dict) -> ParamSet:
    if obj.get("format") != FORMAT_TAG:
        raise ConfigError(f"unknown parameter file format: {obj.get('format')!r}")
    params: ParamSet = {}
    for name, entry in obj["params"].items():
        if entry.get("dtype") != "float64":
            raise ConfigError(f"unsupported dtype for {name}: {entry.get('dtype')!r}")
        raw = base64.b64decode(entry["data"])
        if len(raw) != 8 * np.prod(entry["shape"], dtype=np.int64):
            raise ConfigError(f"{name}: {len(raw)} data bytes for float64 shape {entry['shape']}")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])
        params[name] = arr.copy()
    return params


def save_params(params: ParamSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(params_to_obj(params)))


def load_params(path: str | Path) -> ParamSet:
    return params_from_obj(json.loads(Path(path).read_text()))
