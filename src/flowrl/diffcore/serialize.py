"""Bit-exact JSON serialization for parameter sets.

Format (one JSON object per file)::

    {"format": "flowrl-params-v1",
     "params": {"w0": {"shape": [4, 64], "dtype": "float64", "data": "<base64>"}}}

``data`` is the base64 of the array's little-endian float64 bytes in row-major
order, so a save/load round trip reproduces every parameter bit for bit.
Input that does not follow this format raises ``ConfigError``.
"""

from __future__ import annotations

import base64
import binascii
import json
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from flowrl.errors import ConfigError
from flowrl.diffcore.nn import ParamSet

FORMAT_TAG = "flowrl-params-v1"


def params_to_obj(params: Mapping[str, np.ndarray]) -> dict:
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
    if not isinstance(obj, dict):
        raise ConfigError(f"a parameter file holds one JSON object, got {type(obj).__name__}")
    if obj.get("format") != FORMAT_TAG:
        raise ConfigError(f"unknown parameter file format: {obj.get('format')!r}")
    entries = obj.get("params")
    if not isinstance(entries, dict):
        raise ConfigError(f"'params' must be an object of named arrays, got {entries!r:.80}")
    params = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"{name}: entry must be an object, got {type(entry).__name__}")
        if entry.get("dtype") != "float64":
            raise ConfigError(f"unsupported dtype for {name}: {entry.get('dtype')!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(isinstance(d, int) and d >= 0 for d in shape):
            raise ConfigError(f"{name}: shape must be a list of sizes, got {shape!r}")
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except (KeyError, TypeError, binascii.Error) as exc:
            raise ConfigError(f"{name}: data missing or not base64 ({exc!r})") from None
        if len(raw) != 8 * np.prod(shape, dtype=np.int64):
            raise ConfigError(f"{name}: {len(raw)} data bytes for float64 shape {shape}")
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return ParamSet(params)


def save_params(params: Mapping[str, np.ndarray], path: str | Path) -> None:
    Path(path).write_text(json.dumps(params_to_obj(params)))


def load_params(path: str | Path) -> ParamSet:
    try:
        obj = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not a JSON parameter file: {exc}") from None
    return params_from_obj(obj)
