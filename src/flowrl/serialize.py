"""Bit-exact JSON files of named float64 arrays: the package's one file format.

A file is one JSON object::

    {"format": "flowrl-params-v1",
     "params": {"w0": {"shape": [4, 64], "dtype": "float64", "data": "<base64>"}}}

``format`` names the kind of file and one key (``params`` above; ``columns``
in a ``flowrl-dataset-v1`` file) holds the arrays by name. ``data`` is the
base64 of an array's little-endian float64 bytes in row-major order, so a
save/load round trip reproduces every array bit for bit. Other keys hold
provenance as JSON values (a dataset's ``env_id``, ``behavior_id`` and
``seed``). ``flowrl.diffcore.save_params`` and ``flowrl.envs.save_dataset``
write the two kinds. Input that does not follow the format raises
``ConfigError``.
"""

from __future__ import annotations

import base64
import json
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from flowrl.errors import ConfigError


def save_arrays(path: str | Path, tag: str, key: str, arrays: Mapping[str, np.ndarray],
                **meta) -> None:
    """Write ``arrays`` under ``key`` and the JSON values ``meta`` as a ``tag`` file."""
    arrays = {name: np.ascontiguousarray(arr, dtype="<f8") for name, arr in arrays.items()}
    entries = {name: {"shape": list(arr.shape), "dtype": "float64",
                      "data": base64.b64encode(arr.tobytes()).decode("ascii")}
               for name, arr in arrays.items()}
    Path(path).write_text(json.dumps({"format": tag, **meta, key: entries}))


def load_arrays(path: str | Path, tag: str, key: str, /,
                **meta: type) -> tuple[dict[str, np.ndarray], dict]:
    """The read-only arrays under ``key`` of a ``tag`` file, and its values named in ``meta``.

    ``meta`` gives the type each provenance value must have (a bool is not
    an int). Anything malformed raises ConfigError.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not a JSON {tag} file: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"a {tag} file holds one JSON object, got {type(obj).__name__}")
    if obj.get("format") != tag:
        raise ConfigError(f"unknown file format {obj.get('format')!r}, expected {tag!r}")
    for name, kind in meta.items():
        if type(obj.get(name)) is not kind:
            raise ConfigError(f"{name} must be a {kind.__name__}, got {obj.get(name)!r:.80}")
    entries = obj.get(key)
    if not isinstance(entries, dict):
        raise ConfigError(f"{key!r} must be an object of named arrays, got {entries!r:.80}")
    arrays = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"{name}: entry must be an object, got {type(entry).__name__}")
        if entry.get("dtype") != "float64":
            raise ConfigError(f"unsupported dtype for {name}: {entry.get('dtype')!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ConfigError(f"{name}: shape must be a list of sizes, got {shape!r}")
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:   # binascii.Error is a ValueError
            raise ConfigError(f"{name}: data missing or not base64 ({exc!r})") from None
        if len(raw) != 8 * np.prod(shape, dtype=np.int64):
            raise ConfigError(f"{name}: {len(raw)} data bytes for float64 shape {shape}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return arrays, {name: obj[name] for name in meta}
