"""Tests for the one file format: malformed parameter and dataset files."""

import json
import math
from pathlib import Path

import pytest

from flowrl.diffcore import load_params
from flowrl.envs import load_dataset
from flowrl.errors import ConfigError

DATA = Path(__file__).parent / "data"
KINDS = {   # file kind -> (a well-formed file, its loader, the key of its arrays)
    "params": (DATA / "params_v1.json", load_params, "params"),
    "dataset": (DATA / "dataset_grid_v1.json", load_dataset, "columns"),
}
DAMAGES = ["not-json", "not-an-object", "wrong-tag", "no-arrays", "entry-not-an-object",
           "no-shape", "no-data", "wrong-dtype", "bad-base64", "non-ascii-data",
           "wrong-byte-count", "wrong-shape", "negative-size", "bool-shape"]
DATASET_DAMAGES = ["seed-a-string", "seed-a-bool", "env-id-a-number", "no-behavior-id",
                   "column-renamed", "column-missing", "column-added"]


def damaged_text(kind: str, damage: str) -> str:
    path, _, key = KINDS[kind]
    obj = json.loads(path.read_text())
    arrays = obj[key]
    name = next(iter(arrays))
    entry = arrays[name]
    size = math.prod(entry["shape"])
    if damage == "not-json":
        return "w0 = [[0, 1, 2]]\n"
    if damage == "not-an-object":
        obj = [obj]
    elif damage == "wrong-tag":
        obj["format"] = "flowrl-params-v1" if kind == "dataset" else "flowrl-dataset-v1"
    elif damage == "no-arrays":
        del obj[key]
    elif damage == "entry-not-an-object":
        arrays[name] = [entry["data"]]
    elif damage in ("no-shape", "no-data"):
        del entry[damage[3:]]
    elif damage == "wrong-dtype":
        entry["dtype"] = "float32"
    elif damage == "bad-base64":
        entry["data"] = entry["data"][:-4] + "!!!!"
    elif damage == "non-ascii-data":
        entry["data"] = "é" * 8
    elif damage == "wrong-byte-count":
        entry["data"] = entry["data"][:-12]
    elif damage == "wrong-shape":
        entry["shape"] = [size + 1]
    elif damage == "negative-size":
        entry["shape"] = [-1, -size]
    elif damage == "bool-shape":   # True * size holds the right byte count
        entry["shape"] = [True, size]
    elif damage == "seed-a-string":
        obj["seed"] = str(obj["seed"])
    elif damage == "seed-a-bool":
        obj["seed"] = True
    elif damage == "env-id-a-number":
        obj["env_id"] = 3
    elif damage == "no-behavior-id":
        del obj["behavior_id"]
    elif damage == "column-renamed":
        arrays["done"] = arrays.pop("terminal")
    elif damage == "column-missing":
        del arrays["r"]
    else:
        arrays["extra"] = arrays["r"]
    return json.dumps(obj)


@pytest.mark.parametrize("kind,damage", [(kind, damage) for kind in KINDS for damage in DAMAGES]
                         + [("dataset", damage) for damage in DATASET_DAMAGES])
def test_malformed_file_raises_config_error(tmp_path, kind, damage):
    path = tmp_path / "file.json"
    path.write_text(damaged_text(kind, damage))
    with pytest.raises(ConfigError):
        KINDS[kind][1](path)

