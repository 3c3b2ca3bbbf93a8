"""Exception types shared across the package, and the checks of counts, seeds and bin edges."""

import math
from numbers import Integral

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, bad hyperparameters, mismatched specs."""


class ContractError(ValueError):
    """A caller violated an API precondition (empty batch, wrong lengths, ...)."""


class TrainingError(RuntimeError):
    """Training produced non-finite values."""


class TrainingDivergedError(TrainingError):
    """Training aborted on a non-finite loss; carries the last good artifacts."""

    def __init__(self, message, artifacts=None):
        super().__init__(message)
        self.artifacts = artifacts


class IntegrationError(RuntimeError):
    """ODE integration hit a non-finite field value."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class OracleError(RuntimeError):
    """An exact oracle refused to run (e.g. path count guard exceeded)."""


def check_int(name: str, value, least: int = 1) -> int:
    """``value`` as an int; ContractError unless it is an integer >= ``least`` (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ContractError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_edges(edges, least: int = 1) -> np.ndarray:
    """Float64 ``edges``; ContractError unless 1-d, finite, strictly rising, >= ``least`` bins.

    Strictly rising values between two finite ends are all finite, and NaN
    fails every comparison, so only the ends are tested for finiteness.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if (edges.ndim != 1 or edges.size <= least or not (edges[1:] > edges[:-1]).all()
            or not (math.isfinite(edges[0]) and math.isfinite(edges[-1]))):
        raise ContractError(f"histogram edges must be {least + 1} or more finite, strictly "
                            f"ascending values: {edges}")
    return edges
