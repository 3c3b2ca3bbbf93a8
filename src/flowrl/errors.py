"""Exception types shared across the package, and the integer check of counts and seeds."""

from numbers import Integral


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
