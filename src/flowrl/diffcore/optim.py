"""Adam optimizer and target-network EMA updates, on a parameter set's flat vector."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from flowrl.errors import ConfigError, TrainingError
from flowrl.diffcore.nn import ParamSet

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator guard


@dataclass
class AdamState:
    """First/second moment vectors, entry for entry with a set's ``flat``, and the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray]) -> "AdamState":
        size = ParamSet.of(params).flat.size
        return cls(m=np.zeros(size), v=np.zeros(size), step=0)


def adam_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray],
              state: AdamState, lr: float) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update. Raises on non-finite gradients.

    ``grads`` must have the names and shapes of ``params``; a non-finite
    gradient raises TrainingError naming its parameter, and an ``lr`` that is
    not finite and > 0 raises ConfigError.
    """
    if not 0.0 < lr < math.inf:   # NaN fails the range
        raise ConfigError(f"lr must be finite and > 0, got {lr}")
    params = ParamSet.of(params)
    grads = params.aligned(grads, "gradient")
    g = grads.flat
    if not np.isfinite(g).all():
        name = next(k for k, arr in grads.items() if not np.isfinite(arr).all())
        raise TrainingError(f"non-finite gradient for parameter {name}")
    if state.m.shape != g.shape or state.v.shape != g.shape:
        raise ConfigError(f"Adam moments of shape {state.m.shape} for {g.size} parameters")
    t = state.step + 1
    m = _BETA1 * state.m + (1.0 - _BETA1) * g
    v = _BETA2 * state.v + (1.0 - _BETA2) * g * g
    new = params.flat - lr * (m / (1.0 - _BETA1**t)) / (np.sqrt(v / (1.0 - _BETA2**t)) + _EPS)
    return params._derive(new), AdamState(m=m, v=v, step=t)


def ema_update(target: Mapping[str, np.ndarray], online: Mapping[str, np.ndarray],
               rho: float) -> ParamSet:
    """target' = (1 - rho) * target + rho * online, elementwise."""
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"rho must be in (0, 1], got {rho}")
    target = ParamSet.of(target)
    online = target.aligned(online, "online parameter")
    return target._derive((1.0 - rho) * target.flat + rho * online.flat)
