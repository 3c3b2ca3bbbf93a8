"""Adam optimizer and target-network EMA updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from flowrl.errors import ConfigError, TrainingError
from flowrl.diffcore.nn import ParamSet

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator guard


@dataclass
class AdamState:
    """First/second moment accumulators plus the bias-correction step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamSet) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()},
                   step=0)


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState, lr: float
              ) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update. Raises on non-finite gradients."""
    if set(grads) != set(params):
        raise ConfigError("gradient names do not match parameter names")
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ConfigError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name}")

    t = state.step + 1
    new_params: ParamSet = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name, p in params.items():
        g = grads[name]
        m = _BETA1 * state.m[name] + (1.0 - _BETA1) * g
        v = _BETA2 * state.v[name] + (1.0 - _BETA2) * g * g
        new_m[name] = m
        new_v[name] = v
        new_params[name] = p - lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
    return new_params, AdamState(m=new_m, v=new_v, step=t)


def ema_update(target: ParamSet, online: ParamSet, rho: float) -> ParamSet:
    """target' = (1 - rho) * target + rho * online, elementwise."""
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"rho must be in (0, 1], got {rho}")
    if set(target) != set(online):
        raise ConfigError("target and online parameter names differ")
    out: ParamSet = {}
    for name, tgt in target.items():
        on = online[name]
        if tgt.shape != on.shape:
            raise ConfigError(f"shape mismatch for {name}: {tgt.shape} vs {on.shape}")
        out[name] = (1.0 - rho) * tgt + rho * on
    return out
