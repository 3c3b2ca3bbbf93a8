"""Generic flow-matching machinery shared by the critic and the policies.

A flow field turns noise into samples by Euler-integrating dx/dt = v(x | t)
over t in [0, 1]. Scalar fields can co-integrate the sensitivity of the
generated sample to its starting noise: dJ/dt = (dv/dx) * J with J(0) = 1,
on the same grid as the sample itself.

That co-integration keeps its grid as an :class:`EulerTrajectory`: the node
states x_k and velocities v_k. Reading the flow off at an intermediate time
t then costs no further field evaluation: with k the node at or before t,
x(t) = x_k + (t - t_k) * v_k, the Euler step from node k cut short at t.
The critic takes both its t = 1 targets and its per-row z_t from one
trajectory this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from flowrl.diffcore.tensor import Tensor
from flowrl.errors import ConfigError, ContractError, IntegrationError


@runtime_checkable
class FlowField(Protocol):
    """Velocity rule: (points x, flow time t) -> velocity of the same shape.

    ``t`` may be a python float (shared by all rows) or a per-row array.
    Conditioning context, if any, is baked into the instance.
    """

    def velocity(self, x: np.ndarray, t) -> np.ndarray: ...


@runtime_checkable
class ScalarFlowField(FlowField, Protocol):
    """1-d flow field that can also report dv/dx at the queried points."""

    def velocity_and_derivative(self, x: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]: ...


@runtime_checkable
class TrainableFlowField(FlowField, Protocol):
    """Field whose velocity can be evaluated as a graph Tensor for training."""

    def velocity_tensor(self, x: np.ndarray, t) -> Tensor: ...


class FuncField:
    """Adapter turning plain callables into flow fields, mostly for tests."""

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray | float], np.ndarray],
                 dfn: Callable[[np.ndarray, np.ndarray | float], np.ndarray] | None = None):
        self._fn = fn
        self._dfn = dfn

    def velocity(self, x, t):
        return np.asarray(self._fn(x, t), dtype=np.float64)

    def velocity_and_derivative(self, x, t):
        if self._dfn is None:
            raise ContractError("FuncField built without a derivative rule")
        return self.velocity(x, t), np.asarray(self._dfn(x, t), dtype=np.float64)

    def velocity_tensor(self, x, t):
        return Tensor(self.velocity(x, t))


@dataclass(frozen=True)
class IntegrationConfig:
    """Euler grid: ``steps`` equal steps from ``t_init`` to ``t_final``."""

    steps: int
    t_init: float = 0.0
    t_final: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not (0.0 <= self.t_init <= self.t_final <= 1.0):
            raise ConfigError(f"need 0 <= t_init <= t_final <= 1, got {self}")


def _check_finite(v: np.ndarray, k: int) -> None:
    if not np.all(np.isfinite(v)):
        raise IntegrationError(f"non-finite field value at Euler step {k}", step_index=k)


def euler_integrate(field: FlowField, noise: np.ndarray, cfg: IntegrationConfig) -> np.ndarray:
    """Solve the flow ODE with the forward Euler method; returns x(t_final)."""
    x = np.asarray(noise, dtype=np.float64).copy()
    dt = (cfg.t_final - cfg.t_init) / cfg.steps
    t = cfg.t_init
    for k in range(cfg.steps):
        v = field.velocity(x, t)
        _check_finite(v, k)
        x = x + v * dt
        t = cfg.t_init + (k + 1) * dt
    return x


@dataclass(frozen=True)
class EulerTrajectory:
    """One Euler solve with its noise sensitivity, kept node by node.

    ``nodes[k]`` and ``velocities[k]`` are x and v(x | t_k) at the grid node
    t_k = t_init + k * dt, k < steps; ``x`` and ``jac`` are the sample and
    its noise sensitivity at ``t_final``.
    """

    cfg: IntegrationConfig
    nodes: np.ndarray
    velocities: np.ndarray
    x: np.ndarray
    jac: np.ndarray

    def at(self, times: np.ndarray) -> np.ndarray:
        """Per-row read-off: row i at its own time t_i in [t_init, t_final].

        Takes k = min(floor((t_i - t_init) / dt), steps - 1) and returns
        x_k + (t_i - t_k) * v_k, the piecewise-linear Euler path through the
        nodes. A time on a node returns that node, and ``t_final`` returns
        ``x`` (bit for bit on the [0, 1] grid). Calls no field.
        """
        cfg = self.cfg
        times = np.asarray(times, dtype=np.float64)
        if times.shape != self.x.shape:
            raise ContractError(f"times shape {times.shape} != noise shape {self.x.shape}")
        if not np.all((times >= cfg.t_init) & (times <= cfg.t_final)):
            raise ContractError(f"times must lie in [{cfg.t_init}, {cfg.t_final}]")
        span = cfg.t_final - cfg.t_init
        # in units of steps; t_final lands on exactly ``steps`` when the grid is [0, 1]
        u = (times - cfg.t_init) * (cfg.steps / span) if span > 0.0 else np.zeros_like(times)
        k = np.minimum(np.floor(u).astype(np.intp), cfg.steps - 1)
        x_k = np.take_along_axis(self.nodes, k[None], axis=0)[0]
        v_k = np.take_along_axis(self.velocities, k[None], axis=0)[0]
        return x_k + (u - k) * (v_k * (span / cfg.steps))


def euler_trajectory(field: ScalarFlowField, noise: np.ndarray,
                     cfg: IntegrationConfig) -> EulerTrajectory:
    """Co-integrate the sample and its noise sensitivity, keeping every node.

    J is updated as J <- J + (dv/dx at the current node) * J * dt with
    J(t_init) = 1. The sample component performs bitwise the same arithmetic
    as :func:`euler_integrate`.
    """
    x = np.asarray(noise, dtype=np.float64).copy()
    jac = np.ones_like(x)
    nodes, velocities = [], []
    dt = (cfg.t_final - cfg.t_init) / cfg.steps
    t = cfg.t_init
    for k in range(cfg.steps):
        v, dv = field.velocity_and_derivative(x, t)
        _check_finite(v, k)
        _check_finite(dv, k)
        nodes.append(x)
        velocities.append(v)
        x = x + v * dt
        jac = jac + dv * jac * dt
        t = cfg.t_init + (k + 1) * dt
    return EulerTrajectory(cfg, np.stack(nodes), np.stack(velocities), x, jac)


def euler_integrate_with_derivative(field: ScalarFlowField, noise: np.ndarray,
                                    cfg: IntegrationConfig) -> tuple[np.ndarray, np.ndarray]:
    """``(x(t_final), J(t_final))`` of :func:`euler_trajectory`."""
    traj = euler_trajectory(field, noise, cfg)
    return traj.x, traj.jac


def euler_integrate_to_times(field: FlowField, noise: np.ndarray, t_finals: np.ndarray,
                             steps: int) -> np.ndarray:
    """Per-row partial integration: row i runs ``steps`` steps of size t_i/steps.

    Nothing in the package calls it: the critic reads its per-row times off
    one :class:`EulerTrajectory` instead (see :meth:`EulerTrajectory.at`).
    It is kept because the benchmark still times it as a probe.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    x = np.asarray(noise, dtype=np.float64).copy()
    t_finals = np.asarray(t_finals, dtype=np.float64)
    if t_finals.shape != x.shape:
        raise ContractError(f"t_finals shape {t_finals.shape} != noise shape {x.shape}")
    dt = t_finals / steps
    for k in range(steps):
        t = k * dt
        v = field.velocity(x, t)
        _check_finite(v, k)
        x = x + v * dt
    return x


def sample_times(rng: np.random.Generator, n: int) -> np.ndarray:
    """Flow times from the open-closed interval (0, 1]."""
    return 1.0 - rng.random(n)


def cfm_loss(field: TrainableFlowField, data_batch: np.ndarray, noise_batch: np.ndarray,
             times: np.ndarray) -> Tensor:
    """Conditional flow-matching regression onto the straight-line velocity.

    Interpolates x^t = t*x + (1-t)*eps and regresses v(x^t | t) onto (x - eps);
    per-sample squared L2 over dims, mean over the batch. Returns a scalar
    Tensor differentiable w.r.t. the field parameters.
    """
    data = np.atleast_2d(np.asarray(data_batch, dtype=np.float64))
    noise = np.atleast_2d(np.asarray(noise_batch, dtype=np.float64))
    times = np.asarray(times, dtype=np.float64).reshape(-1)
    if data.shape[0] == 0:
        raise ContractError("cfm_loss needs a nonempty batch")
    if data.shape != noise.shape or times.shape[0] != data.shape[0]:
        raise ContractError("data, noise and times must be aligned")
    tcol = times[:, None]
    x_t = tcol * data + (1.0 - tcol) * noise
    target = data - noise
    v = field.velocity_tensor(x_t, times)
    residual = v - Tensor(target)
    return (residual**2).sum(axis=1).mean()
