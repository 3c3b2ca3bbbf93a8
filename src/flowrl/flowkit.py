"""Euler integration of flow fields, shared by the critic and the policies.

A flow field turns noise into samples by Euler-integrating dx/dt = v(x | t)
over t in [0, 1]. Scalar fields can co-integrate the sensitivity of the
generated sample to its starting noise: dJ/dt = (dv/dx) * J with J(0) = 1,
on the same grid as the sample itself.

Every solve runs ``steps`` equal steps over the whole of [0, 1], the one
grid the critic and the policies use. The co-integration keeps its grid as
an :class:`EulerTrajectory`: the node states x_k and velocities v_k. Reading
the flow off at an intermediate time t then costs no further field
evaluation: with k the node at or before t, x(t) = x_k + (t - t_k) * v_k,
the Euler step from node k cut short at t. The critic takes both its t = 1
targets and its per-row z_t from one trajectory this way.

A network is a flow field through :class:`ConditionedField`, which fixes
its context columns and builds its input rows once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Protocol, runtime_checkable

import numpy as np

from flowrl.diffcore import mlp_value, mlp_value_and_input_jvp
from flowrl.errors import ConfigError, ContractError, IntegrationError, check_int


@runtime_checkable
class FlowField(Protocol):
    """Velocity rule: (points x, flow time t) -> velocity of the same shape.

    ``t`` may be a python float (shared by all rows) or a per-row array.
    Conditioning context, if any, is baked into the instance. The integrators
    never write into the x they pass or the velocity a field returns: each
    Euler step makes a new x, so a field may return its input itself or an
    array it keeps, and :func:`euler_trajectory` keeps every node and
    velocity as it was.
    """

    def velocity(self, x: np.ndarray, t) -> np.ndarray: ...


@runtime_checkable
class ScalarFlowField(FlowField, Protocol):
    """1-d flow field that can also report dv/dx at the queried points."""

    def velocity_and_derivative(self, x: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]: ...


class ConditionedField:
    """A network's velocity over its flow variable, with its context columns fixed.

    ``net`` lays out its input rows as [x, t, context...] through
    ``net._inputs(x, t, *context)``, and its output is as wide as x: one
    velocity row per input row, flat when x is a flat vector of scalars. A
    flat x for a net of several output columns raises ContractError, and
    ``velocity_and_derivative`` takes a flat x only. The first call builds
    the rows, checked by ``_inputs``. A later call with an array x of the
    same shape and a scalar t writes only the x and t columns into them,
    through views kept with the rows, so a solve builds its rows, and the
    unit tangent of ``velocity_and_derivative``, once. Any other call builds
    them again. The rows live on the view and go with it.
    """

    def __init__(self, net, *context):
        self.net = net
        self.context = context
        self._shape = None
        self._rows = None
        self._columns = None
        self._tangent = None

    def _inputs(self, x, t) -> np.ndarray:
        if isinstance(t, float) and isinstance(x, np.ndarray) and x.shape == self._shape:
            x_cols, t_col = self._columns
            x_cols[...] = x
            t_col[...] = t
            return self._rows
        x = np.asarray(x, dtype=np.float64)
        width = self.net.spec.out_dim
        if x.ndim < 2 and width != 1:
            raise ContractError(f"a flat x {x.shape} for a field of {width} velocity columns")
        rows = self._rows = self.net._inputs(x, t, *self.context)
        x_cols = rows[:, :width]
        if x_cols.size == x.size:   # else x is one row, broadcast over the rows
            x_cols = x_cols.reshape(x.shape)
        self._shape = x.shape
        self._columns = x_cols, rows[:, width]
        self._tangent = None
        return rows

    def velocity(self, x, t) -> np.ndarray:
        out = mlp_value(self.net.params, self._inputs(x, t), self.net.spec)
        return out if np.ndim(x) > 1 else out[:, 0]

    def velocity_and_derivative(self, x, t) -> tuple[np.ndarray, np.ndarray]:
        """Velocity and its derivative along the first input column, for a flat scalar x."""
        if np.ndim(x) > 1:
            raise ContractError(f"the derivative needs a flat x, got shape {np.shape(x)}")
        rows = self._inputs(x, t)
        if self._tangent is None:
            self._tangent = np.zeros_like(rows)
            self._tangent[:, 0] = 1.0
        value, jvp = mlp_value_and_input_jvp(self.net.params, rows, self.net.spec, self._tangent)
        return value[:, 0], jvp[:, 0]


@dataclass(frozen=True)
class IntegrationConfig:
    """Euler grid: ``steps`` equal steps from t = 0 to t = 1."""

    steps: int

    def __post_init__(self):
        if not isinstance(self.steps, Integral) or self.steps < 1:
            raise ConfigError(f"steps must be an integer >= 1, got {self.steps!r}")


def _check_finite(v: np.ndarray, k: int) -> None:
    if not np.isfinite(v).all():
        raise IntegrationError(f"non-finite field value at Euler step {k}", step_index=k)


def _start(noise) -> np.ndarray:
    """A float copy of the noise; a non-finite entry is the caller's error, not the field's."""
    x = np.array(noise, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ContractError(f"noise holds {np.count_nonzero(~np.isfinite(x))} non-finite values")
    return x


def euler_integrate(field: FlowField, noise: np.ndarray, cfg: IntegrationConfig) -> np.ndarray:
    """Solve the flow ODE with the forward Euler method; returns x(1).

    Non-finite noise raises ContractError before the field is called.
    """
    x = _start(noise)
    dt = 1.0 / cfg.steps
    t = 0.0
    for k in range(cfg.steps):
        v = field.velocity(x, t)
        _check_finite(v, k)
        x = x + v * dt
        t = (k + 1) * dt
    return x


@dataclass(frozen=True)
class EulerTrajectory:
    """One Euler solve with its noise sensitivity, kept node by node.

    ``nodes[k]`` and ``velocities[k]`` are x and v(x | t_k) at the grid node
    t_k = k * dt, k < steps; ``x`` and ``jac`` are the sample and its noise
    sensitivity at t = 1.
    """

    cfg: IntegrationConfig
    nodes: np.ndarray
    velocities: np.ndarray
    x: np.ndarray
    jac: np.ndarray

    def at(self, times: np.ndarray) -> np.ndarray:
        """Per-row read-off: row i at its own time t_i in [0, 1].

        Takes k = min(floor(t_i / dt), steps - 1) and returns
        x_k + (t_i - t_k) * v_k, the piecewise-linear Euler path through the
        nodes. A time on a node returns that node, and t = 1 returns ``x``
        bit for bit. Calls no field.
        """
        steps = self.cfg.steps
        times = np.asarray(times, dtype=np.float64)
        if times.shape != self.x.shape:
            raise ContractError(f"times shape {times.shape} != noise shape {self.x.shape}")
        if not np.all((times >= 0.0) & (times <= 1.0)):
            raise ContractError("times must lie in [0, 1]")
        u = times * steps                   # in units of steps: t = 1 lands on exactly ``steps``
        k = np.minimum(np.floor(u).astype(np.intp), steps - 1)
        x_k = np.take_along_axis(self.nodes, k[None], axis=0)[0]
        v_k = np.take_along_axis(self.velocities, k[None], axis=0)[0]
        return x_k + (u - k) * (v_k * (1.0 / steps))


def euler_trajectory(field: ScalarFlowField, noise: np.ndarray,
                     cfg: IntegrationConfig) -> EulerTrajectory:
    """Co-integrate the sample and its noise sensitivity, keeping every node.

    J is updated as J <- J + (dv/dx at the current node) * J * dt with
    J(0) = 1. The sample component performs bitwise the same arithmetic
    as :func:`euler_integrate`, and non-finite noise raises ContractError
    the same way.
    """
    x = _start(noise)
    jac = np.ones_like(x)
    nodes, velocities = [], []
    dt = 1.0 / cfg.steps
    t = 0.0
    for k in range(cfg.steps):
        v, dv = field.velocity_and_derivative(x, t)
        _check_finite(v, k)
        _check_finite(dv, k)
        nodes.append(x)
        velocities.append(v)
        x = x + v * dt
        jac = jac + dv * jac * dt
        t = (k + 1) * dt
    return EulerTrajectory(cfg, np.stack(nodes), np.stack(velocities), x, jac)


def euler_integrate_with_derivative(field: ScalarFlowField, noise: np.ndarray,
                                    cfg: IntegrationConfig) -> tuple[np.ndarray, np.ndarray]:
    """``(x(1), J(1))`` of :func:`euler_trajectory`."""
    traj = euler_trajectory(field, noise, cfg)
    return traj.x, traj.jac


def sample_times(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` flow times from the open-closed interval (0, 1].

    ContractError unless ``n`` is an integer >= 0 (a bool is not one).
    """
    return 1.0 - rng.random(check_int("n", n, least=0))
