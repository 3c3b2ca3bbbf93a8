"""GELU/LayerNorm MLPs: one layer walk for values, input JVPs and gradients.

Networks are GELU MLPs with optional per-layer layer normalization, matching
the critic/policy trunks used throughout the package. A ``ParamSet`` is a
plain dict of named float64 arrays; shapes are fixed at init time.

``_walk`` is the only forward pass. It returns the output and, on request,
the input JVP J @ tangent and a per-layer cache, over which ``_vjp`` runs the
closed-form reverse pass (linear, LayerNorm and GELU). ``mlp_forward``
records the whole network as a single node of the tensor engine, so loss
heads written with ``Tensor`` ops differentiate through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from flowrl.errors import ConfigError, ContractError
from flowrl.diffcore.tensor import Tensor

ParamSet = dict[str, np.ndarray]

_LN_EPS = 1e-6
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of one MLP: sizes plus the layer-norm switch."""

    in_dim: int
    hidden: tuple[int, ...]
    out_dim: int
    layer_norm: bool = True

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError(f"invalid MLP sizes: {self}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.in_dim, *self.hidden, self.out_dim]
        return list(zip(dims[:-1], dims[1:]))


def init_mlp(spec: MlpSpec, rng: np.random.Generator) -> ParamSet:
    """Scaled-uniform fan-in weights, zero biases, identity layer norms."""
    params: ParamSet = {}
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"w{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"b{i}"] = np.zeros(fan_out)
        if spec.layer_norm and i < len(spec.layer_dims) - 1:
            params[f"ln{i}_scale"] = np.ones(fan_out)
            params[f"ln{i}_offset"] = np.zeros(fan_out)
    return params


def param_count(params: ParamSet) -> int:
    return sum(v.size for v in params.values())


def clone_params(params: ParamSet) -> ParamSet:
    return {k: v.copy() for k, v in params.items()}


def _check_arch(params: ParamSet, x: np.ndarray, spec: MlpSpec) -> None:
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ConfigError(f"input shape {x.shape} does not match in_dim {spec.in_dim}")
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
        w = params.get(f"w{i}")
        if w is None or w.shape != (fan_in, fan_out):
            raise ConfigError(f"parameter w{i} missing or shaped {None if w is None else w.shape}, "
                              f"expected {(fan_in, fan_out)}")


def _walk(params: ParamSet, x, spec: MlpSpec, tangent=None, keep: bool = False):
    """Run the layers once: (output, J @ tangent or None, cache or None).

    Hidden activations are updated in place: besides the matmul results a
    layer allocates one scratch array, plus the GELU slope when a tangent or
    ``keep`` needs it, and ``keep`` copies the normalized pre-activation for
    ``_vjp``. Every further (batch, hidden) temporary would cost page faults
    once such arrays reach glibc's mmap threshold (256 x 64 floats do).
    """
    h = np.asarray(x, dtype=np.float64)
    _check_arch(params, h, spec)
    dh = None if tangent is None else np.asarray(tangent, dtype=np.float64)
    if dh is not None and dh.shape != h.shape:
        raise ContractError(f"tangent shape {dh.shape} != input shape {h.shape}")
    cache = [] if keep else None
    last = len(spec.layer_dims) - 1
    for i in range(last + 1):
        w = params[f"w{i}"]
        layer_in = h
        h = h @ w
        h += params[f"b{i}"]
        if dh is not None:
            dh = dh @ w
        xhat = inv_std = slope = None
        if i < last:
            tmp = np.empty_like(h)
            if spec.layer_norm:
                h -= h.mean(axis=1, keepdims=True)
                np.multiply(h, h, out=tmp)
                inv_std = 1.0 / np.sqrt(tmp.mean(axis=1, keepdims=True) + _LN_EPS)
                h *= inv_std
                scale = params[f"ln{i}_scale"]
                if dh is not None:   # d(xhat) = inv_std * (dc - xhat * mean(xhat * dc))
                    dh -= dh.mean(axis=1, keepdims=True)
                    np.multiply(h, dh, out=tmp)
                    np.multiply(h, tmp.mean(axis=1, keepdims=True), out=tmp)
                    dh -= tmp
                    dh *= inv_std
                    dh *= scale
                if keep:
                    xhat = h.copy()
                h *= scale
                h += params[f"ln{i}_offset"]
            np.divide(h, _SQRT2, out=tmp)
            erf(tmp, out=tmp)
            tmp += 1.0
            tmp *= 0.5                      # Phi(h)
            if dh is not None or keep:      # GELU'(h) = Phi(h) + h * phi(h)
                slope = h * h
                slope *= -0.5
                np.exp(slope, out=slope)
                slope *= _INV_SQRT_2PI
                slope *= h
                slope += tmp
                if dh is not None:
                    dh *= slope
            h *= tmp
        if keep:
            cache.append((layer_in, xhat, inv_std, slope))
    return h, dh, cache


def _vjp(params: ParamSet, cache: list, out_grad: np.ndarray, param_grads: bool,
         input_grad: bool) -> tuple[ParamSet, np.ndarray | None]:
    """Reverse pass over a ``_walk`` cache: (parameter grads, input grad).

    Each part is skipped, and returned empty or None, when not asked for.
    """
    grads: ParamSet = {}
    g = out_grad
    for i in range(len(cache) - 1, -1, -1):
        layer_in, xhat, inv_std, slope = cache[i]
        if slope is not None:
            g = g * slope
            if xhat is not None:
                if param_grads:
                    grads[f"ln{i}_scale"] = (g * xhat).sum(axis=0)
                    grads[f"ln{i}_offset"] = g.sum(axis=0)
                g = g * params[f"ln{i}_scale"]
                g -= g.mean(axis=1, keepdims=True) + xhat * (g * xhat).mean(axis=1, keepdims=True)
                g *= inv_std
        if param_grads:
            grads[f"w{i}"] = layer_in.T @ g
            grads[f"b{i}"] = g.sum(axis=0)
        if i == 0 and not input_grad:
            return grads, None
        g = g @ params[f"w{i}"].T
    return grads, g


@dataclass
class MlpTape:
    """Forward-pass record: output node plus the leaves gradients flow into."""

    output: Tensor
    params: dict[str, Tensor]


def mlp_forward(params: ParamSet, x, spec: MlpSpec, *, params_need_grad: bool = True) -> MlpTape:
    """Run the MLP and record it as one node for reverse-mode differentiation.

    ``x`` may be a plain (batch, in_dim) array or an existing graph Tensor
    (e.g. a concat containing a policy output). The node's backward is the
    closed-form VJP; it sends gradients to the parameter leaves unless
    ``params_need_grad`` is False, and to ``x`` when ``x`` is part of a graph.
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    input_grad = x_t.requires_grad or bool(x_t._parents)
    out, _, cache = _walk(params, x_t.data, spec, keep=params_need_grad or input_grad)
    leaves = {name: Tensor(arr, requires_grad=params_need_grad) for name, arr in params.items()}

    def bw(g):
        grads, gx = _vjp(params, cache, g, params_need_grad, input_grad)
        for name, grad in grads.items():
            leaves[name]._accum(grad)
        if gx is not None:
            x_t._accum(gx)

    return MlpTape(output=Tensor._node(out, (x_t, *leaves.values()), bw), params=leaves)


def backward(tape: MlpTape, output_grad) -> ParamSet:
    """Gradients of every parameter given d(loss)/d(output); untouched -> zeros."""
    tape.output.backward(np.asarray(output_grad, dtype=np.float64))
    return {name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
            for name, leaf in tape.params.items()}


def mlp_value(params: ParamSet, x: np.ndarray, spec: MlpSpec) -> np.ndarray:
    """Forward pass without a tape."""
    return _walk(params, x, spec)[0]


def mlp_value_and_input_jvp(params: ParamSet, x: np.ndarray, spec: MlpSpec,
                            tangent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass plus the directional input derivative J @ tangent, per row.

    ``tangent`` has the same shape as ``x``; the returned pair is
    (output, d(output)/d(input) . tangent). Used for the per-sample dv/dz
    needed by the flow-derivative ODE without building a tape per step.
    """
    value, jvp, _ = _walk(params, x, spec, tangent)
    return value, jvp


def input_derivative(params: ParamSet, x: np.ndarray, spec: MlpSpec, component: int) -> float:
    """Exact derivative of a scalar-output net w.r.t. one input coordinate."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if spec.out_dim != 1 or x.shape[0] != 1:
        raise ContractError("input_derivative requires a single row and scalar output")
    tangent = np.zeros_like(x)
    tangent[0, component] = 1.0
    return float(_walk(params, x, spec, tangent)[1][0, 0])
