"""GELU/LayerNorm MLPs: one layer walk for values, input JVPs and gradients.

Networks are GELU MLPs with optional per-layer layer normalization, matching
the critic/policy trunks used throughout the package. A ``ParamSet`` is a
plain dict of named float64 arrays; shapes are fixed at init time.

``_walk`` is the only forward pass. It returns the output and, on request,
the input JVP J @ tangent and a per-layer cache, over which ``_vjp`` runs the
closed-form reverse pass (linear, LayerNorm and GELU). ``mlp_forward``
records the whole network as a single node of the tensor engine, so loss
heads written with ``Tensor`` ops differentiate through it.

Both passes allocate nothing per hidden layer in steady state: their
(batch, hidden) temporaries live in a per-thread workspace (``_Workspace``)
that is reused from call to call. Outputs, gradients and the cache a tape
keeps are fresh arrays, and the arithmetic is the same operations in the
same order as with fresh temporaries, so every result is bit-identical.
"""

from __future__ import annotations

import threading
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


class _Workspace(threading.local):
    """Reused scratch arrays of the layer walks, one set per thread and width.

    ``take(slot, rows, width)`` returns the first ``rows`` rows of a
    C-contiguous (capacity, width) array kept under (slot, width); it is
    replaced by a larger one when a call needs more rows. The forward and the
    reverse pass draw on the same slots, so each hidden width keeps at most
    six arrays of the largest batch walked at that width: memory that one
    call of that batch needed anyway while it ran. A request above
    ``_POOLED_MAX`` elements gets a fresh array and pools nothing, which
    bounds the workspace whatever the batch. No array it returns leaves
    ``_walk`` or ``_vjp``: outputs, gradients and the ``keep`` cache are
    always freshly allocated, so a later call cannot overwrite them. It is
    module state rather than an object callers pass because no result
    depends on it, only memory and speed do.
    """

    def __init__(self):
        self.arrays: dict[tuple[int, int], np.ndarray] = {}

    def take(self, slot: int, rows: int, width: int) -> np.ndarray:
        if rows * width > _POOLED_MAX:
            return np.empty((rows, width))
        key = (slot, width)
        arrays = self.arrays
        if key not in arrays or arrays[key].shape[0] < rows:
            arrays.pop(key, None)       # free the old array before allocating its successor
            arrays[key] = np.empty((rows, width))
        return arrays[key][:rows]


_POOLED_MAX = 1 << 20             # elements of one pooled array (8 MiB)
_H, _TMP, _SLOPE, _DH = 0, 2, 3, 4   # slots; _H and _DH are pairs used alternately
_workspace = _Workspace()


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)``, bit for bit, without NumPy's Python wrapper."""
    m = np.add.reduce(a, axis=1, keepdims=True)
    m /= a.shape[1]
    return m


def _walk(params: ParamSet, x, spec: MlpSpec, tangent=None, keep: bool = False):
    """Run the layers once: (output, J @ tangent or None, cache or None).

    Every (batch, hidden) temporary that does not outlive the call lives in
    the per-thread workspace: the hidden activations, the tangent ``dh``, the
    GELU CDF and slope, each updated in place. Fresh (batch, hidden) arrays
    reached glibc's mmap threshold from 256 rows of 64 floats and cost page
    faults on every call. Only what escapes is allocated: the output, its
    JVP and, with ``keep``, the per-layer cache ``_vjp`` reads (layer input,
    normalized pre-activation, inverse std, GELU slope), which a live tape
    holds until its backward runs.
    """
    h = np.asarray(x, dtype=np.float64)
    _check_arch(params, h, spec)
    dh = None if tangent is None else np.asarray(tangent, dtype=np.float64)
    if dh is not None and dh.shape != h.shape:
        raise ContractError(f"tangent shape {dh.shape} != input shape {h.shape}")
    ws = _workspace
    rows = h.shape[0]
    cache = [] if keep else None
    last = len(spec.layer_dims) - 1
    for i, (_, width) in enumerate(spec.layer_dims):
        w = params[f"w{i}"]
        layer_in = h
        hidden = i < last
        h = np.matmul(h, w, out=ws.take(_H + i % 2, rows, width) if hidden and not keep else None)
        h += params[f"b{i}"]
        if dh is not None:
            dh = np.matmul(dh, w, out=ws.take(_DH + i % 2, rows, width) if hidden else None)
        xhat = inv_std = slope = None
        if hidden:
            tmp = ws.take(_TMP, rows, width)
            if spec.layer_norm:
                h -= _row_mean(h)
                np.multiply(h, h, out=tmp)
                inv_std = 1.0 / np.sqrt(_row_mean(tmp) + _LN_EPS)
                h *= inv_std
                scale = params[f"ln{i}_scale"]
                if dh is not None:   # d(xhat) = inv_std * (dc - xhat * mean(xhat * dc))
                    dh -= _row_mean(dh)
                    np.multiply(h, dh, out=tmp)
                    np.multiply(h, _row_mean(tmp), out=tmp)
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
                slope = np.multiply(h, h, out=None if keep else ws.take(_SLOPE, rows, width))
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
    The back-propagated ``g`` of every hidden layer and its LayerNorm
    temporaries live in the workspace; the grads are fresh arrays.
    """
    ws = _workspace
    grads: ParamSet = {}
    g = out_grad
    rows = g.shape[0]
    for i in range(len(cache) - 1, -1, -1):
        layer_in, xhat, inv_std, slope = cache[i]
        if slope is not None:       # a hidden layer: g came from the workspace
            g *= slope
            if xhat is not None:
                tmp = ws.take(_TMP, rows, g.shape[1])
                if param_grads:
                    np.multiply(g, xhat, out=tmp)
                    grads[f"ln{i}_scale"] = tmp.sum(axis=0)
                    grads[f"ln{i}_offset"] = g.sum(axis=0)
                g *= params[f"ln{i}_scale"]
                g_mean = _row_mean(g)  # g -= mean(g) + xhat * mean(g * xhat)
                np.multiply(g, xhat, out=tmp)
                np.multiply(xhat, _row_mean(tmp), out=tmp)
                tmp += g_mean
                g -= tmp
                g *= inv_std
        if param_grads:
            grads[f"w{i}"] = layer_in.T @ g
            grads[f"b{i}"] = g.sum(axis=0)
        if i == 0 and not input_grad:
            return grads, None
        w = params[f"w{i}"]
        g = np.matmul(g, w.T, out=ws.take(_H + i % 2, rows, w.shape[0]) if i > 0 else None)
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
