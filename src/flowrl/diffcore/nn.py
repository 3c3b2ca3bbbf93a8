"""GELU/LayerNorm MLPs: one layer walk for values, input JVPs and gradients.

Every network in the package is a GELU MLP with a layer normalization after
each hidden layer. The GELU is the tanh form of arXiv 1606.08415,
gelu(h) = h c(h) with c(h) = (1 + tanh(sqrt(2/pi) (h + 0.044715 h^3))) / 2,
which is also JAX's default (``jax.nn.gelu(approximate=True)``). It is within
4.8e-4 of the exact h Phi(h) in value and 8.7e-4 in slope, and ``np.tanh``
costs about a seventh of SciPy's ``erf`` on a (256, 64) array, where ``erf``
was the largest single kernel of a pass; training quality over 10 seeds did
not move by more than seed noise. ``Net`` is the base of the package's five
networks: it holds their dims, parameters and spec, creates them, swaps
their parameters and builds their input rows.

A ``ParamSet`` is one network's parameters: a contiguous float64 vector
``flat`` and read-only views of it, by name, in a fixed order. It reads like
a mapping, and nothing writes into it: ``init_mlp``, ``clone_params``,
``backward`` (its gradients), ``adam_step``, ``ema_update`` and
``load_params`` each make a new set, and the optimizers work on ``flat``
whole. A mapping of named arrays given to a public function, or assigned to
``Net.params``, is copied into a set once, there.

The layer normalization is computed as centred weights plus RMS
normalization. The row mean of ``h @ w + b`` is ``h @ mean_j(w) + mean(b)``,
so a hidden layer multiplies by ``w`` and adds ``b`` with their means over
the output columns taken out, and its pre-activation comes out of the matmul
already centred; LayerNorm is then RMS normalization of it (Pre-LN =
Pre-RMSNorm, arXiv 2305.14858; the RMS statistic of arXiv 1910.07467). At
2000 rows of width 64 the passes that centred the activations, two row means
and a broadcast subtraction, took about a fifth of a hidden layer's time;
the centring's adjoint now falls on the small weight and bias gradients
instead of on every row. A set centres its weights once: its first walk
under a spec checks every name and shape against it and keeps the per-layer
arrays the walks read (``ParamSet.layers``). Since a set is never written,
they cannot go stale, and they go when the set goes.

The GELU's factor 1/2 lives in those arrays too: a hidden layer's walk
returns h (1 + tanh(...)), twice its GELU, and every later layer multiplies
by half its weights. Scaling by a power of two commutes with rounding, so
each product and sum is the same number as with the 1/2 taken in the
activation, and every pass saves one multiply per hidden layer. The same
doubling reaches the slope (its polynomial factor's constants are doubled),
the tangent and the kept layer inputs, and ``_vjp`` halves the weight
gradients of every layer after the first.

``_walk`` is the only forward pass. It returns the output and, on request,
the input JVP J @ tangent and a per-layer cache, over which ``_vjp`` runs the
closed-form reverse pass (linear, LayerNorm and GELU). ``mlp_forward``
keeps that cache on an ``MlpTape``, and ``backward`` turns d(loss)/d(output)
into parameter gradients. An input derivative is a JVP, taken without a
tape. Each loss head computes its own d(loss)/d(output) in numpy and returns
it on a ``Loss``, so there is no general differentiation engine.

Both passes allocate nothing per hidden layer in steady state: their
(batch, hidden) temporaries live in a per-thread workspace (``_Workspace``)
that is reused from call to call. Outputs and gradients are fresh arrays.
The cache a tape keeps is carved from one fresh block per call and freed
with the tape: as separate arrays, a 2048-row pass's cache was trimmed off
glibc's heap top and faulted back in on every call, while one block is
reused from the heap (see ``_walk``). The arithmetic is the same operations
in the same order as with fresh arrays, so every result is bit-identical.
"""

from __future__ import annotations

import copy
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from flowrl.errors import ConfigError, ContractError
from flowrl.serialize import load_arrays, save_arrays

_PARAMS_TAG = "flowrl-params-v1"
_LN_EPS = 1e-6
_GELU_K = np.sqrt(2.0 / np.pi)         # tanh-form GELU: tanh(k (h + a h^3)), a = 0.044715
_GELU_AK = 0.044715 * _GELU_K
_GELU_Q0 = _GELU_K                     # twice its slope's q = k/2 h (1 + 3a h^2) = h (Q0 + Q2 h^2)
_GELU_Q2 = 3.0 * 0.044715 * _GELU_K


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of one MLP: input width, hidden widths, output width.

    Every width must be an integer >= 1 (a bool is not one) and ``hidden`` a
    tuple or list of them, stored as a tuple; anything else raises ConfigError.
    """

    in_dim: int
    hidden: tuple[int, ...]
    out_dim: int

    def __post_init__(self):
        hidden = self.hidden
        if not (isinstance(hidden, (tuple, list))
                and all(isinstance(w, Integral) and not isinstance(w, bool) and w >= 1
                        for w in (self.in_dim, *hidden, self.out_dim))):
            raise ConfigError(f"invalid MLP sizes: {self}")
        object.__setattr__(self, "hidden", tuple(hidden))

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.in_dim, *self.hidden, self.out_dim]
        return list(zip(dims[:-1], dims[1:]))


class ParamSet(Mapping):
    """Named float64 parameter arrays: read-only views of one contiguous vector.

    ``ParamSet(arrays)`` copies a mapping of named arrays into ``flat``, in
    the mapping's order and each array row-major; ``params[name]`` is its
    view. Nothing writes into a set, so what is derived from it, the layer
    plan of ``layers``, stays valid for as long as the set lives.
    """

    __slots__ = ("flat", "_layout", "_views", "_plan")

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        layout, stop = [], 0
        for name, a in arrays.items():
            layout.append((name, stop, stop + a.size, a.shape))
            stop += a.size
        flat = np.concatenate([a.ravel() for a in arrays.values()]) if arrays else np.empty(0)
        self._adopt(tuple(layout), flat)

    def _adopt(self, layout: tuple, flat: np.ndarray) -> None:
        flat.flags.writeable = False
        self.flat = flat
        self._layout = layout
        self._views = {name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in layout}
        self._plan = None

    @classmethod
    def of(cls, params: Mapping[str, np.ndarray]) -> "ParamSet":
        """``params`` itself if it is a set, else a set copied from it."""
        return params if isinstance(params, ParamSet) else cls(params)

    def _derive(self, flat: np.ndarray) -> "ParamSet":
        """A set of this one's names and shapes over ``flat``, a fresh vector no one else holds."""
        out = object.__new__(ParamSet)
        out._adopt(self._layout, flat)
        return out

    def with_flat(self, flat) -> "ParamSet":
        """A set of this one's names and shapes holding a copy of the vector ``flat``."""
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != self.flat.shape:
            raise ConfigError(f"flat vector of shape {flat.shape} given for a set of "
                              f"{self.flat.size} entries")
        return self._derive(flat)

    def aligned(self, other: Mapping[str, np.ndarray], what: str) -> "ParamSet":
        """``other`` as a set of this one's names, order and shapes; ConfigError if it differs."""
        if isinstance(other, ParamSet) and other._layout == self._layout:
            return other
        if set(other) != set(self._views):
            raise ConfigError(f"{what} names {sorted(other)} do not match parameter names "
                              f"{sorted(self._views)}")
        for name, view in self._views.items():
            if np.shape(other[name]) != view.shape:
                raise ConfigError(f"{what} shape mismatch for {name}: {np.shape(other[name])} "
                                  f"vs {view.shape}")
        return self._derive(np.concatenate([np.ravel(other[name]) for name in self._views]))

    def layers(self, spec: MlpSpec) -> tuple:
        """What a walk under ``spec`` multiplies and adds per layer, made on the first call.

        Hidden layer i gives (wc, bc, scale, offset): ``_centred`` of its
        weights and bias, then its LayerNorm's scale and offset; the output
        layer gives (w, b, None, None); all of them are read-only. Every
        layer after the first carries its weights halved: the GELU's 1/2,
        which the layer before leaves out (see the module docstring). That
        is exact, as halving a float is, so the plan's products are those
        of the unhalved weights with the halved GELU, bit for bit. The first
        call checks every name and shape against ``spec`` (ConfigError on a
        mismatch) and keeps the result on the set, so later walks neither
        check nor centre again.
        """
        plan = self._plan
        if plan is not None and (plan[0] is spec or plan[0] == spec):
            return plan[1]
        want = {}
        last = len(spec.layer_dims) - 1
        for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
            want[f"w{i}"], want[f"b{i}"] = (fan_in, fan_out), (fan_out,)
            if i < last:
                want[f"ln{i}_scale"] = want[f"ln{i}_offset"] = (fan_out,)
        got = {name: view.shape for name, view in self._views.items()}
        if got != want:
            raise ConfigError(f"parameters {got} do not match the spec's {want}")
        views = self._views
        plan = []
        for i in range(last + 1):
            w, b = views[f"w{i}"], views[f"b{i}"]
            hidden = i < last
            if hidden:
                w, b = _centred(w, b)
            if i > 0:
                w = w * 0.5
            w.flags.writeable = b.flags.writeable = False
            plan.append((w, b, views[f"ln{i}_scale"], views[f"ln{i}_offset"]) if hidden
                        else (w, b, None, None))
        plan = tuple(plan)
        self._plan = (spec, plan)
        return plan

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def items(self):
        return self._views.items()

    def __reduce__(self):
        # copies and pickles rebuild the set, so their views view their own read-only vector
        return ParamSet, (dict(self.items()),)

    def __repr__(self) -> str:
        return f"ParamSet({', '.join(f'{k}{v.shape}' for k, v in self._views.items())})"


def init_mlp(spec: MlpSpec, rng: np.random.Generator) -> ParamSet:
    """Scaled-uniform fan-in weights, zero biases, identity layer norms."""
    params = {}
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"w{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"b{i}"] = np.zeros(fan_out)
        if i < len(spec.layer_dims) - 1:
            params[f"ln{i}_scale"] = np.ones(fan_out)
            params[f"ln{i}_offset"] = np.zeros(fan_out)
    return ParamSet(params)


def clone_params(params: Mapping[str, np.ndarray]) -> ParamSet:
    """A new set holding a copy of ``params``."""
    params = ParamSet.of(params)
    return params.with_flat(params.flat)


def save_params(params: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write ``params`` bit for bit as a ``flowrl-params-v1`` file (``flowrl.serialize``)."""
    save_arrays(path, _PARAMS_TAG, "params", params)


def load_params(path: str | Path) -> ParamSet:
    """The set a :func:`save_params` file holds; a malformed file raises ConfigError."""
    return ParamSet(load_arrays(path, _PARAMS_TAG, "params")[0])


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
    always freshly allocated, the cache as one block per call (see
    ``_walk``), so a later call cannot overwrite them. It is module state
    rather than an object callers pass because no result depends on it,
    only memory and speed do.
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


def _row_mean_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The mean of ``a * b`` over each row, as a (rows, 1) column, in one read of both."""
    m = np.einsum("ij,ij->i", a, b)[:, None]
    m /= a.shape[1]
    return m


def _centred(w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``w`` and ``b`` less their means over the output columns: fresh (fan_in, n) and (n,).

    ``h @ wc + bc`` is then ``h @ w + b`` less its row mean. A set runs it
    once per hidden layer, in ``ParamSet.layers``, and every walk of the set
    reads the result. The same map is the centring's own adjoint, so
    ``_vjp`` also runs it on every call, to turn the gradients of ``wc`` and
    ``bc`` into those of ``w`` and ``b``. The means are products with the
    vector 1/n: on a 64-wide layer (timeit, one thread) ``ndarray.mean`` and
    ``np.add.reduce`` took about 9 and 3 microseconds more per call.
    """
    m = np.full(w.shape[1], 1.0 / w.shape[1])
    return w - w.dot(m)[:, None], b - b.dot(m)


def _walk(params: Mapping[str, np.ndarray], x, spec: MlpSpec, tangent=None, keep: bool = False):
    """Run the layers once: (output, J @ tangent or None, cache or None).

    The layers' arrays come from the set's plan (``ParamSet.layers``); only
    the input's shape is checked on every call. A hidden layer multiplies by
    centred weights (``_centred``), so its pre-activation c already has row
    mean 0, and its LayerNorm is RMS normalization:
    xhat = c / sqrt(mean(c^2) + eps), then scale and offset.
    The tangent dc = dh @ wc is centred the same way, so its JVP is
    d(xhat) = (dc - xhat * mean(xhat * dc)) / std. Each row statistic is one
    ``einsum`` over the rows it reads.

    Every (batch, hidden) temporary that does not outlive the call lives in
    the per-thread workspace: the hidden activations, the tangent ``dh``, the
    GELU's c(h), its slope and the slope's polynomial factor q, each updated
    in place; q borrows the activation slot of the layer before, whose array
    is dead once this layer's matmul has read it (a ``keep`` walk's
    activations are in its block, so that slot is free there too). Fresh
    (batch, hidden) arrays reached glibc's mmap threshold from 256 rows of 64
    floats and cost page faults on every call. Only what escapes is
    allocated: the output, its JVP and, with ``keep``, the per-layer cache
    ``_vjp`` reads (layer input, xhat, inverse std, GELU slope, the weights
    the layer multiplied by), which a live tape holds until its backward
    runs. Each hidden layer's three kept (batch, width) arrays, xhat, the
    activation the next layer reads and the slope, are C-contiguous views of
    one block of 3 * batch * sum(hidden) floats, written through ``out=``.
    Six separate ~1 MB arrays of a 2048-row walk were freed to the heap top,
    which glibc trimmed and faulted back in on every call; the one block
    raises glibc's mmap and trim thresholds the first time it is freed and
    is then reused from the heap. It holds the same bytes, alive for as long
    as the separate arrays were, and is freed with the tape. Carrying the
    GELU's 1/2 on the next layer's weights, the kept slopes, and the kept
    inputs of every layer after the first, are twice the true ones.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != spec.in_dim:
        raise ConfigError(f"input shape {h.shape} does not match in_dim {spec.in_dim}")
    layers = ParamSet.of(params).layers(spec)
    dh = None if tangent is None else np.asarray(tangent, dtype=np.float64)
    if dh is not None and dh.shape != h.shape:
        raise ContractError(f"tangent shape {dh.shape} != input shape {h.shape}")
    ws = _workspace
    rows = h.shape[0]
    cache = [] if keep else None
    block = np.empty(3 * rows * sum(spec.hidden)) if keep else None
    at = 0
    for i, (w, b, scale, offset) in enumerate(layers):
        width = w.shape[1]
        layer_in = h
        hidden = scale is not None
        if hidden and keep:     # (xhat, activation, slope) of this layer, carved from the block
            kept = block[at:at + 3 * rows * width].reshape(3, rows, width)
            at += 3 * rows * width
        h = np.matmul(h, w, out=(kept[0] if keep else ws.take(_H + i % 2, rows, width))
                      if hidden else None)
        h += b
        if dh is not None:
            dh = np.matmul(dh, w, out=ws.take(_DH + i % 2, rows, width) if hidden else None)
        xhat = inv_std = slope = None
        if hidden:
            tmp = ws.take(_TMP, rows, width)
            inv_std = _row_mean_dot(h, h)       # 1 / sqrt(mean(c^2) + eps), in place
            inv_std += _LN_EPS
            np.sqrt(inv_std, out=inv_std)
            np.divide(1.0, inv_std, out=inv_std)
            h *= inv_std
            if dh is not None:
                np.multiply(h, _row_mean_dot(h, dh), out=tmp)
                dh -= tmp
                dh *= inv_std
                dh *= scale
            if keep:
                xhat = h
                h = np.multiply(h, scale, out=kept[1])
            else:
                h *= scale
            h += offset
            # GELU, tanh form: c = (1 + tanh(k (h + a h^3))) / 2 and gelu(h) = h c; the walk
            # goes on with 2 gelu(h), its slope and tangent doubled too, and the next layer's
            # plan weights are halved (ParamSet.layers)
            need_slope = dh is not None or keep
            np.multiply(h, h, out=tmp)
            if need_slope:          # 2q = k h (1 + 3a h^2), in the dead layer input's slot
                q = np.multiply(tmp, _GELU_Q2, out=ws.take(_H + (i + 1) % 2, rows, width))
                q += _GELU_Q0
                q *= h
            tmp *= _GELU_AK
            tmp += _GELU_K
            tmp *= h
            np.tanh(tmp, out=tmp)
            if need_slope:          # 2 GELU'(h) = 2c + 2q (1 - tanh^2)
                slope = np.multiply(tmp, tmp, out=kept[2] if keep else ws.take(_SLOPE, rows, width))
                np.subtract(1.0, slope, out=slope)
                slope *= q
            tmp += 1.0              # 2c
            if need_slope:
                slope += tmp
                if dh is not None:
                    dh *= slope
            h *= tmp
        if keep:
            cache.append((layer_in, xhat, inv_std, slope, w))
    return h, dh, cache


def _vjp(params: ParamSet, cache: list, out_grad: np.ndarray) -> ParamSet:
    """Reverse pass over a ``_walk`` cache of ``params``: the parameter gradients.

    Through a hidden layer's RMS normalization, g becomes
    (g - xhat * mean(g * xhat)) / std, with no mean(g) term: the centring
    sits in the weights, so its adjoint is ``_centred`` applied to the small
    gradients of w and b, and g goes back through a layer by the centred
    weights the walk kept. Those weights are halved after the first layer,
    where the kept slope is doubled, so g reaches each hidden layer's
    normalization at its true value; the kept inputs of those layers are
    doubled, so their weight gradients are halved, which is exact. The
    back-propagated ``g`` of every hidden layer and its temporary live in
    the workspace; the grads are a new set of ``params``' names.
    """
    ws = _workspace
    grads = {}
    g = out_grad
    rows = g.shape[0]
    for i in range(len(cache) - 1, -1, -1):
        layer_in, xhat, inv_std, slope, w = cache[i]
        hidden = slope is not None  # then g came from the workspace
        if hidden:
            g *= slope
            tmp = ws.take(_TMP, rows, g.shape[1])
            np.multiply(g, xhat, out=tmp)
            grads[f"ln{i}_scale"] = tmp.sum(axis=0)
            grads[f"ln{i}_offset"] = g.sum(axis=0)
            g *= params[f"ln{i}_scale"]
            np.multiply(xhat, _row_mean_dot(g, xhat), out=tmp)
            g -= tmp
            g *= inv_std
        gw, gb = layer_in.T @ g, g.sum(axis=0)
        if i > 0:
            gw *= 0.5               # layer_in is twice the GELU the layer before returns
        if hidden:
            gw, gb = _centred(gw, gb)
        grads[f"w{i}"], grads[f"b{i}"] = gw, gb
        if i > 0:
            g = np.matmul(g, w.T, out=ws.take(_H + i % 2, rows, w.shape[0]))
    # the walk's plan checked the names against the spec, so every one has its gradient
    return params._derive(np.concatenate([grads[name].ravel() for name in params]))


@dataclass
class Leaf:
    """One parameter array and the gradient ``backward`` wrote for it (None before)."""

    data: np.ndarray
    grad: np.ndarray | None = None


@dataclass
class MlpTape:
    """One forward pass kept for its reverse pass: output, parameter leaves, layer cache.

    ``source`` is the set the pass walked; the reverse pass reads it.
    """

    output: np.ndarray
    params: dict[str, Leaf]
    cache: list
    source: ParamSet | None = None


def mlp_forward(params: Mapping[str, np.ndarray], x, spec: MlpSpec) -> MlpTape:
    """Run the MLP on a (batch, in_dim) array and keep what its reverse pass reads."""
    params = ParamSet.of(params)
    out, _, cache = _walk(params, x, spec, keep=True)
    return MlpTape(out, {name: Leaf(arr) for name, arr in params.items()}, cache, params)


def backward(tape: MlpTape, output_grad) -> ParamSet:
    """Gradients of every parameter given d(loss)/d(output).

    Runs the closed-form reverse pass once and also writes each gradient to
    ``tape.params[name].grad``, replacing what an earlier call wrote.
    """
    g = np.ascontiguousarray(output_grad, dtype=np.float64)
    if g.shape != tape.output.shape:
        raise ContractError(f"output grad shape {g.shape} != output shape {tape.output.shape}")
    grads = _vjp(tape.source, tape.cache, g)
    for name, leaf in tape.params.items():
        leaf.grad = grads[name]
    return grads


@dataclass
class Loss:
    """A scalar loss, the tape of the network it trains and d(loss)/d(that network's output).

    Every loss head computes its value and its output gradient in numpy;
    ``backward()`` hands the gradient to the network's reverse pass.
    """

    data: np.ndarray
    tape: MlpTape
    output_grad: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)

    def backward(self) -> ParamSet:
        return backward(self.tape, self.output_grad)


def mlp_value(params: Mapping[str, np.ndarray], x: np.ndarray, spec: MlpSpec) -> np.ndarray:
    """Forward pass without a tape."""
    return _walk(params, x, spec)[0]


def mlp_value_and_input_jvp(params: Mapping[str, np.ndarray], x: np.ndarray, spec: MlpSpec,
                            tangent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass plus the directional input derivative J @ tangent, per row.

    ``tangent`` has the same shape as ``x``; the returned pair is
    (output, d(output)/d(input) . tangent). Used for the per-sample dv/dz
    needed by the flow-derivative ODE without building a tape per step, and
    for the ensemble's dq/da along each action column.
    """
    value, jvp, _ = _walk(params, x, spec, tangent)
    return value, jvp


class Net:
    """One network of the package: an MLP over rows built from states, actions and more.

    A subclass declares its MLP's (input, output) widths for given state and
    action dims in ``widths`` and lays out its input rows in ``_inputs`` with
    ``_rows``, the package's one builder of input rows. ``params`` may be
    reassigned, and a mapping assigned to it is copied into a ``ParamSet``;
    dims and ``spec`` are fixed.
    """

    def __init__(self, state_dim: int, action_dim: int, params: Mapping[str, np.ndarray],
                 spec: MlpSpec):
        want = self.widths(state_dim, action_dim)
        if (spec.in_dim, spec.out_dim) != want:
            raise ConfigError(f"{type(self).__name__} needs MLP widths (in, out) = {want}, "
                              f"got {(spec.in_dim, spec.out_dim)}")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.spec = spec

    @property
    def params(self) -> ParamSet:
        return self._params

    @params.setter
    def params(self, params: Mapping[str, np.ndarray]) -> None:
        self._params = ParamSet.of(params)

    @staticmethod
    def widths(state_dim: int, action_dim: int) -> tuple[int, int]:
        """(input width, output width) of the MLP for these dims."""
        raise NotImplementedError

    @classmethod
    def create(cls, state_dim: int, action_dim: int, rng: np.random.Generator,
               hidden: tuple[int, ...] = (64, 64)):
        """A network with ``init_mlp`` parameters and these hidden widths."""
        in_dim, out_dim = cls.widths(state_dim, action_dim)
        spec = MlpSpec(in_dim=in_dim, hidden=hidden, out_dim=out_dim)
        return cls(state_dim, action_dim, init_mlp(spec, rng), spec)

    def with_params(self, params: Mapping[str, np.ndarray]):
        """A copy of this network, every other field kept, holding ``params``."""
        net = copy.copy(self)
        net.params = params
        return net

    @staticmethod
    def _rows(*blocks: tuple[object, int]) -> np.ndarray:
        """Input blocks, given as (array, width) pairs, side by side in one (rows, width) array.

        The blocks share one axis count (a 1-d block is one row) and their
        last axis is their width. Each leading axis broadcasts: a block's size
        on it is 1 or the common size, so 2-d blocks have 1 or n rows each.
        Rows run row-major over the leading axes, (m, n) giving row j * n + i
        for index (j, i). Any other shape raises ContractError.
        """
        arrays = [np.asarray(x, dtype=np.float64) for x, _ in blocks]
        shapes = [x.shape if x.ndim > 1 else (1, 1, *x.shape)[-2:] for x in arrays]
        widths = [width for _, width in blocks]
        sizes = [set(axis) - {1} for axis in zip(*shapes)][:-1]
        if any(len(shape) != len(shapes[0]) or shape[-1] != width
               for shape, width in zip(shapes, widths)) or any(len(n) > 1 for n in sizes):
            raise ContractError(f"input blocks of widths {widths} need one axis count and "
                                f"leading sizes of 1 or n each, got shapes {shapes}")
        out = np.empty([n.pop() if n else 1 for n in sizes] + [sum(widths)])
        col = 0
        for x, width in zip(arrays, widths):
            out[..., col:col + width] = x
            col += width
        return out.reshape(-1, col)
