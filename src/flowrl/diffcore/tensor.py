"""Reverse-mode autodiff over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar-or-seeded output accumulates gradients into every
reachable leaf. Only the primitives the loss heads need are implemented; an
MLP enters the graph as one node whose backward is the closed-form VJP of
``flowrl.diffcore.nn``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from flowrl.errors import ContractError


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph. ``data`` is always float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = Tensor(data)
        tracked = tuple(p for p in parents if p.requires_grad or p._parents)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
            out._backward = backward
        return out

    def _accum(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, seed: np.ndarray | float = 1.0) -> None:
        """Accumulate d(output)/d(leaf) into ``.grad`` of all reachable leaves."""
        seed = np.broadcast_to(_as_f64(seed), self.data.shape).astype(np.float64)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accum(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def bw(g):
            self._accum(g)
            other._accum(g)

        return Tensor._node(self.data + other.data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g):
            self._accum(-g)

        return Tensor._node(-self.data, (self,), bw)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def bw(g):
            self._accum(g)
            other._accum(-g)

        return Tensor._node(self.data - other.data, (self, other), bw)

    def __rsub__(self, other):
        return Tensor(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def bw(g):
            self._accum(g * other.data)
            other._accum(g * self.data)

        return Tensor._node(self.data * other.data, (self, other), bw)

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise ContractError("only constant exponents are supported")
        base = self.data

        def bw(g):
            self._accum(g * exponent * base ** (exponent - 1))

        return Tensor._node(base**exponent, (self,), bw)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def bw(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.data.shape))
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(ge, self.data.shape))

        return Tensor._node(self.data.sum(axis=axis, keepdims=keepdims), (self,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        old_shape = self.data.shape

        def bw(g):
            self._accum(g.reshape(old_shape))

        return Tensor._node(self.data.reshape(*shape), (self,), bw)

    def min_elem(self, other: "Tensor"):
        """Elementwise minimum; on ties the gradient goes to ``self``."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        take_self = self.data <= other.data

        def bw(g):
            self._accum(g * take_self)
            other._accum(g * ~take_self)

        return Tensor._node(np.where(take_self, self.data, other.data), (self, other), bw)

    # -- nonlinearities --------------------------------------------------------

    def huber(self, kappa: float):
        """Huber penalty: x^2/2 for |x| <= kappa, else kappa*(|x| - kappa/2)."""
        x = self.data
        small = np.abs(x) <= kappa
        value = np.where(small, 0.5 * x * x, kappa * (np.abs(x) - 0.5 * kappa))

        def bw(g):
            self._accum(g * np.where(small, x, kappa * np.sign(x)))

        return Tensor._node(value, (self,), bw)

    def log_softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - logz
        softmax = np.exp(out)

        def bw(g):
            self._accum(g - softmax * g.sum(axis=axis, keepdims=True))

        return Tensor._node(out, (self,), bw)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def concat(tensors: Iterable[Tensor | np.ndarray], axis: int = 1) -> Tensor:
    """Concatenate along ``axis``; plain arrays are treated as constants."""
    nodes = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not nodes:
        raise ContractError("concat needs at least one tensor")
    sizes = [n.data.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            node._accum(g[tuple(sl)])

    return Tensor._node(np.concatenate([n.data for n in nodes], axis=axis), nodes, bw)
