"""Minimal reverse-mode automatic differentiation over numpy arrays.

No module of the package uses it any more: :mod:`mfvol.transformer`
has its own hand-derived backward pass. It stays because the
benchmark's tracer counts :class:`Tensor` constructions per training
step.

A :class:`Tensor` wraps an ndarray and remembers how it was produced;
calling ``backward`` on a scalar result accumulates exact gradients
into every tensor created with ``requires_grad=True``. Only the
operations the encoder used are implemented. Broadcasting follows
numpy semantics; gradients of broadcast operands are summed back to
the operand's shape.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .transformer import _softplus_slope


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- graph construction ------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of ``self`` into all requiring leaves."""
        self.grad = (np.ones_like(self.data) if seed is None
                     else np.asarray(seed, dtype=float))
        for node in reversed(_topo_order(self)):
            if node._backward_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents,
                                 node._backward_fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __neg__(self):
        return mul(self, -1.0)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order over the ancestor DAG (reversed it is consumer-first)."""
    order: list[Tensor] = []
    seen = {id(root)}
    stack: list[tuple[Tensor, iter]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        pushed = False
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return order


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape),
                            _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape),
                            _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.data.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data),
                                         b.data.shape)))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.data.shape),
                _unbroadcast(gb, b.data.shape))

    return _make(np.matmul(a.data, b.data), (a, b), backward)


def transpose_last(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _make(np.swapaxes(a.data, -1, -2), (a,),
                 lambda g: (np.swapaxes(g, -1, -2),))


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    return _make(a.data ** p, (a,),
                 lambda g: (g * p * a.data ** (p - 1.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: (g * out_data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def softplus(a) -> Tensor:
    """Smooth ramp ln(1 + e^x), the network nonlinearity."""
    a = as_tensor(a)
    return _make(np.logaddexp(0.0, a.data), (a,),
                 lambda g: (g * _softplus_slope(a.data,
                                                np.exp(-np.abs(a.data))),))


def _expand(grad, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(grad, shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        for ax in sorted(ax % len(shape) for ax in axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return _make(np.sum(a.data, axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_expand(g, a.data.shape, axis, keepdims),))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = np.mean(a.data, axis=axis, keepdims=keepdims)
    count = a.data.size / max(out_data.size, 1)
    return _make(out_data, (a,),
                 lambda g: (_expand(g, a.data.shape, axis, keepdims) / count,))


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([p.data for p in parts], axis=axis),
                 parts, backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(a.data.shape),))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the max shift carries no gradient."""
    a = as_tensor(a)
    shift = Tensor(np.max(a.data, axis=axis, keepdims=True))
    e = exp(sub(a, shift))
    return div(e, tsum(e, axis=axis, keepdims=True))
