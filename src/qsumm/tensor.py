"""Dense float64 tensors with taped reverse-mode differentiation.

Forward math runs eagerly through numpy.  While a Tape is active every
primitive records its inputs and a backward closure; Tape.backward walks
the records in reverse order, accumulating vector-Jacobian products, and
keeps gradients only for the tensors the tape was told to watch.  Ops
executed outside any tape run forward-only, which is what evaluation and
finite-difference probing use.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "Tape",
    "as_tensor",
    "record",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "reshape",
    "concat_cols",
    "concat_rows",
    "slice_cols",
    "slice_rows",
    "reverse_rows",
    "tile_rows",
    "sum_all",
    "mean_all",
    "mean_rows",
    "absolute",
    "sigmoid",
    "tanh",
    "relu",
]

_TAPES: list["Tape"] = []


def as_tensor(x) -> "Tensor":
    """Wrap x in a Tensor unless it already is one."""
    return x if isinstance(x, Tensor) else Tensor(x)


class Tensor:
    """A float64 numpy array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __float__(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)


class Tape:
    """Recording of one forward pass, consumable by a single backward call.

    Gradients are retained only for watched tensors; every other buffer is
    dropped once backward finishes.  A second backward on the same tape is
    a contract violation, as is a non-scalar loss.
    """

    def __init__(self, watch=()):
        self.nodes = []
        self._watched = {}
        self._spent = False
        for t in watch:
            self.watch(t)

    def watch(self, t: Tensor) -> None:
        self._watched[id(t)] = t

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def backward(self, loss: Tensor) -> None:
        """Populate t.grad with d(loss)/dt for every watched tensor t.

        Watched tensors not reachable from the loss get zero gradients.
        Previous .grad contents are replaced, not accumulated into.
        """
        if self._spent:
            raise ContractError("tape already consumed by a previous backward call")
        if loss.data.size != 1:
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        self._spent = True
        grads = {id(loss): np.ones_like(loss.data)}
        kept = {}
        for out, inputs, bwd in reversed(self.nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            if id(out) in self._watched:
                kept[id(out)] = g
            for t, gi in zip(inputs, bwd(g)):
                if gi is None:
                    continue
                k = id(t)
                if k in grads:
                    grads[k] = grads[k] + gi
                else:
                    grads[k] = gi
        for k, t in self._watched.items():
            g = grads.get(k)
            if k in kept:
                g = kept[k] if g is None else kept[k] + g
            t.grad = g if g is not None else np.zeros_like(t.data)


def record(out: Tensor, inputs, backward) -> None:
    """Attach a backward closure to the active tape, if any."""
    if _TAPES:
        _TAPES[-1].nodes.append((out, inputs, backward))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g over the axes numpy broadcasting expanded, back to shape."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise DimensionError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd(g):
        return [_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)]

    record(out, (a, b), bwd)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bwd(g):
        return [_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)]

    record(out, (a, b), bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd(g):
        return [
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ]

    record(out, (a, b), bwd)
    return out


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)
    record(out, (a,), lambda g: [-g])
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: shapes {a.data.shape} and {b.data.shape} do not chain"
        )
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return [g @ b.data.T, a.data.T @ g]

    record(out, (a, b), bwd)
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        out = Tensor(x.data.reshape(shape).copy())
    except ValueError:
        raise DimensionError(
            f"reshape: cannot view shape {x.data.shape} as {shape}"
        ) from None

    def bwd(g):
        return [g.reshape(x.data.shape)]

    record(out, (x,), bwd)
    return out


def concat_cols(a, b) -> Tensor:
    """Column-wise concatenation of two matrices with equal row counts."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise DimensionError(
            f"concat_cols: shapes {a.data.shape} and {b.data.shape} do not align"
        )
    p = a.data.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def bwd(g):
        return [g[:, :p].copy(), g[:, p:].copy()]

    record(out, (a, b), bwd)
    return out


def slice_cols(x, lo: int, hi: int) -> Tensor:
    """Columns [lo, hi) of a matrix."""
    x = as_tensor(x)
    if x.data.ndim != 2 or not (0 <= lo < hi <= x.data.shape[1]):
        raise DimensionError(
            f"slice_cols: [{lo}:{hi}] invalid for shape {x.data.shape}"
        )
    out = Tensor(x.data[:, lo:hi].copy())

    def bwd(g):
        z = np.zeros_like(x.data)
        z[:, lo:hi] = g
        return [z]

    record(out, (x,), bwd)
    return out


def concat_rows(xs) -> Tensor:
    """Row-wise concatenation of matrices with equal column counts."""
    xs = [as_tensor(x) for x in xs]
    if not xs or any(x.data.ndim != 2 or x.data.shape[1] != xs[0].data.shape[1] for x in xs):
        raise DimensionError(
            f"concat_rows: shapes {[x.data.shape for x in xs]} do not align"
        )
    bounds = np.cumsum([0] + [x.data.shape[0] for x in xs])
    out = Tensor(np.concatenate([x.data for x in xs], axis=0))

    def bwd(g):
        return [g[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]

    record(out, tuple(xs), bwd)
    return out


def slice_rows(x, lo: int, hi: int) -> Tensor:
    """Rows [lo, hi) of a matrix."""
    x = as_tensor(x)
    if x.data.ndim != 2 or not (0 <= lo < hi <= x.data.shape[0]):
        raise DimensionError(
            f"slice_rows: [{lo}:{hi}] invalid for shape {x.data.shape}"
        )
    out = Tensor(x.data[lo:hi].copy())

    def bwd(g):
        z = np.zeros_like(x.data)
        z[lo:hi] = g
        return [z]

    record(out, (x,), bwd)
    return out


def reverse_rows(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError(f"reverse_rows: need a matrix, got shape {x.data.shape}")
    out = Tensor(x.data[::-1].copy())
    record(out, (x,), lambda g: [g[::-1].copy()])
    return out


def tile_rows(x, n: int) -> Tensor:
    """Repeat a 1-row matrix n times along the row axis."""
    x = as_tensor(x)
    if x.data.ndim != 2 or x.data.shape[0] != 1:
        raise DimensionError(f"tile_rows: need shape (1, d), got {x.data.shape}")
    if n < 1:
        raise DimensionError(f"tile_rows: need n >= 1, got {n}")
    out = Tensor(np.repeat(x.data, n, axis=0))
    record(out, (x,), lambda g: [g.sum(axis=0, keepdims=True)])
    return out


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum())
    record(out, (x,), lambda g: [np.full(x.data.shape, float(g))])
    return out


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.mean())
    record(out, (x,), lambda g: [np.full(x.data.shape, float(g) / x.data.size)])
    return out


def mean_rows(x) -> Tensor:
    """Mean over the row axis of a matrix: (n, d) -> (d,)."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError(f"mean_rows: need a matrix, got shape {x.data.shape}")
    n = x.data.shape[0]
    out = Tensor(x.data.mean(axis=0))
    record(out, (x,), lambda g: [np.broadcast_to(g / n, x.data.shape).copy()])
    return out


def absolute(x) -> Tensor:
    """|x| with subgradient 0 at the kink."""
    x = as_tensor(x)
    out = Tensor(np.abs(x.data))
    record(out, (x,), lambda g: [g * np.sign(x.data)])
    return out


def _sigmoid(z: np.ndarray, out=None) -> np.ndarray:
    """Stable logistic: 1/(1+e) where z >= 0, else e/(1+e), e = exp(-|z|).

    out=z evaluates it in place.
    """
    e = np.exp(-np.abs(z))
    # e <= 1, so the max picks 1 where z >= 0 and e below
    num = np.maximum(e, np.heaviside(z, 1.0))
    return np.divide(num, 1.0 + e, out=out)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)
    out = Tensor(y)
    record(out, (x,), lambda g: [g * y * (1.0 - y)])
    return out


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y)
    record(out, (x,), lambda g: [g * (1.0 - y * y)])
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    record(out, (x,), lambda g: [g * (x.data > 0.0)])
    return out
