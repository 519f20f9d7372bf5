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
    "recording",
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

    def __float__(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

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


def recording() -> bool:
    """Whether a tape is active, so that ops record their backward closures."""
    return bool(_TAPES)


def record(out: Tensor, inputs, backward) -> None:
    """Attach a backward closure to the active tape, if any."""
    if _TAPES:
        _TAPES[-1].nodes.append((out, inputs, backward))


def _sum_last_to_first(parts: np.ndarray) -> np.ndarray:
    """parts[-1] + ... + parts[0], summed in that order.

    A tape accumulates the gradients of separate calls from the last call
    to the first; summing a stack's per-sequence gradients the same way
    makes a stacked call's gradients equal those of separate calls bit
    for bit.
    """
    total = parts[-1]
    for part in parts[-2::-1]:
        total = total + part
    return total


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g over the axes numpy broadcasting expanded, back to shape: the
    stack axis of an (n, T, d) g that shape lacks last to first, as the
    tape sums separate calls, and every other axis by numpy."""
    if g.shape == tuple(shape):
        return g
    if g.ndim == 3 and len(shape) < 3:
        g = _sum_last_to_first(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _elementwise(op, a: Tensor, b: Tensor, opname: str) -> Tensor:
    """op(a, b) under numpy broadcasting, as a Tensor."""
    try:
        return Tensor(op(a.data, b.data))
    except ValueError:
        raise DimensionError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _elementwise(np.add, a, b, "add")

    def bwd(g):
        return [_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)]

    record(out, (a, b), bwd)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _elementwise(np.subtract, a, b, "sub")

    def bwd(g):
        return [_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)]

    record(out, (a, b), bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _elementwise(np.multiply, a, b, "mul")

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
    """a @ b for a matrix or an (n, T, k) stack a and a matrix b.

    A stack runs through numpy's batched matmul, which computes each
    sequence's own 2-d product, so its rows equal separate calls bit for
    bit; flattening the stack into one (n*T, k) product would not.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: shapes {a.data.shape} and {b.data.shape} do not chain"
        )
    out = Tensor(a.data @ b.data)

    def bwd(g):
        db = a.data.swapaxes(-1, -2) @ g
        return [g @ b.data.T, db if db.ndim == 2 else _sum_last_to_first(db)]

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
    """Concatenation on the last axis; the leading axes broadcast.

    An (n, 1, p) stack and a (1, q) row give (n, 1, p+q): every
    sequence of the stack joins the row, as the critic's pooled
    summaries each join the video's.
    """
    a, b = as_tensor(a), as_tensor(b)
    try:
        lead = np.broadcast_shapes(a.data.shape[:-1], b.data.shape[:-1])
    except ValueError:
        lead = None
    if a.data.ndim < 2 or b.data.ndim < 2 or lead is None:
        raise DimensionError(
            f"concat_cols: shapes {a.data.shape} and {b.data.shape} do not align"
        )
    p = a.data.shape[-1]
    out = Tensor(np.concatenate([np.broadcast_to(x.data, lead + x.data.shape[-1:])
                                 for x in (a, b)], axis=-1))

    def bwd(g):
        return [_unbroadcast(g[..., :p], a.data.shape), _unbroadcast(g[..., p:], b.data.shape)]

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
    """Concatenation on axis 0 of arrays of two or more dimensions that
    agree on the others, such as (n, T, d) stacks into one stack."""
    xs = [as_tensor(x) for x in xs]
    if not xs or any(x.data.ndim < 2 or x.data.shape[1:] != xs[0].data.shape[1:] for x in xs):
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
    """Entries [lo, hi) on axis 0 of an array of two or more dimensions:
    rows of a matrix, sequences of a stack."""
    x = as_tensor(x)
    if x.data.ndim < 2 or not (0 <= lo < hi <= x.data.shape[0]):
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


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.mean())
    record(out, (x,), lambda g: [np.full(x.data.shape, float(g) / x.data.size)])
    return out


def mean_rows(x) -> Tensor:
    """Mean over axis -2: (T, d) -> (d,), and (n, T, d) -> (n, d), a
    stack's sequences averaged over their own rows."""
    x = as_tensor(x)
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"mean_rows: need a matrix or a stack, got shape {x.data.shape}")
    n = x.data.shape[-2]
    out = Tensor(x.data.mean(axis=-2))
    record(out, (x,), lambda g: [np.broadcast_to(g[..., None, :] / n, x.data.shape).copy()])
    return out


def absolute(x) -> Tensor:
    """|x| with subgradient 0 at the kink."""
    x = as_tensor(x)
    out = Tensor(np.abs(x.data))
    record(out, (x,), lambda g: [g * np.sign(x.data)])
    return out


def _sigmoid(z: np.ndarray, out=None, e=None, nonneg=None) -> np.ndarray:
    """Stable logistic: 1/(1+e) where z >= 0, else e/(1+e), e = exp(-|z|).

    out=z evaluates it in place.  e (float64) and nonneg (bool), arrays
    of z's shape, are scratch that a caller running it at every step
    allocates once; without them it allocates its temporaries.
    """
    e = np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    nonneg = np.greater_equal(z, 0.0, out=nonneg)
    # e <= 1, so the max picks 1 where z >= 0 and e below; NaN stays NaN
    num = np.maximum(e, nonneg, out=out)
    e += 1.0
    return np.divide(num, e, out=out)


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
