"""Layer primitives: linear, batchnorm, dropout, LSTM cells and sequences.

The LSTM comes in two forms.  lstm_cell composes taped primitives and is
the reference single-step implementation.  Everything else runs through
one batched recurrence kernel: it advances several directions over
several equal-length sequences that are stacked by rows, in one or more
groups of their own input width and weights, all in one time loop, and
records the whole recurrence as a single tape node with
backpropagation-through-time inside it.  lstm_sequence is its
one-direction, one-sequence case; bilstm_forward runs both directions of
one or more stacked sequences; the critic runs its video and summary
branches as two groups of one call.  Equivalence tests tie the kernel to
lstm_cell and the batched calls to separate ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .tensor import (
    Tensor,
    _sigmoid,
    add,
    as_tensor,
    matmul,
    mul,
    record,
    relu,
    reshape,
    sigmoid,
    slice_cols,
    tanh,
)

__all__ = [
    "linear_forward",
    "elementwise_activation",
    "RunningStats",
    "batchnorm_forward",
    "dropout",
    "LSTMParams",
    "named_tensors",
    "lstm_shapes",
    "lstm_cell",
    "lstm_sequence",
    "bilstm_forward",
    "init_linear",
    "BN_EPS",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def init_linear(d_in: int, d_out: int, rng) -> tuple[Tensor, Tensor]:
    """Weight uniform(-1/sqrt(d_in), 1/sqrt(d_in)), zero bias."""
    bound = 1.0 / np.sqrt(d_in)
    w = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)))
    b = Tensor(np.zeros(d_out))
    return w, b


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = xW + b for a batch of row vectors."""
    return add(matmul(x, w), b)


_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}


def elementwise_activation(x: Tensor, kind: str) -> Tensor:
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown activation {kind!r}, expected one of {sorted(_ACTIVATIONS)}"
        ) from None
    return fn(x)


@dataclass
class RunningStats:
    """Exponential moving averages of per-column batch statistics."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, d: int) -> "RunningStats":
        return cls(mean=np.zeros(d), var=np.ones(d))


def batchnorm_forward(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    mode: str,
    stats: RunningStats | None,
) -> Tensor:
    """Column-wise batch normalization over the row axis.

    Train mode normalizes by the batch mean and biased variance (with the
    epsilon floor handling constant columns and n == 1) and folds the batch
    statistics into the running stats, if stats is not None.  Eval mode
    normalizes by the running stats and touches nothing.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"batchnorm: need a matrix, got shape {x.data.shape}")
    n, d = x.data.shape
    if n == 0:
        raise ContractError("batchnorm: empty batch")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"batchnorm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {d} columns"
        )
    if mode == "train":
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        if stats is not None:
            stats.mean = BN_MOMENTUM * stats.mean + (1.0 - BN_MOMENTUM) * mu
            stats.var = BN_MOMENTUM * stats.var + (1.0 - BN_MOMENTUM) * var
    elif mode == "eval":
        mu = stats.mean
        var = stats.var
    else:
        raise ConfigError(f"batchnorm: unknown mode {mode!r}")

    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) * inv
    out = Tensor(gamma.data * xhat + beta.data)

    if mode == "train":

        def bwd(g):
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            dxhat = g * gamma.data
            dx = (inv / n) * (
                n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
            )
            return [dx, dgamma, dbeta]

    else:

        def bwd(g):
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            return [g * (gamma.data * inv), dgamma, dbeta]

    record(out, (x, gamma, beta), bwd)
    return out


def dropout(x: Tensor, p: float, train: bool, rng=None) -> Tensor:
    """Inverted dropout: zero units with probability p, scale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout: p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout: train mode needs an rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * mask)
    record(out, (x,), lambda g: [g * mask])
    return out


@dataclass
class LSTMParams:
    """Fused gate weights, gate order [input, forget, cell, output]."""

    w_x: Tensor
    w_h: Tensor
    b: Tensor

    @classmethod
    def create(cls, d_in: int, d_h: int, rng) -> "LSTMParams":
        bx = 1.0 / np.sqrt(d_in)
        bh = 1.0 / np.sqrt(d_h)
        b = np.zeros(4 * d_h)
        b[d_h : 2 * d_h] = 1.0  # forget-gate bias
        return cls(
            w_x=Tensor(rng.uniform(-bx, bx, size=(d_in, 4 * d_h))),
            w_h=Tensor(rng.uniform(-bh, bh, size=(d_h, 4 * d_h))),
            b=Tensor(b),
        )

    @property
    def d_h(self) -> int:
        return self.w_h.data.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_x.data.shape[0]


def named_tensors(params) -> dict:
    """Trainable tensors of a parameter dataclass, keyed in field order.

    A Tensor field x is keyed x; an LSTMParams field x gives x_wx, x_wh
    and x_b, the keys lstm_shapes uses.  Other fields (running stats,
    scalars) are skipped.  The keys name optimizer slots and checkpoint
    sections.
    """
    out = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            out[f.name] = value
        elif isinstance(value, LSTMParams):
            out.update({f"{f.name}_wx": value.w_x, f"{f.name}_wh": value.w_h,
                        f"{f.name}_b": value.b})
    return out


def lstm_shapes(name: str, d_in: int, d_h: int) -> dict:
    """Shapes of LSTMParams.create(d_in, d_h), keyed name_wx, name_wh, name_b."""
    return {f"{name}_wx": (d_in, 4 * d_h), f"{name}_wh": (d_h, 4 * d_h), f"{name}_b": (4 * d_h,)}


def lstm_cell(
    x_t: Tensor, h_prev: Tensor, c_prev: Tensor, params: LSTMParams
) -> tuple[Tensor, Tensor]:
    """One LSTM step on 1-d state vectors, composed from taped primitives."""
    d_h = params.d_h
    if x_t.data.shape != (params.d_in,):
        raise DimensionError(
            f"lstm_cell: input shape {x_t.data.shape} does not match d_in {params.d_in}"
        )
    if h_prev.data.shape != (d_h,) or c_prev.data.shape != (d_h,):
        raise DimensionError(
            f"lstm_cell: state shapes {h_prev.data.shape}/{c_prev.data.shape} "
            f"do not match d_h {d_h}"
        )
    xr = reshape(x_t, (1, params.d_in))
    hr = reshape(h_prev, (1, d_h))
    cr = reshape(c_prev, (1, d_h))
    z = add(add(matmul(xr, params.w_x), matmul(hr, params.w_h)), params.b)
    i = sigmoid(slice_cols(z, 0, d_h))
    f = sigmoid(slice_cols(z, d_h, 2 * d_h))
    g = tanh(slice_cols(z, 2 * d_h, 3 * d_h))
    o = sigmoid(slice_cols(z, 3 * d_h, 4 * d_h))
    c_t = add(mul(f, cr), mul(i, g))
    h_t = mul(o, tanh(c_t))
    return reshape(h_t, (d_h,)), reshape(c_t, (d_h,))


def _sum_last_to_first(parts: np.ndarray) -> np.ndarray:
    """parts[-1] + ... + parts[0], summed in that order.

    A tape accumulates the gradients of separate calls from the last call
    to the first; summing per-sequence weight gradients the same way makes
    a batched call's gradients equal those of separate calls bit for bit.
    """
    total = parts[-1]
    for part in parts[-2::-1]:
        total = total + part
    return total


def _recurrence(groups, name: str) -> Tensor:
    """LSTM directions over groups of stacked sequences in one time loop.

    groups lists (seq, n_seq, directions) triples.  seq stacks n_seq
    equal-length sequences by rows, (n_seq*T, d_in), and directions lists
    (LSTMParams, reverse) pairs.  Groups may differ in d_in, n_seq and
    parameters but share T, d_h and the number D of directions.  A
    reversed direction reads each sequence from its last row to its
    first, and every direction starts from zero states.  The output
    stacks one (n_seq*T, D*d_h) block per group by rows, in list order;
    row b*T + t of a block holds the hidden states of the group's D
    directions at time t of sequence b, side by side in list order.

    Each group's input projection is one 3-d matmul per direction,
    hoisted out of the loop.  Each step then advances every (direction,
    sequence) pair with one stacked matmul, the same 1 x d_h by
    d_h x 4d_h product per pair as running it alone, so the values equal
    running each pair alone.  The sequence axis is padded to the largest
    n_seq; a padded pair starts from zero pre-activations and zero
    gradients, stays finite and is never read.  Gate activations
    overwrite the pre-activation buffer.  The whole recurrence is one
    tape node whose backward runs BPTT over the cached gates for every
    pair at once.
    """
    H = groups[0][2][0][0].d_h
    D = len(groups[0][2])
    T = None
    for seq, n_seq, directions in groups:
        if seq.data.ndim != 2:
            raise DimensionError(f"{name}: need (T, d_in), got {seq.data.shape}")
        rows, d_in = seq.data.shape
        if rows == 0:
            raise ContractError(f"{name}: empty sequence")
        if n_seq < 1 or rows % n_seq:
            raise DimensionError(f"{name}: {rows} rows do not split into {n_seq} equal sequences")
        T = rows // n_seq if T is None else T
        if rows != n_seq * T:
            raise DimensionError(f"{name}: groups disagree on sequence length ({rows // n_seq} vs {T})")
        if len(directions) != D:
            raise DimensionError(f"{name}: groups disagree on direction count ({len(directions)} vs {D})")
        for p, _ in directions:
            if p.d_in != d_in:
                raise DimensionError(f"{name}: input width {d_in} does not match d_in {p.d_in}")
            if p.d_h != H:
                raise DimensionError(f"{name}: directions disagree on d_h ({p.d_h} vs {H})")
    # one slot per (group, direction), group by group
    slots = [(p, reverse, n_seq, seq.data.reshape(n_seq, T, -1))
             for seq, n_seq, directions in groups for p, reverse in directions]
    M, B = len(slots), max(n_seq for _, n_seq, _ in groups)

    # time-major buffers: [t] is the (M, B, .) state of every pair at step t
    pre = np.empty((T, M, B, 4 * H))
    for m, (p, reverse, n, xs) in enumerate(slots):
        proj = np.matmul(xs, p.w_x.data) + p.b.data
        pre[:, m, :n] = (proj[:, ::-1] if reverse else proj).transpose(1, 0, 2)
        pre[:, m, n:] = 0.0
    w_h = np.stack([p.w_h.data for p, *_ in slots])[:, None]  # (M, 1, H, 4H)
    hs = np.empty((T, M, B, H))
    cs = np.empty((T, M, B, H))
    tc = np.empty((T, M, B, H))
    h = c = np.zeros((M, B, H))
    for t in range(T):
        z = pre[t]
        z += np.matmul(h[:, :, None, :], w_h)[:, :, 0]
        g = np.tanh(z[..., 2 * H : 3 * H])
        _sigmoid(z, out=z)
        z[..., 2 * H : 3 * H] = g
        c = np.multiply(z[..., H : 2 * H], c, out=cs[t])
        c += z[..., :H] * g
        h = np.multiply(z[..., 3 * H :], np.tanh(c, out=tc[t]), out=hs[t])
    gates = pre.reshape(T, M, B, 4, H)  # now [i, f, g, o] activations

    def in_time(a, reverse):
        """A (B, T, n) array from step order to time order, or back."""
        return a[:, ::-1] if reverse else a

    def seq_major(a, m, n):
        """The n real sequences of slot m of a (T, M, B, k) buffer as (n, T, k), step order."""
        return a[:, m, :n].transpose(1, 0, 2)

    def blocks(a):
        """(slot, n_seq, reverse, its (n_seq, T, d_h) columns) per slot of
        an array laid out as the output."""
        lo = 0
        for g, (_, n, directions) in enumerate(groups):
            block = a[lo : lo + n * T].reshape(n, T, D * H)
            lo += n * T
            for k, (_, reverse) in enumerate(directions):
                yield g * D + k, n, reverse, block[:, :, k * H : (k + 1) * H]

    out = np.empty((sum(n * T for _, n, _ in groups), D * H))
    for m, n, reverse, cols in blocks(out):
        cols[...] = in_time(seq_major(hs, m, n), reverse)
    out = Tensor(out)

    def bwd(g_out):
        dh_out = np.empty((T, M, B, H))
        for m, n, reverse, cols in blocks(g_out):
            dh_out[:, m, :n] = in_time(cols, reverse).transpose(1, 0, 2)
            dh_out[:, m, n:] = 0.0
        # Per gate block [i, f, g, o] a step's pre-activation gradient is
        # ((up * fac1) * fac2) * fac3 with up = [dc, dc, dc, dh],
        # fac1 = [g, c_prev, i, tanh c], fac2 = [i, f, 1, o] and
        # fac3 = [1-i, 1-f, 1-g*g, 1-o], e.g. ((dc*g)*i)*(1-i) for the
        # input gate.  The factors do not depend on the carried dh and dc,
        # so they are formed for all steps at once, outside the loop.
        gi, gf, gg, go = (gates[..., j, :] for j in range(4))
        fac1 = np.empty_like(gates)
        fac1[..., 0, :] = gg
        fac1[0, ..., 1, :] = 0.0
        fac1[1:, ..., 1, :] = cs[:-1]
        fac1[..., 2, :] = gi
        fac1[..., 3, :] = tc
        fac2 = gates.copy()
        fac2[..., 2, :] = 1.0
        fac3 = 1.0 - gates
        fac3[..., 2, :] = 1.0 - gg * gg
        dtc = 1.0 - tc * tc
        w_hT = w_h.transpose(0, 1, 3, 2)
        dz = np.empty_like(gates)
        up = np.empty((M, B, 4, H))
        dh = np.zeros((M, B, H))
        dc = np.zeros((M, B, H))
        for t in range(T - 1, -1, -1):
            dh += dh_out[t]
            dc += dh * go[t] * dtc[t]
            up[..., :3, :] = dc[..., None, :]
            up[..., 3, :] = dh
            dz_t = np.multiply(up, fac1[t], out=dz[t])
            dz_t *= fac2[t]
            dz_t *= fac3[t]
            dh = np.matmul(dz_t.reshape(M, B, 1, 4 * H), w_hT)[:, :, 0]
            dc *= gf[t]
        dz = dz.reshape(T, M, B, 4 * H)
        h_prev = np.zeros_like(hs)
        h_prev[1:] = hs[:-1]
        grads = []
        for m in range(M - 1, -1, -1):
            p, reverse, n, xs = slots[m]
            dz_m = np.ascontiguousarray(seq_major(dz, m, n))
            x_m = np.ascontiguousarray(in_time(xs, reverse))
            grads += [
                in_time(np.matmul(dz_m, p.w_x.data.T), reverse).reshape(n * T, -1),
                _sum_last_to_first(np.matmul(x_m.transpose(0, 2, 1), dz_m)),
                _sum_last_to_first(np.matmul(seq_major(h_prev, m, n).transpose(0, 2, 1), dz_m)),
                _sum_last_to_first(dz_m.sum(axis=1)),
            ]
        return grads

    # Inputs are listed last group first and, within a group, last
    # direction first, and each direction lists its group's seq again.
    # The tape then adds up gradients in the order it would for one node
    # per direction, recorded group by group, so training stays
    # bit-identical to that layout.
    inputs = []
    for seq, _, directions in reversed(groups):
        for p, _ in reversed(directions):
            inputs += [seq, p.w_x, p.w_h, p.b]
    record(out, tuple(inputs), bwd)
    return out


def lstm_sequence(seq: Tensor, params: LSTMParams) -> Tensor:
    """Run one LSTM direction over a (T, d_in) sequence as a fused tape node.

    Initial hidden and cell states are zero.  Returns the (T, d_h) stack of
    hidden states.  This is the one-direction, one-sequence case of the
    batched recurrence behind bilstm_forward.
    """
    return _recurrence([(as_tensor(seq), 1, [(params, False)])], "lstm_sequence")


def bilstm_forward(
    seq: Tensor, params_fwd: LSTMParams, params_bwd: LSTMParams, n_seq: int = 1
) -> Tensor:
    """Bidirectional LSTM: row t is concat(forward h_t, backward h_t).

    seq may stack n_seq equal-length sequences by rows, (n_seq*T, d_in);
    each is encoded independently and the output stacks their (T, 2*d_h)
    encodings in the same order.  Both directions of every sequence run
    in one time loop.
    """
    seq = as_tensor(seq)
    if seq.data.ndim != 2 or seq.data.shape[0] == 0:
        raise ContractError(f"bilstm_forward: need a nonempty (T, d_in) sequence, got {seq.data.shape}")
    return _recurrence([(seq, n_seq, [(params_fwd, False), (params_bwd, True)])], "bilstm_forward")
