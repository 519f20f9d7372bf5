"""Layer primitives: linear, batchnorm, dropout, LSTM cells and sequences,
and the one parameter-init rule, init_arrays, applied to a shape table.

Batchnorm has one mode: it normalizes by the statistics of the batch it
is given and keeps no running averages.

The LSTM comes in two forms.  lstm_cell composes taped primitives and is
the reference single-step implementation.  Everything else runs through
one batched recurrence kernel: it advances several directions over
(n, T, d_in) stacks of equal-length sequences, in one or more groups
of their own input width and weights, and records the whole
recurrence as a single tape node with backpropagation-through-time
inside it.  Directions share a time loop while their stacked recurrent
weights fit a measured cache-sized cap, as at desk scale; otherwise they
run in consecutive loops that each fit, so that at paper scale each
direction's 32 MiB w_h stays in cache over all its steps.  What the
kernel holds follows from whether a tape records: under one it keeps
every step's gates, cell state, tanh of the cell state and hidden state
for BPTT; without one (evaluation, summarize, the generator forward of a
critic update) consecutive loops reuse one loop's pre-activation and
hidden-state buffers, the pre-activations span one row_blocks block of
steps, the cell state and its tanh keep one step, and only one loop's
hidden states and the output span all steps.  lstm_sequence is its
one-direction, one-sequence case; bilstm_forward runs both directions of
a stack; the critic runs its video and summary branches as two groups
of one call.
Equivalence tests tie the kernel to lstm_cell, the batched calls to
separate ones and the no-tape values to the taped ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .tensor import (
    Tensor,
    _sigmoid,
    _sum_last_to_first,
    add,
    as_tensor,
    matmul,
    mul,
    record,
    recording,
    reshape,
    sigmoid,
    slice_cols,
    tanh,
)

__all__ = [
    "linear_forward",
    "batchnorm_forward",
    "dropout",
    "LSTMParams",
    "named_tensors",
    "from_named",
    "init_arrays",
    "lstm_shapes",
    "lstm_cell",
    "lstm_sequence",
    "bilstm_forward",
    "row_blocks",
    "BN_EPS",
]

BN_EPS = 1e-5


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = xW + b for a batch of row vectors or an (n, T, d) stack."""
    return add(matmul(x, w), b)


def batchnorm_forward(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Column-wise batch normalization over axis -2: the rows of a (T, d)
    sequence, or each sequence's own rows in an (n, T, d) stack.

    Normalizes by the batch mean and biased variance, with the epsilon
    floor handling constant columns and T == 1.  Every caller normalizes
    a sequence over its own time axis, so an output depends only on that
    sequence and the parameters.  Running averages of the batch
    statistics would not transfer to an unseen video whose shots center
    elsewhere, so none are kept, and training and inference normalize
    the same way.  A stack's scale and shift gradients are summed over
    its sequences last to first, as the tape sums separate calls.
    """
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"batchnorm: need a matrix or a stack, got shape {x.data.shape}")
    n, d = x.data.shape[-2:]
    if n == 0:
        raise ContractError("batchnorm: empty batch")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"batchnorm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {d} columns"
        )
    mu = x.data.mean(axis=-2, keepdims=True)
    var = x.data.var(axis=-2, keepdims=True)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = x.data - mu
    xhat *= inv
    # the backward reads xhat; with no tape to run it, the output takes
    # xhat's buffer
    y = gamma.data * xhat if recording() else np.multiply(xhat, gamma.data, out=xhat)
    y += beta.data
    out = Tensor(y)

    def bwd(g):
        dgamma = (g * xhat).sum(axis=-2)
        dbeta = g.sum(axis=-2)
        if x.data.ndim == 3:
            dgamma, dbeta = _sum_last_to_first(dgamma), _sum_last_to_first(dbeta)
        dxhat = g * gamma.data
        dx = (inv / n) * (
            n * dxhat - dxhat.sum(axis=-2, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=-2, keepdims=True)
        )
        return [dx, dgamma, dbeta]

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
        return cls(*map(Tensor, init_arrays(lstm_shapes("p", d_in, d_h), rng).values()))

    @property
    def d_h(self) -> int:
        return self.w_h.data.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_x.data.shape[0]


def named_tensors(params) -> dict:
    """Trainable tensors of a parameter dataclass, keyed in field order.

    A Tensor field x is keyed x; an LSTMParams field x gives x_wx, x_wh
    and x_b, the keys lstm_shapes uses.  Other fields, such as the
    generator's scalar tau, are skipped.  The keys name optimizer slots
    and checkpoint sections.
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


def from_named(cls, arrays: dict, **other):
    """The inverse of named_tensors: a cls whose named_tensors wraps arrays.

    Each array is wrapped as it is, without a copy; other gives the
    fields that named_tensors skips.
    """
    for f in fields(cls):
        if f.name in arrays:
            other[f.name] = Tensor(arrays[f.name])
        elif f"{f.name}_wh" in arrays:
            other[f.name] = LSTMParams(*(Tensor(arrays[f"{f.name}_{k}"]) for k in ("wx", "wh", "b")))
    return cls(**other)


def lstm_shapes(name: str, d_in: int, d_h: int) -> dict:
    """Shapes of LSTMParams.create(d_in, d_h), keyed name_wx, name_wh, name_b."""
    return {f"{name}_wx": (d_in, 4 * d_h), f"{name}_wh": (d_h, 4 * d_h), f"{name}_b": (4 * d_h,)}


def init_arrays(shapes: dict, rng) -> dict:
    """Initial values of the parameters of a shape table, drawn in key order.

    A matrix (d_in, d) is uniform(-1/sqrt(d_in), 1/sqrt(d_in)).  A vector
    is zero, except a batchnorm scale *_gamma, which is one, and the bias
    x_b of an LSTM x (keyed beside x_wh), whose forget-gate block is one
    (Jozefowicz et al., ICML 2015).  With rng None nothing is drawn or
    filled: the arrays are allocated for a reader to overwrite.
    """
    out = {}
    for name, shape in shapes.items():
        if rng is None:
            out[name] = np.empty(shape)
        elif len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
            out[name] = rng.uniform(-bound, bound, size=shape)
        else:
            out[name] = np.ones(shape) if name.endswith("_gamma") else np.zeros(shape)
            if name.endswith("_b") and f"{name[:-2]}_wh" in shapes:
                d_h = shape[0] // 4
                out[name][d_h : 2 * d_h] = 1.0
    return out


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


# Cap on the recurrent weights (w_h, d_h x 4d_h float64 per slot) that
# one time loop reads at every step: weights that stay in cache between
# steps make a step cheaper, and each extra loop adds its own numpy calls
# per step.  Forward step times, one loop vs one slot per loop, on a
# 2-core Xeon with OpenBLAS on 2 threads (2 MiB L2 per core): d_h=32,
# 2 slots, 0.033 vs 0.053 ms; d_h=128, 4 slots, 0.35 vs 0.36 ms;
# d_h=256, 4 slots of 2 MiB, 1.31 vs 1.20 ms; d_h=1024, 2 slots of
# 32 MiB, 4.1 vs 2.9 ms.
_LOOP_WEIGHT_BYTES = 2 << 20


def _loop_slots(n_slots: int, d_h: int) -> list:
    """The slots of one recurrence as consecutive slices, one time loop
    each, whose stacked w_h fits _LOOP_WEIGHT_BYTES; a slot above the cap
    runs alone."""
    per_loop = max(1, _LOOP_WEIGHT_BYTES // (32 * d_h * d_h))
    return [slice(lo, min(lo + per_loop, n_slots)) for lo in range(0, n_slots, per_loop)]


# Cap on the float64 rows that a pass with no tape builds ahead of one
# row block: g_r_fuse's frame||shot rows for the visual FC, and
# _recurrence's input projections for a block of steps.  At paper scale
# (T=1000) that is 6 blocks of 167 fuse rows and 4 blocks of 250 steps
# per direction.  Every block repacks the weights (50 MB fuse_w, 37.7 MB
# w_x), so smaller blocks cost time: on a 2-core Xeon with OpenBLAS on
# 2 threads, the paper-scale fuse took 183 ms in one block, 180 ms in
# 8 MiB blocks and 233 ms in 64-row blocks, and one direction's input
# projection 96, 114 and 152 ms.
_BLOCK_BYTES = 8 << 20


def row_blocks(T: int, row_bytes: int) -> list:
    """Row ranges that split a length-T pass, as slices in order, none
    for T = 0: one block under a recording tape; without one,
    ceil(T / rows) blocks as even as possible,
    rows = max(4, _BLOCK_BYTES // row_bytes).  Two or
    more blocks each have over rows / 2 rows, so a T > 1 pass gets no
    one-row block, which numpy runs through gemv, and no short last
    block, which OpenBLAS on AVX-512 may run through its small-matrix
    kernel (under 10**6 multiply-adds).  Either can differ from one
    product in the last bits, as the last 6 rows of a
    (1030, 1024) @ (1024, 128) product split 1024 + 6 did.
    """
    rows = max(1, T) if recording() else max(4, _BLOCK_BYTES // row_bytes)
    n = -(-T // rows)
    return [slice(T * i // n, T * (i + 1) // n) for i in range(n)]


def _stacked_w_h(params) -> np.ndarray:
    """The w_h of a loop's m LSTMParams as (m, 1, d_h, 4d_h), a view for m = 1."""
    if len(params) == 1:
        return params[0].w_h.data[None, None]
    return np.stack([p.w_h.data for p in params])[:, None]


def _step_buffer(T: int, shape: tuple, keep: bool) -> np.ndarray:
    """A (T, *shape) buffer indexed by step.  With keep every step has its
    own rows; without, every index views the same rows (a zero stride),
    so a step's write replaces the step before."""
    if keep:
        return np.empty((T,) + shape)
    one = np.empty(shape)
    return np.ndarray((T,) + shape, buffer=one, strides=(0,) + one.strides)


def _recurrence(groups, name: str) -> Tensor:
    """LSTM directions over groups of sequence stacks, as one tape node.

    groups lists (seq, directions) pairs.  seq stacks n equal-length
    sequences, (n, T, d_in), and directions lists (LSTMParams, reverse)
    pairs.  Groups may differ in d_in, n and parameters but share T, d_h
    and the number D of directions.  A reversed direction reads each
    sequence from its last row to its first, and every direction starts
    from zero states.  The output stacks the groups' sequences in list
    order, (sum of n, T, D*d_h); row t of a sequence holds the hidden
    states of its group's D directions at time t, side by side in list
    order.

    Every (group, direction) is a slot.  The slots run in consecutive
    time loops whose stacked w_h fits _LOOP_WEIGHT_BYTES: one loop at
    desk scale, one per direction at paper scale.  A loop runs its steps
    in row_blocks blocks, and before each block, each slot's input
    projection for those steps is one 3-d matmul written straight into
    the pre-activation buffer.  Each step of a loop advances its
    (slot, sequence) pairs with one stacked matmul, the same 1 x d_h by
    d_h x 4d_h product per pair as running it alone, so the values equal
    running each pair alone, however the slots are split into loops.
    The sequence axis is padded to the largest n; a padded pair starts
    from zero pre-activations and zero gradients, stays finite and is
    never read.  Gate activations overwrite the pre-activation buffer,
    and the loop writes into preallocated buffers only.  Hidden states
    go to a T+1-row buffer whose first row is the zero start state.

    The loop body is the same in both modes; the buffers differ.  Under
    a recording tape there is one block of T steps, every slot has its
    own pre-activation rows, which end up holding the gates, and every
    step its own c and tanh c, for BPTT, which reads the previous hidden
    states as a view of the T+1-row buffer; the backward runs in the
    same loops, with preallocated buffers too.  Without a tape the
    pre-activation and hidden-state buffers are as wide as the widest
    loop and serve each loop in turn; the pre-activations hold one
    block of steps, a loop's hidden states are copied into the output
    when it ends, and c and tanh c are zero-stride step buffers whose
    every step overwrites the last.  At paper scale (T=1000, d_h=1024)
    that is 8.2 MB of pre-activations and one direction's hidden
    states, 8.2 MB, beside the 16.4 MB output.
    """
    H = groups[0][1][0][0].d_h
    D = len(groups[0][1])
    T = None
    for seq, directions in groups:
        if seq.data.ndim != 3:
            raise DimensionError(f"{name}: need an (n, T, d_in) stack, got {seq.data.shape}")
        n, rows, d_in = seq.data.shape
        if n == 0 or rows == 0:
            raise ContractError(f"{name}: empty sequence")
        T = rows if T is None else T
        if rows != T:
            raise DimensionError(f"{name}: groups disagree on sequence length ({rows} vs {T})")
        if len(directions) != D:
            raise DimensionError(f"{name}: groups disagree on direction count ({len(directions)} vs {D})")
        for p, _ in directions:
            if p.d_in != d_in:
                raise DimensionError(f"{name}: input width {d_in} does not match d_in {p.d_in}")
            if p.d_h != H:
                raise DimensionError(f"{name}: directions disagree on d_h ({p.d_h} vs {H})")
    # one slot per (group, direction), group by group
    slots = [(p, reverse, seq.data) for seq, directions in groups for p, reverse in directions]
    M, B = len(slots), max(len(xs) for *_, xs in slots)
    loops = _loop_slots(M, H)
    w_hs = [_stacked_w_h([p for p, *_ in slots[s]]) for s in loops]
    taped = recording()
    wide = max(s.stop - s.start for s in loops)  # slots of the widest loop
    width = M if taped else wide  # slots the step buffers hold
    steps = row_blocks(T, width * B * 4 * H * 8)

    def in_time(a, reverse):
        """A (B, T, n) array from step order to time order, or back."""
        return a[:, ::-1] if reverse else a

    def seq_major(a, m, n):
        """The n real sequences of slot m of a (T, M, B, k) buffer as (n, T, k), step order."""
        return a[:, m, :n].transpose(1, 0, 2)

    def blocks(a):
        """(slot, n, reverse, its (n, T, d_h) columns) per slot of an
        array laid out as the output."""
        lo = 0
        for g, (seq, directions) in enumerate(groups):
            n = len(seq.data)
            block = a[lo : lo + n]
            lo += n
            for k, (_, reverse) in enumerate(directions):
                yield g * D + k, n, reverse, block[:, :, k * H : (k + 1) * H]

    # time-major buffers: [t] is the (slot, sequence, .) state at step t,
    # and pre's [t - start] that of step t of the block being run
    pre = np.empty((max(b.stop - b.start for b in steps), width, B, 4 * H))
    hs = np.empty((T + 1, width, B, H))  # hs[t] is the hidden state before step t
    hs[0] = 0.0
    cs = _step_buffer(T, (width, B, H), taped)
    tc = _step_buffer(T, (width, B, H), taped)
    zh = np.empty((wide, B, 1, 4 * H))
    g = np.empty((wide, B, H))
    ig = np.empty((wide, B, H))
    out = np.empty((sum(len(seq.data) for seq, _ in groups), T, D * H))
    out_cols = list(blocks(out))
    for s, w_h in zip(loops, w_hs):
        m_s = s.stop - s.start
        ks = s if taped else slice(0, m_s)  # this loop's slots in the step buffers
        pre_s, hs_s, cs_s, tc_s = pre[:, ks], hs[:, ks], cs[:, ks], tc[:, ks]
        zh_s, g_s, ig_s = zh[:m_s], g[:m_s], ig[:m_s]
        c = np.zeros(g_s.shape)
        for block in steps:
            t0, t1 = block.start, block.stop
            pre_b = pre_s[: t1 - t0]
            for k, (p, reverse, xs) in enumerate(slots[s]):
                n = len(xs)
                # BLAS writes out= only with a unit column stride and a
                # positive row stride, so a reversed slot projects a
                # reversed copy of its block's input rather than into a
                # reversed view
                x = np.ascontiguousarray(xs[:, T - t1 : T - t0][:, ::-1]) if reverse else xs[:, block]
                np.matmul(x, p.w_x.data, out=pre_b[:, k, :n].transpose(1, 0, 2))
                pre_b[:, k, :n] += p.b.data
                pre_b[:, k, n:] = 0.0
            for t in range(t0, t1):
                z = pre_b[t - t0]
                z += np.matmul(hs_s[t, :, :, None, :], w_h, out=zh_s)[:, :, 0]
                np.tanh(z[..., 2 * H : 3 * H], out=g_s)
                _sigmoid(z, out=z)
                z[..., 2 * H : 3 * H] = g_s
                c = np.multiply(z[..., H : 2 * H], c, out=cs_s[t])
                c += np.multiply(z[..., :H], g_s, out=ig_s)
                np.multiply(z[..., 3 * H :], np.tanh(c, out=tc_s[t]), out=hs_s[t + 1])
        for k, m in enumerate(range(s.start, s.stop)):
            _, n, reverse, cols = out_cols[m]
            cols[...] = in_time(seq_major(hs_s[1:], k, n), reverse)
    h_prev = hs[:-1]
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
        gates = pre.reshape(T, M, B, 4, H)  # now [i, f, g, o] activations
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
        dz = np.empty_like(gates)
        up = np.empty((M, B, 4, H))
        dhc = np.empty((M, B, H))  # dh * o * (1 - tanh(c)^2), the step's dc increment
        for s, w_h in zip(loops, w_hs):
            w_hT = w_h.transpose(0, 1, 3, 2)
            dh_out_s, go_s, gf_s, dtc_s = dh_out[:, s], go[:, s], gf[:, s], dtc[:, s]
            fac1_s, fac2_s, fac3_s, dz_s = fac1[:, s], fac2[:, s], fac3[:, s], dz[:, s]
            up_s, dhc_s = up[s], dhc[s]
            dh4 = np.zeros((len(up_s), B, 1, H))  # dh as the step's matmul writes it
            dh = dh4[:, :, 0]
            dc = np.zeros(dh.shape)
            for t in range(T - 1, -1, -1):
                dh += dh_out_s[t]
                np.multiply(dh, go_s[t], out=dhc_s)
                dhc_s *= dtc_s[t]
                dc += dhc_s
                up_s[..., :3, :] = dc[..., None, :]
                up_s[..., 3, :] = dh
                dz_t = np.multiply(up_s, fac1_s[t], out=dz_s[t])
                dz_t *= fac2_s[t]
                dz_t *= fac3_s[t]
                np.matmul(dz_t.reshape(len(up_s), B, 1, 4 * H), w_hT, out=dh4)
                dc *= gf_s[t]
        dz = dz.reshape(T, M, B, 4 * H)
        grads = []
        for m in range(M - 1, -1, -1):
            p, reverse, xs = slots[m]
            dz_m = np.ascontiguousarray(seq_major(dz, m, len(xs)))
            x_m = np.ascontiguousarray(in_time(xs, reverse))
            grads += [
                in_time(np.matmul(dz_m, p.w_x.data.T), reverse),
                _sum_last_to_first(np.matmul(x_m.transpose(0, 2, 1), dz_m)),
                _sum_last_to_first(np.matmul(seq_major(h_prev, m, len(xs)).transpose(0, 2, 1), dz_m)),
                _sum_last_to_first(dz_m.sum(axis=1)),
            ]
        return grads

    # Inputs are listed last group first and, within a group, last
    # direction first, and each direction lists its group's seq again.
    # The tape then adds up gradients in the order it would for one node
    # per direction, recorded group by group, so training stays
    # bit-identical to that layout.
    inputs = []
    for seq, directions in reversed(groups):
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
    seq = as_tensor(seq)
    if seq.data.ndim != 2:
        raise DimensionError(f"lstm_sequence: need (T, d_in), got {seq.data.shape}")
    h = _recurrence([(reshape(seq, (1,) + seq.data.shape), [(params, False)])], "lstm_sequence")
    return reshape(h, h.data.shape[1:])


def bilstm_forward(seq: Tensor, params_fwd: LSTMParams, params_bwd: LSTMParams) -> Tensor:
    """Bidirectional LSTM over an (n, T, d_in) stack of sequences.

    Each sequence is encoded independently; row t of its (T, 2*d_h)
    output is concat(forward h_t, backward h_t).  Both directions of
    every sequence run in one time loop.
    """
    return _recurrence([(as_tensor(seq), [(params_fwd, False), (params_bwd, True)])],
                       "bilstm_forward")
