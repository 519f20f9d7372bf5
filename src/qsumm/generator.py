"""The shot-scoring generator.

Four stages: fuse visual features with an encoded query, run a Bi-LSTM
over the fused sequence, predict a per-shot confidence score in (0, 1),
and squash the scores through a low-temperature gate that pushes them
toward a near-binary summary mask.  One video's sequences under several
queries run as an (n, T, d) stack through every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SynthConfig
from .errors import ConfigError, ContractError, DimensionError, bounded, check_fields
from .layers import (
    LSTMParams,
    batchnorm_forward,
    bilstm_forward,
    dropout,
    from_named,
    init_arrays,
    linear_forward,
    lstm_shapes,
    named_tensors,
    row_blocks,
)
from .tensor import Tensor, _sum_last_to_first, as_tensor, record, relu, reshape, sigmoid

__all__ = [
    "GeneratorConfig",
    "GeneratorParams",
    "GenForward",
    "init_generator_params",
    "generator_shapes",
    "g_r_fuse",
    "g_e_encode",
    "g_p_score",
    "g_g_gate",
    "generator_forward",
    "check_threshold",
    "select_shots",
]


@dataclass(frozen=True)
class GeneratorConfig:
    d_frame: int = bounded(32, ge=1)
    d_shot: int = bounded(48, ge=1)
    d_text: int = bounded(16, ge=1)
    d_fused: int = bounded(64, ge=1)
    d_qenc: int = bounded(16, ge=1)
    d_h: int = bounded(32, ge=1)
    d_pred: int = bounded(32, ge=1)
    tau: float = bounded(0.1, gt=0)
    dropout_p: float = bounded(0.5, ge=0, lt=1)

    def __post_init__(self):
        check_fields(self, "generator")

    @classmethod
    def paper_scale(cls, **overrides) -> "GeneratorConfig":
        """The paper's layer widths, on the feature widths of
        SynthConfig.paper_scale."""
        synth = SynthConfig.paper_scale()
        base = dict(
            d_frame=synth.d_frame, d_shot=synth.d_shot, d_text=synth.d_text,
            d_fused=1024, d_qenc=128, d_h=1024, d_pred=128,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class GeneratorParams:
    fuse_w: Tensor
    fuse_b: Tensor
    query_w: Tensor
    query_b: Tensor
    enc_fwd: LSTMParams
    enc_bwd: LSTMParams
    enc_bn_gamma: Tensor
    enc_bn_beta: Tensor
    pred_w1: Tensor
    pred_b1: Tensor
    pred_bn_gamma: Tensor
    pred_bn_beta: Tensor
    pred_w2: Tensor
    pred_b2: Tensor
    tau: float
    dropout_p: float

    def tensors(self) -> dict:
        """Trainable tensors in field order, keyed for optimizers and checkpoints."""
        return named_tensors(self)


def init_generator_params(cfg: GeneratorConfig, rng) -> GeneratorParams:
    """Fresh parameters, drawn in the key order of generator_shapes(cfg)
    by layers.init_arrays; rng None allocates them undrawn."""
    return from_named(GeneratorParams, init_arrays(generator_shapes(cfg), rng),
                      tau=cfg.tau, dropout_p=cfg.dropout_p)


def generator_shapes(cfg: GeneratorConfig) -> dict:
    """The generator's parameter layout: name -> shape, in field order.

    The one declaration of the parameters: initialization, optimizer
    slots and checkpoint sections follow its keys and order.  It needs
    the config alone, so a loader can check a file's sizes before it
    allocates anything.
    """
    d_in, h2 = cfg.d_fused + cfg.d_qenc, 2 * cfg.d_h
    return {
        "fuse_w": (cfg.d_frame + cfg.d_shot, cfg.d_fused),
        "fuse_b": (cfg.d_fused,),
        "query_w": (cfg.d_text, cfg.d_qenc),
        "query_b": (cfg.d_qenc,),
        **lstm_shapes("enc_fwd", d_in, cfg.d_h),
        **lstm_shapes("enc_bwd", d_in, cfg.d_h),
        "enc_bn_gamma": (h2,),
        "enc_bn_beta": (h2,),
        "pred_w1": (h2, cfg.d_pred),
        "pred_b1": (cfg.d_pred,),
        "pred_bn_gamma": (cfg.d_pred,),
        "pred_bn_beta": (cfg.d_pred,),
        "pred_w2": (cfg.d_pred, 1),
        "pred_b2": (1,),
    }


def g_r_fuse(frame_feats, shot_feats, query_emb, params: GeneratorParams) -> Tensor:
    """Query-conditioned per-shot representations, one sequence per query.

    concat(frame, shot) -> FC -> ReLU gives the visual half; the query
    embedding goes through its own FC -> ReLU and joins every shot row.
    A (d_text,) query gives a (1, T, d_fused+d_qenc) stack, and a
    (Q, d_text) stack of queries gives (Q, T, d_fused+d_qenc).  The
    visual FC runs once; the query FC runs over (Q, 1, d_text), each
    query's own one-row product, as for a single query.

    The visual FC runs over layers.row_blocks of the joined
    (T, d_frame+d_shot) rows, each block joined in float64 from features
    of any float dtype and written straight into the output's columns,
    with the values of one product bit for bit.  Under a tape that is
    one block, kept for the backward pass, and the whole stage records
    one node on fuse_w, fuse_b and the query FC's output; the features
    get no gradient.
    """
    frame, shot = (x.data if isinstance(x, Tensor) else np.asarray(x)
                   for x in (frame_feats, shot_feats))
    if frame.ndim != 2 or shot.ndim != 2 or frame.shape[0] != shot.shape[0]:
        raise DimensionError(
            f"g_r_fuse: frame {frame.shape} and shot {shot.shape} "
            f"features disagree on shot count"
        )
    d_frame, d_visual = frame.shape[1], frame.shape[1] + shot.shape[1]
    if d_visual != params.fuse_w.data.shape[0]:
        raise DimensionError(
            f"g_r_fuse: frame and shot widths {d_frame} + {shot.shape[1]} do not match "
            f"fuse_w rows {params.fuse_w.data.shape[0]}"
        )
    q = as_tensor(query_emb)
    d_text = params.query_w.data.shape[0]
    if q.data.ndim not in (1, 2) or q.data.shape[0] == 0 or q.data.shape[-1] != d_text:
        raise DimensionError(
            f"g_r_fuse: need a ({d_text},) query or a nonempty (Q, {d_text}) stack of queries, "
            f"got query shape {q.data.shape}"
        )

    qs = reshape(q, (q.data.size // d_text, 1, d_text))
    query = relu(linear_forward(qs, params.query_w, params.query_b))
    T, d_fused = len(frame), params.fuse_b.data.shape[0]
    out = Tensor(np.empty((len(query.data), T, d_fused + query.data.shape[-1])))
    visual = out.data[0, :, :d_fused]
    for block in row_blocks(T, d_visual * 8):
        x = np.concatenate((frame[block], shot[block]), axis=1, dtype=np.float64)
        v = np.matmul(x, params.fuse_w.data, out=visual[block])
        v += params.fuse_b.data
        np.maximum(v, 0.0, out=v)
    out.data[1:, :, :d_fused] = visual
    out.data[:, :, d_fused:] = query.data

    def bwd(g):
        gv = _sum_last_to_first(g[..., :d_fused]) * (visual > 0.0)
        return [x.T @ gv, gv.sum(axis=0), g[..., d_fused:].sum(axis=1, keepdims=True)]

    record(out, (params.fuse_w, params.fuse_b, query), bwd)
    return out


def g_e_encode(f_vq: Tensor, params: GeneratorParams) -> Tensor:
    """Bi-LSTM over shots, sequence normalization, ReLU, for an (n, T, d)
    stack of sequences.

    The encoder normalizes each sequence over its own shots, so training
    and inference run it the same way.  With no tape the Bi-LSTM output
    is dropped before the ReLU allocates its own.
    """
    h = bilstm_forward(f_vq, params.enc_fwd, params.enc_bwd)
    h = batchnorm_forward(h, params.enc_bn_gamma, params.enc_bn_beta)
    return relu(h)


def g_p_score(f_eq: Tensor, params: GeneratorParams, train: bool, rng=None) -> Tensor:
    """Per-shot confidence scores in (0, 1) of an (n, T, d) stack, shape
    (n, T); each sequence is normalized over its own shots."""
    h = linear_forward(f_eq, params.pred_w1, params.pred_b1)
    h = relu(batchnorm_forward(h, params.pred_bn_gamma, params.pred_bn_beta))
    h = dropout(h, params.dropout_p, train, rng)
    z = linear_forward(h, params.pred_w2, params.pred_b2)
    return sigmoid(reshape(z, z.data.shape[:-1]))


def g_g_gate(s, tau: float) -> Tensor:
    """Temperature gate k = sigmoid((2s - 1)/tau), elementwise and taped.

    Algebraically exp(s/tau) / (exp(s/tau) + exp((1-s)/tau)), written in
    the sigmoid form so small tau cannot overflow.
    """
    if tau <= 0:
        raise ConfigError(f"g_g_gate: tau must be positive, got {tau}")
    return sigmoid((as_tensor(s) * 2.0 - 1.0) * (1.0 / tau))


@dataclass
class GenForward:
    """Everything downstream consumers need from one generator pass, one
    sequence per query: f_vq and f_eq are (Q, T, d) stacks, s and k are
    (Q, T), with Q = 1 for a single query."""

    f_vq: Tensor
    f_eq: Tensor
    s: Tensor
    k: Tensor


def generator_forward(
    params: GeneratorParams, frame_feats, shot_feats, query_emb, train: bool, rng=None
) -> GenForward:
    """One video under one (d_text,) query embedding or, in eval mode, a
    (Q, d_text) stack of them.  Each query's sequence equals that of a
    one-query call bit for bit."""
    shape = np.shape(query_emb)
    if train and len(shape) == 2 and shape[0] > 1:
        raise ContractError(f"generator_forward: train mode takes one query, got {shape[0]}")
    f_vq = g_r_fuse(frame_feats, shot_feats, query_emb, params)
    f_eq = g_e_encode(f_vq, params)
    s = g_p_score(f_eq, params, train, rng)
    k = g_g_gate(s, params.tau)
    return GenForward(f_vq=f_vq, f_eq=f_eq, s=s, k=k)


def check_threshold(threshold: float) -> None:
    """Raise ConfigError unless 0 < threshold < 1, the range select_shots takes."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"select_shots: threshold must be in (0, 1), got {threshold}")


def select_shots(s, threshold: float = 0.5) -> np.ndarray:
    """Binary summary: shot t selected iff s_t > threshold (strict)."""
    check_threshold(threshold)
    scores = s.data if isinstance(s, Tensor) else np.asarray(s)
    return (scores > threshold).astype(np.uint8)
