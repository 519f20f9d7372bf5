"""The shot-scoring generator.

Four stages: fuse visual features with an encoded query, run a Bi-LSTM
over the fused sequence, predict a per-shot confidence score in (0, 1),
and squash the scores through a low-temperature gate that pushes them
toward a near-binary summary mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .layers import (
    LSTMParams,
    batchnorm_forward,
    bilstm_forward,
    dropout,
    init_linear,
    linear_forward,
    lstm_shapes,
    named_tensors,
    relu,
)
from .tensor import Tensor, as_tensor, concat_cols, reshape, sigmoid, tile_rows

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
    "select_shots",
]


@dataclass(frozen=True)
class GeneratorConfig:
    d_frame: int = 32
    d_shot: int = 48
    d_text: int = 16
    d_fused: int = 64
    d_qenc: int = 16
    d_h: int = 32
    d_pred: int = 32
    tau: float = 0.1
    dropout_p: float = 0.5

    def __post_init__(self):
        for name in ("d_frame", "d_shot", "d_text", "d_fused", "d_qenc", "d_h", "d_pred"):
            if getattr(self, name) < 1:
                raise ConfigError(f"generator: {name} must be >= 1, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ConfigError(f"generator: tau must be positive, got {self.tau}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"generator: dropout_p must be in [0, 1), got {self.dropout_p}")

    @classmethod
    def paper_scale(cls, **overrides) -> "GeneratorConfig":
        base = dict(
            d_frame=2048, d_shot=4096, d_text=300,
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
    """Fresh parameters; rng draws happen in a fixed field order."""
    fuse_w, fuse_b = init_linear(cfg.d_frame + cfg.d_shot, cfg.d_fused, rng)
    query_w, query_b = init_linear(cfg.d_text, cfg.d_qenc, rng)
    d_enc_in = cfg.d_fused + cfg.d_qenc
    enc_fwd = LSTMParams.create(d_enc_in, cfg.d_h, rng)
    enc_bwd = LSTMParams.create(d_enc_in, cfg.d_h, rng)
    pred_w1, pred_b1 = init_linear(2 * cfg.d_h, cfg.d_pred, rng)
    pred_w2, pred_b2 = init_linear(cfg.d_pred, 1, rng)
    return GeneratorParams(
        fuse_w=fuse_w,
        fuse_b=fuse_b,
        query_w=query_w,
        query_b=query_b,
        enc_fwd=enc_fwd,
        enc_bwd=enc_bwd,
        enc_bn_gamma=Tensor(np.ones(2 * cfg.d_h)),
        enc_bn_beta=Tensor(np.zeros(2 * cfg.d_h)),
        pred_w1=pred_w1,
        pred_b1=pred_b1,
        pred_bn_gamma=Tensor(np.ones(cfg.d_pred)),
        pred_bn_beta=Tensor(np.zeros(cfg.d_pred)),
        pred_w2=pred_w2,
        pred_b2=pred_b2,
        tau=cfg.tau,
        dropout_p=cfg.dropout_p,
    )


def generator_shapes(cfg: GeneratorConfig) -> dict:
    """Shapes of init_generator_params(cfg).tensors().

    Same keys in the same order, computed from the config alone so a
    loader can check a file's sizes before it allocates anything.
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
    """Query-conditioned per-shot representation.

    concat(frame, shot) -> FC -> ReLU gives the visual half; the query
    embedding goes through its own FC -> ReLU and is broadcast to every
    shot row.  Output rows are concat(visual, query), (T, d_fused+d_qenc).
    """
    frame = as_tensor(frame_feats)
    shot = as_tensor(shot_feats)
    if frame.data.ndim != 2 or shot.data.ndim != 2 or frame.data.shape[0] != shot.data.shape[0]:
        raise DimensionError(
            f"g_r_fuse: frame {frame.data.shape} and shot {shot.data.shape} "
            f"features disagree on shot count"
        )
    T = frame.data.shape[0]
    visual = relu(linear_forward(concat_cols(frame, shot), params.fuse_w, params.fuse_b))
    q = as_tensor(query_emb)
    q2 = reshape(q, (1, q.data.size))
    encoded = relu(linear_forward(q2, params.query_w, params.query_b))
    return concat_cols(visual, tile_rows(encoded, T))


def _seq_norm(h: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the time axis by the current sequence's statistics.

    The batch axis inside the generator is time within one video, so
    per-sequence statistics are the meaningful ones: a summary then
    depends only on that video and the parameters.  Global running
    averages of the per-sequence stats would not transfer to an unseen
    video whose shots center elsewhere, so none are kept, and training
    and inference normalize the same way.
    """
    return batchnorm_forward(h, gamma, beta, "train", None)


def g_e_encode(f_vq: Tensor, params: GeneratorParams) -> Tensor:
    """Bi-LSTM over shots, sequence normalization, ReLU.

    The encoder normalizes per sequence, so training and inference run
    it the same way.
    """
    h = bilstm_forward(f_vq, params.enc_fwd, params.enc_bwd)
    return relu(_seq_norm(h, params.enc_bn_gamma, params.enc_bn_beta))


def g_p_score(f_eq: Tensor, params: GeneratorParams, train: bool, rng=None) -> Tensor:
    """Per-shot confidence scores in (0, 1), shape (T,)."""
    h = linear_forward(f_eq, params.pred_w1, params.pred_b1)
    h = relu(_seq_norm(h, params.pred_bn_gamma, params.pred_bn_beta))
    h = dropout(h, params.dropout_p, train, rng)
    z = linear_forward(h, params.pred_w2, params.pred_b2)
    return sigmoid(reshape(z, (z.data.shape[0],)))


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
    """Everything downstream consumers need from one generator pass."""

    f_vq: Tensor
    f_eq: Tensor
    s: Tensor
    k: Tensor


def generator_forward(
    params: GeneratorParams, frame_feats, shot_feats, query_emb, train: bool, rng=None
) -> GenForward:
    f_vq = g_r_fuse(frame_feats, shot_feats, query_emb, params)
    f_eq = g_e_encode(f_vq, params)
    s = g_p_score(f_eq, params, train, rng)
    k = g_g_gate(s, params.tau)
    return GenForward(f_vq=f_vq, f_eq=f_eq, s=s, k=k)


def select_shots(s, threshold: float = 0.5) -> np.ndarray:
    """Binary summary: shot t selected iff s_t > threshold (strict)."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"select_shots: threshold must be in (0, 1), got {threshold}")
    scores = s.data if isinstance(s, Tensor) else np.asarray(s)
    return (scores > threshold).astype(np.uint8)
