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
    RunningStats,
    batchnorm_forward,
    bilstm_forward,
    dropout,
    init_linear,
    linear_forward,
    lstm_shapes,
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
    "select_top_gamma",
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
    enc_bn_stats: RunningStats
    pred_bn_stats: RunningStats
    tau: float
    dropout_p: float

    def tensors(self) -> dict:
        """Trainable tensors in a stable order, keyed for optimizers and checkpoints."""
        return {
            "fuse_w": self.fuse_w,
            "fuse_b": self.fuse_b,
            "query_w": self.query_w,
            "query_b": self.query_b,
            "enc_fwd_wx": self.enc_fwd.w_x,
            "enc_fwd_wh": self.enc_fwd.w_h,
            "enc_fwd_b": self.enc_fwd.b,
            "enc_bwd_wx": self.enc_bwd.w_x,
            "enc_bwd_wh": self.enc_bwd.w_h,
            "enc_bwd_b": self.enc_bwd.b,
            "enc_bn_gamma": self.enc_bn_gamma,
            "enc_bn_beta": self.enc_bn_beta,
            "pred_w1": self.pred_w1,
            "pred_b1": self.pred_b1,
            "pred_bn_gamma": self.pred_bn_gamma,
            "pred_bn_beta": self.pred_bn_beta,
            "pred_w2": self.pred_w2,
            "pred_b2": self.pred_b2,
        }

    def stats(self) -> dict:
        return {"enc_bn": self.enc_bn_stats, "pred_bn": self.pred_bn_stats}


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
        enc_bn_stats=RunningStats.create(2 * cfg.d_h),
        pred_bn_stats=RunningStats.create(cfg.d_pred),
        tau=cfg.tau,
        dropout_p=cfg.dropout_p,
    )


def generator_shapes(cfg: GeneratorConfig) -> tuple[dict, dict]:
    """Shapes of init_generator_params(cfg): its tensors() and its stats().

    Same keys in the same order, computed from the config alone so a
    loader can check a file's sizes before it allocates anything.
    """
    d_in, h2 = cfg.d_fused + cfg.d_qenc, 2 * cfg.d_h
    tensors = {
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
    return tensors, {"enc_bn": (h2,), "pred_bn": (cfg.d_pred,)}


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


def _seq_norm(h: Tensor, gamma: Tensor, beta: Tensor, stats, train: bool) -> Tensor:
    """Normalize over the time axis by the current sequence's statistics.

    The batch axis inside the generator is time within one video, so
    per-sequence statistics are the meaningful ones: a summary then
    depends only on that video and the parameters.  Global running
    averages of the per-sequence stats would not transfer to an unseen
    video whose shots center elsewhere.  Training still folds batch
    stats into the running buffers (checkpoints carry them); inference
    normalizes the same way but discards the update.
    """
    if train:
        return batchnorm_forward(h, gamma, beta, "train", stats)
    return batchnorm_forward(h, gamma, beta, "train", stats.copy())


def g_e_encode(f_vq: Tensor, params: GeneratorParams, train: bool) -> Tensor:
    """Bi-LSTM over shots, sequence normalization, ReLU."""
    h = bilstm_forward(f_vq, params.enc_fwd, params.enc_bwd)
    h = _seq_norm(h, params.enc_bn_gamma, params.enc_bn_beta, params.enc_bn_stats, train)
    return relu(h)


def g_p_score(f_eq: Tensor, params: GeneratorParams, train: bool, rng=None) -> Tensor:
    """Per-shot confidence scores in (0, 1), shape (T,)."""
    h = linear_forward(f_eq, params.pred_w1, params.pred_b1)
    h = _seq_norm(h, params.pred_bn_gamma, params.pred_bn_beta, params.pred_bn_stats, train)
    h = relu(h)
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
    f_eq = g_e_encode(f_vq, params, train)
    s = g_p_score(f_eq, params, train, rng)
    k = g_g_gate(s, params.tau)
    return GenForward(f_vq=f_vq, f_eq=f_eq, s=s, k=k)


def select_shots(s, threshold: float = 0.5) -> np.ndarray:
    """Binary summary: shot t selected iff s_t > threshold (strict)."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"select_shots: threshold must be in (0, 1), got {threshold}")
    scores = s.data if isinstance(s, Tensor) else np.asarray(s)
    return (scores > threshold).astype(np.uint8)


def select_top_gamma(s, gamma: float) -> np.ndarray:
    """Alternative binarization: the ceil(gamma*T) highest-scoring shots."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"select_top_gamma: gamma must be in [0, 1], got {gamma}")
    scores = s.data if isinstance(s, Tensor) else np.asarray(s)
    T = scores.shape[0]
    n = int(np.ceil(gamma * T))
    out = np.zeros(T, dtype=np.uint8)
    if n > 0:
        # stable order: ties resolved toward lower shot index
        top = np.argsort(-scores, kind="stable")[:n]
        out[top] = 1
    return out
