"""The three-player critic.

One shared network scores (summary, video) pairs: each branch runs a
Bi-LSTM, batchnorm, ReLU and a temporal mean pool, the two pooled
vectors are concatenated, and a small FC stack emits an unbounded
scalar.  No sigmoid at the end; the scalar is a Wasserstein critic
value, not a probability.  The generated, ground-truth and random
summaries of one step are all scored against the same video encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .generator import GeneratorConfig
# bilstm_forward stays importable here: perfbench/tracing.py wraps this name
from .layers import (  # noqa: F401
    LSTMParams,
    RunningStats,
    _recurrence,
    batchnorm_forward,
    bilstm_forward,
    init_linear,
    linear_forward,
    lstm_shapes,
    named_tensors,
    relu,
)
from .tensor import (
    Tensor,
    as_tensor,
    concat_cols,
    concat_rows,
    mean_rows,
    mul,
    reshape,
    slice_rows,
)

__all__ = [
    "SUMMARY_TAGS",
    "DiscriminatorConfig",
    "DiscriminatorParams",
    "SummaryRepr",
    "init_discriminator_params",
    "discriminator_shapes",
    "summary_repr",
    "random_scores",
    "critic",
    "critic_scores",
]

SUMMARY_TAGS = ("generated", "ground-truth", "random")


@dataclass(frozen=True)
class DiscriminatorConfig:
    d_summ_in: int = 64
    d_vid_in: int = 80
    d_h: int = 16
    d_fc1: int = 64
    d_fc2: int = 32
    d_fc3: int = 16

    def __post_init__(self):
        for name in ("d_summ_in", "d_vid_in", "d_h", "d_fc1", "d_fc2", "d_fc3"):
            if getattr(self, name) < 1:
                raise ConfigError(f"discriminator: {name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def for_generator(cls, gen_cfg: GeneratorConfig, **overrides) -> "DiscriminatorConfig":
        """Branch input widths implied by a generator configuration."""
        base = dict(d_summ_in=2 * gen_cfg.d_h, d_vid_in=gen_cfg.d_fused + gen_cfg.d_qenc)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def paper_scale(cls, gen_cfg: GeneratorConfig | None = None, **overrides) -> "DiscriminatorConfig":
        gen_cfg = gen_cfg if gen_cfg is not None else GeneratorConfig.paper_scale()
        base = dict(d_h=256, d_fc1=512, d_fc2=256, d_fc3=128)
        base.update(overrides)
        return cls.for_generator(gen_cfg, **base)


@dataclass
class DiscriminatorParams:
    summ_fwd: LSTMParams
    summ_bwd: LSTMParams
    summ_bn_gamma: Tensor
    summ_bn_beta: Tensor
    vid_fwd: LSTMParams
    vid_bwd: LSTMParams
    vid_bn_gamma: Tensor
    vid_bn_beta: Tensor
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor
    fc3_w: Tensor
    fc3_b: Tensor
    out_w: Tensor
    out_b: Tensor
    summ_bn_stats: RunningStats
    vid_bn_stats: RunningStats

    def tensors(self) -> dict:
        """Trainable tensors in field order, keyed for optimizers and checkpoints."""
        return named_tensors(self)

    def stats(self) -> dict:
        return {"summ_bn": self.summ_bn_stats, "vid_bn": self.vid_bn_stats}


def init_discriminator_params(cfg: DiscriminatorConfig, rng) -> DiscriminatorParams:
    """Fresh parameters; rng draws happen in a fixed field order."""
    summ_fwd = LSTMParams.create(cfg.d_summ_in, cfg.d_h, rng)
    summ_bwd = LSTMParams.create(cfg.d_summ_in, cfg.d_h, rng)
    vid_fwd = LSTMParams.create(cfg.d_vid_in, cfg.d_h, rng)
    vid_bwd = LSTMParams.create(cfg.d_vid_in, cfg.d_h, rng)
    fc1_w, fc1_b = init_linear(4 * cfg.d_h, cfg.d_fc1, rng)
    fc2_w, fc2_b = init_linear(cfg.d_fc1, cfg.d_fc2, rng)
    fc3_w, fc3_b = init_linear(cfg.d_fc2, cfg.d_fc3, rng)
    out_w, out_b = init_linear(cfg.d_fc3, 1, rng)
    return DiscriminatorParams(
        summ_fwd=summ_fwd,
        summ_bwd=summ_bwd,
        summ_bn_gamma=Tensor(np.ones(2 * cfg.d_h)),
        summ_bn_beta=Tensor(np.zeros(2 * cfg.d_h)),
        vid_fwd=vid_fwd,
        vid_bwd=vid_bwd,
        vid_bn_gamma=Tensor(np.ones(2 * cfg.d_h)),
        vid_bn_beta=Tensor(np.zeros(2 * cfg.d_h)),
        fc1_w=fc1_w,
        fc1_b=fc1_b,
        fc2_w=fc2_w,
        fc2_b=fc2_b,
        fc3_w=fc3_w,
        fc3_b=fc3_b,
        out_w=out_w,
        out_b=out_b,
        summ_bn_stats=RunningStats.create(2 * cfg.d_h),
        vid_bn_stats=RunningStats.create(2 * cfg.d_h),
    )


def discriminator_shapes(cfg: DiscriminatorConfig) -> tuple[dict, dict]:
    """Shapes of init_discriminator_params(cfg): its tensors() and its stats().

    Same keys in the same order, computed from the config alone.
    """
    h2, h4 = 2 * cfg.d_h, 4 * cfg.d_h
    tensors = {
        **lstm_shapes("summ_fwd", cfg.d_summ_in, cfg.d_h),
        **lstm_shapes("summ_bwd", cfg.d_summ_in, cfg.d_h),
        "summ_bn_gamma": (h2,),
        "summ_bn_beta": (h2,),
        **lstm_shapes("vid_fwd", cfg.d_vid_in, cfg.d_h),
        **lstm_shapes("vid_bwd", cfg.d_vid_in, cfg.d_h),
        "vid_bn_gamma": (h2,),
        "vid_bn_beta": (h2,),
        "fc1_w": (h4, cfg.d_fc1),
        "fc1_b": (cfg.d_fc1,),
        "fc2_w": (cfg.d_fc1, cfg.d_fc2),
        "fc2_b": (cfg.d_fc2,),
        "fc3_w": (cfg.d_fc2, cfg.d_fc3),
        "fc3_b": (cfg.d_fc3,),
        "out_w": (cfg.d_fc3, 1),
        "out_b": (1,),
    }
    return tensors, {"summ_bn": (h2,), "vid_bn": (h2,)}


@dataclass
class SummaryRepr:
    """A score-weighted copy of the encoded shot sequence."""

    seq: Tensor
    tag: str


def summary_repr(f_eq, scores, tag: str) -> SummaryRepr:
    """Row t of the output is f_eq row t scaled by scores[t].

    The scaling stays on the tape, so gradients flow back into both the
    encoding and the scores (the generated-summary path needs the latter).
    """
    if tag not in SUMMARY_TAGS:
        raise ConfigError(f"summary_repr: unknown tag {tag!r}, expected one of {SUMMARY_TAGS}")
    f_eq = as_tensor(f_eq)
    scores = as_tensor(scores)
    if f_eq.data.ndim != 2 or scores.data.ndim != 1 or f_eq.data.shape[0] != scores.data.shape[0]:
        raise DimensionError(
            f"summary_repr: encoding {f_eq.data.shape} and scores "
            f"{scores.data.shape} disagree on shot count"
        )
    T = scores.data.shape[0]
    return SummaryRepr(seq=mul(f_eq, reshape(scores, (T, 1))), tag=tag)


def random_scores(T: int, rng) -> np.ndarray:
    """Fair coin per shot, as float64 zeros and ones."""
    return rng.integers(0, 2, size=T).astype(np.float64)


def _pool(h, gamma, beta, stats, mode):
    h = relu(batchnorm_forward(h, gamma, beta, mode, stats))
    pooled = mean_rows(h)
    return reshape(pooled, (1, pooled.data.size))


def _head(u, v, params) -> Tensor:
    h = concat_cols(u, v)
    h = relu(linear_forward(h, params.fc1_w, params.fc1_b))
    h = relu(linear_forward(h, params.fc2_w, params.fc2_b))
    h = relu(linear_forward(h, params.fc3_w, params.fc3_b))
    return reshape(linear_forward(h, params.out_w, params.out_b), ())


def _summary_seq(summ) -> Tensor:
    return summ.seq if isinstance(summ, SummaryRepr) else as_tensor(summ)


def critic(summ, f_vq, params: DiscriminatorParams, train: bool) -> Tensor:
    """Scalar critic value for one (summary, video) pair."""
    return critic_scores([summ], f_vq, params, train)[0]


def critic_scores(summs, f_vq, params: DiscriminatorParams, train: bool) -> list:
    """Score several summaries of one video, one scalar per summary.

    The video branch runs once and is shared: batchnorm in train mode
    normalizes by batch statistics, so sharing is value-identical to
    repeating it per summary and skips the repeated running-stat
    updates.  The video and the summaries, stacked by rows, go through
    one recurrence call: both directions of the video and of every
    summary advance in a single time loop, with values equal to encoding
    each alone.  The encodings are then split back; the summaries pass
    the summary batchnorm one at a time, in list order, so its running
    stats see the same updates as with one critic call per summary.
    """
    f_vq = as_tensor(f_vq)
    T = f_vq.data.shape[0]
    seqs = [_summary_seq(summ) for summ in summs]
    for seq in seqs:
        if seq.data.shape[0] != T:
            raise DimensionError(
                f"critic: summary has {seq.data.shape[0]} shots but video has {T}"
            )
    mode = "train" if train else "eval"
    groups = [(f_vq, 1, [(params.vid_fwd, False), (params.vid_bwd, True)])]
    if seqs:
        groups.append((concat_rows(seqs), len(seqs),
                       [(params.summ_fwd, False), (params.summ_bwd, True)]))
    h = _recurrence(groups, "critic")
    v = _pool(
        slice_rows(h, 0, T),
        params.vid_bn_gamma, params.vid_bn_beta, params.vid_bn_stats, mode,
    )
    out = []
    for i in range(1, len(seqs) + 1):
        u = _pool(
            slice_rows(h, i * T, (i + 1) * T),
            params.summ_bn_gamma, params.summ_bn_beta, params.summ_bn_stats, mode,
        )
        out.append(_head(u, v, params))
    return out
