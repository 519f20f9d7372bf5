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

from .errors import ContractError, DimensionError, check_fields
from .generator import GeneratorConfig
# bilstm_forward stays importable here: perfbench/tracing.py wraps this name
from .layers import (  # noqa: F401
    LSTMParams,
    _recurrence,
    batchnorm_forward,
    bilstm_forward,
    from_named,
    init_arrays,
    linear_forward,
    lstm_shapes,
    named_tensors,
)
from .tensor import (
    Tensor,
    as_tensor,
    concat_cols,
    concat_rows,
    mean_rows,
    mul,
    relu,
    reshape,
    slice_rows,
)

__all__ = [
    "DiscriminatorConfig",
    "DiscriminatorParams",
    "init_discriminator_params",
    "discriminator_shapes",
    "summary_repr",
    "random_scores",
    "critic",
    "critic_scores",
]

@dataclass(frozen=True)
class DiscriminatorConfig:
    d_summ_in: int = 64
    d_vid_in: int = 80
    d_h: int = 16
    d_fc1: int = 64
    d_fc2: int = 32
    d_fc3: int = 16

    def __post_init__(self):
        check_fields(self, "discriminator", min_int=1)

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

    def tensors(self) -> dict:
        """Trainable tensors in field order, keyed for optimizers and checkpoints."""
        return named_tensors(self)


def init_discriminator_params(cfg: DiscriminatorConfig, rng) -> DiscriminatorParams:
    """Fresh parameters, drawn in the key order of discriminator_shapes(cfg)
    by layers.init_arrays; rng None allocates them undrawn."""
    return from_named(DiscriminatorParams, init_arrays(discriminator_shapes(cfg), rng))


def discriminator_shapes(cfg: DiscriminatorConfig) -> dict:
    """The critic's parameter layout: name -> shape, in field order.

    The one declaration of the parameters, as generator_shapes is for
    the generator.
    """
    h2, h4 = 2 * cfg.d_h, 4 * cfg.d_h
    return {
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


def summary_repr(f_eq, scores) -> Tensor:
    """A score-weighted copy of an (n, T, d) stack of encoded shot
    sequences: row t of sequence i is scaled by scores[i, t], (n, T).

    The scaling stays on the tape, so gradients flow back into both the
    encoding and the scores (the generated-summary path needs the latter).
    """
    f_eq = as_tensor(f_eq)
    scores = as_tensor(scores)
    if f_eq.data.ndim != 3 or scores.data.shape != f_eq.data.shape[:2]:
        raise DimensionError(
            f"summary_repr: encoding {f_eq.data.shape} and scores "
            f"{scores.data.shape} disagree on shot count"
        )
    return mul(f_eq, reshape(scores, scores.data.shape + (1,)))


def random_scores(T: int, rng) -> np.ndarray:
    """Fair coin per shot, as float64 zeros and ones."""
    return rng.integers(0, 2, size=T).astype(np.float64)


def _pool(h, gamma, beta):
    """An (n, T, 2d_h) stack normalized per sequence and mean-pooled to (n, 2d_h)."""
    return mean_rows(relu(batchnorm_forward(h, gamma, beta)))


def _head(u, v, params) -> Tensor:
    """(n, 1, 1) critic values of an (n, 1, 2d_h) summary stack beside a (1, 2d_h) video."""
    h = concat_cols(u, v)
    h = relu(linear_forward(h, params.fc1_w, params.fc1_b))
    h = relu(linear_forward(h, params.fc2_w, params.fc2_b))
    h = relu(linear_forward(h, params.fc3_w, params.fc3_b))
    return linear_forward(h, params.out_w, params.out_b)


def critic(summ, f_vq, params: DiscriminatorParams) -> Tensor:
    """Scalar critic value for one (summary, video) pair of (1, T, d) stacks."""
    return critic_scores([summ], f_vq, params)[0]


def critic_scores(summs, f_vq, params: DiscriminatorParams) -> list:
    """Score one or more summaries of one video, one scalar per summary.

    f_vq is the video's (1, T, d_vid_in) stack and each summary a
    (1, T, d_summ_in) stack.  The video branch runs once and is shared,
    which is value-identical to repeating it per summary.  The video and
    the stacked summaries go through one recurrence call: both
    directions of the video and of every summary advance in a single
    time loop, with values equal to encoding each alone.  The video and
    the summaries are then normalized and pooled as two stacks, each
    sequence over its own T shots.  One head pass scores the (n, 1, 4d_h)
    stack of pooled summaries, each beside the broadcast video row.
    """
    f_vq = as_tensor(f_vq)
    if f_vq.data.ndim != 3 or f_vq.data.shape[0] != 1:
        raise DimensionError(f"critic: need a (1, T, d) video, got {f_vq.data.shape}")
    T = f_vq.data.shape[1]
    seqs = [as_tensor(summ) for summ in summs]
    if not seqs:
        raise ContractError("critic: no summary to score")
    for seq in seqs:
        if seq.data.ndim != 3 or seq.data.shape[:2] != (1, T):
            raise DimensionError(
                f"critic: summary has shape {seq.data.shape} but video has {T} shots"
            )
    h = _recurrence([(f_vq, [(params.vid_fwd, False), (params.vid_bwd, True)]),
                     (concat_rows(seqs), [(params.summ_fwd, False), (params.summ_bwd, True)])],
                    "critic")
    v = _pool(slice_rows(h, 0, 1), params.vid_bn_gamma, params.vid_bn_beta)
    u = _pool(slice_rows(h, 1, len(h.data)), params.summ_bn_gamma, params.summ_bn_beta)
    d = _head(reshape(u, (len(seqs), 1, -1)), v, params)
    if len(seqs) == 1:  # the generator step: one op to the scalar, no slice
        return [reshape(d, ())]
    return [reshape(slice_rows(d, i, i + 1), ()) for i in range(len(seqs))]
