"""Squared-gradient-average optimizer and weight clipping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["OptimizerState", "rmsprop_step", "clip_weights"]

RMS_EPS = 1e-8


@dataclass
class OptimizerState:
    """Per-parameter accumulators for the squared-gradient moving average."""

    acc: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "OptimizerState":
        # np.zeros leaves its pages unwritten until the first update or load
        return cls(acc={name: np.zeros(p.data.shape) for name, p in params.items()})


def rmsprop_step(
    params: dict, state: OptimizerState, lr: float, decay: float = 0.9
) -> None:
    """acc = decay*acc + (1-decay)*g^2; p -= lr*g/sqrt(acc + eps), in place.

    Parameters whose .grad is None are treated as zero-gradient: their
    accumulator decays and their value stays put.  Every gradient is
    checked before any tensor changes, so a non-finite one raises
    NumericError, naming the first such tensor, with every parameter,
    accumulator and the step count as they were.  Each tensor's update
    runs the IEEE operations of that formula, in the order of the
    expression ((1-decay)*g)*g, acc + eps, (lr*g) / sqrt(...), in two
    float64 temporaries of its size.
    """
    if lr <= 0.0:
        raise ConfigError(f"rmsprop_step: lr must be positive, got {lr}")
    if not 0.0 <= decay < 1.0:
        raise ConfigError(f"rmsprop_step: decay must be in [0, 1), got {decay}")
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(f"rmsprop_step: non-finite gradient for {name!r}")
    for name, p in params.items():
        acc = state.acc[name]
        g = p.grad
        acc *= decay
        if g is None:
            continue
        step = np.multiply(1.0 - decay, g)
        step *= g
        acc += step
        denom = np.add(acc, RMS_EPS)
        np.sqrt(denom, out=denom)
        np.multiply(lr, g, out=step)
        step /= denom
        p.data -= step
    state.step += 1


def clip_weights(params, c: float) -> None:
    """Clamp every tensor into [-c, c] in place."""
    if c <= 0.0:
        raise ConfigError(f"clip_weights: c must be positive, got {c}")
    tensors = params.values() if isinstance(params, dict) else params
    for p in tensors:
        np.clip(p.data, -c, c, out=p.data)
