"""Finite-difference gradient verification.

grad_check compares taped gradients of a scalar closure against central
differences, coordinate by coordinate, subsampling large parameters.  The
component suite at the bottom sweeps every layer primitive plus the full
generator-critic composite and is what the gradcheck CLI subcommand runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tape, Tensor

__all__ = ["grad_check", "component_suite", "SUITE_TOLERANCE"]

SUITE_TOLERANCE = 1e-4
_REL_FLOOR = 1e-8


def grad_check(f, params: dict, eps: float = 1e-5, seed: int = 0, max_coords: int = 512) -> float:
    """Max relative error between taped and central-difference gradients.

    f is a deterministic closure returning a scalar Tensor from the current
    data of the tensors in params (a dict name -> Tensor).  Parameters with
    more than max_coords entries are probed at a seeded random subset of
    coordinates.  The relative error denominator is max(|a|, |n|, 1e-8).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigError(f"grad_check: eps must be in [1e-7, 1e-3], got {eps}")
    with Tape(watch=params.values()) as tape:
        loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: closure produced a non-finite loss")
    tape.backward(loss)
    auto = {name: p.grad.reshape(-1).copy() for name, p in params.items()}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        if flat.size > max_coords:
            coords = np.sort(rng.choice(flat.size, size=max_coords, replace=False))
        else:
            coords = np.arange(flat.size)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f())
            flat[i] = orig - eps
            lo = float(f())
            flat[i] = orig
            num = (hi - lo) / (2.0 * eps)
            a = auto[name][i]
            err = abs(a - num) / max(abs(a), abs(num), _REL_FLOOR)
            if err > worst:
                worst = err
    return worst


def _coeffs(rng, shape, scale=0.01):
    """Linear-functional coefficients bounded away from zero.

    Small overall scale keeps finite-difference roundoff below the
    relative-error floor at coordinates whose true gradient is zero.
    """
    return rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape) * scale


def _away_from_zero(rng, shape, lo=0.1, hi=2.0):
    """Inputs for kinked activations: no coordinate within eps of the kink."""
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def component_suite(seed: int = 0) -> dict:
    """Gradient errors for every differentiable building block.

    Sweeps the layer primitives, the generator composite, the critic
    composite, and the end-to-end three-score adversarial value, all at
    tiny dimensions.  Returns an ordered mapping name -> max relative
    error; every entry should sit below SUITE_TOLERANCE.
    """
    if seed < 0:
        raise ConfigError(f"gradcheck: seed must be >= 0, got {seed}")
    from .discriminator import (
        DiscriminatorConfig,
        critic_scores,
        init_discriminator_params,
        random_scores,
        summary_repr,
    )
    from .generator import GeneratorConfig, generator_forward, init_generator_params
    from .layers import (
        LSTMParams,
        _recurrence,
        batchnorm_forward,
        bilstm_forward,
        dropout,
        linear_forward,
        lstm_cell,
        lstm_sequence,
    )
    from .tensor import mean_all, relu, sigmoid, tanh

    results = {}

    def run(name, build):
        rng = np.random.default_rng([seed, len(results)])
        f, params = build(rng)
        results[name] = grad_check(f, params, seed=seed)

    def linear_case(rng):
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((3, 5)) * 0.5)
        b = Tensor(rng.standard_normal(5) * 0.5)
        r = _coeffs(rng, (4, 5))
        return lambda: mean_all(linear_forward(x, w, b) * r), {"x": x, "w": w, "b": b}

    def activation_case(fn):
        def build(rng):
            x = Tensor(_away_from_zero(rng, (4, 5)))
            r = _coeffs(rng, (4, 5))
            return lambda: mean_all(fn(x) * r), {"x": x}

        return build

    def batchnorm_case(rng):
        x = Tensor(rng.standard_normal((6, 4)))
        gamma = Tensor(rng.uniform(0.5, 1.5, 4))
        beta = Tensor(rng.standard_normal(4) * 0.5)
        r = _coeffs(rng, (6, 4))
        return lambda: mean_all(batchnorm_forward(x, gamma, beta) * r), {
            "x": x, "gamma": gamma, "beta": beta}

    def dropout_case(rng):
        x = Tensor(rng.standard_normal((5, 4)))
        r = _coeffs(rng, (5, 4))
        mask_seed = int(rng.integers(1 << 30))

        def f():
            out = dropout(x, 0.5, True, np.random.default_rng(mask_seed))
            return mean_all(out * r)

        return f, {"x": x}

    def lstm_cell_case(rng):
        params = LSTMParams.create(3, 4, rng)
        x = Tensor(rng.standard_normal(3))
        h0 = Tensor(rng.standard_normal(4) * 0.5)
        c0 = Tensor(rng.standard_normal(4) * 0.5)
        r1 = _coeffs(rng, 4)
        r2 = _coeffs(rng, 4)

        def f():
            h, c = lstm_cell(x, h0, c0, params)
            return mean_all(h * r1) + mean_all(c * r2)

        targets = {"wx": params.w_x, "wh": params.w_h, "b": params.b,
                   "x": x, "h0": h0, "c0": c0}
        return f, targets

    def lstm_sequence_case(rng):
        params = LSTMParams.create(3, 4, rng)
        seq = Tensor(rng.standard_normal((4, 3)))
        r = _coeffs(rng, (4, 4))
        f = lambda: mean_all(lstm_sequence(seq, params) * r)
        return f, {"wx": params.w_x, "wh": params.w_h, "b": params.b, "seq": seq}

    def bilstm_case(n):
        def build(rng):
            fwd = LSTMParams.create(3, 4, rng)
            bwd = LSTMParams.create(3, 4, rng)
            seq = Tensor(rng.standard_normal((n, 4, 3)))
            r = _coeffs(rng, (n, 4, 8))
            f = lambda: mean_all(bilstm_forward(seq, fwd, bwd) * r)
            targets = {"fwd_wx": fwd.w_x, "fwd_wh": fwd.w_h, "fwd_b": fwd.b,
                       "bwd_wx": bwd.w_x, "bwd_wh": bwd.w_h, "bwd_b": bwd.b, "seq": seq}
            return f, targets

        return build

    def recurrence_mixed_case(rng):
        # two groups of different input width and sequence count, as in
        # the critic's video and summary branches
        groups, targets = [], {}
        for g, (d_in, n) in enumerate(((3, 1), (5, 2))):
            fwd = LSTMParams.create(d_in, 4, rng)
            bwd = LSTMParams.create(d_in, 4, rng)
            seq = Tensor(rng.standard_normal((n, 4, d_in)))
            groups.append((seq, [(fwd, False), (bwd, True)]))
            targets.update({f"g{g}_fwd_wx": fwd.w_x, f"g{g}_fwd_wh": fwd.w_h, f"g{g}_fwd_b": fwd.b,
                            f"g{g}_bwd_wx": bwd.w_x, f"g{g}_bwd_wh": bwd.w_h, f"g{g}_bwd_b": bwd.b,
                            f"g{g}_seq": seq})
        r = _coeffs(rng, (3, 4, 8))
        return lambda: mean_all(_recurrence(groups, "recurrence") * r), targets

    gen_cfg = GeneratorConfig(
        d_frame=6, d_shot=8, d_text=4, d_fused=8, d_qenc=4, d_h=8, d_pred=8
    )

    def generator_case(rng):
        params = init_generator_params(gen_cfg, rng)
        frame = rng.standard_normal((5, gen_cfg.d_frame))
        shot = rng.standard_normal((5, gen_cfg.d_shot))
        q = rng.standard_normal(gen_cfg.d_text)
        r1 = _coeffs(rng, 5)
        r2 = _coeffs(rng, 5)
        mask_seed = int(rng.integers(1 << 30))

        def f():
            fwd = generator_forward(
                params, frame, shot, q, train=True, rng=np.random.default_rng(mask_seed)
            )
            return mean_all(fwd.s * r1) + mean_all(fwd.k * r2)

        return f, params.tensors()

    disc_cfg = DiscriminatorConfig(
        d_summ_in=2 * gen_cfg.d_h,
        d_vid_in=gen_cfg.d_fused + gen_cfg.d_qenc,
        d_h=8, d_fc1=8, d_fc2=6, d_fc3=4,
    )

    def critic_case(rng):
        params = init_discriminator_params(disc_cfg, rng)
        f_eq = Tensor(rng.standard_normal((1, 5, disc_cfg.d_summ_in)))
        f_vq = Tensor(rng.standard_normal((1, 5, disc_cfg.d_vid_in)))
        scores = Tensor(rng.uniform(0.2, 0.8, (1, 5)))

        def f():
            from .discriminator import critic

            summ = summary_repr(f_eq, scores)
            return critic(summ, f_vq, params) * 0.01

        targets = dict(params.tensors())
        targets.update({"in_f_eq": f_eq, "in_f_vq": f_vq, "in_scores": scores})
        return f, targets

    def generator_critic_case(rng):
        gparams = init_generator_params(gen_cfg, rng)
        dparams = init_discriminator_params(disc_cfg, rng)
        frame = rng.standard_normal((5, gen_cfg.d_frame))
        shot = rng.standard_normal((5, gen_cfg.d_shot))
        q = rng.standard_normal(gen_cfg.d_text)
        gt = rng.integers(0, 2, 5).astype(np.float64)
        rand = random_scores(5, rng)
        mask_seed = int(rng.integers(1 << 30))

        def f():
            fwd = generator_forward(
                params=gparams, frame_feats=frame, shot_feats=shot, query_emb=q,
                train=True, rng=np.random.default_rng(mask_seed),
            )
            summs = [
                summary_repr(fwd.f_eq, gt[None]),
                summary_repr(fwd.f_eq, fwd.s),
                summary_repr(fwd.f_eq, rand[None]),
            ]
            d_g, d_q, d_r = critic_scores(summs, fwd.f_vq, dparams)
            return (d_g - d_q * 0.5 - d_r * 0.5) * 0.01

        targets = {f"gen/{k}": v for k, v in gparams.tensors().items()}
        targets.update({f"disc/{k}": v for k, v in dparams.tensors().items()})
        return f, targets

    run("linear", linear_case)
    run("sigmoid", activation_case(sigmoid))
    run("tanh", activation_case(tanh))
    run("relu", activation_case(relu))
    run("batchnorm", batchnorm_case)
    run("dropout", dropout_case)
    run("lstm-cell", lstm_cell_case)
    run("lstm-sequence", lstm_sequence_case)
    run("bilstm", bilstm_case(1))
    run("generator", generator_case)
    run("critic", critic_case)
    run("generator-critic", generator_critic_case)
    run("bilstm-batched", bilstm_case(3))
    run("recurrence-mixed-width", recurrence_mixed_case)
    return results
