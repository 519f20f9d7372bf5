import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import max_rel_err
from qsumm.discriminator import (
    SUMMARY_TAGS,
    DiscriminatorConfig,
    SummaryRepr,
    critic,
    critic_scores,
    discriminator_shapes,
    init_discriminator_params,
    random_scores,
    summary_repr,
)
from qsumm.errors import ConfigError, DimensionError
from qsumm.gradcheck import grad_check
from qsumm.tensor import Tape, Tensor

TINY = DiscriminatorConfig(d_summ_in=10, d_vid_in=12, d_h=6, d_fc1=8, d_fc2=6, d_fc3=4)


def tiny_params(seed=0):
    return init_discriminator_params(TINY, np.random.default_rng(seed))


def tiny_inputs(T=5, seed=1):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((T, TINY.d_summ_in)),
        rng.standard_normal((T, TINY.d_vid_in)),
    )


class TestSummaryRepr:
    def test_unit_scores_identity(self):
        f_eq, _ = tiny_inputs(4)
        out = summary_repr(f_eq, np.ones(4), "ground-truth")
        assert_allclose(out.seq.data, f_eq)
        assert out.tag == "ground-truth"

    def test_zero_scores(self):
        f_eq, _ = tiny_inputs(4)
        out = summary_repr(f_eq, np.zeros(4), "random")
        assert_allclose(out.seq.data, np.zeros_like(f_eq))

    def test_per_row_scaling(self):
        f_eq = np.array([[1.0, 2.0, 4.0], [3.0, -1.0, 0.5]])
        out = summary_repr(f_eq, np.array([0.5, 1.0]), "generated")
        assert_allclose(out.seq.data, [[0.5, 1.0, 2.0], [3.0, -1.0, 0.5]])

    def test_linear_in_scores(self):
        rng = np.random.default_rng(2)
        f_eq, _ = tiny_inputs(6)
        s = rng.uniform(0, 1, 6)
        base = summary_repr(f_eq, s, "generated").seq.data
        scaled = summary_repr(f_eq, 0.25 * s, "generated").seq.data
        assert_allclose(scaled, 0.25 * base, atol=1e-15)

    def test_length_mismatch(self):
        f_eq, _ = tiny_inputs(4)
        with pytest.raises(DimensionError):
            summary_repr(f_eq, np.ones(5), "generated")

    def test_unknown_tag(self):
        f_eq, _ = tiny_inputs(2)
        with pytest.raises(ConfigError):
            summary_repr(f_eq, np.ones(2), "fake")


class TestRandomScores:
    def test_length_and_support(self):
        rng = np.random.default_rng(3)
        for T in (1, 7, 100):
            out = random_scores(T, rng)
            assert out.shape == (T,)
            assert out.dtype == np.float64
            assert set(np.unique(out)) <= {0.0, 1.0}

    def test_fair_coin_concentration(self):
        rng = np.random.default_rng(4)
        total = 0.0
        for _ in range(10_000):
            total += random_scores(100, rng).mean()
        assert abs(total / 10_000 - 0.5) < 0.02


class TestCritic:
    def test_scalar_output(self):
        params = tiny_params()
        f_eq, f_vq = tiny_inputs()
        summ = summary_repr(f_eq, np.full(5, 0.6), "generated")
        out = critic(summ, f_vq, params, train=True)
        assert out.data.shape == ()
        assert np.isfinite(out.data)

    def test_eval_mode_deterministic(self):
        params = tiny_params()
        f_eq, f_vq = tiny_inputs()
        summ = summary_repr(f_eq, np.full(5, 0.6), "generated")
        a = float(critic(summ, f_vq, params, train=False))
        b = float(critic(summ, f_vq, params, train=False))
        assert a == b

    def test_zero_params_zero_output(self):
        params = tiny_params()
        for t in params.tensors().values():
            t.data[:] = 0.0
        f_eq, f_vq = tiny_inputs()
        summ = summary_repr(f_eq, np.ones(5), "ground-truth")
        assert float(critic(summ, f_vq, params, train=False)) == 0.0

    def test_shot_count_mismatch(self):
        params = tiny_params()
        f_eq, _ = tiny_inputs(4)
        _, f_vq = tiny_inputs(5)
        summ = summary_repr(f_eq, np.ones(4), "generated")
        with pytest.raises(DimensionError):
            critic(summ, f_vq, params, train=False)

    def test_plain_tensor_accepted_as_summary(self):
        params = tiny_params()
        f_eq, f_vq = tiny_inputs()
        via_repr = float(critic(summary_repr(f_eq, np.ones(5), "generated"), f_vq, params, train=False))
        direct = float(critic(Tensor(f_eq), f_vq, params, train=False))
        assert via_repr == direct


class TestSharedVideoBranch:
    def test_values_match_separate_calls(self):
        f_eq, f_vq = tiny_inputs(6, seed=5)
        rng = np.random.default_rng(6)
        summs = [
            summary_repr(f_eq, rng.uniform(0, 1, 6), "generated"),
            summary_repr(f_eq, rng.integers(0, 2, 6).astype(float), "ground-truth"),
            summary_repr(f_eq, random_scores(6, rng), "random"),
        ]
        shared = [
            float(x) for x in critic_scores(summs, f_vq, tiny_params(seed=7), train=True)
        ]
        separate_params = tiny_params(seed=7)
        separate = [float(critic(s, f_vq, separate_params, train=True)) for s in summs]
        assert_allclose(shared, separate, rtol=0, atol=0)

    def test_video_stats_updated_once(self):
        f_eq, f_vq = tiny_inputs(6, seed=5)
        summs = [summary_repr(f_eq, np.full(6, v), "generated") for v in (0.2, 0.5, 0.8)]

        shared_params = tiny_params(seed=8)
        critic_scores(summs, f_vq, shared_params, train=True)

        once_params = tiny_params(seed=8)
        critic(summs[0], f_vq, once_params, train=True)

        assert_allclose(
            shared_params.vid_bn_stats.mean, once_params.vid_bn_stats.mean, atol=0
        )
        assert_allclose(
            shared_params.vid_bn_stats.var, once_params.vid_bn_stats.var, atol=0
        )

    def test_gradients_match_separate_calls(self):
        f_eq, f_vq = (Tensor(a) for a in tiny_inputs(6, seed=12))
        rng = np.random.default_rng(13)
        scores = [Tensor(rng.uniform(0, 1, 6)) for _ in SUMMARY_TAGS]

        def grads(batched):
            params = tiny_params(seed=14)
            watch = list(params.tensors().values()) + [f_eq, f_vq] + scores
            with Tape(watch=watch) as tape:
                summs = [summary_repr(f_eq, s, tag) for s, tag in zip(scores, SUMMARY_TAGS)]
                if batched:
                    d = critic_scores(summs, f_vq, params, train=True)
                else:
                    d = [critic(s, f_vq, params, train=True) for s in summs]
                loss = d[0] - d[1] * 0.5 - d[2] * 0.5
            tape.backward(loss)
            return [t.grad.copy() for t in watch]

        for a, b in zip(grads(batched=True), grads(batched=False)):
            assert max_rel_err(a, b) < 1e-10

    def test_mismatched_summary_rejected(self):
        f_eq, f_vq = tiny_inputs(6)
        short, _ = tiny_inputs(3)
        summs = [
            summary_repr(f_eq, np.ones(6), "generated"),
            summary_repr(short, np.ones(3), "random"),
        ]
        with pytest.raises(DimensionError):
            critic_scores(summs, f_vq, tiny_params(), train=False)


class TestCriticGradients:
    def test_params_and_both_branch_inputs(self):
        params = tiny_params(seed=9)
        rng = np.random.default_rng(10)
        f_eq = Tensor(rng.standard_normal((5, TINY.d_summ_in)))
        f_vq = Tensor(rng.standard_normal((5, TINY.d_vid_in)))
        scores = Tensor(rng.uniform(0.2, 0.8, 5))

        def f():
            summ = summary_repr(f_eq, scores, "generated")
            return critic(summ, f_vq, params, train=True) * 0.01

        targets = dict(params.tensors())
        targets.update({"in_f_eq": f_eq, "in_f_vq": f_vq, "in_scores": scores})
        err = grad_check(f, targets, seed=11)
        assert err < 1e-4, f"critic composite gradient error {err:.3g}"


class TestShapes:
    @pytest.mark.parametrize("cfg", [
        TINY,
        DiscriminatorConfig(d_summ_in=3, d_vid_in=5, d_h=7, d_fc1=11, d_fc2=13, d_fc3=17),
    ])
    def test_shapes_match_init(self, cfg):
        params = init_discriminator_params(cfg, np.random.default_rng(0))
        tensors, stats = discriminator_shapes(cfg)
        assert list(tensors.items()) == [(k, t.data.shape) for k, t in params.tensors().items()]
        assert list(stats.items()) == [(k, st.mean.shape) for k, st in params.stats().items()]
        assert list(stats.items()) == [(k, st.var.shape) for k, st in params.stats().items()]
