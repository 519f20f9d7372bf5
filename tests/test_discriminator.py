import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import max_rel_err
from qsumm.discriminator import (
    SUMMARY_TAGS,
    DiscriminatorConfig,
    DiscriminatorParams,
    SummaryRepr,
    _head,
    _pool,
    _summary_seq,
    bilstm_forward,
    critic,
    critic_scores,
    discriminator_shapes,
    init_discriminator_params,
    random_scores,
    summary_repr,
)
from qsumm.errors import ConfigError, DimensionError
from qsumm.gradcheck import grad_check
from qsumm.tensor import Tape, Tensor, as_tensor, concat_rows, slice_rows

# The critic as it was before its two branches shared one recurrence
# call: a video Bi-LSTM call, then one batched call for the summaries.
# The one-call critic must match it bit for bit.
def reference_critic_scores(summs, f_vq, params: DiscriminatorParams, train: bool) -> list:
    """Score several summaries of one video, one scalar per summary.

    The video branch runs once and is shared: batchnorm in train mode
    normalizes by batch statistics, so sharing is value-identical to
    repeating it per summary and skips the repeated running-stat
    updates.  The summaries are stacked by rows into one batched Bi-LSTM
    call, so both directions of every summary advance in a single time
    loop, with values equal to encoding each summary alone.  The
    encodings are then split back and pass the summary batchnorm one at
    a time, in list order, so its running stats see the same updates as
    with one critic call per summary.
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
    v = _pool(
        bilstm_forward(f_vq, params.vid_fwd, params.vid_bwd),
        params.vid_bn_gamma, params.vid_bn_beta, params.vid_bn_stats, mode,
    )
    if not seqs:
        return []
    h = bilstm_forward(concat_rows(seqs), params.summ_fwd, params.summ_bwd, n_seq=len(seqs))
    out = []
    for i in range(len(seqs)):
        u = _pool(
            slice_rows(h, i * T, (i + 1) * T),
            params.summ_bn_gamma, params.summ_bn_beta, params.summ_bn_stats, mode,
        )
        out.append(_head(u, v, params))
    return out


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


class TestReferenceOracle:
    """critic_scores against the two-call reference, bit for bit."""

    @staticmethod
    def run(score_fn, n_summ, train):
        rng = np.random.default_rng(40 + n_summ)
        params = tiny_params(seed=41)
        for st in (params.summ_bn_stats, params.vid_bn_stats):
            st.mean = rng.standard_normal(st.mean.shape)
            st.var = rng.uniform(0.5, 2.0, st.var.shape)
        f_eq = Tensor(rng.standard_normal((6, TINY.d_summ_in)))
        f_vq = Tensor(rng.standard_normal((6, TINY.d_vid_in)))
        scores = [Tensor(rng.uniform(0, 1, 6)) for _ in range(n_summ)]
        coef = rng.uniform(-1.0, 1.0, n_summ)
        with Tape(watch=list(params.tensors().values()) + [f_vq, f_eq]) as tape:
            summs = [summary_repr(f_eq, s, tag) for s, tag in zip(scores, SUMMARY_TAGS)]
            for summ in summs:
                tape.watch(summ.seq)
            d = score_fn(summs, f_vq, params, train)
            loss = Tensor(0.0)
            for c, x in zip(coef, d):
                loss = loss + x * c
        tape.backward(loss)
        grads = {k: t.grad for k, t in params.tensors().items()}
        grads.update(f_vq=f_vq.grad, f_eq=f_eq.grad)
        grads.update({f"summary{i}": summ.seq.grad for i, summ in enumerate(summs)})
        stats = [st.mean for st in params.stats().values()] + [
            st.var for st in params.stats().values()]
        return [float(x) for x in d], grads, stats

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("n_summ", [0, 1, 2, 3])
    def test_bit_equal_to_reference(self, n_summ, train):
        out, grads, stats = self.run(critic_scores, n_summ, train)
        ref_out, ref_grads, ref_stats = self.run(reference_critic_scores, n_summ, train)
        assert len(out) == n_summ
        assert out == ref_out
        assert list(grads) == list(ref_grads)
        for key in grads:
            assert np.array_equal(grads[key], ref_grads[key]), key
        for a, b in zip(stats, ref_stats):
            assert np.array_equal(a, b)


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


class TestDerivedTensors:
    # the hand-written key list that tensors() replaced; keys name checkpoint sections
    KEYS = [
        "summ_fwd_wx", "summ_fwd_wh", "summ_fwd_b",
        "summ_bwd_wx", "summ_bwd_wh", "summ_bwd_b",
        "summ_bn_gamma", "summ_bn_beta",
        "vid_fwd_wx", "vid_fwd_wh", "vid_fwd_b",
        "vid_bwd_wx", "vid_bwd_wh", "vid_bwd_b",
        "vid_bn_gamma", "vid_bn_beta",
        "fc1_w", "fc1_b", "fc2_w", "fc2_b", "fc3_w", "fc3_b", "out_w", "out_b",
    ]

    def test_keys_and_order_pinned(self):
        params = tiny_params()
        tensors = params.tensors()
        assert list(tensors) == self.KEYS
        assert tensors["summ_fwd_wx"] is params.summ_fwd.w_x
        assert tensors["vid_bwd_b"] is params.vid_bwd.b
