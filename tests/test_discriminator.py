import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import max_rel_err
from qsumm import discriminator
from qsumm.discriminator import (
    DiscriminatorConfig,
    DiscriminatorParams,
    _pool,
    bilstm_forward,
    critic,
    critic_scores,
    discriminator_shapes,
    init_discriminator_params,
    random_scores,
    summary_repr,
)
from qsumm.errors import ContractError, DimensionError
from qsumm.gradcheck import grad_check
from qsumm.layers import linear_forward
from qsumm.tensor import (
    Tape,
    Tensor,
    as_tensor,
    concat_cols,
    concat_rows,
    relu,
    reshape,
    slice_rows,
)

# The critic as it was before its two branches shared one recurrence
# call and its summaries were pooled as one stack: a video Bi-LSTM call,
# one batched call for the summaries, then each summary split back and
# normalized and pooled on its own, and scored by a head of its own.
# The critic must match it bit for bit.
def reference_head(u, v, params) -> Tensor:
    """The scalar critic value of one (1, 2d_h) pooled summary beside the
    (1, 2d_h) pooled video."""
    h = concat_cols(u, v)
    h = relu(linear_forward(h, params.fc1_w, params.fc1_b))
    h = relu(linear_forward(h, params.fc2_w, params.fc2_b))
    h = relu(linear_forward(h, params.fc3_w, params.fc3_b))
    return reshape(linear_forward(h, params.out_w, params.out_b), ())


def reference_critic_scores(summs, f_vq, params: DiscriminatorParams) -> list:
    """Score several (1, T, d) summaries of one (1, T, d) video, one
    scalar per summary."""
    f_vq = as_tensor(f_vq)
    T = f_vq.data.shape[1]
    seqs = [as_tensor(summ) for summ in summs]
    for seq in seqs:
        if seq.data.shape[1] != T:
            raise DimensionError(
                f"critic: summary has {seq.data.shape[1]} shots but video has {T}"
            )
    v = _pool(bilstm_forward(f_vq, params.vid_fwd, params.vid_bwd),
              params.vid_bn_gamma, params.vid_bn_beta)
    if not seqs:
        return []
    h = bilstm_forward(concat_rows(seqs), params.summ_fwd, params.summ_bwd)
    out = []
    for i in range(len(seqs)):
        u = _pool(slice_rows(h, i, i + 1), params.summ_bn_gamma, params.summ_bn_beta)
        out.append(reference_head(u, v, params))
    return out


TINY = DiscriminatorConfig(d_summ_in=10, d_vid_in=12, d_h=6, d_fc1=8, d_fc2=6, d_fc3=4)


def tiny_params(seed=0):
    return init_discriminator_params(TINY, np.random.default_rng(seed))


def tiny_inputs(T=5, seed=1):
    """One-sequence stacks of encoded shots and of the video, (1, T, d)."""
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((1, T, TINY.d_summ_in)),
        rng.standard_normal((1, T, TINY.d_vid_in)),
    )


class TestSummaryRepr:
    def test_unit_scores_identity(self):
        f_eq, _ = tiny_inputs(4)
        out = summary_repr(f_eq, np.ones((1, 4)))
        assert_allclose(out.data, f_eq)

    def test_zero_scores(self):
        f_eq, _ = tiny_inputs(4)
        out = summary_repr(f_eq, np.zeros((1, 4)))
        assert_allclose(out.data, np.zeros_like(f_eq))

    def test_per_row_scaling(self):
        f_eq = np.array([[[1.0, 2.0, 4.0], [3.0, -1.0, 0.5]], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]])
        out = summary_repr(f_eq, np.array([[0.5, 1.0], [0.0, 2.0]]))
        assert_allclose(out.data, [[[0.5, 1.0, 2.0], [3.0, -1.0, 0.5]],
                                   [[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]]])

    def test_linear_in_scores(self):
        rng = np.random.default_rng(2)
        f_eq, _ = tiny_inputs(6)
        s = rng.uniform(0, 1, (1, 6))
        base = summary_repr(f_eq, s).data
        scaled = summary_repr(f_eq, 0.25 * s).data
        assert_allclose(scaled, 0.25 * base, atol=1e-15)

    def test_length_mismatch(self):
        f_eq, _ = tiny_inputs(4)
        with pytest.raises(DimensionError):
            summary_repr(f_eq, np.ones((1, 5)))
        with pytest.raises(DimensionError):
            summary_repr(f_eq, np.ones(4))


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
        summ = summary_repr(f_eq, np.full((1, 5), 0.6))
        out = critic(summ, f_vq, params)
        assert out.data.shape == ()
        assert np.isfinite(out.data)

    def test_deterministic(self):
        params = tiny_params()
        f_eq, f_vq = tiny_inputs()
        summ = summary_repr(f_eq, np.full((1, 5), 0.6))
        a = float(critic(summ, f_vq, params))
        b = float(critic(summ, f_vq, params))
        assert a == b

    def test_zero_params_zero_output(self):
        params = tiny_params()
        for t in params.tensors().values():
            t.data[:] = 0.0
        f_eq, f_vq = tiny_inputs()
        summ = summary_repr(f_eq, np.ones((1, 5)))
        assert float(critic(summ, f_vq, params)) == 0.0

    def test_shot_count_mismatch(self):
        params = tiny_params()
        f_eq, _ = tiny_inputs(4)
        _, f_vq = tiny_inputs(5)
        summ = summary_repr(f_eq, np.ones((1, 4)))
        with pytest.raises(DimensionError):
            critic(summ, f_vq, params)
        with pytest.raises(DimensionError, match=r"\(1, T, d\) video"):
            critic(summary_repr(f_eq, np.ones((1, 4))), np.concatenate([f_eq, f_eq]), params)

    def test_plain_tensor_accepted_as_summary(self):
        params = tiny_params()
        f_eq, f_vq = tiny_inputs()
        via_repr = float(critic(summary_repr(f_eq, np.ones((1, 5))), f_vq, params))
        direct = float(critic(Tensor(f_eq), f_vq, params))
        assert via_repr == direct


class TestSharedVideoBranch:
    def test_values_match_separate_calls(self):
        f_eq, f_vq = tiny_inputs(6, seed=5)
        rng = np.random.default_rng(6)
        summs = [
            summary_repr(f_eq, rng.uniform(0, 1, (1, 6))),
            summary_repr(f_eq, rng.integers(0, 2, (1, 6)).astype(float)),
            summary_repr(f_eq, random_scores(6, rng)[None]),
        ]
        shared = [
            float(x) for x in critic_scores(summs, f_vq, tiny_params(seed=7))
        ]
        separate_params = tiny_params(seed=7)
        separate = [float(critic(s, f_vq, separate_params)) for s in summs]
        assert_allclose(shared, separate, rtol=0, atol=0)

    def test_gradients_match_separate_calls(self):
        f_eq, f_vq = (Tensor(a) for a in tiny_inputs(6, seed=12))
        rng = np.random.default_rng(13)
        scores = [Tensor(rng.uniform(0, 1, (1, 6))) for _ in range(3)]

        def grads(batched):
            params = tiny_params(seed=14)
            watch = list(params.tensors().values()) + [f_eq, f_vq] + scores
            with Tape(watch=watch) as tape:
                summs = [summary_repr(f_eq, s) for s in scores]
                if batched:
                    d = critic_scores(summs, f_vq, params)
                else:
                    d = [critic(s, f_vq, params) for s in summs]
                loss = d[0] - d[1] * 0.5 - d[2] * 0.5
            tape.backward(loss)
            return [t.grad.copy() for t in watch]

        for a, b in zip(grads(batched=True), grads(batched=False)):
            assert max_rel_err(a, b) < 1e-10

    def test_mismatched_summary_rejected(self):
        f_eq, f_vq = tiny_inputs(6)
        short, _ = tiny_inputs(3)
        summs = [
            summary_repr(f_eq, np.ones((1, 6))),
            summary_repr(short, np.ones((1, 3))),
        ]
        with pytest.raises(DimensionError):
            critic_scores(summs, f_vq, tiny_params())

    def test_no_summary_rejected_before_the_recurrence(self, monkeypatch):
        _, f_vq = tiny_inputs(6)

        def recurrence(*args):
            raise AssertionError("the recurrence ran")

        monkeypatch.setattr(discriminator, "_recurrence", recurrence)
        with pytest.raises(ContractError):
            critic_scores([], f_vq, tiny_params())


class TestReferenceOracle:
    """critic_scores against the two-call reference, bit for bit."""

    @staticmethod
    def run(score_fn, n_summ):
        rng = np.random.default_rng(40 + n_summ)
        params = tiny_params(seed=41)
        f_eq = Tensor(rng.standard_normal((1, 6, TINY.d_summ_in)))
        f_vq = Tensor(rng.standard_normal((1, 6, TINY.d_vid_in)))
        scores = [Tensor(rng.uniform(0, 1, (1, 6))) for _ in range(n_summ)]
        coef = rng.uniform(-1.0, 1.0, n_summ)
        with Tape(watch=list(params.tensors().values()) + [f_vq, f_eq]) as tape:
            summs = [summary_repr(f_eq, s) for s in scores]
            for summ in summs:
                tape.watch(summ)
            d = score_fn(summs, f_vq, params)
            loss = Tensor(0.0)
            for c, x in zip(coef, d):
                loss = loss + x * c
        tape.backward(loss)
        grads = {k: t.grad for k, t in params.tensors().items()}
        grads.update(f_vq=f_vq.grad, f_eq=f_eq.grad)
        grads.update({f"summary{i}": summ.grad for i, summ in enumerate(summs)})
        return [float(x) for x in d], grads

    @pytest.mark.parametrize("n_summ", [1, 2, 3])
    def test_bit_equal_to_reference(self, n_summ):
        out, grads = self.run(critic_scores, n_summ)
        ref_out, ref_grads = self.run(reference_critic_scores, n_summ)
        assert len(out) == n_summ
        assert out == ref_out
        assert list(grads) == list(ref_grads)
        for key in grads:
            assert np.array_equal(grads[key], ref_grads[key]), key


class TestCriticGradients:
    def test_params_and_both_branch_inputs(self):
        params = tiny_params(seed=9)
        rng = np.random.default_rng(10)
        f_eq = Tensor(rng.standard_normal((1, 5, TINY.d_summ_in)))
        f_vq = Tensor(rng.standard_normal((1, 5, TINY.d_vid_in)))
        scores = Tensor(rng.uniform(0.2, 0.8, (1, 5)))

        def f():
            summ = summary_repr(f_eq, scores)
            return critic(summ, f_vq, params) * 0.01

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
        shapes = discriminator_shapes(cfg)
        assert list(shapes.items()) == [(k, t.data.shape) for k, t in params.tensors().items()]


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
