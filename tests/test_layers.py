import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import assert_stack_equals_separate, check_grads, max_rel_err
from qsumm import layers
from qsumm.discriminator import DiscriminatorConfig
from qsumm.errors import ConfigError, ContractError, DimensionError
from qsumm.generator import GeneratorConfig, g_r_fuse, init_generator_params
from qsumm.layers import (
    BN_EPS,
    _loop_slots,
    _recurrence,
    LSTMParams,
    batchnorm_forward,
    bilstm_forward,
    dropout,
    init_arrays,
    linear_forward,
    lstm_cell,
    lstm_sequence,
    row_blocks,
)
from qsumm.tensor import Tape, Tensor, _sigmoid, mean_all


class TestLinear:
    def test_zero_input_passes_bias(self):
        w = Tensor(np.random.default_rng(0).standard_normal((3, 2)))
        b = Tensor([0.5, -0.5])
        y = linear_forward(Tensor(np.zeros((1, 3))), w, b)
        assert_allclose(y.data, [[0.5, -0.5]])

    def test_identity(self):
        y = linear_forward(Tensor(np.eye(2)), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert_allclose(y.data, np.eye(2))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        want = np.zeros((5, 4))
        for i in range(5):
            for j in range(4):
                want[i, j] = b[j]
                for k in range(3):
                    want[i, j] += x[i, k] * w[k, j]
        y = linear_forward(Tensor(x), Tensor(w), Tensor(b))
        assert max_rel_err(y.data, want) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as ei:
            linear_forward(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))
        assert "(2, 3)" in str(ei.value) and "(5, 2)" in str(ei.value)

    def test_init_bounds(self):
        rng = np.random.default_rng(5)
        arrays = init_arrays({"w": (16, 8), "b": (8,)}, rng)
        assert np.all(np.abs(arrays["w"]) <= 1.0 / 4.0)
        assert_allclose(arrays["b"], np.zeros(8))


class TestBatchnorm:
    def test_constant_column_outputs_beta(self):
        x = Tensor(np.full((6, 3), 2.5))
        gamma = Tensor(np.ones(3))
        beta = Tensor([1.0, -1.0, 0.25])
        y = batchnorm_forward(x, gamma, beta)
        assert_allclose(y.data, np.tile(beta.data, (6, 1)))

    def test_train_normalizes(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((32, 5)) * 3.0 + 1.0)
        y = batchnorm_forward(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        assert np.all(np.abs(y.data.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(y.data.var(axis=0) - 1.0) < 1e-4)

    def test_matches_hand_computation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        y = batchnorm_forward(Tensor(x), Tensor(gamma), Tensor(beta))
        want = np.empty_like(x)
        for j in range(3):
            mean = sum(x[i, j] for i in range(4)) / 4
            var = sum((x[i, j] - mean) ** 2 for i in range(4)) / 4
            for i in range(4):
                want[i, j] = (x[i, j] - mean) / math.sqrt(var + BN_EPS) * gamma[j] + beta[j]
        assert max_rel_err(y.data, want) < 1e-10

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            batchnorm_forward(
                Tensor(np.zeros((0, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3))
            )

    def test_single_row_is_finite(self):
        y = batchnorm_forward(
            Tensor([[3.0, -2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2))
        )
        assert np.all(np.isfinite(y.data))
        assert_allclose(y.data, np.zeros((1, 2)))

    def test_train_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((7, 4)))
        gamma = Tensor(rng.uniform(0.5, 1.5, 4))
        beta = Tensor(rng.standard_normal(4))
        # random linear functional keeps every gradient entry away from zero,
        # where finite differences would drown in roundoff
        r = rng.standard_normal((7, 4)) + np.sign(rng.standard_normal((7, 4)))

        def f():
            y = batchnorm_forward(x, gamma, beta)
            return mean_all(y * r)

        check_grads(f, {"x": x, "gamma": gamma, "beta": beta})

    @pytest.mark.parametrize("T", [1, 7])
    def test_stack_equals_separate_calls(self, T):
        rng = np.random.default_rng(50 + T)
        gamma = Tensor(rng.uniform(0.5, 1.5, 4))
        beta = Tensor(rng.standard_normal(4))
        assert_stack_equals_separate(lambda x: batchnorm_forward(x, gamma, beta),
                                     rng.standard_normal((3, T, 4)),
                                     {"gamma": gamma, "beta": beta},
                                     rng.standard_normal((3, T, 4)))

    @pytest.mark.parametrize("shape", [(7, 4), (3, 7, 4)])
    def test_no_tape_equals_taped_and_keeps_its_input(self, shape):
        # with no tape the output is computed in xhat's buffer
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal(shape) * 3.0 + 1.0)
        before = x.data.copy()
        gamma, beta = Tensor(rng.uniform(0.5, 1.5, 4)), Tensor(rng.standard_normal(4))
        with Tape(watch=[x]):
            taped = batchnorm_forward(x, gamma, beta).data
        assert np.array_equal(batchnorm_forward(x, gamma, beta).data, taped)
        assert np.array_equal(x.data, before)

    def test_stack_normalizes_each_sequence(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 16, 3)) * np.array([1.0, 5.0])[:, None, None]
        y = batchnorm_forward(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        assert np.all(np.abs(y.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(y.var(axis=1) - 1.0) < 1e-3)


class TestDropout:
    def test_eval_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.5, train=False) is x
        assert dropout(x, 0.0, train=True) is x

    def test_mask_values_and_scale(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones((200, 50)))
        y = dropout(x, 0.5, train=True, rng=rng)
        vals = np.unique(y.data)
        assert set(vals.tolist()) <= {0.0, 2.0}
        assert abs(y.data.mean() - 1.0) < 0.05

    def test_seeded_reproducibility(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        a = dropout(x, 0.4, train=True, rng=np.random.default_rng(42)).data
        b = dropout(x, 0.4, train=True, rng=np.random.default_rng(42)).data
        assert_allclose(a, b)

    def test_gradient_with_frozen_mask(self):
        x = Tensor(np.random.default_rng(12).standard_normal((4, 5)))

        def f():
            y = dropout(x, 0.5, train=True, rng=np.random.default_rng(99))
            return mean_all(y * y)

        check_grads(f, {"x": x})

    def test_bad_p(self):
        with pytest.raises(ConfigError):
            dropout(Tensor([1.0]), 1.0, train=True, rng=np.random.default_rng(0))

    def test_missing_rng(self):
        with pytest.raises(ContractError):
            dropout(Tensor([1.0]), 0.5, train=True)


def scalar_lstm_step(x, h, c, wx, wh, b):
    """Pure-python single LSTM step, the reference oracle."""
    H = len(h)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = [
        sum(x[k] * wx[k][j] for k in range(len(x)))
        + sum(h[k] * wh[k][j] for k in range(H))
        + b[j]
        for j in range(4 * H)
    ]
    i = [sig(z[j]) for j in range(H)]
    f = [sig(z[H + j]) for j in range(H)]
    g = [math.tanh(z[2 * H + j]) for j in range(H)]
    o = [sig(z[3 * H + j]) for j in range(H)]
    c2 = [f[j] * c[j] + i[j] * g[j] for j in range(H)]
    h2 = [o[j] * math.tanh(c2[j]) for j in range(H)]
    return h2, c2


class TestLSTMCell:
    def test_all_zero_everything(self):
        p = LSTMParams(
            w_x=Tensor(np.zeros((3, 8))), w_h=Tensor(np.zeros((2, 8))), b=Tensor(np.zeros(8))
        )
        h, c = lstm_cell(Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), p)
        assert_allclose(h.data, np.zeros(2))
        assert_allclose(c.data, np.zeros(2))

    def test_saturated_forget_gate_carries_cell(self):
        H = 3
        b = np.zeros(4 * H)
        b[H : 2 * H] = 50.0
        p = LSTMParams(w_x=Tensor(np.zeros((2, 4 * H))), w_h=Tensor(np.zeros((H, 4 * H))), b=Tensor(b))
        c_prev = np.array([0.3, -1.2, 0.8])
        _, c = lstm_cell(Tensor(np.zeros(2)), Tensor(np.zeros(H)), Tensor(c_prev), p)
        assert np.max(np.abs(c.data - c_prev)) < 1e-9

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        p = LSTMParams.create(4, 3, rng)
        x = rng.standard_normal(4)
        h0 = rng.standard_normal(3)
        c0 = rng.standard_normal(3)
        h, c = lstm_cell(Tensor(x), Tensor(h0), Tensor(c0), p)
        h_ref, c_ref = scalar_lstm_step(
            x.tolist(), h0.tolist(), c0.tolist(), p.w_x.data.tolist(), p.w_h.data.tolist(), p.b.data.tolist()
        )
        assert max_rel_err(h.data, h_ref) < 1e-12
        assert max_rel_err(c.data, c_ref) < 1e-12

    def test_forget_bias_init(self):
        p = LSTMParams.create(5, 4, np.random.default_rng(14))
        assert_allclose(p.b.data[4:8], np.ones(4))
        assert_allclose(p.b.data[:4], np.zeros(4))
        assert_allclose(p.b.data[8:], np.zeros(8))

    def test_dim_mismatch(self):
        p = LSTMParams.create(4, 3, np.random.default_rng(15))
        with pytest.raises(DimensionError):
            lstm_cell(Tensor(np.zeros(5)), Tensor(np.zeros(3)), Tensor(np.zeros(3)), p)
        with pytest.raises(DimensionError):
            lstm_cell(Tensor(np.zeros(4)), Tensor(np.zeros(2)), Tensor(np.zeros(3)), p)

    def test_gradients(self):
        rng = np.random.default_rng(16)
        p = LSTMParams.create(3, 2, rng)
        x = Tensor(rng.standard_normal(3))
        h0 = Tensor(rng.standard_normal(2))
        c0 = Tensor(rng.standard_normal(2))
        params = {"w_x": p.w_x, "w_h": p.w_h, "b": p.b, "x": x, "h0": h0, "c0": c0}

        def f():
            h, c = lstm_cell(x, h0, c0, p)
            return mean_all(h * h) + mean_all(c)

        check_grads(f, params)


class TestLSTMSequence:
    def test_matches_unrolled_cells(self):
        rng = np.random.default_rng(17)
        p = LSTMParams.create(4, 3, rng)
        seq = rng.standard_normal((6, 4))
        out = lstm_sequence(Tensor(seq), p)
        h = Tensor(np.zeros(3))
        c = Tensor(np.zeros(3))
        for t in range(6):
            h, c = lstm_cell(Tensor(seq[t]), h, c, p)
            assert max_rel_err(out.data[t], h.data) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        p = LSTMParams.create(3, 4, rng)
        seq = Tensor(rng.standard_normal((5, 3)))
        params = {"w_x": p.w_x, "w_h": p.w_h, "b": p.b, "seq": seq}

        def f():
            return mean_all(lstm_sequence(seq, p))

        check_grads(f, params)

    def test_gradients_match_unrolled_cells(self):
        rng = np.random.default_rng(19)
        p = LSTMParams.create(3, 2, rng)
        seq = Tensor(rng.standard_normal((4, 3)))

        with Tape(watch=[p.w_x, p.w_h, p.b, seq]) as tape:
            loss = mean_all(lstm_sequence(seq, p))
        tape.backward(loss)
        fused = [p.w_x.grad.copy(), p.w_h.grad.copy(), p.b.grad.copy(), seq.grad.copy()]

        with Tape(watch=[p.w_x, p.w_h, p.b, seq]) as tape:
            h = Tensor(np.zeros(2))
            c = Tensor(np.zeros(2))
            rows = []
            for t in range(4):
                h, c = lstm_cell(slice_row(seq, t), h, c, p)
                rows.append(mean_all(h))
            loss = (rows[0] + rows[1] + rows[2] + rows[3]) * (1.0 / 4.0)
        tape.backward(loss)
        unrolled = [p.w_x.grad, p.w_h.grad, p.b.grad, seq.grad]

        for a, b in zip(fused, unrolled):
            assert max_rel_err(a, b) < 1e-10

    def test_empty_sequence_rejected(self):
        p = LSTMParams.create(3, 2, np.random.default_rng(20))
        with pytest.raises(ContractError):
            lstm_sequence(Tensor(np.zeros((0, 3))), p)


def slice_row(seq, t):
    """Row t of a (T, d) sequence or a (1, T, d) stack as a 1-d tensor, on the tape."""
    from qsumm.tensor import reshape, slice_cols

    d = seq.data.shape[-1]
    flat = reshape(seq, (1, seq.data.size))
    return reshape(slice_cols(flat, t * d, (t + 1) * d), (d,))


class TestBiLSTM:
    def test_single_step_equals_cells(self):
        rng = np.random.default_rng(21)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        x = rng.standard_normal((1, 1, 3))
        out = bilstm_forward(Tensor(x), pf, pb)
        hf, _ = lstm_cell(Tensor(x[0, 0]), Tensor(np.zeros(2)), Tensor(np.zeros(2)), pf)
        hb, _ = lstm_cell(Tensor(x[0, 0]), Tensor(np.zeros(2)), Tensor(np.zeros(2)), pb)
        assert_allclose(out.data, np.concatenate([hf.data, hb.data])[None, None, :])

    def test_output_shape(self):
        rng = np.random.default_rng(22)
        pf = LSTMParams.create(4, 3, rng)
        pb = LSTMParams.create(4, 3, rng)
        for n, T in ((1, 1), (1, 2), (3, 7)):
            out = bilstm_forward(Tensor(rng.standard_normal((n, T, 4))), pf, pb)
            assert out.data.shape == (n, T, 6)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(23)
        pf = LSTMParams.create(4, 3, rng)
        pb = LSTMParams.create(4, 3, rng)
        seq = rng.standard_normal((5, 4))
        a = bilstm_forward(Tensor(seq[None]), pf, pb).data[0]
        b = bilstm_forward(Tensor(seq[None, ::-1].copy()), pb, pf).data[0]
        swapped = np.concatenate([b[:, 3:], b[:, :3]], axis=1)
        assert max_rel_err(a, swapped[::-1]) < 1e-12

    def test_temporal_locality(self):
        rng = np.random.default_rng(24)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        seq = rng.standard_normal((6, 3))
        base = bilstm_forward(Tensor(seq[None]), pf, pb).data[0]
        bumped = seq.copy()
        bumped[3] += 1.0
        out = bilstm_forward(Tensor(bumped[None]), pf, pb).data[0]
        # forward half: rows before t=3 unchanged; backward half: rows after
        assert_allclose(out[:3, :2], base[:3, :2])
        assert_allclose(out[4:, 2:], base[4:, 2:])
        assert not np.allclose(out[3], base[3])

    def test_gradients(self):
        rng = np.random.default_rng(25)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        seq = Tensor(rng.standard_normal((1, 4, 3)))
        params = {
            "fwd_wx": pf.w_x, "fwd_wh": pf.w_h, "fwd_b": pf.b,
            "bwd_wx": pb.w_x, "bwd_wh": pb.w_h, "bwd_b": pb.b,
            "seq": seq,
        }

        def f():
            return mean_all(bilstm_forward(seq, pf, pb))

        check_grads(f, params)

    def test_empty_rejected(self):
        rng = np.random.default_rng(26)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        with pytest.raises(ContractError):
            bilstm_forward(Tensor(np.zeros((1, 0, 3))), pf, pb)
        with pytest.raises(ContractError):
            bilstm_forward(Tensor(np.zeros((0, 4, 3))), pf, pb)


def stack_and_params(seed, n=3, T=5, d_in=4, d_h=3):
    rng = np.random.default_rng(seed)
    pf = LSTMParams.create(d_in, d_h, rng)
    pb = LSTMParams.create(d_in, d_h, rng)
    seqs = rng.standard_normal((n, T, d_in))
    return pf, pb, seqs


class TestBatchedBiLSTM:
    """An (n, T, d_in) stack of sequences through one bilstm_forward call."""

    def test_values_match_separate_calls(self):
        pf, pb, seqs = stack_and_params(27)
        out = bilstm_forward(Tensor(seqs), pf, pb).data
        separate = np.concatenate([bilstm_forward(Tensor(s[None]), pf, pb).data for s in seqs])
        assert_allclose(out, separate, rtol=0, atol=0)

    def test_matches_unrolled_cells_both_directions(self):
        pf, pb, seqs = stack_and_params(28)
        T, H = 5, 3
        out = bilstm_forward(Tensor(seqs), pf, pb).data
        for b, seq in enumerate(seqs):
            rows = out[b]
            for params, order, cols in ((pf, range(T), slice(0, H)),
                                        (pb, range(T - 1, -1, -1), slice(H, 2 * H))):
                h = Tensor(np.zeros(H))
                c = Tensor(np.zeros(H))
                for t in order:
                    h, c = lstm_cell(Tensor(seq[t]), h, c, params)
                    assert max_rel_err(rows[t, cols], h.data) < 1e-12

    def test_gradients_match_separate_calls(self):
        pf, pb, seqs = stack_and_params(29)
        r = np.random.default_rng(30).standard_normal((3, 5, 6))
        weights = {"fwd_wx": pf.w_x, "fwd_wh": pf.w_h, "fwd_b": pf.b,
                   "bwd_wx": pb.w_x, "bwd_wh": pb.w_h, "bwd_b": pb.b}
        assert_stack_equals_separate(lambda s: bilstm_forward(s, pf, pb), seqs, weights, r,
                                     keepdims=True)

    def test_needs_a_stack(self):
        pf, pb, seqs = stack_and_params(31)
        with pytest.raises(DimensionError, match=r"\(n, T, d_in\)"):
            bilstm_forward(Tensor(seqs[0]), pf, pb)


def mixed_groups(seed, T=5, d_h=3):
    """A one-sequence group of width 4 and a two-sequence group of width 6."""
    rng = np.random.default_rng(seed)
    groups = []
    for d_in, n in ((4, 1), (6, 2)):
        pf = LSTMParams.create(d_in, d_h, rng)
        pb = LSTMParams.create(d_in, d_h, rng)
        groups.append((Tensor(rng.standard_normal((n, T, d_in))), [(pf, False), (pb, True)]))
    return groups


class TestRecurrenceGroups:
    """Groups of different input width and sequence count in one call."""

    def test_values_match_separate_calls(self):
        groups = mixed_groups(32)
        out = _recurrence(groups, "test").data
        separate = np.concatenate([bilstm_forward(seq, pf, pb).data
                                   for seq, [(pf, _), (pb, _)] in groups])
        assert_allclose(out, separate, rtol=0, atol=0)

    def test_gradients_match_separate_calls(self):
        groups = mixed_groups(33)
        watch = [t for seq, dirs in groups
                 for t in [seq] + [w for p, _ in dirs for w in (p.w_x, p.w_h, p.b)]]
        r = np.random.default_rng(34).standard_normal((3, 5, 6))

        # each mean times its count: every output's gradient is exactly
        # its r entry, as for a sum, so the two tapes can agree bit for bit
        with Tape(watch=watch) as tape:
            loss = mean_all(_recurrence(groups, "test") * r) * r.size
        tape.backward(loss)
        fused = [t.grad.copy() for t in watch]

        with Tape(watch=watch) as tape:
            (a, [(pfa, _), (pba, _)]), (b, [(pfb, _), (pbb, _)]) = groups
            loss = mean_all(bilstm_forward(a, pfa, pba) * r[:1]) * r[:1].size
            loss = loss + mean_all(bilstm_forward(b, pfb, pbb) * r[1:]) * r[1:].size
        tape.backward(loss)
        for x, t in zip(fused, watch):
            assert np.array_equal(x, t.grad)

    def test_groups_must_agree_on_length_and_directions(self):
        (a, dirs_a), (b, dirs_b) = mixed_groups(35)
        with pytest.raises(DimensionError, match="sequence length"):
            _recurrence([(a, dirs_a), (Tensor(b.data[:, 1:]), dirs_b)], "test")
        with pytest.raises(DimensionError, match="direction count"):
            _recurrence([(a, dirs_a), (b, dirs_b[:1])], "test")


def recurrence_case(kind):
    """Groups of _recurrence calls with T=6 and d_h=3: one direction, a
    Bi-LSTM over a stack of 1 or 3 sequences, and a critic-style call
    whose groups differ in d_in and stack size, so that the video's pairs
    are padded."""
    rng = np.random.default_rng(36)
    T, d_h = 6, 3
    shapes = {"one direction": [(4, 1, 1)], "bilstm n_seq=1": [(4, 1, 2)],
              "bilstm n_seq=3": [(4, 3, 2)], "critic": [(4, 1, 2), (6, 3, 2)]}[kind]
    return [(Tensor(rng.standard_normal((n, T, d_in))),
             [(LSTMParams.create(d_in, d_h, rng), k == 1) for k in range(D)])
            for d_in, n, D in shapes]


def run_recurrence(groups, r_seed=37):
    """Output and every input's gradient of mean(_recurrence(groups) * r)."""
    watch = [t for seq, dirs in groups
             for t in [seq] + [w for p, _ in dirs for w in (p.w_x, p.w_h, p.b)]]
    with Tape(watch=watch) as tape:
        out = _recurrence(groups, "test")
        loss = mean_all(out * np.random.default_rng(r_seed).standard_normal(out.data.shape))
    tape.backward(loss)
    return [out.data] + [t.grad.copy() for t in watch]


SLOT_BYTES = 32 * 3 * 3  # w_h of one d_h=3 slot


class TestRecurrenceLoops:
    """Slots split into time loops by _LOOP_WEIGHT_BYTES give the values
    and gradients of one loop over all slots, bit for bit."""

    @pytest.mark.parametrize("kind", ["one direction", "bilstm n_seq=1", "bilstm n_seq=3",
                                      "critic"])
    @pytest.mark.parametrize("slots_per_loop", [1, 3])
    def test_split_loops_bit_equal_one_loop(self, kind, slots_per_loop, monkeypatch):
        groups = recurrence_case(kind)
        n_slots = sum(len(dirs) for _, dirs in groups)
        monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", 1 << 40)
        assert len(_loop_slots(n_slots, 3)) == 1
        one_loop = run_recurrence(groups)
        monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", slots_per_loop * SLOT_BYTES)
        loops = _loop_slots(n_slots, 3)
        assert [s.stop - s.start for s in loops][:-1] == [slots_per_loop] * (len(loops) - 1)
        split = run_recurrence(groups)
        for a, b in zip(one_loop, split, strict=True):
            assert np.array_equal(a, b)
        # without a tape the loops share one pre-activation buffer and keep one step of c
        assert np.array_equal(_recurrence(groups, "test").data, split[0])

    def test_one_slot_per_loop_matches_unrolled_cells(self, monkeypatch):
        monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", 0)
        groups = recurrence_case("critic")
        out = _recurrence(groups, "test").data
        T, H = 6, 3
        lo = 0
        for seq, dirs in groups:
            n = len(seq.data)
            block = out[lo : lo + n]
            lo += n
            for b in range(n):
                for k, (p, reverse) in enumerate(dirs):
                    h = Tensor(np.zeros(H))
                    c = Tensor(np.zeros(H))
                    for t in (range(T - 1, -1, -1) if reverse else range(T)):
                        h, c = lstm_cell(Tensor(seq.data[b, t]), h, c, p)
                        assert max_rel_err(block[b, t, k * H : (k + 1) * H], h.data) < 1e-12

    def test_one_slot_per_loop_gradients_match_unrolled_cells(self, monkeypatch):
        monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", 0)
        rng = np.random.default_rng(38)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        seq = Tensor(rng.standard_normal((1, 4, 3)))
        watch = [pf.w_x, pf.w_h, pf.b, pb.w_x, pb.w_h, pb.b, seq]

        with Tape(watch=watch) as tape:
            loss = mean_all(bilstm_forward(seq, pf, pb))
        tape.backward(loss)
        fused = [t.grad.copy() for t in watch]

        with Tape(watch=watch) as tape:
            rows = []
            for p, order in ((pf, range(4)), (pb, range(3, -1, -1))):
                h = Tensor(np.zeros(2))
                c = Tensor(np.zeros(2))
                for t in order:
                    h, c = lstm_cell(slice_row(seq, t), h, c, p)
                    rows.append(mean_all(h))
            loss = rows[0]
            for row in rows[1:]:
                loss = loss + row
            loss = loss * (1.0 / 8.0)
        tape.backward(loss)
        for a, t in zip(fused, watch):
            assert max_rel_err(a, t.grad) < 1e-10


def oracle_recurrence(groups) -> np.ndarray:
    """_recurrence's forward in plain numpy, one (direction, sequence) at
    a time, in the kernel's op order: the sequence's input projection
    plus bias, then per step one (1, H) @ (H, 4H) product added to the
    step's row, the allocating _sigmoid with tanh of the g block written
    over it, c = f*c + i*g and h = o*tanh(c)."""
    H = groups[0][1][0][0].d_h
    out = []
    for seq, dirs in groups:
        block = np.empty(seq.data.shape[:2] + (len(dirs) * H,))
        for b, xs in enumerate(seq.data):
            for k, (p, reverse) in enumerate(dirs):
                x = np.ascontiguousarray(xs[::-1]) if reverse else xs
                pre = x @ p.w_x.data + p.b.data
                h, c = np.zeros(H), np.zeros(H)
                hs = []
                for t in range(len(x)):
                    z = pre[t] + (h[None, :] @ p.w_h.data)[0]
                    g = np.tanh(z[2 * H : 3 * H])
                    a = _sigmoid(z)
                    a[2 * H : 3 * H] = g
                    c = a[H : 2 * H] * c + a[:H] * g
                    h = a[3 * H :] * np.tanh(c)
                    hs.append(h)
                block[b, :, k * H : (k + 1) * H] = hs[::-1] if reverse else hs
        out.append(block)
    return np.concatenate(out)


def pin_pre_activations(groups):
    """Zero some gate columns of every direction's weights and set their
    bias to +700, -700 or 0, so those pre-activations are exactly that
    at every step: exp(-700) is near the bottom of the normal range."""
    H = groups[0][1][0][0].d_h
    cols = [0, 1, H + 1, 2 * H, 2 * H + 1, 3 * H, 3 * H + 2]
    for _, dirs in groups:
        for p, _ in dirs:
            p.w_x.data[:, cols] = 0.0
            p.w_h.data[:, cols] = 0.0
            p.b.data[cols] = [700.0, -700.0, 0.0, 700.0, -700.0, 0.0, -700.0]
    return groups


class TestRecurrenceOracle:
    """The kernel's values equal a plain per-pair loop bit for bit, so a
    reordered step fails here even where it stays within lstm_cell's
    tolerance."""

    @pytest.mark.parametrize("kind", ["one direction", "bilstm n_seq=3", "critic"])
    @pytest.mark.parametrize("split", [False, True])
    def test_kernel_bit_equals_oracle(self, kind, split, monkeypatch):
        if split:
            monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", 0)
        groups = pin_pre_activations(recurrence_case(kind))
        want = oracle_recurrence(groups)
        seqs = [seq for seq, _ in groups]
        with Tape(watch=seqs):
            taped = _recurrence(groups, "test").data
        assert np.array_equal(taped, want)
        assert np.array_equal(_recurrence(groups, "test").data, want)

    def test_bilstm_forward_bit_equals_oracle(self):
        pf, pb, seqs = stack_and_params(39, n=3, T=7)
        seq = Tensor(seqs)
        groups = pin_pre_activations([(seq, [(pf, False), (pb, True)])])
        want = oracle_recurrence(groups)
        with Tape(watch=[seq]):
            taped = bilstm_forward(seq, pf, pb).data
        assert np.array_equal(taped, want)
        assert np.array_equal(bilstm_forward(seq, pf, pb).data, want)
        # unit 2's output gate is pinned at sigmoid(-700), about 1e-304
        assert 0.0 < np.abs(want[..., 2]).max() < 1e-300


class TestRecurrenceModes:
    """A no-tape call keeps one loop's pre-activations and one step of c
    and tanh c; a taped call keeps every step for BPTT.  Both give the
    same values."""

    T, H, D_IN = 500, 64, 32

    @pytest.mark.parametrize("n_seq", [1, 3])
    def test_paper_scale_split_bit_equal_taped(self, n_seq):
        # d_h=256: 2 MiB of w_h per direction, one direction per loop as
        # at paper scale; the backward direction projects a reversed copy
        rng = np.random.default_rng(40)
        pf, pb = LSTMParams.create(10, 256, rng), LSTMParams.create(10, 256, rng)
        assert len(_loop_slots(2, 256)) == 2
        seq = Tensor(rng.standard_normal((n_seq, 7, 10)))
        with Tape(watch=[seq]):
            taped = bilstm_forward(seq, pf, pb).data
        assert np.array_equal(bilstm_forward(seq, pf, pb).data, taped)

    def split_case(self, monkeypatch):
        monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", 0)
        rng = np.random.default_rng(41)
        return (Tensor(rng.standard_normal((1, self.T, self.D_IN))),
                LSTMParams.create(self.D_IN, self.H, rng), LSTMParams.create(self.D_IN, self.H, rng))

    def test_no_tape_peak_is_one_loop_of_pre_activations(self, monkeypatch):
        seq, pf, pb = self.split_case(monkeypatch)
        T, H, d_in = self.T, self.H, self.D_IN
        tracemalloc.start()
        try:
            bilstm_forward(seq, pf, pb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pre_one_loop = T * 4 * H * 8
        hs = (T + 1) * 2 * H * 8
        out = T * 2 * H * 8
        reversed_input = T * d_in * 8
        # 10% slack for the one-step buffers and Python objects; keeping
        # every step's c and tanh c, or a second loop's pre-activations,
        # would each add about half of the sum
        assert peak < 1.1 * (pre_one_loop + hs + out + reversed_input)

    def test_taped_split_backprops_as_one_loop(self, monkeypatch):
        seq, pf, pb = self.split_case(monkeypatch)
        split = run_recurrence([(seq, [(pf, False), (pb, True)])])
        monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", 1 << 40)
        one_loop = run_recurrence([(seq, [(pf, False), (pb, True)])])
        for a, b in zip(one_loop, split, strict=True):
            assert np.array_equal(a, b)


class TestLoopSizes:
    """Loops per recurrence from shapes alone, without building the
    paper-scale weights (a d_h=1024 w_h is 32 MiB)."""

    def test_desk_scale_runs_one_loop(self):
        assert _loop_slots(2, GeneratorConfig().d_h) == [slice(0, 2)]
        assert _loop_slots(4, DiscriminatorConfig.for_generator(GeneratorConfig()).d_h) == [
            slice(0, 4)]

    def test_paper_scale_runs_one_slot_per_loop(self):
        # generator: 32 MiB per direction; critic: 2 MiB per slot, two above the cap
        assert _loop_slots(2, GeneratorConfig.paper_scale().d_h) == [slice(0, 1), slice(1, 2)]
        assert _loop_slots(4, DiscriminatorConfig.paper_scale().d_h) == [
            slice(m, m + 1) for m in range(4)]

    def test_slots_fill_loops_up_to_the_cap(self):
        # d_h=128: 512 KiB per slot, four to a 2 MiB loop
        assert _loop_slots(6, 128) == [slice(0, 4), slice(4, 6)]


class TestRowBlocks:
    """A no-tape pass runs its input projections in row blocks and never
    leaves a one-row block, whose product numpy runs through gemv; the
    values equal a taped pass, one block of T rows, bit for bit."""

    ROWS = 4  # the fewest rows row_blocks gives a block, reached at a zero cap

    def test_blocks_cover_the_rows_without_a_one_row_block(self, monkeypatch):
        monkeypatch.setattr(layers, "_BLOCK_BYTES", 0)
        for T in range(1, 40):
            blocks = row_blocks(T, 8)
            assert blocks[0].start == 0 and blocks[-1].stop == T
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [b.stop - b.start for b in blocks]
            assert max(sizes) <= self.ROWS and (T == 1 or min(sizes) >= 2), (T, sizes)
        assert row_blocks(0, 8) == []
        with Tape():
            assert row_blocks(39, 8) == [slice(0, 39)]
            assert row_blocks(0, 8) == []

    def test_cap_sets_the_block_height(self, monkeypatch):
        monkeypatch.setattr(layers, "_BLOCK_BYTES", 100 * 64)
        assert row_blocks(1000, 64) == [slice(100 * i, 100 * i + 100) for i in range(10)]
        assert [b.stop - b.start for b in row_blocks(1001, 64)] == [91] * 11

    @pytest.mark.parametrize("T", [1, 2, ROWS + 1, 3 * ROWS + 1])
    @pytest.mark.parametrize("n_seq", [1, 3])
    def test_bilstm_no_tape_equals_taped(self, T, n_seq, monkeypatch):
        # d_in 80 by 4*d_h 64: a one-row projection there differs from
        # a GEMM row in its last bits
        monkeypatch.setattr(layers, "_BLOCK_BYTES", 0)
        rng = np.random.default_rng(60)
        pf, pb = LSTMParams.create(80, 16, rng), LSTMParams.create(80, 16, rng)
        seq = Tensor(rng.standard_normal((n_seq, T, 80)))
        with Tape(watch=[seq]):
            taped = bilstm_forward(seq, pf, pb).data
        assert np.array_equal(bilstm_forward(seq, pf, pb).data, taped)

    @pytest.mark.parametrize("T", [1, 2, ROWS + 1, 3 * ROWS + 1])
    @pytest.mark.parametrize("n_queries", [1, 3])
    def test_fuse_no_tape_equals_taped(self, T, n_queries, monkeypatch):
        monkeypatch.setattr(layers, "_BLOCK_BYTES", 0)
        cfg = GeneratorConfig(d_frame=32, d_shot=48, d_fused=64)
        params = init_generator_params(cfg, np.random.default_rng(61))
        rng = np.random.default_rng(62)
        frame = rng.standard_normal((T, cfg.d_frame)).astype(np.float32)
        shot = rng.standard_normal((T, cfg.d_shot)).astype(np.float32)
        q = rng.standard_normal((n_queries, cfg.d_text))
        with Tape():
            taped = g_r_fuse(frame, shot, q, params).data
        assert np.array_equal(g_r_fuse(frame, shot, q, params).data, taped)
