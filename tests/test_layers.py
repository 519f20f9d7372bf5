import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import check_grads, max_rel_err
from qsumm.errors import ConfigError, ContractError, DimensionError
from qsumm.layers import (
    BN_EPS,
    _recurrence,
    LSTMParams,
    RunningStats,
    batchnorm_forward,
    bilstm_forward,
    dropout,
    elementwise_activation,
    init_linear,
    linear_forward,
    lstm_cell,
    lstm_sequence,
)
from qsumm.tensor import Tape, Tensor, mean_all, sum_all


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
        w, b = init_linear(16, 8, rng)
        assert np.all(np.abs(w.data) <= 1.0 / 4.0)
        assert_allclose(b.data, np.zeros(8))


class TestActivationDispatch:
    def test_kinds(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert_allclose(elementwise_activation(x, "relu").data, [0.0, 0.0, 2.0])
        assert float(elementwise_activation(Tensor(0.0), "sigmoid")) == 0.5
        assert_allclose(elementwise_activation(x, "tanh").data, np.tanh(x.data))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            elementwise_activation(Tensor([1.0]), "gelu")


class TestBatchnorm:
    def test_constant_column_outputs_beta(self):
        x = Tensor(np.full((6, 3), 2.5))
        gamma = Tensor(np.ones(3))
        beta = Tensor([1.0, -1.0, 0.25])
        y = batchnorm_forward(x, gamma, beta, "train", RunningStats.create(3))
        assert_allclose(y.data, np.tile(beta.data, (6, 1)))

    def test_train_normalizes(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((32, 5)) * 3.0 + 1.0)
        y = batchnorm_forward(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), "train", RunningStats.create(5))
        assert np.all(np.abs(y.data.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(y.data.var(axis=0) - 1.0) < 1e-4)

    def test_eval_matches_hand_computation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        stats = RunningStats(mean=np.array([0.5, -1.0, 2.0]), var=np.array([2.0, 0.5, 1.5]))
        y = batchnorm_forward(Tensor(x), Tensor(gamma), Tensor(beta), "eval", stats)
        want = np.empty_like(x)
        for i in range(4):
            for j in range(3):
                want[i, j] = (x[i, j] - stats.mean[j]) / math.sqrt(stats.var[j] + BN_EPS) * gamma[j] + beta[j]
        assert max_rel_err(y.data, want) < 1e-10

    def test_running_stats_momentum(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 2))
        stats = RunningStats(mean=np.array([1.0, 1.0]), var=np.array([4.0, 4.0]))
        batchnorm_forward(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), "train", stats)
        assert_allclose(stats.mean, 0.9 * np.ones(2) + 0.1 * x.mean(axis=0))
        assert_allclose(stats.var, 0.9 * 4.0 * np.ones(2) + 0.1 * x.var(axis=0))

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            batchnorm_forward(
                Tensor(np.zeros((0, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)), "train", RunningStats.create(3)
            )

    def test_single_row_is_finite(self):
        y = batchnorm_forward(
            Tensor([[3.0, -2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), "train", RunningStats.create(2)
        )
        assert np.all(np.isfinite(y.data))
        assert_allclose(y.data, np.zeros((1, 2)))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            batchnorm_forward(
                Tensor(np.ones((2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), "test", RunningStats.create(2)
            )

    def test_train_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((7, 4)))
        gamma = Tensor(rng.uniform(0.5, 1.5, 4))
        beta = Tensor(rng.standard_normal(4))
        # random linear functional keeps every gradient entry away from zero,
        # where finite differences would drown in roundoff
        r = rng.standard_normal((7, 4)) + np.sign(rng.standard_normal((7, 4)))

        def f():
            y = batchnorm_forward(x, gamma, beta, "train", RunningStats.create(4))
            return mean_all(y * r)

        check_grads(f, {"x": x, "gamma": gamma, "beta": beta})

    def test_eval_gradients(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((5, 3)))
        gamma = Tensor(rng.uniform(0.5, 1.5, 3))
        beta = Tensor(rng.standard_normal(3))
        stats = RunningStats(mean=rng.standard_normal(3), var=rng.uniform(0.5, 2.0, 3))
        r = rng.standard_normal((5, 3)) + np.sign(rng.standard_normal((5, 3)))

        def f():
            y = batchnorm_forward(x, gamma, beta, "eval", stats)
            return mean_all(y * r)

        check_grads(f, {"x": x, "gamma": gamma, "beta": beta})


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
            return sum_all(h * h) + sum_all(c)

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
                rows.append(sum_all(h))
            loss = (rows[0] + rows[1] + rows[2] + rows[3]) * (1.0 / 8.0)
        tape.backward(loss)
        unrolled = [p.w_x.grad, p.w_h.grad, p.b.grad, seq.grad]

        for a, b in zip(fused, unrolled):
            assert max_rel_err(a, b) < 1e-10

    def test_empty_sequence_rejected(self):
        p = LSTMParams.create(3, 2, np.random.default_rng(20))
        with pytest.raises(ContractError):
            lstm_sequence(Tensor(np.zeros((0, 3))), p)


def slice_row(seq, t):
    """Row t of a matrix as a 1-d tensor, on the tape."""
    from qsumm.tensor import reshape, slice_cols, reverse_rows

    T, d = seq.data.shape
    # transpose trick is overkill; reshape to (T*d,) is not sliceable by row,
    # so go through slice of the transposed view via two reshapes
    flat = reshape(seq, (1, T * d))
    return reshape(slice_cols(flat, t * d, (t + 1) * d), (d,))


class TestBiLSTM:
    def test_single_step_equals_cells(self):
        rng = np.random.default_rng(21)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        x = rng.standard_normal((1, 3))
        out = bilstm_forward(Tensor(x), pf, pb)
        hf, _ = lstm_cell(Tensor(x[0]), Tensor(np.zeros(2)), Tensor(np.zeros(2)), pf)
        hb, _ = lstm_cell(Tensor(x[0]), Tensor(np.zeros(2)), Tensor(np.zeros(2)), pb)
        assert_allclose(out.data, np.concatenate([hf.data, hb.data])[None, :])

    def test_output_shape(self):
        rng = np.random.default_rng(22)
        pf = LSTMParams.create(4, 3, rng)
        pb = LSTMParams.create(4, 3, rng)
        for T in (1, 2, 7):
            out = bilstm_forward(Tensor(rng.standard_normal((T, 4))), pf, pb)
            assert out.data.shape == (T, 6)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(23)
        pf = LSTMParams.create(4, 3, rng)
        pb = LSTMParams.create(4, 3, rng)
        seq = rng.standard_normal((5, 4))
        a = bilstm_forward(Tensor(seq), pf, pb).data
        b = bilstm_forward(Tensor(seq[::-1].copy()), pb, pf).data
        swapped = np.concatenate([b[:, 3:], b[:, :3]], axis=1)
        assert max_rel_err(a, swapped[::-1]) < 1e-12

    def test_temporal_locality(self):
        rng = np.random.default_rng(24)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        seq = rng.standard_normal((6, 3))
        base = bilstm_forward(Tensor(seq), pf, pb).data
        bumped = seq.copy()
        bumped[3] += 1.0
        out = bilstm_forward(Tensor(bumped), pf, pb).data
        # forward half: rows before t=3 unchanged; backward half: rows after
        assert_allclose(out[:3, :2], base[:3, :2])
        assert_allclose(out[4:, 2:], base[4:, 2:])
        assert not np.allclose(out[3], base[3])

    def test_gradients(self):
        rng = np.random.default_rng(25)
        pf = LSTMParams.create(3, 2, rng)
        pb = LSTMParams.create(3, 2, rng)
        seq = Tensor(rng.standard_normal((4, 3)))
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
            bilstm_forward(Tensor(np.zeros((0, 3))), pf, pb)


def stacked_and_separate(seed, n_seq=3, T=5, d_in=4, d_h=3):
    rng = np.random.default_rng(seed)
    pf = LSTMParams.create(d_in, d_h, rng)
    pb = LSTMParams.create(d_in, d_h, rng)
    seqs = [rng.standard_normal((T, d_in)) for _ in range(n_seq)]
    return pf, pb, seqs


class TestBatchedBiLSTM:
    """Sequences stacked by rows through one bilstm_forward call."""

    def test_values_match_separate_calls(self):
        pf, pb, seqs = stacked_and_separate(27)
        out = bilstm_forward(Tensor(np.vstack(seqs)), pf, pb, n_seq=3).data
        separate = np.vstack([bilstm_forward(Tensor(s), pf, pb).data for s in seqs])
        assert_allclose(out, separate, rtol=0, atol=0)

    def test_matches_unrolled_cells_both_directions(self):
        pf, pb, seqs = stacked_and_separate(28)
        T, H = 5, 3
        out = bilstm_forward(Tensor(np.vstack(seqs)), pf, pb, n_seq=3).data
        for b, seq in enumerate(seqs):
            rows = out[b * T : (b + 1) * T]
            for params, order, cols in ((pf, range(T), slice(0, H)),
                                        (pb, range(T - 1, -1, -1), slice(H, 2 * H))):
                h = Tensor(np.zeros(H))
                c = Tensor(np.zeros(H))
                for t in order:
                    h, c = lstm_cell(Tensor(seq[t]), h, c, params)
                    assert max_rel_err(rows[t, cols], h.data) < 1e-12

    def test_gradients_match_separate_calls(self):
        pf, pb, seqs = stacked_and_separate(29)
        r = np.random.default_rng(30).standard_normal((15, 6))
        weights = [pf.w_x, pf.w_h, pf.b, pb.w_x, pb.w_h, pb.b]

        stacked = Tensor(np.vstack(seqs))
        with Tape(watch=weights + [stacked]) as tape:
            loss = sum_all(bilstm_forward(stacked, pf, pb, n_seq=3) * r)
        tape.backward(loss)
        batched = [w.grad.copy() for w in weights] + [stacked.grad.copy()]

        parts = [Tensor(s) for s in seqs]
        with Tape(watch=weights + parts) as tape:
            loss = sum_all(bilstm_forward(parts[0], pf, pb) * r[:5])
            for i in (1, 2):
                loss = loss + sum_all(bilstm_forward(parts[i], pf, pb) * r[5 * i : 5 * i + 5])
        tape.backward(loss)
        separate = [w.grad for w in weights] + [np.vstack([p.grad for p in parts])]

        for a, b in zip(batched, separate):
            assert max_rel_err(a, b) < 1e-10

    def test_rows_must_split_evenly(self):
        pf, pb, seqs = stacked_and_separate(31)
        with pytest.raises(DimensionError):
            bilstm_forward(Tensor(np.vstack(seqs)[:-1]), pf, pb, n_seq=3)


def mixed_groups(seed, T=5, d_h=3):
    """A one-sequence group of width 4 and a two-sequence group of width 6."""
    rng = np.random.default_rng(seed)
    groups = []
    for d_in, n_seq in ((4, 1), (6, 2)):
        pf = LSTMParams.create(d_in, d_h, rng)
        pb = LSTMParams.create(d_in, d_h, rng)
        groups.append((Tensor(rng.standard_normal((n_seq * T, d_in))), n_seq,
                       [(pf, False), (pb, True)]))
    return groups


class TestRecurrenceGroups:
    """Groups of different input width and sequence count in one call."""

    def test_values_match_separate_calls(self):
        groups = mixed_groups(32)
        out = _recurrence(groups, "test").data
        separate = np.vstack([bilstm_forward(seq, pf, pb, n_seq=n).data
                              for seq, n, [(pf, _), (pb, _)] in groups])
        assert_allclose(out, separate, rtol=0, atol=0)

    def test_gradients_match_separate_calls(self):
        groups = mixed_groups(33)
        watch = [t for seq, _, dirs in groups
                 for t in [seq] + [w for p, _ in dirs for w in (p.w_x, p.w_h, p.b)]]
        r = np.random.default_rng(34).standard_normal((15, 6))

        with Tape(watch=watch) as tape:
            loss = sum_all(_recurrence(groups, "test") * r)
        tape.backward(loss)
        fused = [t.grad.copy() for t in watch]

        with Tape(watch=watch) as tape:
            (a, n_a, [(pfa, _), (pba, _)]), (b, n_b, [(pfb, _), (pbb, _)]) = groups
            loss = sum_all(bilstm_forward(a, pfa, pba, n_seq=n_a) * r[:5])
            loss = loss + sum_all(bilstm_forward(b, pfb, pbb, n_seq=n_b) * r[5:])
        tape.backward(loss)
        for x, t in zip(fused, watch):
            assert np.array_equal(x, t.grad)

    def test_groups_must_agree_on_length_and_directions(self):
        (a, _, dirs_a), (b, _, dirs_b) = mixed_groups(35)
        with pytest.raises(DimensionError, match="sequence length"):
            _recurrence([(a, 1, dirs_a), (b, 1, dirs_b)], "test")
        with pytest.raises(DimensionError, match="direction count"):
            _recurrence([(a, 1, dirs_a), (b, 2, dirs_b[:1])], "test")
