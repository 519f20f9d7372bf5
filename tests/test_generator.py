import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsumm import layers
from qsumm.errors import ConfigError, ContractError, DimensionError
from qsumm.gradcheck import grad_check
from qsumm.generator import (
    GeneratorConfig,
    g_e_encode,
    g_g_gate,
    g_p_score,
    g_r_fuse,
    generator_forward,
    generator_shapes,
    init_generator_params,
    select_shots,
)
from qsumm.tensor import Tape, Tensor, as_tensor, concat_cols, mean_all, relu, reshape

TINY = GeneratorConfig(d_frame=6, d_shot=8, d_text=4, d_fused=8, d_qenc=4, d_h=8, d_pred=8)


def tiny_params(seed=0):
    return init_generator_params(TINY, np.random.default_rng(seed))


def tiny_inputs(T=5, seed=1):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((T, TINY.d_frame)),
        rng.standard_normal((T, TINY.d_shot)),
        rng.standard_normal(TINY.d_text),
    )


def reference_fuse(frame_feats, shot_feats, query_emb, params):
    """The fuse stage as the chain of taped primitives that g_r_fuse's
    one node replaced: concat -> FC -> ReLU, joined with the query FC."""
    visual = relu(layers.linear_forward(concat_cols(as_tensor(frame_feats), as_tensor(shot_feats)),
                                        params.fuse_w, params.fuse_b))
    d_text = params.query_w.data.shape[0]
    qs = reshape(as_tensor(query_emb), (np.size(query_emb) // d_text, 1, d_text))
    return concat_cols(visual, relu(layers.linear_forward(qs, params.query_w, params.query_b)))


class TestFuse:
    @pytest.mark.parametrize("T", [1, 2, 13])
    @pytest.mark.parametrize("n_queries", [1, 3])
    def test_one_node_equals_reference_chain(self, T, n_queries):
        params = tiny_params()
        rng = np.random.default_rng(T * 10 + n_queries)
        frame = rng.standard_normal((T, TINY.d_frame)).astype(np.float32)
        shot = rng.standard_normal((T, TINY.d_shot))
        q = rng.standard_normal((n_queries, TINY.d_text))
        q = q[0] if n_queries == 1 else q
        r = rng.standard_normal((n_queries, T, TINY.d_fused + TINY.d_qenc))
        watched = [params.fuse_w, params.fuse_b, params.query_w, params.query_b]
        runs = []
        for fuse in (g_r_fuse, reference_fuse):
            with Tape(watch=watched) as tape:
                out = fuse(frame, shot, q, params)
                tape.backward(mean_all(out * r))
            runs.append([out.data] + [t.grad for t in watched])
        assert np.any(runs[0][0][..., :TINY.d_fused] == 0.0)  # the ReLU mask matters
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    def test_output_shape(self):
        params = tiny_params()
        for T in (1, 3, 9):
            frame, shot, q = tiny_inputs(T)
            out = g_r_fuse(frame, shot, q, params)
            assert out.data.shape == (1, T, TINY.d_fused + TINY.d_qenc)
            out = g_r_fuse(frame, shot, np.stack([q, q, q]), params)
            assert out.data.shape == (3, T, TINY.d_fused + TINY.d_qenc)

    def test_zero_query_passes_text_bias(self):
        params = tiny_params()
        params.query_b.data[:] = np.array([0.5, -0.25, 1.0, -2.0])
        frame, shot, _ = tiny_inputs(4)
        out = g_r_fuse(frame, shot, np.zeros(TINY.d_text), params)
        want = np.maximum(params.query_b.data, 0.0)
        for t in range(4):
            assert_allclose(out.data[0, t, TINY.d_fused:], want)

    def test_queries_differ_only_in_query_half(self):
        params = tiny_params()
        frame, shot, q1 = tiny_inputs(6)
        q2 = np.random.default_rng(9).standard_normal(TINY.d_text)
        a = g_r_fuse(frame, shot, q1, params).data[0]
        b = g_r_fuse(frame, shot, q2, params).data[0]
        assert_allclose(a[:, : TINY.d_fused], b[:, : TINY.d_fused])
        assert not np.allclose(a[:, TINY.d_fused :], b[:, TINY.d_fused :])
        # the query half is identical across rows
        for m in (a, b):
            assert np.all(m[:, TINY.d_fused :] == m[0, TINY.d_fused :])

    def test_shot_count_mismatch(self):
        params = tiny_params()
        with pytest.raises(DimensionError):
            g_r_fuse(np.zeros((3, TINY.d_frame)), np.zeros((4, TINY.d_shot)), np.zeros(TINY.d_text), params)

    @pytest.mark.parametrize("taped", [False, True])
    def test_feature_width_mismatch(self, taped):
        params = tiny_params()
        with Tape() if taped else contextlib.nullcontext():
            with pytest.raises(DimensionError, match="fuse_w rows 14"):
                g_r_fuse(np.zeros((3, TINY.d_frame)), np.zeros((3, TINY.d_shot + 1)),
                         np.zeros(TINY.d_text), params)


class TestEncode:
    def test_single_shot_sequence(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(1)
        f_vq = g_r_fuse(frame, shot, q, params)
        out = g_e_encode(f_vq, params)
        assert out.data.shape == (1, 1, 2 * TINY.d_h)

    def test_nonnegative_after_relu(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(7)
        f_vq = g_r_fuse(frame, shot, q, params)
        out = g_e_encode(f_vq, params)
        assert np.all(out.data >= 0.0)

    def test_eval_mode_deterministic(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(5)
        f_vq = g_r_fuse(frame, shot, q, params)
        a = g_e_encode(f_vq, params).data
        b = g_e_encode(g_r_fuse(frame, shot, q, params), params).data
        assert_allclose(a, b)


class TestScore:
    def test_open_interval(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(8)
        f_eq = g_e_encode(g_r_fuse(frame, shot, q, params), params)
        s = g_p_score(f_eq, params, train=False)
        assert s.data.shape == (1, 8)
        assert np.all(s.data > 0.0) and np.all(s.data < 1.0)

    def test_eval_mode_repeatable(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(6)
        f_eq = g_e_encode(g_r_fuse(frame, shot, q, params), params)
        assert_allclose(
            g_p_score(f_eq, params, train=False).data,
            g_p_score(f_eq, params, train=False).data,
        )

    def test_train_dropout_seeded(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(6)
        f_eq = g_e_encode(g_r_fuse(frame, shot, q, params), params)
        a = g_p_score(f_eq, params, train=True, rng=np.random.default_rng(3)).data
        b = g_p_score(f_eq, params, train=True, rng=np.random.default_rng(3)).data
        c = g_p_score(f_eq, params, train=True, rng=np.random.default_rng(4)).data
        assert_allclose(a, b)
        assert not np.allclose(a, c)


class TestGate:
    def test_symmetry_point_for_any_tau(self):
        for tau in (0.05, 0.1, 1.0, 10.0):
            assert float(g_g_gate(Tensor([0.5]), tau)) == 0.5

    def test_closed_form_extremes(self):
        k1 = float(g_g_gate(Tensor([1.0]), 0.1))
        k0 = float(g_g_gate(Tensor([0.0]), 0.1))
        assert abs(k1 - 0.9999546021312976) < 1e-12
        assert abs(k1 - 0.9999546) < 1e-6
        assert abs(k0 - 4.5397868702434395e-05) < 1e-12

    def test_complement_identity(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 1.0, 64)
        k = g_g_gate(Tensor(s), 0.1).data
        kc = g_g_gate(Tensor(1.0 - s), 0.1).data
        assert np.max(np.abs(k + kc - 1.0)) < 1e-12

    def test_monotone_in_s(self):
        s = np.linspace(0.0, 1.0, 101)
        k = g_g_gate(Tensor(s), 0.1).data
        assert np.all(np.diff(k) > 0)

    def test_binarizes_at_low_temperature(self):
        s = np.array([0.0, 0.1, 0.25, 0.75, 0.9, 1.0])
        k = g_g_gate(Tensor(s), 0.05).data
        assert np.max(np.abs(k - np.round(s))) < 1e-3

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            g_g_gate(Tensor([0.5]), 0.0)
        with pytest.raises(ConfigError):
            g_g_gate(Tensor([0.5]), -1.0)

    def test_gate_is_differentiable_on_tape(self):
        s = Tensor([0.45, 0.55])
        with Tape(watch=[s]) as tape:
            loss = mean_all(g_g_gate(s, 0.1))
        tape.backward(loss)
        assert np.all(s.grad > 0)


class TestSelect:
    def test_threshold_rule(self):
        assert_allclose(select_shots(np.array([0.9, 0.1]), 0.5), [1, 0])

    def test_ties_excluded(self):
        assert_allclose(select_shots(np.array([0.5, 0.5]), 0.5), [0, 0])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(0, 1, 30)
        prev = select_shots(s, 0.1)
        for thr in (0.3, 0.5, 0.7, 0.9):
            cur = select_shots(s, thr)
            assert np.all(cur <= prev)
            prev = cur

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            select_shots(np.array([0.5]), 0.0)


class TestComposition:
    def test_forward_bundle_consistency(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(5)
        fwd = generator_forward(params, frame, shot, q, train=False)
        assert_allclose(fwd.k.data, g_g_gate(fwd.s, params.tau).data)
        assert fwd.f_vq.data.shape == (1, 5, TINY.d_fused + TINY.d_qenc)
        assert fwd.f_eq.data.shape == (1, 5, 2 * TINY.d_h)
        assert fwd.s.data.shape == fwd.k.data.shape == (1, 5)

    def test_frame_perturbation_moves_own_score(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(6)
        base = generator_forward(params, frame, shot, q, train=False).s.data
        bumped = frame.copy()
        bumped[2] += 2.0
        moved = generator_forward(params, bumped, shot, q, train=False).s.data
        assert not np.isclose(moved[0, 2], base[0, 2])

    def test_full_generator_gradcheck(self):
        params = tiny_params(seed=7)
        frame, shot, q = tiny_inputs(5, seed=8)
        # small loss scale keeps finite-difference roundoff below the
        # relative-error floor at dead dropout coordinates
        r1 = np.random.default_rng(9).standard_normal(5) * 0.01
        r2 = np.random.default_rng(10).standard_normal(5) * 0.01

        def f():
            fwd = generator_forward(
                params, frame, shot, q, train=True, rng=np.random.default_rng(11)
            )
            return mean_all(fwd.s * r1) + mean_all(fwd.k * r2)

        err = grad_check(f, params.tensors(), seed=12)
        assert err < 1e-4, f"generator composite gradient error {err:.3g}"


class TestStackedQueries:
    """A (Q, d_text) stack of queries in eval mode gives, query by query,
    the sequences of one-query calls bit for bit."""

    @pytest.mark.parametrize("T", [1, 7, 13])
    def test_rows_equal_one_query_calls(self, T):
        params = tiny_params(seed=4)
        frame, shot, _ = tiny_inputs(T, seed=T)
        queries = np.random.default_rng(5).standard_normal((5, TINY.d_text))
        queries[2] = 0.0  # a none-present query embeds to zeros
        stacked = generator_forward(params, frame, shot, queries, train=False)
        assert stacked.s.data.shape == (5, T)
        for i, q in enumerate(queries):
            one = generator_forward(params, frame, shot, q, train=False)
            for name in ("f_vq", "f_eq", "s", "k"):
                assert np.array_equal(getattr(stacked, name).data[i : i + 1],
                                      getattr(one, name).data), (name, i)

    def test_stack_of_one_equals_one_query(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(6)
        one = generator_forward(params, frame, shot, q, train=False)
        stacked = generator_forward(params, frame, shot, q[None], train=False)
        assert np.array_equal(stacked.k.data, one.k.data)

    def test_train_mode_takes_one_query(self):
        params = tiny_params()
        frame, shot, q = tiny_inputs(6)
        with pytest.raises(ContractError, match="one query"):
            generator_forward(params, frame, shot, np.stack([q, q]), train=True,
                              rng=np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(1, 1, TINY.d_text), (2, 1, TINY.d_text), (0, TINY.d_text),
                                       (), (TINY.d_text + 1,), (1, TINY.d_text - 1)])
    @pytest.mark.parametrize("train", [False, True])
    def test_query_must_be_a_vector_or_nonempty_stack(self, shape, train):
        params = tiny_params()
        frame, shot, _ = tiny_inputs(6)
        with pytest.raises(DimensionError, match=rf"query shape \({', '.join(map(str, shape))}"):
            generator_forward(params, frame, shot, np.zeros(shape), train=train,
                              rng=np.random.default_rng(0))

    def test_one_query_tape_is_unchanged(self):
        # the one-query training pass records no row slicing or restacking,
        # and the visual FC and the join are one g_r_fuse node
        params = tiny_params()
        frame, shot, q = tiny_inputs(6)
        with Tape() as tape:
            generator_forward(params, frame, shot, q, train=True, rng=np.random.default_rng(0))
        assert [bwd.__qualname__.split(".")[0] for _, _, bwd in tape.nodes] == [
            "reshape", "matmul", "add", "relu",  # query FC
            "g_r_fuse",  # visual FC, joined with the query FC's row
            "_recurrence", "batchnorm_forward", "relu",  # encoder
            "matmul", "add", "batchnorm_forward", "relu", "dropout", "matmul", "add",
            "reshape", "sigmoid",  # scorer
            "mul", "sub", "mul", "sigmoid",  # gate
        ]


class TestShapes:
    @pytest.mark.parametrize("cfg", [
        TINY,
        GeneratorConfig(d_frame=3, d_shot=5, d_text=7, d_fused=11, d_qenc=13, d_h=17, d_pred=19),
    ])
    def test_shapes_match_init(self, cfg):
        params = init_generator_params(cfg, np.random.default_rng(0))
        shapes = generator_shapes(cfg)
        assert list(shapes.items()) == [(k, t.data.shape) for k, t in params.tensors().items()]


class TestDerivedTensors:
    # the hand-written key list that tensors() replaced; keys name checkpoint sections
    KEYS = [
        "fuse_w", "fuse_b", "query_w", "query_b",
        "enc_fwd_wx", "enc_fwd_wh", "enc_fwd_b",
        "enc_bwd_wx", "enc_bwd_wh", "enc_bwd_b",
        "enc_bn_gamma", "enc_bn_beta",
        "pred_w1", "pred_b1", "pred_bn_gamma", "pred_bn_beta", "pred_w2", "pred_b2",
    ]

    def test_keys_and_order_pinned(self):
        params = tiny_params()
        tensors = params.tensors()
        assert list(tensors) == self.KEYS
        assert tensors["enc_fwd_wh"] is params.enc_fwd.w_h
        assert tensors["enc_bwd_b"] is params.enc_bwd.b

    @pytest.mark.parametrize("train", [False, True])
    def test_forward_leaves_every_array_unchanged(self, train):
        params = tiny_params()

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return [obj.copy()]
            if isinstance(obj, Tensor):
                return arrays(obj.data) + arrays(obj.grad)
            if dataclasses.is_dataclass(obj):
                return [a for f in dataclasses.fields(obj) for a in arrays(getattr(obj, f.name))]
            return []

        before = arrays(params)
        frame, shot, q = tiny_inputs(6)
        generator_forward(params, frame, shot, q, train=train, rng=np.random.default_rng(0))
        after = arrays(params)
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestEvalMemory:
    """An eval-mode forward holds no full-length temporaries beyond the
    stage it runs: no (T, d_frame+d_shot) float64 join of the features,
    no pre-activations for more than one block of steps, and the hidden
    states of one time loop at a time."""

    T, H = 400, 64
    CFG = GeneratorConfig(d_frame=512, d_shot=512, d_fused=64, d_h=H)

    def test_peak_is_one_stage(self, monkeypatch):
        # one direction per loop, as at paper scale; blocks of 32 fuse
        # rows and 128 steps
        monkeypatch.setattr(layers, "_LOOP_WEIGHT_BYTES", 0)
        monkeypatch.setattr(layers, "_BLOCK_BYTES", 256 << 10)
        cfg, T, H = self.CFG, self.T, self.H
        params = init_generator_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        frame = rng.standard_normal((T, cfg.d_frame)).astype(np.float32)
        shot = rng.standard_normal((T, cfg.d_shot)).astype(np.float32)
        q = rng.standard_normal(cfg.d_text)
        tracemalloc.start()
        try:
            generator_forward(params, frame, shot, q, train=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        d_in, rows = cfg.d_fused + cfg.d_qenc, 128
        f_vq = T * d_in * 8
        h = T * 2 * H * 8  # the Bi-LSTM output, and each array of its size after it
        recurrence = f_vq + h + (T + 1) * H * 8 + rows * (4 * H + d_in) * 8
        batchnorm = f_vq + 2 * h
        # 1.22 MB against a 1.34 MB bound (the parent peaks at 7.0 MB);
        # a (T, 1024) float64 join adds 3.3 MB, full-T pre-activations
        # 0.56 MB and a second loop's hidden states 0.21 MB
        assert peak < 1.1 * max(recurrence, batchnorm)
