"""Initialization from the shape tables against explicit constructors.

The reference constructors below draw each parameter by hand, layer by
layer, as the models were first written.  Initializing from
generator_shapes / discriminator_shapes must give the same arrays, bit
for bit, in the same key order, from the same number of draws.
"""

import numpy as np
import pytest

from qsumm.discriminator import (
    DiscriminatorConfig,
    DiscriminatorParams,
    init_discriminator_params,
)
from qsumm.generator import GeneratorConfig, GeneratorParams, init_generator_params
from qsumm.layers import LSTMParams
from qsumm.tensor import Tensor


def reference_linear(d_in, d_out, rng):
    """Weight uniform(-1/sqrt(d_in), 1/sqrt(d_in)), zero bias."""
    bound = 1.0 / np.sqrt(d_in)
    w = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)))
    b = Tensor(np.zeros(d_out))
    return w, b


def reference_lstm(d_in, d_h, rng):
    bx = 1.0 / np.sqrt(d_in)
    bh = 1.0 / np.sqrt(d_h)
    b = np.zeros(4 * d_h)
    b[d_h : 2 * d_h] = 1.0  # forget-gate bias
    return LSTMParams(
        w_x=Tensor(rng.uniform(-bx, bx, size=(d_in, 4 * d_h))),
        w_h=Tensor(rng.uniform(-bh, bh, size=(d_h, 4 * d_h))),
        b=Tensor(b),
    )


def reference_generator(cfg, rng):
    fuse_w, fuse_b = reference_linear(cfg.d_frame + cfg.d_shot, cfg.d_fused, rng)
    query_w, query_b = reference_linear(cfg.d_text, cfg.d_qenc, rng)
    d_enc_in = cfg.d_fused + cfg.d_qenc
    enc_fwd = reference_lstm(d_enc_in, cfg.d_h, rng)
    enc_bwd = reference_lstm(d_enc_in, cfg.d_h, rng)
    pred_w1, pred_b1 = reference_linear(2 * cfg.d_h, cfg.d_pred, rng)
    pred_w2, pred_b2 = reference_linear(cfg.d_pred, 1, rng)
    return GeneratorParams(
        fuse_w=fuse_w, fuse_b=fuse_b, query_w=query_w, query_b=query_b,
        enc_fwd=enc_fwd, enc_bwd=enc_bwd,
        enc_bn_gamma=Tensor(np.ones(2 * cfg.d_h)), enc_bn_beta=Tensor(np.zeros(2 * cfg.d_h)),
        pred_w1=pred_w1, pred_b1=pred_b1,
        pred_bn_gamma=Tensor(np.ones(cfg.d_pred)), pred_bn_beta=Tensor(np.zeros(cfg.d_pred)),
        pred_w2=pred_w2, pred_b2=pred_b2,
        tau=cfg.tau, dropout_p=cfg.dropout_p,
    )


def reference_discriminator(cfg, rng):
    summ_fwd = reference_lstm(cfg.d_summ_in, cfg.d_h, rng)
    summ_bwd = reference_lstm(cfg.d_summ_in, cfg.d_h, rng)
    vid_fwd = reference_lstm(cfg.d_vid_in, cfg.d_h, rng)
    vid_bwd = reference_lstm(cfg.d_vid_in, cfg.d_h, rng)
    fc1_w, fc1_b = reference_linear(4 * cfg.d_h, cfg.d_fc1, rng)
    fc2_w, fc2_b = reference_linear(cfg.d_fc1, cfg.d_fc2, rng)
    fc3_w, fc3_b = reference_linear(cfg.d_fc2, cfg.d_fc3, rng)
    out_w, out_b = reference_linear(cfg.d_fc3, 1, rng)
    return DiscriminatorParams(
        summ_fwd=summ_fwd, summ_bwd=summ_bwd,
        summ_bn_gamma=Tensor(np.ones(2 * cfg.d_h)), summ_bn_beta=Tensor(np.zeros(2 * cfg.d_h)),
        vid_fwd=vid_fwd, vid_bwd=vid_bwd,
        vid_bn_gamma=Tensor(np.ones(2 * cfg.d_h)), vid_bn_beta=Tensor(np.zeros(2 * cfg.d_h)),
        fc1_w=fc1_w, fc1_b=fc1_b, fc2_w=fc2_w, fc2_b=fc2_b,
        fc3_w=fc3_w, fc3_b=fc3_b, out_w=out_w, out_b=out_b,
    )


DESK = GeneratorConfig()
ODD = GeneratorConfig(d_frame=3, d_shot=5, d_text=7, d_fused=11, d_qenc=13, d_h=1, d_pred=1)
CONFIGS = {
    "desk": (DESK, DiscriminatorConfig.for_generator(DESK)),
    "odd": (ODD, DiscriminatorConfig.for_generator(ODD, d_h=1, d_fc1=3, d_fc2=1, d_fc3=1)),
}


def assert_same_init(build, reference, cfg, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = build(cfg, rng), reference(cfg, ref_rng)
    got_t, want_t = got.tensors(), want.tensors()
    assert list(got_t) == list(want_t)
    for name in want_t:
        a, b = got_t[name].data, want_t[name].data
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got, want


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestInitOracle:
    def test_generator(self, name, seed):
        cfg = CONFIGS[name][0]
        got, want = assert_same_init(init_generator_params, reference_generator, cfg, seed)
        assert (got.tau, got.dropout_p) == (want.tau, want.dropout_p)

    def test_discriminator(self, name, seed):
        cfg = CONFIGS[name][1]
        assert_same_init(init_discriminator_params, reference_discriminator, cfg, seed)

    def test_lstm(self, name, seed):
        cfg = CONFIGS[name][0]
        d_in = cfg.d_fused + cfg.d_qenc
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = LSTMParams.create(d_in, cfg.d_h, rng), reference_lstm(d_in, cfg.d_h, ref_rng)
        for a, b in ((got.w_x, want.w_x), (got.w_h, want.w_h), (got.b, want.b)):
            assert a.data.shape == b.data.shape and a.data.tobytes() == b.data.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
