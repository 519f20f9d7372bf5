import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsumm.errors import ConfigError, NumericError
from qsumm.optim import RMS_EPS, OptimizerState, clip_weights, rmsprop_step
from qsumm.tensor import Tensor


class TestRmsprop:
    def test_zero_gradient_decays_acc_only(self):
        p = Tensor([1.0, 2.0])
        p.grad = np.zeros(2)
        state = OptimizerState(acc={"p": np.array([0.4, 0.8])})
        rmsprop_step({"p": p}, state, lr=0.1)
        assert_allclose(p.data, [1.0, 2.0])
        assert_allclose(state.acc["p"], [0.36, 0.72])
        assert state.step == 1

    def test_hand_computed_scalar_step(self):
        p = Tensor([0.0])
        p.grad = np.array([1.0])
        state = OptimizerState(acc={"p": np.zeros(1)})
        rmsprop_step({"p": p}, state, lr=0.1, decay=0.9)
        assert_allclose(state.acc["p"], [0.1])
        assert_allclose(p.data, [-0.1 / np.sqrt(0.1 + 1e-8)])

    def test_repeated_gradients_converge_to_lr(self):
        p = Tensor([0.0])
        state = OptimizerState(acc={"p": np.zeros(1)})
        prev = 0.0
        for _ in range(400):
            p.grad = np.array([1.0])
            before = float(p.data[0])
            rmsprop_step({"p": p}, state, lr=0.05, decay=0.9)
            prev = before - float(p.data[0])
        # accumulator fixed point is g^2, so step magnitude approaches lr
        assert abs(prev - 0.05) < 1e-4

    def test_none_grad_skips_update(self):
        p = Tensor([3.0])
        state = OptimizerState(acc={"p": np.array([1.0])})
        rmsprop_step({"p": p}, state, lr=0.1)
        assert_allclose(p.data, [3.0])
        assert_allclose(state.acc["p"], [0.9])

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor([1.0])
        p.grad = np.array([np.nan])
        state = OptimizerState.for_params({"enc_w": p})
        with pytest.raises(NumericError) as ei:
            rmsprop_step({"enc_w": p}, state, lr=0.1)
        assert "enc_w" in str(ei.value)

    def test_bad_lr(self):
        p = Tensor([1.0])
        with pytest.raises(ConfigError):
            rmsprop_step({"p": p}, OptimizerState.for_params({"p": p}), lr=0.0)

    def test_accumulators_stay_nonnegative(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.standard_normal(8))
        state = OptimizerState.for_params({"p": p})
        for _ in range(50):
            p.grad = rng.standard_normal(8)
            rmsprop_step({"p": p}, state, lr=0.01)
            assert np.all(state.acc["p"] >= 0.0)


def reference_rmsprop_step(params, state, lr, decay=0.9):
    """rmsprop_step as one numpy expression per tensor, the oracle of the
    buffered update."""
    for name, p in params.items():
        acc = state.acc[name]
        g = p.grad
        acc *= decay
        if g is not None:
            acc += (1.0 - decay) * g * g
            p.data -= lr * g / np.sqrt(acc + RMS_EPS)
    state.step += 1


class TestRmspropOracle:
    def test_buffered_update_bit_equals_expression(self):
        rng = np.random.default_rng(5)
        grads = {
            "random": lambda: rng.standard_normal((7, 9)),
            "zero": lambda: np.zeros((7, 9)),
            "subnormal": lambda: rng.standard_normal((7, 9)) * 1e-310,
            "none": lambda: None,
        }
        init = {name: rng.standard_normal((7, 9)) for name in grads}
        sides = []
        for _ in range(2):
            params = {name: Tensor(x.copy()) for name, x in init.items()}
            sides.append((params, OptimizerState.for_params(params)))
        for _ in range(5):
            drawn = {name: draw() for name, draw in grads.items()}
            assert np.all(np.abs(drawn["subnormal"]) < np.finfo(np.float64).tiny)
            for params, _ in sides:
                for name, p in params.items():
                    p.grad = drawn[name]
            (got, got_state), (want, want_state) = sides
            rmsprop_step(got, got_state, lr=0.01, decay=0.9)
            reference_rmsprop_step(want, want_state, lr=0.01, decay=0.9)
            for name in grads:
                assert got[name].data.tobytes() == want[name].data.tobytes()
                assert got_state.acc[name].tobytes() == want_state.acc[name].tobytes()
            assert got_state.step == want_state.step

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_non_finite_entry_is_rejected(self, bad):
        p = Tensor(np.zeros(5))
        p.grad = np.arange(5.0)
        p.grad[3] = bad
        with pytest.raises(NumericError):
            rmsprop_step({"p": p}, OptimizerState.for_params({"p": p}), lr=0.1)


class TestClipWeights:
    def test_within_range_unchanged(self):
        p = Tensor([0.005, -0.009])
        clip_weights({"p": p}, 0.01)
        assert_allclose(p.data, [0.005, -0.009])

    def test_clamp_definition(self):
        p = Tensor([0.7, -0.3])
        clip_weights({"p": p}, 0.01)
        assert_allclose(p.data, [0.01, -0.01])

    def test_postcondition_on_random_params(self):
        rng = np.random.default_rng(1)
        params = {f"p{i}": Tensor(rng.standard_normal((4, 4))) for i in range(3)}
        clip_weights(params, 0.01)
        for p in params.values():
            assert np.max(np.abs(p.data)) <= 0.01

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.standard_normal(32))
        clip_weights({"p": p}, 0.05)
        once = p.data.copy()
        clip_weights({"p": p}, 0.05)
        assert_allclose(p.data, once)

    def test_bad_c(self):
        with pytest.raises(ConfigError):
            clip_weights({"p": Tensor([1.0])}, 0.0)
        with pytest.raises(ConfigError):
            clip_weights({"p": Tensor([1.0])}, -0.1)
