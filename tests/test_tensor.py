import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    assert_stack_equals_separate,
    check_grads,
    max_rel_err,
    numeric_grad,
    tape_grad,
)
from qsumm.errors import ContractError, DimensionError
from qsumm.tensor import (
    Tape,
    Tensor,
    _sigmoid,
    absolute,
    add,
    concat_cols,
    concat_rows,
    mean_all,
    mean_rows,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    slice_cols,
    slice_rows,
    sub,
    tanh,
)


class TestForward:
    def test_add_sub_mul(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, -1.0])
        assert_allclose((a + b).data, [4.0, 1.0])
        assert_allclose((a - b).data, [-2.0, 3.0])
        assert_allclose((a * b).data, [3.0, -2.0])

    def test_scalar_operand_sugar(self):
        s = Tensor([0.25, 0.75])
        k = (s * 2.0 - 1.0) * 10.0
        assert_allclose(k.data, [-5.0, 5.0])

    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a), Tensor(b)).data
        assert max_rel_err(got, want) < 1e-12

    def test_activations(self):
        assert float(sigmoid(Tensor(0.0))) == 0.5
        assert float(relu(Tensor(-3.2))) == 0.0
        assert float(relu(Tensor(3.2))) == 3.2
        x = np.linspace(-5.0, 5.0, 101)
        assert_allclose(tanh(Tensor(x)).data, np.tanh(x), rtol=1e-12)

    def test_sigmoid_stable_at_extremes(self):
        y = sigmoid(Tensor([-1000.0, 1000.0])).data
        assert y[0] == 0.0 and y[1] == 1.0
        assert np.all(np.isfinite(y))

    def test_sigmoid_kernel_equals_heaviside_form(self):
        # The numerator _sigmoid took from np.heaviside before it compared
        # z >= 0 directly, kept as the oracle for that rewrite.
        def heaviside_sigmoid(z):
            e = np.exp(-np.abs(z))
            return np.divide(np.maximum(e, np.heaviside(z, 1.0)), 1.0 + e)

        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310,
                   700.0, -700.0]
        z = np.concatenate([special, np.random.default_rng(5).normal(scale=8.0, size=1989)])
        want = heaviside_sigmoid(z).view(np.int64)
        assert np.array_equal(_sigmoid(z).view(np.int64), want)
        buf = z.reshape(4, -1).copy()
        _sigmoid(buf, out=buf)
        assert np.array_equal(buf.ravel().view(np.int64), want)
        # with the scratch the recurrence kernel passes at every step
        buf = z.reshape(4, -1).copy()
        _sigmoid(buf, out=buf, e=np.empty(buf.shape), nonneg=np.empty(buf.shape, dtype=bool))
        assert np.array_equal(buf.ravel().view(np.int64), want)

    def test_structural_ops(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert_allclose(reshape(x, (3, 2)).data, np.arange(6.0).reshape(3, 2))
        assert_allclose(slice_cols(x, 1, 3).data, x.data[:, 1:3])
        y = Tensor(np.arange(4.0).reshape(2, 2))
        assert_allclose(concat_cols(x, y).data, np.hstack([x.data, y.data]))
        q = Tensor(np.arange(4.0).reshape(2, 1, 2))
        joined = concat_cols(x, q).data
        assert joined.shape == (2, 2, 5)
        for i in range(2):
            assert_allclose(joined[i], np.hstack([x.data, np.repeat(q.data[i], 2, axis=0)]))

    def test_row_ops(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        y = Tensor(np.arange(3.0).reshape(1, 3))
        assert_allclose(concat_rows([x, y, x]).data, np.vstack([x.data, y.data, x.data]))
        assert_allclose(slice_rows(x, 1, 2).data, x.data[1:2])
        s = Tensor(np.arange(24.0).reshape(2, 4, 3))
        assert_allclose(concat_rows([s, slice_rows(s, 1, 2)]).data,
                        np.concatenate([s.data, s.data[1:2]]))

    def test_reductions(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert float(mean_all(x)) == 2.5
        assert_allclose(mean_rows(x).data, [1.5, 2.5, 3.5])
        stack = Tensor(np.stack([x.data, 2.0 * x.data]))
        assert_allclose(mean_rows(stack).data, [[1.5, 2.5, 3.5], [3.0, 5.0, 7.0]])

    def test_absolute_value(self):
        assert_allclose(absolute(Tensor([-2.0, 0.0, 3.0])).data, [2.0, 0.0, 3.0])

    def test_no_tape_forward_works(self):
        x = Tensor([1.0, -1.0])
        y = relu(x)
        assert y.grad is None
        assert_allclose(y.data, [1.0, 0.0])


class TestShapeErrors:
    def test_matmul_mismatch_names_shapes(self):
        with pytest.raises(DimensionError) as ei:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)

    def test_add_mismatch(self):
        with pytest.raises(DimensionError) as ei:
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))
        assert str(ei.value) == "add: shapes (2, 3) and (4,) do not broadcast"

    @pytest.mark.parametrize("op", [sub, mul])
    def test_sub_and_mul_mismatch(self, op):
        with pytest.raises(DimensionError) as ei:
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))
        assert str(ei.value) == f"{op.__name__}: shapes (2, 3) and (4,) do not broadcast"

    def test_concat_row_mismatch(self):
        with pytest.raises(DimensionError):
            concat_cols(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))

    def test_slice_bounds(self):
        with pytest.raises(DimensionError):
            slice_cols(Tensor(np.zeros((2, 3))), 2, 2)

    def test_row_op_bounds(self):
        with pytest.raises(DimensionError):
            concat_rows([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2)))])
        with pytest.raises(DimensionError):
            concat_rows([])
        with pytest.raises(DimensionError):
            slice_rows(Tensor(np.zeros((2, 3))), 1, 3)

    def test_concat_cols_leading_axes_must_broadcast(self):
        with pytest.raises(DimensionError):
            concat_cols(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3, 2))))
        with pytest.raises(DimensionError):
            concat_cols(Tensor(np.zeros(3)), Tensor(np.zeros((1, 3))))

    def test_stack_ops_need_a_matrix_or_stack(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 2, 3, 4))), Tensor(np.zeros((4, 2))))
        with pytest.raises(DimensionError):
            mean_rows(Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            slice_rows(Tensor(np.zeros(3)), 0, 1)
        with pytest.raises(DimensionError):
            concat_rows([Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 3, 3)))])


class TestBackward:
    def test_sum_of_weights_grad_is_ones(self):
        w = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        with Tape(watch=[w]) as tape:
            loss = mean_all(w) * 12.0
        tape.backward(loss)
        assert_allclose(w.grad, np.ones((3, 4)))

    def test_least_squares_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 2))
        w = Tensor(rng.standard_normal((4, 2)))

        def f():
            r = matmul(Tensor(x), w) - y
            return mean_all(r * r)

        auto = tape_grad(f, {"w": w})["w"]
        num = numeric_grad(f, {"w": w})["w"]
        assert max_rel_err(auto, num) < 1e-6

    def test_second_backward_rejected(self):
        w = Tensor([1.0, 2.0])
        with Tape(watch=[w]) as tape:
            loss = mean_all(w)
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0])
        with Tape(watch=[w]) as tape:
            y = w * 2.0
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_unwatched_tensor_keeps_no_grad(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        with Tape(watch=[a]) as tape:
            loss = mean_all(a * b)
        tape.backward(loss)
        assert_allclose(a.grad, b.data / 2)
        assert b.grad is None

    def test_watched_but_unreached_gets_zeros(self):
        a = Tensor([1.0])
        b = Tensor([5.0])
        with Tape(watch=[a, b]) as tape:
            loss = mean_all(a * 3.0)
        tape.backward(loss)
        assert_allclose(b.grad, [0.0])

    def test_backward_replaces_stale_grad(self):
        w = Tensor([2.0])
        w.grad = np.array([99.0])
        with Tape(watch=[w]) as tape:
            loss = mean_all(w * w)
        tape.backward(loss)
        assert_allclose(w.grad, [4.0])

    def test_reused_operand_accumulates(self):
        x = Tensor([3.0])
        with Tape(watch=[x]) as tape:
            loss = mean_all(x * x)
        tape.backward(loss)
        assert_allclose(x.grad, [6.0])

    def test_constant_loss_gives_zero_grads(self):
        w = Tensor([1.0, 2.0])
        with Tape(watch=[w]) as tape:
            loss = Tensor(7.0)
        tape.backward(loss)
        assert_allclose(w.grad, [0.0, 0.0])


class TestGradientOracle:
    """Every primitive against central finite differences."""

    def test_elementwise_chain(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            a = Tensor(rng.standard_normal((3, 4)))
            b = Tensor(rng.standard_normal((3, 4)))

            def f():
                return mean_all(sigmoid(a) * tanh(b) + a * 0.3 - b)

            check_grads(f, {"a": a, "b": b})

    def test_broadcast_bias_add(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 3))
        b = Tensor(rng.standard_normal(3))

        def f():
            return mean_all(tanh(add(Tensor(x), b)))

        check_grads(f, {"b": b})

    def test_row_scaling_broadcast(self):
        rng = np.random.default_rng(9)
        f_eq = Tensor(rng.standard_normal((6, 4)))
        s = Tensor(rng.uniform(0.1, 0.9, size=(6, 1)))

        def f():
            return mean_all(mul(f_eq, s))

        check_grads(f, {"f_eq": f_eq, "s": s})

    def test_structural_grads(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((4, 6)))

        def f():
            left = slice_cols(x, 0, 3)
            right = slice_cols(x, 3, 6)
            y = concat_cols(right, left)
            return mean_all(sigmoid(reshape(y, (2, 12))))

        check_grads(f, {"x": x})

    def test_row_grads(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((3, 3)))

        def f():
            y = concat_rows([a, b, a])
            return mean_all(sigmoid(slice_rows(y, 1, 6)) * slice_rows(y, 0, 5))

        check_grads(f, {"a": a, "b": b})

    def test_broadcast_concat_and_pool_grads(self):
        rng = np.random.default_rng(11)
        q = Tensor(rng.standard_normal((3, 1, 5)))
        x = Tensor(rng.standard_normal((7, 4)))
        r = rng.standard_normal((3, 9))

        def f():
            return mean_all(mean_rows(tanh(concat_cols(x, q))) * r)

        check_grads(f, {"q": q, "x": x})

    def test_stacked_matmul_grads(self):
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal((3, 4, 5)))
        b = Tensor(rng.standard_normal((5, 2)))
        r = rng.standard_normal((3, 4, 2)) + np.sign(rng.standard_normal((3, 4, 2)))

        def f():
            return mean_all(matmul(a, b) * r)

        check_grads(f, {"a": a, "b": b})

    def test_matmul_grads(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))

        def f():
            return mean_all(relu(matmul(a, b)) * 2.0)

        check_grads(f, {"a": a, "b": b})

    def test_absolute_grad_away_from_kink(self):
        x = Tensor(np.array([-2.0, -0.5, 0.7, 3.0]))

        def f():
            return mean_all(absolute(x))

        check_grads(f, {"x": x})

    def test_absolute_subgradient_zero_at_kink(self):
        x = Tensor([0.0])
        with Tape(watch=[x]) as tape:
            loss = mean_all(absolute(x))
        tape.backward(loss)
        assert_allclose(x.grad, [0.0])


class TestStacks:
    """A stack's outputs and gradients equal separate per-sequence calls
    bit for bit: a one-row product, too, is each sequence's own."""

    @pytest.mark.parametrize("T", [1, 7])
    def test_matmul(self, T):
        rng = np.random.default_rng(40 + T)
        w = Tensor(rng.standard_normal((5, 6)))
        assert_stack_equals_separate(lambda a: matmul(a, w), rng.standard_normal((4, T, 5)),
                                     {"w": w}, rng.standard_normal((4, T, 6)))

    @pytest.mark.parametrize("T", [1, 7])
    def test_mean_rows(self, T):
        rng = np.random.default_rng(42 + T)
        assert_stack_equals_separate(mean_rows, rng.standard_normal((4, T, 5)), {},
                                     rng.standard_normal((4, 5)))

    @pytest.mark.parametrize("T", [1, 7])
    def test_concat_cols_broadcasts_a_matrix_over_the_stack(self, T):
        # the generator's fuse: a (T, p) visual matrix joins each query's row
        rng = np.random.default_rng(44 + T)
        visual = Tensor(rng.standard_normal((T, 3)))
        assert_stack_equals_separate(lambda q: concat_cols(visual, q),
                                     rng.standard_normal((4, 1, 2)), {"visual": visual},
                                     rng.standard_normal((4, T, 5)))


class TestUnbroadcastOrder:
    """An operand broadcast over the stack axis gets its gradient summed
    over the sequences last to first, as the tape sums separate calls.
    Down the stack each column reads 1, 1e16, -1e16: last to first that
    sums to 1, first to last to 0."""

    R = np.array([1.0, 1e16, -1e16]).reshape(3, 1, 1) * np.ones((3, 1, 2))

    @staticmethod
    def grad_of(fn, x, r):
        """x's gradient of the sum of fn(x) * r, whose output gradient is r."""
        x = Tensor(x)
        with Tape(watch=[x]) as tape:
            loss = mean_all(fn(x) * r) * float(r.size)
        tape.backward(loss)
        return x.grad

    def test_values_tell_the_orders_apart(self):
        assert np.array_equal(self.R[2] + self.R[1] + self.R[0], np.ones((1, 2)))
        assert np.array_equal(self.R.sum(axis=0), np.zeros((1, 2)))

    def test_bias_added_over_a_stack(self):
        stack = Tensor(np.zeros((3, 1, 2)))
        assert np.array_equal(self.grad_of(lambda b: add(stack, b), np.zeros(2), self.R),
                              np.ones(2))

    def test_matrix_concat_cols_broadcasts_over_a_stack(self):
        stack = Tensor(np.zeros((3, 1, 2)))
        r = np.concatenate([self.R, self.R], axis=-1)
        assert np.array_equal(self.grad_of(lambda m: concat_cols(m, stack), np.zeros((1, 2)), r),
                              np.ones((1, 2)))
