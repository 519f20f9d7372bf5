import numpy as np
import pytest

from qsumm.errors import ConfigError, NumericError
from qsumm.gradcheck import grad_check
from qsumm.tensor import Tensor, matmul, mean_all


class TestGradCheck:
    def test_quadratic_loss_is_tight(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        a = a + a.T + 8.0 * np.eye(4)
        w = Tensor(rng.standard_normal((4, 1)))

        def f():
            return mean_all(matmul(matmul(w.reshape((1, 4)), Tensor(a)), w))

        assert grad_check(f, {"w": w}) < 1e-7

    def test_constant_loss_reports_zero(self):
        w = Tensor(np.ones(3))

        def f():
            return Tensor(4.2)

        assert grad_check(f, {"w": w}) == 0.0

    def test_eps_bounds(self):
        w = Tensor([1.0])

        def f():
            return mean_all(w)

        with pytest.raises(ConfigError):
            grad_check(f, {"w": w}, eps=1e-8)
        with pytest.raises(ConfigError):
            grad_check(f, {"w": w}, eps=1e-2)

    def test_non_finite_loss(self):
        w = Tensor([1.0])

        def f():
            return Tensor(np.inf)

        with pytest.raises(NumericError):
            grad_check(f, {"w": w})

    def test_subsampling_is_deterministic(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((40, 40)))
        r = rng.standard_normal((40, 40))

        def f():
            return mean_all(w * r)

        a = grad_check(f, {"w": w}, seed=7, max_coords=32)
        b = grad_check(f, {"w": w}, seed=7, max_coords=32)
        assert a == b
        assert a < 1e-6

    def test_detects_wrong_gradient(self):
        from qsumm.tensor import record

        w = Tensor([0.5, -0.3])

        def broken_square(x):
            out = Tensor(x.data * x.data)
            record(out, (x,), lambda g: [g * x.data])  # missing factor 2
            return out

        def f():
            return mean_all(broken_square(w))

        assert grad_check(f, {"w": w}) > 0.1
