import numpy as np

from qsumm.tensor import Tape, Tensor, mean_all


def numeric_grad(f, params, eps=1e-5):
    """Central-difference gradients of a scalar closure f() per parameter.

    params is a dict name -> Tensor; f reads the tensors' current data.
    Returns a dict name -> ndarray of the same shape.
    """
    out = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f())
            flat[i] = orig - eps
            lo = float(f())
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * eps)
        out[name] = g.reshape(p.data.shape)
    return out


def tape_grad(f, params):
    """Autodiff gradients of a scalar closure f() per parameter."""
    with Tape(watch=params.values()) as tape:
        loss = f()
    tape.backward(loss)
    return {name: p.grad.copy() for name, p in params.items()}


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_grads(f, params, eps=1e-5, tol=1e-6):
    """Assert autodiff and finite differences agree for every parameter."""
    auto = tape_grad(f, params)
    num = numeric_grad(f, params, eps=eps)
    for name in params:
        err = max_rel_err(auto[name], num[name])
        assert err < tol, f"{name}: max relative error {err:.3g} >= {tol}"


def assert_stack_equals_separate(fn, x, params, r, keepdims=False):
    """fn over an (n, T, ...) stack x in one call gives the outputs and
    gradients of n separate calls on its sequences, bit for bit.

    A separate call gets x[i], or with keepdims the one-sequence stack
    x[i:i+1].  The loss of each is the sum of the outputs weighted by r,
    written as mean times count, so every output's gradient is exactly
    its r entry and the two can agree bit for bit.  The gradients
    compared are the input's, restacked for the separate calls, and
    those of the params dict's tensors.
    """
    def run(inputs, rs):
        with Tape(watch=[*inputs, *params.values()]) as tape:
            outs = [fn(t) for t in inputs]
            loss = None
            for out, ri in zip(outs, rs):
                term = mean_all(out * ri) * float(ri.size)
                loss = term if loss is None else loss + term
        tape.backward(loss)
        grads = {k: p.grad.copy() for k, p in params.items()}
        return [out.data for out in outs], [t.grad for t in inputs], grads

    def split(a):
        return [a[i : i + 1] if keepdims else a[i] for i in range(len(a))]

    join = np.concatenate if keepdims else np.stack
    (out,), (dx,), grads = run([Tensor(x.copy())], [r])
    outs, dxs, want_grads = run([Tensor(xi.copy()) for xi in split(x)], split(r))
    assert np.array_equal(out, join(outs))
    assert np.array_equal(dx, join(dxs))
    for k in params:
        assert np.array_equal(grads[k], want_grads[k]), k


def json_values(st):
    """A hypothesis strategy for any JSON value: null, bools, ints up to
    401 digits, floats with NaN and the infinities, strings, lists and
    objects."""
    huge = st.sampled_from([2**63, 2**1024, 10**400, -(10**400)])
    leaves = (st.none() | st.booleans() | st.integers() | huge | st.floats()
              | st.text(max_size=4))
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )
