import gc
import math
import weakref

import numpy as np
import pytest

from conequery import autodiff as ad


def leaf(tape, *vals):
    return tape.leaf(np.asarray(vals, dtype=float))


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_forward_examples():
    assert ad.atan2(1.0, 0.0) == pytest.approx(math.pi / 2)
    assert np.allclose(ad.softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    assert ad.minimum(3.0, 5.0) == pytest.approx(3.0)


def test_numpy_passthrough_matches_tensor_path():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    tape = ad.Tape()
    tx, tw = tape.leaf(x), tape.leaf(w)

    def net(a, b):
        return ad.total(ad.relu(ad.matmul(ad.sin(a), b)))

    assert float(ad.values_of(net(tx, tw))) == pytest.approx(float(net(x, w)))


def test_shape_mismatch_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError):
        ad.matmul(tape.leaf(np.ones((2, 3, 1))), tape.leaf(np.ones((3, 2))))


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    with pytest.raises(ValueError):
        ad.add(t1.leaf([1.0]), t2.leaf([1.0]))


def test_guarded_ops_stay_finite():
    tape = ad.Tape()
    x = tape.leaf(np.array([-800.0, 0.0, 800.0]))
    s = ad.sigmoid(x)
    assert np.all(np.isfinite(s.values))
    l = ad.log_sigmoid(x)
    assert np.all(np.isfinite(l.values))
    tape.backward(ad.total(l))
    assert np.all(np.isfinite(x.grad))


def test_log_sigmoid_equals_log_of_sigmoid_above_the_floor():
    # where sigmoid(x) >= 1e-300 the op is log after sigmoid, values and
    # gradient bit for bit; below, where that log sits at its floor, it
    # keeps the value x and the slope 1
    rng = np.random.default_rng(5)
    x = np.concatenate((np.linspace(-690.0, 40.0, 2001), rng.normal(size=50) * 30))
    weights = rng.normal(size=x.shape)
    tape = ad.Tape()
    leaf_x = tape.leaf(x)
    out = ad.log_sigmoid(leaf_x)
    tape.backward(ad.total(ad.multiply(out, weights)))
    s = ad.sigmoid(x)
    assert np.all(s >= 1e-300)
    assert np.array_equal(out.values, np.log(s))
    assert np.array_equal(leaf_x.grad, weights / s * s * (1.0 - s))
    deep = np.array([-1200.0, -760.0, -700.0])
    assert np.array_equal(ad.log_sigmoid(deep), deep)
    tape = ad.Tape()
    leaf_x = tape.leaf(deep)
    tape.backward(ad.total(ad.log_sigmoid(leaf_x)))
    assert np.array_equal(leaf_x.grad, np.ones(3))


@pytest.mark.parametrize("x", [-1200.0, -760.0, -5.0, 0.0, 5.0])
def test_grad_check_log_sigmoid(x):
    assert ad.grad_check(lambda v: ad.total(ad.log_sigmoid(v)), [np.array([x])]) < 1e-6


# ---------------------------------------------------------------------------
# backward basics
# ---------------------------------------------------------------------------


def test_square_gradient():
    tape = ad.Tape()
    x = leaf(tape, 3.0)
    tape.backward(ad.total(ad.multiply(x, x)))
    assert x.grad == pytest.approx([6.0])


def test_l1_gradient_is_sign_vector():
    tape = ad.Tape()
    x = leaf(tape, 1.5, -2.0, 0.0, 3.0)
    tape.backward(ad.total(ad.absval(x)))
    assert x.grad.tolist() == [1.0, -1.0, 0.0, 1.0]  # |x| at 0 -> 0


def test_pairwise_min_tie_goes_to_first():
    tape = ad.Tape()
    a = leaf(tape, 1.0, 2.0)
    b = leaf(tape, 1.0, 5.0)
    tape.backward(ad.total(ad.minimum(a, b)))
    assert a.grad.tolist() == [1.0, 1.0]
    assert b.grad.tolist() == [0.0, 0.0]


def test_clamp_gradient_zero_outside():
    tape = ad.Tape()
    x = leaf(tape, -1.0, 0.5, 3.0)
    tape.backward(ad.total(ad.clamp(x, 0.0, 1.0)))
    assert x.grad.tolist() == [0.0, 1.0, 0.0]


def test_wrap_gradient_is_identity():
    tape = ad.Tape()
    x = leaf(tape, 9.0, -9.0, 0.3)
    w = ad.wrap(x)
    assert np.all(w.values >= -math.pi) and np.all(w.values < math.pi)
    tape.backward(ad.total(w))
    assert x.grad.tolist() == [1.0, 1.0, 1.0]


def test_first_gradient_contribution_is_stored_uncopied():
    # wrap passes its gradient straight on, and backward keeps the array the
    # pull returned, so both tensors share one (read-only) gradient array
    tape = ad.Tape()
    x = leaf(tape, 9.0, -9.0, 0.3)
    y = ad.wrap(x)
    tape.backward(ad.total(ad.multiply(y, np.array([1.0, 2.0, 3.0]))))
    assert x.grad is y.grad
    assert x.grad.tolist() == [1.0, 2.0, 3.0]


def test_gradient_accumulates_across_reuse():
    tape = ad.Tape()
    x = leaf(tape, 2.0)
    y = ad.add(ad.multiply(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
    tape.backward(ad.total(y))
    assert x.grad == pytest.approx([5.0])


def test_fused_op_runs_one_vjp_per_incoming_gradient():
    calls = []

    def product(a, b, c):
        av, bv = ad.values_of(a), ad.values_of(b)

        def vjp(g):
            calls.append(g.copy())
            return g * bv, g * av, None

        return ad.fused(av * bv, (a, b, c), vjp)

    assert product(np.array([2.0]), np.array([3.0]), None).tolist() == [6.0]
    assert calls == []
    tape = ad.Tape()
    x, y = leaf(tape, 2.0), leaf(tape, 3.0)
    z = product(x, y, np.array([7.0]))
    tape.backward(ad.total(ad.add(z, ad.multiply(z, 2.0))))
    assert x.grad.tolist() == [9.0] and y.grad.tolist() == [6.0]
    assert len(calls) == 1 and calls[0].tolist() == [3.0]


def test_gather_scatter_adds():
    tape = ad.Tape()
    table = tape.leaf(np.arange(6.0).reshape(3, 2))
    rows = ad.gather(table, np.array([0, 2, 0]))
    tape.backward(ad.total(rows))
    assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]


@pytest.mark.parametrize("id_shape", [(7,), (3, 5), (40, 9)])
def test_gather_gradient_equals_add_at_reference(id_shape):
    # repeated ids, rows never gathered, 1-D and 2-D id arrays: the scatter
    # must add in np.add.at's order, so the sums agree bit for bit
    rng = np.random.default_rng(37)
    table = rng.normal(size=(12, 4))
    ids = rng.integers(8, size=id_shape)  # rows 8..11 never gathered
    weights = rng.normal(size=id_shape + (4,))
    tape = ad.Tape()
    leaf_table = tape.leaf(table)
    tape.backward(ad.total(ad.multiply(ad.gather(leaf_table, ids), weights)))
    want = np.zeros_like(table)
    np.add.at(want, ids.reshape(-1), weights.reshape(-1, 4))
    assert np.array_equal(leaf_table.grad, want)
    assert np.all(leaf_table.grad[8:] == 0.0)


def test_backward_spends_the_tape():
    tape = ad.Tape()
    x = leaf(tape, 1.0, 2.0)
    loss = ad.total(ad.multiply(x, x))
    tape.backward(loss)
    assert x.grad.tolist() == [2.0, 4.0] and loss.values == 5.0  # both kept
    with pytest.raises(ValueError, match="spent tape"):
        ad.multiply(x, 2.0)
    with pytest.raises(ValueError, match="spent tape"):
        ad.fused(x.values, (x,), lambda g: (g,))
    with pytest.raises(ValueError, match="backward has already run on this tape"):
        tape.backward(loss)
    with pytest.raises(ValueError, match="backward has already run on this tape"):
        tape.leaf([1.0])
    # plain arrays still take the tape-free path
    assert ad.multiply(x.values, 2.0).tolist() == [2.0, 4.0]


def test_spent_graph_is_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        tape = ad.Tape()
        x = leaf(tape, 0.5, 1.5)
        loss = ad.total(ad.sin(ad.multiply(x, x)))
        tape.backward(loss)
        grad = x.grad
        dead = weakref.ref(tape)
        del tape, x, loss
        assert dead() is None
        assert grad.shape == (2,)
    finally:
        gc.enable()


def test_non_scalar_loss_rejected():
    tape = ad.Tape()
    x = leaf(tape, 1.0, 2.0)
    with pytest.raises(ValueError):
        tape.backward(x)


def test_linearity_of_backward():
    # grad of (2*f) equals 2 * grad of f
    rng = np.random.default_rng(31)
    x0 = rng.normal(size=5)

    def run(scale):
        tape = ad.Tape()
        x = tape.leaf(x0)
        loss = ad.total(ad.multiply(ad.sin(x), scale))
        tape.backward(loss)
        return x.grad

    assert np.allclose(run(2.0), 2.0 * run(1.0))


def test_backward_deterministic():
    rng = np.random.default_rng(32)
    x0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 2))

    def run():
        tape = ad.Tape()
        x, w = tape.leaf(x0), tape.leaf(w0)
        h = ad.softmax(ad.matmul(x, w), axis=1)
        tape.backward(ad.total(ad.multiply(h, h)))
        return x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# finite-difference audits
# ---------------------------------------------------------------------------


def test_grad_check_linear():
    err = ad.grad_check(lambda x: ad.total(ad.multiply(x, 3.0)), [np.array([1.0, -2.0, 0.5])])
    assert err < 1e-10


def test_grad_check_sin():
    rng = np.random.default_rng(33)
    err = ad.grad_check(lambda x: ad.total(ad.sin(x)), [rng.normal(size=6)])
    assert err < 1e-7


def test_grad_check_composed_net():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(3, 4))
    w1 = rng.normal(size=(4, 5)) * 0.3
    w2 = rng.normal(size=(5, 1)) * 0.3

    def f(xv, a, b):
        h = ad.relu(ad.matmul(xv, a))
        return ad.mean(ad.log_sigmoid(ad.matmul(h, b)))

    assert ad.grad_check(f, [x, w1, w2]) < 1e-4


def test_grad_check_trig_attention_block():
    # angles -> (cos, sin) features -> softmax mix -> atan2 readout
    rng = np.random.default_rng(35)
    ang = rng.uniform(-math.pi, math.pi, size=(2, 4))
    score = rng.normal(size=(2, 4))

    def f(a, s):
        w = ad.softmax(s, axis=0)
        x = ad.total(ad.multiply(w, ad.cos(a)), axis=0)
        y = ad.total(ad.multiply(w, ad.sin(a)), axis=0)
        return ad.total(ad.atan2(y, x))

    assert ad.grad_check(f, [ang, score]) < 1e-6


def test_grad_check_min_abs_clamp_chain():
    rng = np.random.default_rng(36)
    a = rng.normal(size=8)
    b = rng.normal(size=8)

    def f(x, y):
        d = ad.absval(ad.subtract(x, y))
        return ad.total(ad.clamp(ad.minimum(d, ad.absval(x)), 0.1, 1.5))

    assert ad.grad_check(f, [a, b]) < 1e-6
