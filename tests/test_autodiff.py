"""Kernel tests: forward values against hand math, gradients against finite differences."""

import numpy as np
import pytest

from rptdetect import autodiff as ad
from rptdetect.errors import NotScalarLoss, ShapeMismatch


def test_leaky_relu_negative_slope():
    tape = ad.Tape()
    x = tape.constant([-1.0, 0.5])
    y = ad.leaky_relu(x, alpha=0.2)
    np.testing.assert_allclose(y.data, [-0.2, 0.5])


def test_softmax_uniform_by_symmetry():
    tape = ad.Tape()
    y = ad.segment_softmax(tape.constant([0.0, 0.0, 0.0]), np.array([0, 3]))
    np.testing.assert_allclose(y.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_two_logits_matches_exp_formula():
    # direct evaluation: e^1/(e^1+e^2), e^2/(e^1+e^2)
    tape = ad.Tape()
    y = ad.segment_softmax(tape.constant([1.0, 2.0]), np.array([0, 2]))
    np.testing.assert_allclose(y.data, [0.2689414213699951, 0.7310585786300049],
                               atol=1e-12)


def test_softmax_rows_are_probability_vectors(rng):
    tape = ad.Tape()
    x = tape.constant(rng.normal(size=(40, 7)) * 30)
    y = ad.masked_softmax_rows(x, np.ones((40, 7), dtype=bool))
    assert (y.data >= 0).all()
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    tape = ad.Tape()
    y = ad.segment_softmax(tape.constant([1000.0, -1000.0]), np.array([0, 2]))
    assert np.isfinite(y.data).all()
    np.testing.assert_allclose(y.data.sum(), 1.0, atol=1e-12)


def test_backward_square_rule():
    tape = ad.Tape()
    w = tape.parameter("w", [3.0])
    loss = ad.matmul(w, w)
    grads = tape.backward(loss)
    np.testing.assert_allclose(grads["w"], [6.0])


def test_backward_addition_gives_unit_gradients():
    tape = ad.Tape()
    a = tape.parameter("a", 2.0)
    b = tape.parameter("b", 5.0)
    grads = tape.backward(ad.add(a, b))
    np.testing.assert_allclose(grads["a"], 1.0)
    np.testing.assert_allclose(grads["b"], 1.0)


def test_off_path_parameter_gets_zero_gradient():
    tape = ad.Tape()
    w = tape.parameter("w", [3.0])
    unused = tape.parameter("unused", np.ones((2, 2)))
    grads = tape.backward(ad.matmul(w, w))
    np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))


def test_backward_rejects_non_scalar_loss():
    tape = ad.Tape()
    w = tape.parameter("w", [1.0, 2.0])
    with pytest.raises(NotScalarLoss):
        tape.backward(ad.scale(w, 2.0))


def test_shape_mismatch_raised():
    tape = ad.Tape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        ad.matmul(a, b)
    with pytest.raises(ShapeMismatch):
        ad.Tensor(np.ones((2, 2, 2)), tape, False)


def test_deterministic_bitwise_repeat(rng):
    x = rng.normal(size=(6, 5))
    w = rng.normal(size=(5, 4))

    def run():
        tape = ad.Tape()
        out = ad.masked_softmax_rows(ad.matmul(tape.constant(x), tape.constant(w)),
                                     np.ones((6, 4), dtype=bool))
        return out.data.tobytes()

    assert run() == run()


# --- finite-difference battery -------------------------------------------------

def test_quadratic_fd_error_tiny():
    def build(params):
        tape = ad.Tape()
        w = tape.parameter("w", params["w"])
        return tape, ad.matmul(w, w)

    err = ad.finite_diff_check(build, {"w": np.array([1.5, -2.0, 0.7])})
    assert err < 1e-8


def test_sigmoid_chain_fd_error():
    def build(params):
        tape = ad.Tape()
        w = tape.parameter("w", params["w"])
        x = tape.constant([0.3, -0.4, 1.1])
        return tape, ad.matmul(ad.sigmoid(ad.sigmoid(w)), x)

    err = ad.finite_diff_check(build, {"w": np.array([0.5, -1.2, 2.0])})
    assert err < 1e-6


def test_leaky_relu_fd_away_from_kink():
    # inputs with margin far beyond 10 * eps never cross the kink
    def build(params):
        tape = ad.Tape()
        w = tape.parameter("w", params["w"])
        x = tape.constant([1.0, 1.0, 1.0])
        return tape, ad.matmul(ad.leaky_relu(w, 0.2), x)

    err = ad.finite_diff_check(build, {"w": np.array([0.5, -0.5, 2.0])}, eps=1e-5)
    assert err < 1e-6


def _fd(build, params, tol=1e-6):
    err = ad.finite_diff_check(build, params)
    assert err < tol, f"finite-difference error {err}"


def test_matmul_variants_gradients(rng):
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(4, 2))
    v = rng.normal(size=4)
    u = rng.normal(size=3)

    def build(params):
        tape = ad.Tape()
        a = tape.parameter("A", params["A"])
        b = tape.parameter("B", params["B"])
        w = tape.parameter("v", params["v"])
        prod = ad.matmul(a, b)                       # (3,2)
        mv = ad.matmul(a, w)                         # (3,)
        vm = ad.matmul(tape.constant(u), a)          # (4,)
        s = ad.add(ad.matmul(mv, tape.constant(u)), ad.matmul(vm, w))
        return tape, ad.add(s, ad.matmul(ad.matmul(prod, tape.constant(np.ones(2))),
                                         tape.constant(np.ones(3))))

    _fd(build, {"A": A, "B": B, "v": v})


def test_elementwise_and_shape_op_gradients(rng):
    x = rng.normal(size=(4, 3))
    k = rng.normal(size=3)

    def build(params):
        tape = ad.Tape()
        X = tape.parameter("x", params["x"])
        kk = tape.parameter("k", params["k"])
        e = ad.elu(X)
        l = ad.leaky_relu(e, 0.2)
        h = ad.hconcat([l, ad.colscale(X, tape.constant(np.ones(4)))])
        r = ad.rows(h, np.array([0, 2, 2, 3, 1]))
        c = ad.col(r, 1)
        t = ad.transpose(r)
        kc = ad.reshape(ad.vconcat([ad.as_column(kk), ad.as_column(c)]), (8,))
        s = ad.slice1d(kc, 1, 6)
        out = ad.add(ad.matmul(s, tape.constant(np.ones(5))),
                     ad.matmul(ad.matmul(t, tape.constant(np.ones(5))),
                               tape.constant(np.ones(6))))
        return tape, out

    _fd(build, {"x": x, "k": k})


def test_segment_ops_gradients(rng):
    offsets = np.array([0, 2, 5, 6])
    H = rng.normal(size=(6, 3))
    e = rng.normal(size=6)

    def build(params):
        tape = ad.Tape()
        h = tape.parameter("H", params["H"])
        logits = tape.parameter("e", params["e"])
        alpha = ad.segment_softmax(logits, offsets)
        f = ad.segment_weighted_sum(alpha, h, offsets)
        return tape, ad.matmul(ad.matmul(f, tape.constant(np.ones(3))),
                               tape.constant([1.0, -2.0, 0.5]))

    _fd(build, {"H": H, "e": e})


def test_segment_softmax_normalizes_each_segment(rng):
    tape = ad.Tape()
    offsets = np.array([0, 3, 4, 9])
    alpha = ad.segment_softmax(tape.constant(rng.normal(size=9) * 10), offsets)
    for a, b in zip(offsets[:-1], offsets[1:]):
        np.testing.assert_allclose(alpha.data[a:b].sum(), 1.0, atol=1e-12)


def _segment_softmax_loop(x, g, offsets):
    """Per-segment reference for segment_softmax: values and input gradient."""
    y = np.empty_like(x)
    gx = np.empty_like(x)
    for a, b in zip(offsets[:-1], offsets[1:]):
        e = np.exp(x[a:b] - x[a:b].max())
        y[a:b] = e / e.sum()
        gx[a:b] = y[a:b] * (g[a:b] - np.dot(g[a:b], y[a:b]))
    return y, gx


def test_segment_softmax_matches_per_segment_loop(rng):
    sizes = rng.integers(1, 12, size=400)
    sizes[::5] = 1  # many length-1 segments
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    x = rng.normal(size=offsets[-1]) * 5.0
    x[::7] = 1e3
    x[3::11] = -1e3
    g = rng.normal(size=offsets[-1])
    tape = ad.Tape()
    xt = tape.parameter("x", x)
    y = ad.segment_softmax(xt, offsets)
    grads = tape.backward(ad.matmul(y, tape.constant(g)))
    y_ref, gx_ref = _segment_softmax_loop(x, g, offsets)
    # reductions may add in another order: allow a few float64 ulps
    np.testing.assert_allclose(y.data, y_ref, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(grads["x"], gx_ref, rtol=1e-12, atol=1e-14)
    assert np.all(y.data[offsets[:-1][sizes == 1]] == 1.0)


@pytest.mark.parametrize("n_rows,idx", [
    (7, np.array([5, 0, 5, 2, 6, 0, 5, 1, 1, 4])),  # row 3 never gathered
    (50, np.random.default_rng(3).integers(0, 50, size=600)),
])
def test_rows_backward_matches_add_at(rng, n_rows, idx):
    X = rng.normal(size=(n_rows, 3))
    g = rng.normal(size=(idx.size, 3))
    tape = ad.Tape()
    gathered = ad.rows(tape.parameter("X", X), idx)
    flat = ad.reshape(gathered, (idx.size * 3,))
    grads = tape.backward(ad.matmul(flat, tape.constant(g.ravel())))
    expect = np.zeros_like(X)
    np.add.at(expect, idx, g)
    np.testing.assert_allclose(grads["X"], expect, rtol=1e-13, atol=1e-15)


def test_vconcat_and_reshape_gradients(rng):
    def build(params):
        tape = ad.Tape()
        a = tape.parameter("a", params["a"])
        b = tape.parameter("b", params["b"])
        stacked = ad.vconcat([a, tape.constant(np.ones((1, 3))), b])  # (6, 3)
        wide = ad.reshape(stacked, (3, 6))
        return tape, ad.matmul(ad.matmul(wide, tape.constant(np.arange(6.0))),
                               tape.constant([1.0, -0.5, 2.0]))

    _fd(build, {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3, 3))})
    tape = ad.Tape()
    with pytest.raises(ShapeMismatch):
        ad.reshape(tape.constant(np.ones((2, 3))), (4, 2))
    with pytest.raises(ShapeMismatch):
        ad.vconcat([tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 2)))])


def test_masked_softmax_rows_gradients_and_masking(rng):
    mask = np.array([[True, True, False],
                     [True, False, True],
                     [False, False, False]])
    E = rng.normal(size=(3, 3))

    def build(params):
        tape = ad.Tape()
        e = tape.parameter("E", params["E"])
        B = ad.masked_softmax_rows(e, mask)
        return tape, ad.matmul(ad.matmul(B, tape.constant(np.ones(3))),
                               tape.constant([1.0, 2.0, 3.0]))

    _fd(build, {"E": E})
    tape = ad.Tape()
    B = ad.masked_softmax_rows(tape.constant(E), mask)
    np.testing.assert_allclose(B.data[0].sum(), 1.0, atol=1e-12)
    assert B.data[0, 2] == 0.0
    np.testing.assert_array_equal(B.data[2], 0.0)


def test_scatter_stack_and_column_gradients(rng):
    def build(params):
        tape = ad.Tape()
        S = tape.parameter("S", params["S"])
        big = ad.scatter_rows(S, np.array([3, 0]), 5)
        colv = ad.as_column(ad.matmul(big, tape.constant(np.ones(3))))
        return tape, ad.matmul(ad.col(colv, 0), tape.constant(np.arange(5.0)))

    _fd(build, {"S": rng.normal(size=(2, 3))})


def test_bce_with_logits_gradients_and_value(rng):
    y = np.array([1.0, 0.0, 1.0, 0.0])

    def build(params):
        tape = ad.Tape()
        t = tape.parameter("t", params["t"])
        return tape, ad.bce_with_logits_mean(t, y)

    t0 = rng.normal(size=4)
    _fd(build, {"t": t0})
    tape = ad.Tape()
    loss = ad.bce_with_logits_mean(tape.constant(np.zeros(4)), y)
    np.testing.assert_allclose(float(loss.data), np.log(2.0), atol=1e-12)


def test_sigmoid_stable_at_extremes():
    tape = ad.Tape()
    s = ad.sigmoid(tape.constant([800.0, -800.0]))
    np.testing.assert_allclose(s.data, [1.0, 0.0], atol=1e-12)
    assert np.isfinite(s.data).all()
