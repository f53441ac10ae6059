"""Kernel tests: forward values against hand math, gradients against finite differences.

The fused attention ops (``instance_level``, ``pattern_level``) are checked
against finite differences; the numpy kernels inside them against hand math
and per-segment loops.
"""

import numpy as np
import pytest

from rptdetect import autodiff as ad
from rptdetect.errors import NotScalarLoss, ShapeMismatch

from gradcheck import finite_diff_check


def total(x):
    """Scalar sum of a tensor, recorded on its tape: the tests' loss reduction."""
    def backward(g):
        x._accumulate(np.full(x.data.shape, float(g)))

    return x.tape._record(ad.Tensor(x.data.sum(), x.tape, False), (x,), backward)


def test_leaky_relu_negative_slope():
    y, slope = ad._leaky_relu(np.array([-1.0, 0.5]), 0.2)
    np.testing.assert_allclose(y, [-0.2, 0.5])
    np.testing.assert_array_equal(slope, [0.2, 1.0])


def test_elu_kernel_equals_the_masked_formula(rng):
    x = np.concatenate([rng.normal(size=2000) * 5, rng.normal(size=200) * 1e-300,
                        [0.0, 1e-320, -1e-320, 750.0, -750.0, np.inf, -np.inf]])
    neg = np.expm1(np.minimum(x, 0.0))
    y, dy = ad._elu(x)
    np.testing.assert_array_equal(y, np.where(x >= 0, x, neg))
    np.testing.assert_array_equal(dy, np.where(x >= 0, 1.0, neg + 1.0))
    assert np.isnan(ad._elu(np.array([np.nan]))).all()


def test_softmax_uniform_by_symmetry():
    y = ad._segment_softmax(np.zeros(3), np.array([0, 3]))
    np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_two_logits_matches_exp_formula():
    # direct evaluation: e^1/(e^1+e^2), e^2/(e^1+e^2)
    y = ad._segment_softmax(np.array([1.0, 2.0]), np.array([0, 2]))
    np.testing.assert_allclose(y, [0.2689414213699951, 0.7310585786300049], atol=1e-12)


def test_softmax_rows_are_probability_vectors(rng):
    y = ad._masked_softmax_rows(rng.normal(size=(40, 7)) * 30, np.ones((40, 7), dtype=bool))
    assert (y >= 0).all()
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    y = ad._segment_softmax(np.array([1000.0, -1000.0]), np.array([0, 2]))
    assert np.isfinite(y).all()
    np.testing.assert_allclose(y.sum(), 1.0, atol=1e-12)


def test_backward_square_rule():
    tape = ad.Tape()
    w = tape.parameter("w", [[3.0]])
    loss = total(ad.matmul(w, w))
    grads = tape.backward(loss)
    np.testing.assert_allclose(grads["w"], [[6.0]])


def test_off_path_parameter_gets_zero_gradient():
    tape = ad.Tape()
    w = tape.parameter("w", [[3.0]])
    unused = tape.parameter("unused", np.ones((2, 2)))
    grads = tape.backward(total(ad.matmul(w, w)))
    np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))


def test_accumulate_leaves_handed_out_gradients_untouched(rng):
    # ``a`` receives two row slices of the stack's gradient; summing them must
    # not write into the first slice, which is the stack's own gradient
    c3, c4 = rng.normal(size=3), rng.normal(size=4)
    tape = ad.Tape()
    a = tape.parameter("a", rng.normal(size=(2, 3)))
    stacked = ad.vconcat([a, a])
    grads = tape.backward(total(ad.matmul(tape.constant(c4[None]),
                                          ad.matmul(stacked, tape.constant(c3[:, None])))))
    upstream = np.outer(c4, c3)
    np.testing.assert_array_equal(stacked.grad, upstream)
    np.testing.assert_array_equal(grads["a"], upstream[:2] + upstream[2:])


def test_tape_serves_one_backward():
    tape = ad.Tape()
    w = tape.parameter("w", [[3.0]])
    loss = total(ad.matmul(w, w))
    tape.backward(loss)
    assert tape._nodes is None and tape._params is None
    with pytest.raises(ValueError, match="already run"):
        tape.backward(loss)
    with pytest.raises(ValueError, match="new tape"):
        ad.matmul(w, w)


def test_backward_rejects_non_scalar_loss():
    tape = ad.Tape()
    w = tape.parameter("w", [1.0, 2.0])
    with pytest.raises(NotScalarLoss):
        tape.backward(ad.elu(w))


def test_shape_mismatch_raised():
    tape = ad.Tape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        ad.matmul(a, b)
    # a 1-D operand is rejected even where the inner dims agree
    with pytest.raises(ShapeMismatch):
        ad.matmul(a, tape.constant(np.ones(3)))
    with pytest.raises(ShapeMismatch):
        ad.matmul(tape.constant(np.ones(2)), a)
    with pytest.raises(ShapeMismatch):
        ad.Tensor(np.ones((2, 2, 2)), tape, False)


def test_deterministic_bitwise_repeat(rng):
    inst, pat = instance_problem(rng), pattern_problem(rng)

    def run():
        grads = [tape.backward(loss) for tape, loss in
                 (instance_loss(inst, uniform=False), pattern_loss(pat, uniform=False))]
        return [g[k].tobytes() for g in grads for k in sorted(g)]

    assert run() == run()


# --- finite-difference battery -------------------------------------------------

def test_quadratic_fd_error_tiny():
    def build(params):
        tape = ad.Tape()
        w = tape.parameter("w", params["w"])
        return tape, total(ad.matmul(w, ad.transpose(w)))

    err = finite_diff_check(build, {"w": np.array([[1.5, -2.0, 0.7]])})
    assert err < 1e-8


def assert_scores_clear_the_kink(problem):
    """The instance-level attention scores pass a LeakyReLU; with both signs
    present and a margin far beyond 10 * eps, no perturbation crosses the kink."""
    p = problem["params"]
    C = p["H"][problem["idx"].ravel()].reshape(len(problem["idx"]), -1)
    enc = C @ np.concatenate([p["h0"], p["h1"]]).T
    scores = np.where(enc >= 0, enc, np.expm1(np.minimum(enc, 0.0))) @ p["attn"]
    assert (scores > 0).any() and (scores < 0).any() and np.abs(scores).min() > 1e-3


def test_leaky_relu_fd_away_from_kink(rng):
    problem = instance_problem(rng)
    assert_scores_clear_the_kink(problem)
    _fd(lambda p: instance_loss(dict(problem, params=p), uniform=False), problem["params"])


def _fd(build, params, tol=1e-6):
    err = finite_diff_check(build, params)
    assert err < tol, f"finite-difference error {err}"


def test_matmul_variants_gradients(rng):
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(4, 2))
    v = rng.normal(size=(4, 1))

    def build(params):
        # (A v)' A B . (A v)' (A B): matrix, column and row operands, each
        # parameter reaching the loss along several paths
        tape = ad.Tape()
        a = tape.parameter("A", params["A"])
        b = tape.parameter("B", params["B"])
        w = tape.parameter("v", params["v"])
        mv = ad.transpose(ad.matmul(a, w))           # (1, 3)
        prod = ad.matmul(a, b)                       # (3, 2)
        left = ad.matmul(ad.matmul(mv, a), b)        # (1, 2)
        return tape, total(ad.matmul(left, ad.transpose(ad.matmul(mv, prod))))

    _fd(build, {"A": A, "B": B, "v": v})


def test_elementwise_and_shape_op_gradients(rng):
    x = rng.normal(size=(4, 3))
    k = rng.normal(size=(2, 3))

    def build(params):
        tape = ad.Tape()
        X = tape.parameter("x", params["x"])
        K = tape.parameter("k", params["k"])
        stacked = ad.vconcat([ad.elu(X), K, X])               # (10, 3)
        t = ad.transpose(ad.elu(stacked))                     # (3, 10)
        return tape, total(ad.matmul(ad.matmul(tape.constant([[1.0, -2.0, 0.5]]), t),
                                     tape.constant(np.arange(10.0)[:, None] - 4.5)))

    _fd(build, {"x": x, "k": k})


def test_segment_ops_gradients(rng):
    # segment softmax and weighted sum inside the instance level, with two
    # singleton segments, one of five instances and one of two; 18 role
    # gathers from 6 rows, so the gather's gradient sums repeated rows
    problem = instance_problem(rng, offsets=(0, 1, 2, 7, 9), n_rows=6)
    assert len(np.unique(problem["idx"])) < problem["idx"].size
    assert_scores_clear_the_kink(problem)
    _fd(lambda p: instance_loss(dict(problem, params=p), uniform=False), problem["params"])


def test_segment_softmax_normalizes_each_segment(rng):
    offsets = np.array([0, 3, 4, 9])
    alpha = ad._segment_softmax(rng.normal(size=9) * 10, offsets)
    for a, b in zip(offsets[:-1], offsets[1:]):
        np.testing.assert_allclose(alpha[a:b].sum(), 1.0, atol=1e-12)


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
    y = ad._segment_softmax(x, offsets)
    gx = ad._segment_softmax_grad(y, g, offsets)
    y_ref, gx_ref = _segment_softmax_loop(x, g, offsets)
    # reductions may add in another order: allow a few float64 ulps
    np.testing.assert_allclose(y, y_ref, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(gx, gx_ref, rtol=1e-12, atol=1e-14)
    assert np.all(y[offsets[:-1][sizes == 1]] == 1.0)


@pytest.mark.parametrize("n_rows,idx", [
    (7, np.array([5, 0, 5, 2, 6, 0, 5, 1, 1, 4])),  # row 3 never gathered
    (50, np.random.default_rng(3).integers(0, 50, size=600)),
])
def test_rows_backward_matches_add_at(rng, n_rows, idx):
    # the instance level's gather of role rows; its backward is ``_gather_grad``
    g = rng.normal(size=(idx.size, 3))
    expect = np.zeros((n_rows, 3))
    np.add.at(expect, idx, g)
    np.testing.assert_allclose(ad._gather_grad(idx, g, n_rows), expect,
                               rtol=1e-13, atol=1e-15)


def test_vconcat_and_transpose_gradients(rng):
    def build(params):
        tape = ad.Tape()
        a = tape.parameter("a", params["a"])
        b = tape.parameter("b", params["b"])
        stacked = ad.vconcat([a, tape.constant(np.ones((1, 3))), b])  # (6, 3)
        wide = ad.transpose(stacked)
        return tape, total(ad.matmul(ad.matmul(tape.constant([[1.0, -0.5, 2.0]]), wide),
                                     tape.constant(np.arange(6.0)[:, None])))

    _fd(build, {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3, 3))})
    tape = ad.Tape()
    with pytest.raises(ShapeMismatch):
        ad.transpose(tape.constant(np.ones(3)))
    with pytest.raises(ShapeMismatch):
        ad.vconcat([tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 2)))])


def test_masked_softmax_rows_gradients_and_masking(rng):
    # pattern-level attention over the mask below: the third row has no pattern
    mask = np.array([[True, True, False],
                     [True, False, True],
                     [False, False, False]])
    problem = pattern_problem(rng, mask=mask)
    _fd(lambda p: pattern_loss(dict(problem, params=p), uniform=False), problem["params"])
    _, beta, _ = pattern_loss(problem, uniform=False, outputs=True)
    np.testing.assert_allclose(beta[:2].sum(axis=1), 1.0, atol=1e-12)
    assert beta[0, 2] == 0.0 and beta[1, 1] == 0.0
    np.testing.assert_array_equal(beta[2], 0.0)


def test_scatter_stack_and_column_gradients(rng):
    # uniform pattern level: transforms scattered to batch rows 3 and 0 of 5,
    # stacked with a second pattern, and a column no row has
    mask = np.zeros((5, 3), dtype=bool)
    mask[[3, 0], 0] = True
    mask[[0, 1, 4], 2] = True
    problem = pattern_problem(rng, mask=mask)
    _fd(lambda p: pattern_loss(dict(problem, params=p), uniform=True), problem["params"])


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
    s = ad.sigmoid(np.array([800.0, -800.0]))
    np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)
    assert np.isfinite(s).all()


# --- fused attention ops --------------------------------------------------------

def instance_problem(rng, offsets=(0, 2, 5, 6), n_rows=6, proj_dim=3, n_roles=2,
                     heads=2, head_dim=2):
    """Inputs for ``instance_level``; the first instance reads one row for both roles."""
    d = heads * head_dim
    idx = rng.integers(0, n_rows, size=(offsets[-1], n_roles))
    idx[0, 1] = idx[0, 0]
    params = {"H": rng.normal(size=(n_rows, proj_dim)),
              **{f"h{k}": rng.normal(size=(head_dim, n_roles * proj_dim)) * 0.7
                 for k in range(heads)},
              "attn": rng.normal(size=d), "W": rng.normal(size=(d, d)) * 0.5,
              "b": rng.normal(size=d) * 0.1}
    return {"idx": idx, "offsets": np.array(offsets), "heads": heads,
            "weights": rng.normal(size=d), "seg_weights": rng.normal(size=len(offsets) - 1),
            "params": params}


def instance_loss(problem, uniform):
    tape = ad.Tape()
    t = {k: tape.parameter(k, v) for k, v in problem["params"].items()}
    m, _ = ad.instance_level(
        t["H"], problem["idx"], [t[f"h{k}"] for k in range(problem["heads"])],
        None if uniform else t["attn"], ad.transpose(t["W"]), t["b"], problem["offsets"])
    return tape, total(ad.matmul(ad.matmul(tape.constant(problem["seg_weights"][None]), m),
                                 tape.constant(problem["weights"][:, None])))


def pattern_problem(rng, mask=None, d=4):
    """Inputs for ``pattern_level``: one transform block per column with rows."""
    if mask is None:
        mask = np.array([[True, False, True], [False, False, False],
                         [True, False, False], [True, False, True]])
    n, n_cols = mask.shape
    params = {"q": rng.normal(size=(n, d)), "W": rng.normal(size=(d, d)) * 0.5,
              "b": rng.normal(size=d) * 0.1, "w": rng.normal(size=d),
              "w0": np.array(0.3)}
    for c in range(n_cols):
        if mask[:, c].any():
            params[f"m{c}"] = rng.normal(size=(int(mask[:, c].sum()), d))
            params[f"v{c}"] = rng.normal(size=2 * d)
    return {"mask": mask, "targets": (np.arange(n) % 2).astype(float), "params": params}


def pattern_loss(problem, uniform, outputs=False):
    tape = ad.Tape()
    t = {k: tape.parameter(k, v) for k, v in problem["params"].items()}
    mask = problem["mask"]
    columns = [(c, t[f"m{c}"], np.flatnonzero(mask[:, c]), t[f"v{c}"])
               for c in range(mask.shape[1]) if mask[:, c].any()]
    logits, beta, z = ad.pattern_level(t["q"], ad.transpose(t["W"]), t["b"], columns,
                                       mask, t["w"], t["w0"], uniform)
    if outputs:
        return logits, beta, z
    return tape, ad.bce_with_logits_mean(logits, problem["targets"])


@pytest.mark.parametrize("uniform", [False, True])
def test_instance_level_gradients_match_finite_differences(rng, uniform):
    problem = instance_problem(rng, offsets=(0, 1, 3, 6, 7))
    _fd(lambda p: instance_loss(dict(problem, params=p), uniform), problem["params"])


@pytest.mark.parametrize("uniform", [False, True])
def test_pattern_level_gradients_match_finite_differences(rng, uniform):
    problem = pattern_problem(rng)
    _fd(lambda p: pattern_loss(dict(problem, params=p), uniform), problem["params"])


def test_instance_level_rejects_an_empty_segment(rng):
    problem = instance_problem(rng)
    with pytest.raises(ShapeMismatch):
        instance_loss(dict(problem, offsets=np.array([0, 2, 2, 6])), uniform=False)
