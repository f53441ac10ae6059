"""Reverse mode for the model step, and the two fused attention levels.

A labeled batch records one backward closure per stage on a ``Tape``, with a
zeroed gradient laid out like the parameters' flat buffer.  ``Tape.backward``
runs the closures once, last recorded first, and each adds into named views of
that gradient in a fixed order, so identical inputs give bit-identical
gradients.  The fused ops ``instance_level`` and ``pattern_level`` are
plain-array forward passes that return their hand-written backward passes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatch

# silences the warnings of a diverging step, which the loss and score checks report
QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class Tape:
    """A labeled batch's backward stages in record order, and the gradient ``grad`` they
    fill: zeroed views, by parameter name, into ``grad.flat``.  A stage is called as
    ``stage(up)``, ``up`` holding each intermediate array's gradient by name."""

    def __init__(self, grad, stages: list[Callable[[dict], None]]):
        self.grad = grad
        self.stages = stages

    @QUIET
    def backward(self) -> np.ndarray:
        """Run the stages once, last recorded first, and drop them; returns ``grad.flat``."""
        up: dict = {}
        for stage in reversed(self.stages):
            stage(up)
        self.stages = []
        return self.grad.flat


# --- kernels ------------------------------------------------------------------

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, saturation-safe on both tails."""
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


def elu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ELU with alpha 1, and its derivative.

    expm1(x) >= x for x < 0 and expm1(0) = 0, so the max is x where x >= 0 and
    expm1(x) elsewhere; min(y + 1, 1) is then 1 or 1 + expm1(x).  Both equal
    the masked ``where`` forms bit for bit, with fewer passes.
    """
    y = np.maximum(x, np.expm1(np.minimum(x, 0.0)))
    return y, np.minimum(y + 1.0, 1.0)


def _leaky_relu(x: np.ndarray, slope: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """LeakyReLU and its derivative."""
    mask = x >= 0
    return np.where(mask, x, slope * x), np.where(mask, 1.0, slope)


def _segment_softmax(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Softmax applied independently within contiguous non-empty segments of a vector."""
    starts, sizes = offsets[:-1], offsets[1:] - offsets[:-1]
    e = np.exp(x - np.maximum.reduceat(x, starts).repeat(sizes))
    return e / np.add.reduceat(e, starts).repeat(sizes)


def _segment_softmax_grad(y: np.ndarray, g: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Input gradient of ``_segment_softmax`` from its output ``y`` and output gradient ``g``."""
    starts, sizes = offsets[:-1], offsets[1:] - offsets[:-1]
    return y * (g - np.add.reduceat(g * y, starts).repeat(sizes))


def _masked_softmax_rows(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over unmasked entries; fully masked rows come out zero."""
    y = np.zeros_like(x)
    any_row = mask.any(axis=1)
    if any_row.any():
        neg = np.where(mask, x, -np.inf)
        m = np.where(any_row, neg.max(axis=1, initial=-np.inf), 0.0)
        e = np.where(mask, np.exp(x - m[:, None]), 0.0)
        denom = e.sum(axis=1)
        y[any_row] = e[any_row] / denom[any_row, None]
    return y


def _masked_softmax_rows_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - (g * y).sum(axis=1, keepdims=True))


def _gather_grad(idx: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Gradient of ``x[idx]`` w.r.t. an ``n_rows``-row ``x``: one flat bincount
    over (row, column) cells, adding the gathered rows in index order as
    ``np.add.at`` would."""
    d = g.shape[1]
    cells = ((idx * d)[:, None] + np.arange(d)).ravel()
    return np.bincount(cells, weights=g.ravel(), minlength=n_rows * d).reshape(n_rows, d)


# --- fused two-level attention ---------------------------------------------------
#
# Each op below is one stage of the model step.  Both passes take the products,
# sums and elementwise steps of the op-by-op chain the model was first written
# as, in its order, and every transposed weight is a contiguous ``.T.copy()``
# (BLAS rounds a transposed view differently), so values and gradients stay
# bit-identical to the chain's.  A backward pass adds each parameter's gradient
# into the array given for it (a ``g_`` argument) and returns the gradients of
# the op's other inputs.

def instance_level(H: np.ndarray, idx: np.ndarray, heads: Sequence[np.ndarray],
                   attn: np.ndarray | None, W_T: np.ndarray, b: np.ndarray,
                   offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable]:
    """One pattern's instance level; returns (one output row per segment, instance weights,
    backward).

    Instance j concatenates the rows ``idx[j]`` of ``H`` (its roles, anchor
    first) and is encoded by the stacked per-head maps ``heads`` and an ELU.
    ``offsets`` cut the instances into non-empty segments, one per anchor.  The
    weights are a softmax within each segment of LeakyReLU(encoding @ attn), or
    uniform when ``attn`` is None.  A segment's summary f is the ELU of its
    weighted encoding sum, and its output row is ELU(f @ W_T + b).
    ``backward(g, g_heads, g_attn, g_W_T, g_b)`` returns ``H``'s gradient.
    """
    n_inst = idx.shape[0]
    sizes = offsets[1:] - offsets[:-1]
    if not (idx.ndim == 2 and offsets[0] == 0 and offsets[-1] == n_inst and sizes.min() > 0):
        raise ShapeMismatch("instance_level: offsets must cut the instance rows into "
                            "non-empty segments")
    C = H[idx.ravel()].reshape(n_inst, -1)
    WhT = np.concatenate(heads).T.copy()
    enc, d_enc = elu(C @ WhT)
    if attn is None:
        alpha = (1.0 / sizes).repeat(sizes)
    else:
        logits, d_logits = _leaky_relu(enc @ attn)
        alpha = _segment_softmax(logits, offsets)
    f, d_f = elu(np.add.reduceat(alpha[:, None] * enc, offsets[:-1], axis=0))
    m, d_m = elu(f @ W_T + b)

    def backward(g, g_heads, g_attn, g_W_T, g_b):
        g = g * d_m
        g_b += g.sum(axis=0)
        g_f = g @ W_T.T
        g_W_T += f.T @ g
        g = (g_f * d_f)[np.arange(len(sizes)).repeat(sizes)]
        g_enc = g * alpha[:, None]
        if attn is not None:
            g_logits = _segment_softmax_grad(alpha, (g * enc).sum(axis=1), offsets) * d_logits
            g_enc = g_enc + g_logits[:, None] * attn
            g_attn += enc.T @ g_logits
        g_enc = g_enc * d_enc
        g_C = g_enc @ WhT.T
        g_W = (C.T @ g_enc).T
        for g_h, g_W_h in zip(g_heads, np.split(g_W, len(heads))):
            g_h += g_W_h
        return _gather_grad(idx.ravel(), g_C.reshape(idx.size, -1), len(H))

    return m, alpha, backward


def pattern_level(q: np.ndarray, W_T: np.ndarray, b: np.ndarray,
                  columns: Sequence[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
                  mask: np.ndarray, w: np.ndarray, w0: np.ndarray,
                  uniform: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable]:
    """Pattern-level attention and readout for a batch; returns (logits, beta, z, backward).

    ``mask[r, c]`` is set when batch row r has instances of pattern column c;
    ``columns`` holds (c, m, rows, v) for every column with any: ``m`` is the
    instance level's output for the batch ``rows`` (zero elsewhere) and ``v``
    the pattern's attention vector [v_q; v_m].  Row r's score for column c is
    LeakyReLU((q_r @ v_q + m_r @ v_m) / sqrt(d)); beta is the softmax of the
    scores over the row's set columns, or uniform over them when ``uniform``.
    z_r = sum_c beta[r, c] m_r, except that a row with no set column takes
    ELU(q_r @ W_T + b).  The logits are z @ w + w0.
    ``backward(g, g_W_T, g_b, g_vs, g_w, g_w0)`` returns ``q``'s gradient (None
    where q does not reach the logits) and each column's ``m`` gradient.
    """
    n, d = q.shape
    full = []
    for _, m, rows, _ in columns:
        full.append(np.zeros((n, d)))
        full[-1][rows] = m
    scale = 1.0 / math.sqrt(d)
    if uniform:
        beta = np.where(mask, 1.0, 0.0) / np.maximum(mask.sum(axis=1, keepdims=True), 1)
    else:
        E = np.zeros(mask.shape)
        d_leaky = []
        for (c, _, _, v), mf in zip(columns, full):
            s = q @ v[:d] + mf @ v[d:]
            E[:, c], dl = _leaky_relu(s * scale)
            d_leaky.append(dl)
        beta = _masked_softmax_rows(E, mask)
    z = None
    for (c, *_), mf in zip(columns, full):
        term = mf * beta[:, c][:, None]
        z = term if z is None else z + term
    degenerate = (~mask.any(axis=1)).astype(np.float64)[:, None]
    fallback = bool(degenerate.any()) or z is None
    if fallback:
        fb, d_fb = elu(q @ W_T + b)
        z = fb * degenerate if z is None else z + fb * degenerate

    def backward(g, g_W_T, g_b, g_vs, g_w, g_w0):
        g_w0 += g.sum()
        g_w += z.T @ g
        g_z = g[:, None] * w
        g_q = None
        if fallback:
            g_fb = g_z * degenerate * d_fb
            g_b += g_fb.sum(axis=0)
            g_q = g_fb @ W_T.T
            g_W_T += q.T @ g_fb
        g_full = [g_z * beta[:, c][:, None] for c, *_ in columns]
        if not uniform and columns:
            g_beta = np.zeros(mask.shape)
            for (c, *_), mf in zip(columns, full):
                g_beta[:, c] = (g_z * mf).sum(axis=1)
            g_E = _masked_softmax_rows_grad(beta, g_beta)
            for k in reversed(range(len(columns))):
                c, _, _, v = columns[k]
                g_s = g_E[:, c] * d_leaky[k] * scale
                g_full[k] = g_full[k] + g_s[:, None] * v[d:]
                g_q_k = g_s[:, None] * v[:d]
                g_q = g_q_k if g_q is None else g_q + g_q_k
                g_vs[k] += np.concatenate([q.T @ g_s, full[k].T @ g_s])
        return g_q, [gm[rows] for (_, _, rows, _), gm in zip(columns, g_full)]

    return z @ w + w0, beta, z, backward
