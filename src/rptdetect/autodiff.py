"""Dense float64 tensors (at most 2-D) with tape-recorded reverse-mode gradients.

Every operation appends one node to the tape; ``Tape.backward`` replays the
nodes in reverse, accumulating gradients in a fixed sequential order so that
identical inputs always produce bit-identical gradients, then drops them: one
backward per tape.  Besides a few generic ops, the model's two attention levels
are fused ops (one node each) with hand-written backward passes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NotScalarLoss, ShapeMismatch


class Tensor:
    """A float64 array (scalar, vector, or matrix) bound to one tape."""

    __slots__ = ("data", "grad", "tape", "requires_grad")

    def __init__(self, data, tape: "Tape", requires_grad: bool):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeMismatch(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.requires_grad = requires_grad

    def _accumulate(self, g: np.ndarray) -> None:
        # the first gradient is kept as given and later ones make a new sum: no
        # array a backward pass hands out is ever written in place
        self.grad = g if self.grad is None else self.grad + g


class Tape:
    """Ordered record of executed operations plus the parameter registry.

    One backward per tape: after it, a record or another backward raises
    ``ValueError``.  A tape is single-threaded; run one tape per batch.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], None]]] = []
        self._params: dict[str, Tensor] = {}

    def constant(self, data) -> Tensor:
        return Tensor(data, self, requires_grad=False)

    def parameter(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(data, self, requires_grad=True)
        self._params[name] = t
        return t

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...],
                backward: Callable[[np.ndarray], None]) -> Tensor:
        if self._nodes is None:
            raise ValueError("this tape's backward pass has run; record on a new tape")
        if any(t.requires_grad for t in inputs):
            out.requires_grad = True
            self._nodes.append((out, inputs, backward))
        return out

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Gradient of a scalar loss w.r.t. every registered parameter.

        Parameters not on the path to the loss get zero gradients.
        """
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if self._nodes is None:
            raise ValueError("this tape's backward pass has already run")
        if loss.data.shape not in ((), (1,)):
            raise NotScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
        # a tape runs one pass, so every gradient on it still starts out None
        nodes, params, self._nodes, self._params = self._nodes, self._params, None, None
        loss.grad = np.ones_like(loss.data)
        for out, inputs, backward in reversed(nodes):
            if out.grad is None:
                continue
            backward(out.grad)
        return {
            name: (np.array(p.grad) if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }


def _tape_of(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands belong to different tapes")
    return tape


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


# --- kernels (plain numpy, shared by the ops) ----------------------------------

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, saturation-safe on both tails."""
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


def _elu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


# --- generic ops ---------------------------------------------------------------

def elu(x: Tensor) -> Tensor:
    tape = _tape_of(x)
    y, dy = _elu(x.data)
    out = Tensor(y, tape, False)

    def backward(g):
        x._accumulate(g * dy)

    return tape._record(out, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D operands."""
    tape = _tape_of(a, b)
    _check(a.data.ndim == 2 and b.data.ndim == 2, "matmul: operands must be 2-D")
    _check(a.data.shape[1] == b.data.shape[0],
           f"matmul: inner dims differ {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, tape, False)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return tape._record(out, (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    tape = _tape_of(x)
    _check(x.data.ndim == 2, "transpose: need 2-D")
    out = Tensor(x.data.T.copy(), tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return tape._record(out, (x,), backward)


def vconcat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices with equal column counts along axis 0."""
    _check(len(parts) > 0, "vconcat: need at least one part")
    tape = _tape_of(*parts)
    _check(all(p.data.ndim == 2 for p in parts), "vconcat: parts must be 2-D")
    d = parts[0].data.shape[1]
    _check(all(p.data.shape[1] == d for p in parts), "vconcat: column counts differ")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0), tape, False)
    heights = [p.data.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, h in zip(parts, heights):
            if p.requires_grad:
                p._accumulate(g[off:off + h])
            off += h

    return tape._record(out, tuple(parts), backward)


# --- fused two-level attention ---------------------------------------------------
#
# Each op below is one tape node.  Forward and backward take the products, sums
# and elementwise steps of the equivalent chain of generic ops in that chain's
# order, and every transposed weight is a contiguous copy as ``transpose`` makes
# it (BLAS rounds a transposed view differently), so values and gradients are
# bit-identical to the chain's.

def instance_level(H: Tensor, idx: np.ndarray, heads: Sequence[Tensor], attn: Tensor | None,
                   W_T: Tensor, b: Tensor, offsets: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """One pattern's instance level; returns (one output row per segment, instance weights).

    Instance j concatenates the rows ``idx[j]`` of ``H`` (its roles, anchor
    first) and is encoded by the stacked per-head maps ``heads`` and an ELU.
    ``offsets`` cut the instances into non-empty segments, one per anchor.  The
    weights are a softmax within each segment of LeakyReLU(encoding @ attn), or
    uniform when ``attn`` is None.  A segment's summary f is the ELU of its
    weighted encoding sum, and its output row is ELU(f @ W_T + b).
    """
    inputs = (H, *heads, W_T, b) + (() if attn is None else (attn,))
    tape = _tape_of(*inputs)
    n_inst = idx.shape[0]
    sizes = offsets[1:] - offsets[:-1]
    _check(idx.ndim == 2 and offsets[0] == 0 and offsets[-1] == n_inst and sizes.min() > 0,
           "instance_level: offsets must cut the instance rows into non-empty segments")
    C = H.data[idx.ravel()].reshape(n_inst, -1)
    WhT = np.concatenate([h.data for h in heads]).T.copy()
    enc, d_enc = _elu(C @ WhT)
    if attn is None:
        alpha = (1.0 / sizes).repeat(sizes)
    else:
        logits, d_logits = _leaky_relu(enc @ attn.data)
        alpha = _segment_softmax(logits, offsets)
    f, d_f = _elu(np.add.reduceat(alpha[:, None] * enc, offsets[:-1], axis=0))
    m, d_m = _elu(f @ W_T.data + b.data)

    def backward(g):
        g = g * d_m
        b._accumulate(g.sum(axis=0))
        g_f = g @ W_T.data.T
        W_T._accumulate(f.T @ g)
        g = (g_f * d_f)[np.arange(len(sizes)).repeat(sizes)]
        g_enc = g * alpha[:, None]
        if attn is not None:
            g_logits = _segment_softmax_grad(alpha, (g * enc).sum(axis=1), offsets) * d_logits
            g_enc = g_enc + g_logits[:, None] * attn.data
            attn._accumulate(enc.T @ g_logits)
        g_enc = g_enc * d_enc
        g_C = g_enc @ WhT.T
        g_W = (C.T @ g_enc).T
        off = 0
        for h in heads:
            h._accumulate(g_W[off:off + len(h.data)])
            off += len(h.data)
        H._accumulate(_gather_grad(idx.ravel(), g_C.reshape(idx.size, -1), len(H.data)))

    return tape._record(Tensor(m, tape, False), inputs, backward), alpha


def pattern_level(q: Tensor, W_T: Tensor, b: Tensor,
                  columns: Sequence[tuple[int, Tensor, np.ndarray, Tensor]],
                  mask: np.ndarray, w: Tensor, w0: Tensor,
                  uniform: bool) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Pattern-level attention and readout for a batch; returns (logits, beta, z).

    ``mask[r, c]`` is set when batch row r has instances of pattern column c;
    ``columns`` holds (c, m, rows, v) for every column with any: ``m`` is the
    instance level's output for the batch ``rows`` (zero elsewhere) and ``v``
    the pattern's attention vector [v_q; v_m].  Row r's score for column c is
    LeakyReLU((q_r @ v_q + m_r @ v_m) / sqrt(d)); beta is the softmax of the
    scores over the row's set columns, or uniform over them when ``uniform``.
    z_r = sum_c beta[r, c] m_r, except that a row with no set column takes
    ELU(q_r @ W_T + b).  The logits are z @ w + w0.
    """
    inputs = (q, W_T, b, w, w0) + tuple(t for _, m, _, v in columns for t in (m, v))
    tape = _tape_of(*inputs)
    n, d = q.data.shape
    full = []
    for _, m, rows, _ in columns:
        full.append(np.zeros((n, d)))
        full[-1][rows] = m.data
    scale = 1.0 / math.sqrt(d)
    if uniform:
        beta = np.where(mask, 1.0, 0.0) / np.maximum(mask.sum(axis=1, keepdims=True), 1)
    else:
        E = np.zeros(mask.shape)
        d_leaky = []
        for (c, _, _, v), mf in zip(columns, full):
            s = q.data @ v.data[:d] + mf @ v.data[d:]
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
        fb, d_fb = _elu(q.data @ W_T.data + b.data)
        z = fb * degenerate if z is None else z + fb * degenerate

    def backward(g):
        w0._accumulate(g.sum())
        w._accumulate(z.T @ g)
        g_z = g[:, None] * w.data
        g_q = None
        if fallback:
            g_fb = g_z * degenerate * d_fb
            b._accumulate(g_fb.sum(axis=0))
            g_q = g_fb @ W_T.data.T
            W_T._accumulate(q.data.T @ g_fb)
        g_full = [g_z * beta[:, c][:, None] for c, *_ in columns]
        if not uniform and columns:
            g_beta = np.zeros(mask.shape)
            for (c, *_), mf in zip(columns, full):
                g_beta[:, c] = (g_z * mf).sum(axis=1)
            g_E = _masked_softmax_rows_grad(beta, g_beta)
            for k in reversed(range(len(columns))):
                c, _, _, v = columns[k]
                g_s = g_E[:, c] * d_leaky[k] * scale
                g_full[k] = g_full[k] + g_s[:, None] * v.data[d:]
                g_q_k = g_s[:, None] * v.data[:d]
                g_q = g_q_k if g_q is None else g_q + g_q_k
                v._accumulate(np.concatenate([q.data.T @ g_s, full[k].T @ g_s]))
        for (_, m, rows, _), gm in zip(columns, g_full):
            m._accumulate(gm[rows])
        if g_q is not None:
            q._accumulate(g_q)

    return tape._record(Tensor(z @ w.data + w0.data, tape, False), inputs, backward), beta, z


# --- loss ---------------------------------------------------------------------

def bce_with_logits_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy from raw logits, stable for large |logit|."""
    tape = _tape_of(logits)
    _check(logits.data.ndim == 1, "bce_with_logits_mean: need 1-D logits")
    y = np.asarray(targets, dtype=np.float64)
    _check(y.shape == logits.data.shape, "bce_with_logits_mean: target shape must match")
    t = logits.data
    per = np.maximum(t, 0.0) - t * y + np.log1p(np.exp(-np.abs(t)))
    out = Tensor(per.mean(), tape, False)
    n = t.size

    def backward(g):
        if logits.requires_grad:
            logits._accumulate(float(g) * (sigmoid(t) - y) / n)

    return tape._record(out, (logits,), backward)

