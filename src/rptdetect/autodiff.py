"""Dense float64 tensors (at most 2-D) with tape-recorded reverse-mode gradients.

Every operation appends one node to the tape; ``Tape.backward`` replays the
nodes in reverse, accumulating gradients in a fixed sequential order so that
identical inputs always produce bit-identical gradients.  ``finite_diff_check``
is the independent oracle used to validate every composite built on top.
"""

from __future__ import annotations

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

    @property
    def shape(self):
        return self.data.shape

    def value(self) -> np.ndarray:
        return self.data.copy()

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed operations plus the parameter registry.

    A tape is single-threaded; run independent tapes for concurrent batches.
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

    @property
    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...],
                backward: Callable[[np.ndarray], None]) -> Tensor:
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
        if loss.data.shape not in ((), (1,)):
            raise NotScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
        for out, inputs, _ in self._nodes:
            out.grad = None
            for t in inputs:
                t.grad = None
        for p in self._params.values():
            p.grad = None
        loss.grad = np.ones_like(loss.data)
        for out, inputs, backward in reversed(self._nodes):
            if out.grad is None:
                continue
            backward(out.grad)
        return {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in self._params.items()
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


# --- elementwise -------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; supports equal shapes, matrix + row vector, and vector + scalar."""
    tape = _tape_of(a, b)
    sa, sb = a.data.shape, b.data.shape
    ok = (sa == sb) or (len(sa) == 2 and sb == (sa[1],)) or (len(sa) == 1 and sb == ())
    _check(ok, f"add: incompatible shapes {sa} and {sb}")
    out = Tensor(a.data + b.data, tape, False)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            if sa == sb:
                b._accumulate(g)
            elif len(sa) == 2:
                b._accumulate(g.sum(axis=0))
            else:
                b._accumulate(g.sum())

    return tape._record(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    tape = _tape_of(x)
    c = float(c)
    out = Tensor(x.data * c, tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * c)

    return tape._record(out, (x,), backward)


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    tape = _tape_of(x)
    mask = x.data >= 0
    out = Tensor(np.where(mask, x.data, alpha * x.data), tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * np.where(mask, 1.0, alpha))

    return tape._record(out, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    tape = _tape_of(x)
    neg = alpha * np.expm1(np.minimum(x.data, 0.0))
    mask = x.data >= 0
    out = Tensor(np.where(mask, x.data, neg), tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * np.where(mask, 1.0, neg + alpha))

    return tape._record(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    tape = _tape_of(x)
    s = _sigmoid(x.data)
    out = Tensor(s, tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return tape._record(out, (x,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # saturation-safe on both tails
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


def softmax(x: Tensor) -> Tensor:
    """Softmax over a 1-D vector, or independently over each row of a matrix.

    Computed with max-subtraction so large logits stay finite.
    """
    tape = _tape_of(x)
    _check(x.data.ndim in (1, 2), f"softmax: need 1-D or 2-D, got {x.data.shape}")
    if x.data.ndim == 1:
        shifted = x.data - x.data.max()
        e = np.exp(shifted)
        y = e / e.sum()
    else:
        shifted = x.data - x.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, tape, False)

    def backward(g):
        if not x.requires_grad:
            return
        if y.ndim == 1:
            x._accumulate(y * (g - float(np.dot(g, y))))
        else:
            inner = (g * y).sum(axis=1, keepdims=True)
            x._accumulate(y * (g - inner))

    return tape._record(out, (x,), backward)


# --- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy ``@`` semantics for 1-D/2-D operands."""
    tape = _tape_of(a, b)
    da, db = a.data.ndim, b.data.ndim
    _check(da >= 1 and db >= 1, "matmul: operands must be 1-D or 2-D")
    inner_a = a.data.shape[-1]
    inner_b = b.data.shape[0]
    _check(inner_a == inner_b, f"matmul: inner dims differ {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, tape, False)

    def backward(g):
        if da == 2 and db == 2:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        elif da == 2 and db == 1:
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        elif da == 1 and db == 2:
            if a.requires_grad:
                a._accumulate(b.data @ g)
            if b.requires_grad:
                b._accumulate(np.outer(a.data, g))
        else:  # 1-D @ 1-D -> scalar
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)

    return tape._record(out, (a, b), backward)


def dot(a: Tensor, b: Tensor) -> Tensor:
    _check(a.data.ndim == 1 and b.data.ndim == 1, "dot: operands must be 1-D")
    return matmul(a, b)


def transpose(x: Tensor) -> Tensor:
    tape = _tape_of(x)
    _check(x.data.ndim == 2, "transpose: need 2-D")
    out = Tensor(x.data.T.copy(), tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return tape._record(out, (x,), backward)


def weighted_sum(weights: Tensor, items: Sequence[Tensor]) -> Tensor:
    """sum_i weights[i] * items[i] for a list of equally shaped vectors."""
    _check(weights.data.ndim == 1 and len(weights.data) == len(items),
           "weighted_sum: one weight per item required")
    tape = _tape_of(weights, *items)
    _check(all(t.data.shape == items[0].data.shape for t in items),
           "weighted_sum: items must share a shape")
    acc = np.zeros_like(items[0].data)
    for w, t in zip(weights.data, items):
        acc = acc + w * t.data
    out = Tensor(acc, tape, False)

    def backward(g):
        if weights.requires_grad:
            weights._accumulate(np.array([float(np.sum(g * t.data)) for t in items]))
        for w, t in zip(weights.data, items):
            if t.requires_grad:
                t._accumulate(w * g)

    return tape._record(out, (weights, *items), backward)


# --- shape manipulation ------------------------------------------------------

def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate scalars/vectors into a single 1-D vector."""
    _check(len(parts) > 0, "concat: need at least one part")
    tape = _tape_of(*parts)
    flats = [p.data.reshape(-1) for p in parts]
    _check(all(p.data.ndim <= 1 for p in parts), "concat: parts must be scalars or vectors")
    out = Tensor(np.concatenate(flats), tape, False)
    sizes = [f.size for f in flats]

    def backward(g):
        off = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                p._accumulate(g[off:off + n].reshape(p.data.shape))
            off += n

    return tape._record(out, tuple(parts), backward)


def hconcat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices with equal row counts along axis 1."""
    _check(len(parts) > 0, "hconcat: need at least one part")
    tape = _tape_of(*parts)
    _check(all(p.data.ndim == 2 for p in parts), "hconcat: parts must be 2-D")
    n = parts[0].data.shape[0]
    _check(all(p.data.shape[0] == n for p in parts), "hconcat: row counts differ")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), tape, False)
    widths = [p.data.shape[1] for p in parts]

    def backward(g):
        off = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(g[:, off:off + w])
            off += w

    return tape._record(out, tuple(parts), backward)


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


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Same entries in row-major order under a new shape of at most two axes."""
    tape = _tape_of(x)
    _check(int(np.prod(shape)) == x.data.size,
           f"reshape: cannot view {x.data.shape} as {shape}")
    out = Tensor(x.data.reshape(shape), tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return tape._record(out, (x,), backward)


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack equally sized vectors into a matrix, one vector per row."""
    _check(len(parts) > 0, "stack_rows: need at least one part")
    tape = _tape_of(*parts)
    _check(all(p.data.ndim == 1 for p in parts), "stack_rows: parts must be 1-D")
    out = Tensor(np.stack([p.data for p in parts]), tape, False)

    def backward(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                p._accumulate(g[i])

    return tape._record(out, tuple(parts), backward)


def rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of a matrix by index (duplicates allowed)."""
    tape = _tape_of(x)
    _check(x.data.ndim == 2, "rows: need 2-D source")
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[idx], tape, False)

    def backward(g):
        if x.requires_grad:
            # one flat bincount over (row, column) cells; it adds the gathered
            # rows in index order, as np.add.at would
            n, d = x.data.shape
            cells = (idx[:, None] * d + np.arange(d)).ravel()
            gx = np.bincount(cells, weights=g.ravel(), minlength=n * d)
            x._accumulate(gx.reshape(n, d))

    return tape._record(out, (x,), backward)


def row(x: Tensor, i: int) -> Tensor:
    tape = _tape_of(x)
    _check(x.data.ndim == 2, "row: need 2-D source")
    out = Tensor(x.data[i].copy(), tape, False)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[i] = g
            x._accumulate(gx)

    return tape._record(out, (x,), backward)


def col(x: Tensor, j: int) -> Tensor:
    tape = _tape_of(x)
    _check(x.data.ndim == 2, "col: need 2-D source")
    out = Tensor(x.data[:, j].copy(), tape, False)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, j] = g
            x._accumulate(gx)

    return tape._record(out, (x,), backward)


def as_column(x: Tensor) -> Tensor:
    tape = _tape_of(x)
    _check(x.data.ndim == 1, "as_column: need 1-D")
    out = Tensor(x.data.reshape(-1, 1), tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[:, 0])

    return tape._record(out, (x,), backward)


def slice1d(x: Tensor, start: int, stop: int) -> Tensor:
    tape = _tape_of(x)
    _check(x.data.ndim == 1, "slice1d: need 1-D")
    _check(0 <= start <= stop <= x.data.size, "slice1d: bounds out of range")
    out = Tensor(x.data[start:stop].copy(), tape, False)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[start:stop] = g
            x._accumulate(gx)

    return tape._record(out, (x,), backward)


def scatter_rows(x: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    """Place rows of ``x`` at positions ``idx`` of an otherwise-zero matrix."""
    tape = _tape_of(x)
    _check(x.data.ndim == 2, "scatter_rows: need 2-D source")
    idx = np.asarray(idx, dtype=np.intp)
    _check(len(idx) == x.data.shape[0], "scatter_rows: one destination per row")
    _check(len(set(idx.tolist())) == len(idx), "scatter_rows: destinations must be unique")
    data = np.zeros((n_rows, x.data.shape[1]))
    data[idx] = x.data
    out = Tensor(data, tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[idx])

    return tape._record(out, (x,), backward)


def colscale(x: Tensor, s: Tensor) -> Tensor:
    """Scale each row i of ``x`` by ``s[i]``."""
    tape = _tape_of(x, s)
    _check(x.data.ndim == 2 and s.data.ndim == 1 and x.data.shape[0] == s.data.size,
           f"colscale: incompatible shapes {x.data.shape} and {s.data.shape}")
    out = Tensor(x.data * s.data[:, None], tape, False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s.data[:, None])
        if s.requires_grad:
            s._accumulate((g * x.data).sum(axis=1))

    return tape._record(out, (x, s), backward)


# --- segmented / masked reductions ------------------------------------------

def _check_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.intp)
    _check(offsets.ndim == 1 and len(offsets) >= 2, "offsets: need at least one segment")
    _check(offsets[0] == 0 and offsets[-1] == total, "offsets: must span the full vector")
    _check(bool(np.all(np.diff(offsets) > 0)), "offsets: segments must be non-empty")
    return offsets


def segment_softmax(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Softmax applied independently within contiguous segments of a vector."""
    tape = _tape_of(x)
    _check(x.data.ndim == 1, "segment_softmax: need 1-D")
    offsets = _check_offsets(offsets, x.data.size)
    starts = offsets[:-1]
    sizes = np.diff(offsets)
    e = np.exp(x.data - np.repeat(np.maximum.reduceat(x.data, starts), sizes))
    y = e / np.repeat(np.add.reduceat(e, starts), sizes)
    out = Tensor(y, tape, False)

    def backward(g):
        if x.requires_grad:
            inner = np.repeat(np.add.reduceat(g * y, starts), sizes)
            x._accumulate(y * (g - inner))

    return tape._record(out, (x,), backward)


def segment_weighted_sum(weights: Tensor, x: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment weighted sum of rows: out[s] = sum_{j in seg s} w[j] * x[j]."""
    tape = _tape_of(weights, x)
    _check(weights.data.ndim == 1 and x.data.ndim == 2
           and weights.data.size == x.data.shape[0],
           "segment_weighted_sum: need weights (n,) and rows (n, d)")
    offsets = _check_offsets(offsets, x.data.shape[0])
    weighted = weights.data[:, None] * x.data
    out_data = np.add.reduceat(weighted, offsets[:-1], axis=0)
    out = Tensor(out_data, tape, False)
    seg_ids = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))

    def backward(g):
        g_rows = g[seg_ids]
        if weights.requires_grad:
            weights._accumulate((g_rows * x.data).sum(axis=1))
        if x.requires_grad:
            x._accumulate(g_rows * weights.data[:, None])

    return tape._record(out, (weights, x), backward)


def masked_softmax_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over unmasked entries; fully masked rows come out zero."""
    tape = _tape_of(x)
    _check(x.data.ndim == 2, "masked_softmax_rows: need 2-D")
    mask = np.asarray(mask, dtype=bool)
    _check(mask.shape == x.data.shape, "masked_softmax_rows: mask shape must match")
    y = np.zeros_like(x.data)
    any_row = mask.any(axis=1)
    if any_row.any():
        neg = np.where(mask, x.data, -np.inf)
        m = np.where(any_row, neg.max(axis=1, initial=-np.inf), 0.0)
        e = np.where(mask, np.exp(x.data - m[:, None]), 0.0)
        denom = e.sum(axis=1)
        y[any_row] = e[any_row] / denom[any_row, None]
    out = Tensor(y, tape, False)

    def backward(g):
        if not x.requires_grad:
            return
        inner = (g * y).sum(axis=1, keepdims=True)
        x._accumulate(y * (g - inner))

    return tape._record(out, (x,), backward)


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
            logits._accumulate(float(g) * (_sigmoid(t) - y) / n)

    return tape._record(out, (logits,), backward)


# --- gradient oracle ----------------------------------------------------------

def finite_diff_check(build: Callable[[dict[str, np.ndarray]], tuple[Tape, Tensor]],
                      params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central finite differences.

    ``build`` must construct a fresh tape from plain parameter arrays,
    register each entry of ``params`` on it, and return (tape, scalar loss).
    The error for each parameter entry is |analytic - fd| / max(1, |analytic|).
    """
    assert eps > 0
    base = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    tape, loss = build({k: v.copy() for k, v in base.items()})
    grads = tape.backward(loss)
    worst = 0.0
    for name in sorted(base):
        arr = base[name]
        g = np.asarray(grads[name], dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            for sign in (+1.0, -1.0):
                mod = {k: v.copy() for k, v in base.items()}
                mod[name].reshape(-1)[i] = orig + sign * eps
                _, out = build(mod)
                if sign > 0:
                    f_plus = float(out.data)
                else:
                    f_minus = float(out.data)
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]))
            if err > worst:
                worst = err
    return worst
