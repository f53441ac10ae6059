"""Two-level attention network over RPT instances.

Pipeline per company node i:
  1. project every node's raw attributes into a shared space (per-type matrix);
  2. encode each matched instance by concatenating the anchor's projection
     followed by the other role nodes in canonical role order, one linear map
     plus activation per head, heads concatenated;
  3. attend over the node's instances within each pattern (instance level);
  4. transform each pattern summary, score it against a query built from the
     node's raw attributes, and attend across patterns (pattern level);
  5. a linear readout plus sigmoid turns the fused embedding into the
     evasion probability, trained with binary cross-entropy.

``plan_batches`` does the batches' parameter-independent work once per node
order; ``forward`` does one planned batch's parameter work on plain arrays, with
the fused ops ``autodiff.instance_level`` (stages 2-3) and ``pattern_level``
(4-5).  A labeled batch also records its step on an ``autodiff.Tape``, whose
one backward pass fills a flat gradient laid out like the parameters' buffer.
The node-at-a-time reference the tests check it against is
``tests/reference_model.py``.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .errors import (
    DimensionMismatch,
    DuplicateBatchNode,
    EmptyBatch,
    MissingProjection,
    ShapeMismatch,
)
from .hetgraph import HetGraph, Schema, read_json
from .matcher import NeighborIndex
from .patterns import RptPattern

ABLATIONS = ("hete", "inner", "cross", "att")


@dataclass(frozen=True)
class ModelConfig:
    proj_dim: int = 16
    embed_dim: int = 16
    heads: int = 2
    ablation: tuple[str, ...] = ()

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ShapeMismatch(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}")
        for a in self.ablation:
            if a not in ABLATIONS:
                raise ValueError(f"unknown ablation flag {a!r}")


class FlatArrays(dict):
    """Named float64 views into one flat buffer, ``flat``, which Adam steps: keys are fixed."""

    def __init__(self, arrays: dict[str, np.ndarray], flat: np.ndarray | None = None):
        """``flat``, when given, is the buffer to view, laid out as ``arrays`` would be."""
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        if flat is None:
            flat = np.concatenate([a.reshape(-1) for a in arrays.values()] + [np.zeros(0)])
        self.flat, off = flat, 0
        for k, a in arrays.items():
            super().__setitem__(k, flat[off:off + a.size].reshape(a.shape))
            off += a.size

    def __setitem__(self, name, value):
        if name not in self or self[name] is not value:  # ``+=`` stores its own view back
            self._fixed()

    def _fixed(self, *args, **kwargs):
        raise TypeError("parameter arrays are views into `flat`; write into one "
                        "in place (arrays[name][...] = value)")

    __delitem__ = update = setdefault = pop = popitem = clear = __ior__ = _fixed


class ModelParams:
    """All learnable arrays, keyed and shaped as ``param_shapes(meta)`` says, plus
    ``meta``.  The arrays live in one flat buffer (``arrays.flat``), in key
    order, so an optimizer step is whole-buffer work.
    """

    def __init__(self, arrays: dict[str, np.ndarray], meta: dict):
        self.arrays = FlatArrays(arrays)
        self.meta = meta

    @property
    def pattern_ids(self) -> list[str]:
        return list(self.meta["patterns"])

    @property
    def company_type(self) -> str:
        return self.meta["company_type"]


def param_shapes(meta: dict) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in buffer order, from a ``ModelParams.meta``."""
    d_in, d, heads = meta["proj_dim"], meta["embed_dim"], meta["heads"]
    shapes = {f"proj::{t}": (d_in, dim) for t, dim in meta["node_dims"].items()}
    for pid, n_roles in meta["patterns"].items():
        shapes.update({f"inst::{pid}::h{h}": (d // heads, n_roles * d_in) for h in range(heads)})
        shapes[f"attn_inst::{pid}"] = (d,)
    shapes.update(cross_w=(d, d), cross_b=(d,),
                  query=(d, meta["node_dims"][meta["company_type"]]))
    shapes.update({f"attn_cross::{pid}": (2 * d,) for pid in meta["patterns"]})
    shapes.update(readout_w=(d,), readout_b=())
    return shapes


def init_params(schema: Schema, patterns: Sequence[RptPattern],
                config: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, +-sqrt(6 / (in + out)) for shape (out, in) or (in,)
    with out = 1, drawn in buffer order, deterministic per seed; biases start at zero."""
    meta = {
        "proj_dim": config.proj_dim,
        "embed_dim": config.embed_dim,
        "heads": config.heads,
        "company_type": schema.company_type,
        "node_dims": {t: schema.node_types[t] for t in sorted(schema.node_types)},
        "patterns": {p.pattern_id: len(p.roles) for p in patterns},
    }
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(meta).items():
        if name in ("cross_b", "readout_b"):
            arrays[name] = np.zeros(shape)
        else:
            s = math.sqrt(6.0 / (sum(shape) + (len(shape) == 1)))
            arrays[name] = rng.uniform(-s, s, size=shape)
    return ModelParams(arrays, meta)


# --- batched model step -----------------------------------------------------------

@dataclass
class BatchPlan:
    """One batch's parameter-independent inputs, from ``plan_batches``.

    ``levels``: per pattern with rows in the batch, (each instance's ``H`` rows, anchor
    first, a zeroed role at the last, zero row; the batch rows with instances; their
    segment offsets).  ``blocks``: per node type read, (projection name, feature rows,
    first and end ``H`` row).  ``y``: the labels, None when planned without them.
    """

    batch: list[int]
    pattern_ids: list[str]
    levels: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    blocks: list[tuple[str, np.ndarray, int, int]]
    Xb: np.ndarray
    y: np.ndarray | None


@dataclass
class ForwardResult:
    """One batch's outputs, row r for node ``batch[r]``.

    ``tape`` is the batch's ``ad.Tape`` when it was labeled, else None.
    ``betas`` is [batch row, pattern column], zero where ``present`` is not
    set; ``inner`` holds per pattern (batch rows, segment offsets, instance
    weights).  ``degenerate`` is the set of batch nodes with no instance.
    """

    batch: list[int]
    loss: float | None
    probs: np.ndarray
    embeddings: np.ndarray
    tape: ad.Tape | None
    betas: np.ndarray
    present: np.ndarray
    pattern_ids: list[str]
    inner: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def degenerate(self) -> set[int]:
        return {i for i, on in zip(self.batch, self.present.any(axis=1).tolist()) if not on}


def _check_batch(graph: HetGraph, batch: list[int], company: str,
                 labels: dict[int, int] | None) -> None:
    if not batch:
        raise EmptyBatch("forward needs at least one node")
    if len(set(batch)) != len(batch):
        repeated = next(i for i, n in Counter(batch).items() if n > 1)
        raise DuplicateBatchNode(f"batch node {graph.ids[repeated]} appears more than once")
    is_company = graph.type_mask(company)
    for i in batch:
        if not is_company[i]:
            raise ValueError(f"batch node {graph.ids[i]} is not of type {company!r}")
        if labels is not None and i not in labels:
            raise ValueError(f"batch node {graph.ids[i]} has no label")


def plan_batches(graph: HetGraph, index: NeighborIndex, order: Sequence[int],
                 params: ModelParams, config: ModelConfig, batch_size: int,
                 labels: dict[int, int] | None = None) -> Iterator[BatchPlan]:
    """``order`` cut into batches of ``batch_size``, planned in one pass and yielded in turn.

    The order is checked (``_check_batch``) and each pattern's rows gathered once, roles
    anchor first.  A batch's ``H`` has a row per node a role reads (no non-company node
    under the company-only ablation), types in code order, nodes ascending, then a zero row.
    """
    company, order = params.company_type, np.asarray(order, dtype=np.intp)
    _check_batch(graph, order.tolist(), company, labels)
    y = None if labels is None else np.array([labels[i] for i in order.tolist()], np.float64)
    cuts = list(range(0, len(order), batch_size)) + [len(order)]
    patterns = {p.pattern_id: p for p in index.patterns}
    pattern_ids = [pid for pid in params.pattern_ids if pid in patterns]
    # a node's rank in (type code, node) order, so that a type's nodes are one run of
    # ranks; int32 halves the rows the whole order holds
    rank = np.empty(len(graph), dtype=np.int32)
    rank[np.argsort(graph.type_code, kind="stable")] = np.arange(len(graph))
    type_ends = np.cumsum(np.bincount(graph.type_code, minlength=len(graph.type_names))).tolist()
    # per pattern: the order's rows as ranks, roles anchor first (all, and those read); the
    # roles read; the positions with rows, their first rows, each batch's first position
    gathered = []
    for pid in pattern_ids:
        nodes, counts = index.gather(pid, order)
        ranks, a = rank.take(nodes), patterns[pid].role_names.index(patterns[pid].anchor)
        ranks[:, :a + 1] = ranks[:, [a, *range(a)]]
        read = np.array(["hete" not in config.ablation or t == company
                         for _, t in patterns[pid].anchor_first_roles()])
        has = np.flatnonzero(counts)
        gathered.append((pid, ranks, ranks if read.all() else ranks[:, read], read, has,
                         np.concatenate(([0], np.cumsum(counts[has]))),
                         has.searchsorted(cuts).tolist()))
    Xs = graph.type_features(company).take(graph.row_in_type.take(order), axis=0)

    row = np.empty(len(graph), dtype=np.intp)
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        marked = np.zeros(len(graph), dtype=bool)
        marked[rank.take(order[lo:hi])] = True
        cut = []
        for pid, ranks, kept, read, has, starts, at in gathered:
            a, b = at[k], at[k + 1]
            if a < b:
                marked[kept[starts[a]:starts[b]]] = True
                cut.append((pid, ranks[starts[a]:starts[b]], read, has[a:b] - lo,
                            starts[a:b + 1] - starts[a]))
        needed = np.flatnonzero(marked)
        row[needed] = np.arange(len(needed))
        levels = {}
        for pid, ranks, read, positions, offsets in cut:
            idx = row.take(ranks)
            idx[:, ~read] = len(needed)
            levels[pid] = (idx, positions, offsets)
        blocks, ends = [], needed.searchsorted(type_ends).tolist()
        for t, start, r0, r1 in zip(graph.type_names, [0, *type_ends], [0, *ends], ends):
            if r0 < r1:
                if f"proj::{t}" not in params.arrays:
                    raise MissingProjection(f"no projection matrix for node type {t!r}")
                blocks.append((f"proj::{t}", graph.type_features(t).take(needed[r0:r1] - start,
                                                                         axis=0), r0, r1))
        yield BatchPlan(order[lo:hi].tolist(), pattern_ids, levels, blocks, Xs[lo:hi],
                        None if y is None else y[lo:hi])


@ad.QUIET
def forward(graph: HetGraph, index: NeighborIndex, batch: Sequence[int] | BatchPlan,
            params: ModelParams, config: ModelConfig,
            labels: dict[int, int] | None = None) -> ForwardResult:
    """Run the full pipeline for a batch of company nodes on plain arrays.

    ``batch`` is a ``BatchPlan`` or a list of nodes, planned here as one batch.
    With ``labels`` (a plan's must have been planned with them, and its ``y`` is
    used) the mean binary cross-entropy over the batch is computed and the step
    recorded on an ``ad.Tape`` for its one ``backward``; scoring builds none.
    """
    plan = batch
    if not isinstance(plan, BatchPlan):
        plan = next(plan_batches(graph, index, batch, params, config, len(batch), labels))
    P = params.arrays
    H = np.concatenate([X @ P[name].T.copy() for name, X, _, _ in plan.blocks]
                       + [np.zeros((1, config.proj_dim))])
    q, d_q = ad.elu(plan.Xb @ P["query"].T.copy())
    W_T = P["cross_w"].T.copy()

    present = np.zeros((len(plan.batch), len(plan.pattern_ids)), dtype=bool)
    columns, levels = [], []
    inner: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for c, pid in enumerate(plan.pattern_ids):
        if pid not in plan.levels:
            continue
        idx, positions, offsets = plan.levels[pid]
        m, alpha, back = ad.instance_level(
            H, idx, [P[f"inst::{pid}::h{h}"] for h in range(config.heads)],
            None if {"inner", "att"} & set(config.ablation) else P[f"attn_inst::{pid}"],
            W_T, P["cross_b"], offsets)
        present[positions, c] = True
        columns.append((c, m, positions, P[f"attn_cross::{pid}"]))
        if labels is not None:  # a scoring step keeps no backward, so its arrays go now
            levels.append((pid, back))
        inner[pid] = (positions, offsets, alpha)
    logits, betas, z, back = ad.pattern_level(q, W_T, P["cross_b"], columns, present,
                                              P["readout_w"], P["readout_b"],
                                              bool({"cross", "att"} & set(config.ablation)))
    p = ad.sigmoid(logits)

    tape = loss = None
    if labels is not None:
        loss = float((np.maximum(logits, 0.0) - logits * plan.y
                      + np.log1p(np.exp(-np.abs(logits)))).mean())
        tape = ad.Tape(FlatArrays(P, np.zeros(P.flat.size)), partial(
            _backward, config, plan, d_q, levels, back, (p - plan.y) / len(plan.batch)))
    return ForwardResult(plan.batch, loss, p, z, tape, betas, present, plan.pattern_ids, inner)


def _backward(config: ModelConfig, plan: BatchPlan, d_q, levels, pattern_back, g_logits,
              grad: FlatArrays) -> None:
    """A labeled step's backward pass, adding into ``grad``'s views stage by stage from the
    loss back: the pattern level, each present pattern's instance level (the last pattern
    first), the query, the projections."""
    g_q, g_ms = pattern_back(g_logits, grad["cross_w"].T, grad["cross_b"],
                             [grad[f"attn_cross::{pid}"] for pid, _ in levels],
                             grad["readout_w"], grad["readout_b"])
    g_H = None
    for (pid, back), g_m in reversed(list(zip(levels, g_ms))):
        g = back(g_m, [grad[f"inst::{pid}::h{h}"] for h in range(config.heads)],
                 grad[f"attn_inst::{pid}"], grad["cross_w"].T, grad["cross_b"])
        g_H = g if g_H is None else g_H + g
    if g_q is not None:
        grad["query"] += (plan.Xb.T @ (g_q * d_q)).T
    # with no instance level, no gradient reaches the projections
    for name, X, lo, hi in reversed(plan.blocks if levels else []):
        grad[name] += (X.T @ g_H[lo:hi]).T


# --- checkpoints -----------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_params(params: ModelParams, path: str | os.PathLike) -> None:
    """Versioned structured-text dump; floats round-trip exactly."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "meta": params.meta,
        "arrays": [
            [name, list(arr.shape), [float(v) for v in arr.reshape(-1)]]
            for name, arr in params.arrays.items()
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8",
                          newline="\n")


def load_params(path: str | os.PathLike) -> ModelParams:
    """Read a ``save_params`` file; a file that is not one, or whose array shapes
    differ from what its ``meta`` implies, raises ``DimensionMismatch``."""
    doc = read_json(path, "checkpoint", DimensionMismatch)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise DimensionMismatch(
            f"checkpoint {path}: unsupported format version {version!r}")
    missing = [key for key in ("meta", "arrays") if key not in doc]
    if missing:
        raise DimensionMismatch(f"checkpoint {path}: missing {', '.join(missing)}")
    arrays = {}
    try:
        for name, shape, flat in doc["arrays"]:
            arrays[name] = np.array(flat, dtype=np.float64).reshape(shape)
        shapes = param_shapes(doc["meta"])
    except (TypeError, ValueError, LookupError, AttributeError, ArithmeticError) as exc:
        raise DimensionMismatch(
            f"checkpoint {path}: 'arrays' must hold [name, shape, values] entries "
            f"whose values fill the shape, and 'meta' the model's dimensions ({exc})") from exc
    got = {name: list(a.shape) for name, a in arrays.items()}
    want = {name: list(shape) for name, shape in shapes.items()}
    if got != want:
        name = next(n for n in [*want, *got] if got.get(n) != want.get(n))
        raise DimensionMismatch(f"checkpoint {path}: array {name!r} has shape {got.get(name)}, "
                                f"but its meta implies {want.get(name)}")
    return ModelParams(arrays, doc["meta"])
