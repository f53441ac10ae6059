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

``forward`` runs the whole pipeline for a batch on plain arrays, with the
fused ops ``autodiff.instance_level`` for stages 2-3 and
``autodiff.pattern_level`` for 4-5.  A labeled batch also records its fixed
model step on an ``autodiff.Tape``, whose one backward pass fills a flat
gradient laid out like the parameters' buffer.  The readable node-at-a-time
reference that the tests check it against is ``tests/reference_model.py``.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

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

    @property
    def inner_uniform(self) -> bool:
        return "inner" in self.ablation or "att" in self.ablation

    @property
    def cross_uniform(self) -> bool:
        return "cross" in self.ablation or "att" in self.ablation

    @property
    def company_only(self) -> bool:
        return "hete" in self.ablation


class FlatArrays(dict):
    """Named float64 views into one flat buffer, ``flat``, which Adam steps: keys are fixed."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        self.flat = np.concatenate([a.reshape(-1) for a in arrays.values()] + [np.zeros(0)])
        off = 0
        for k, a in arrays.items():
            super().__setitem__(k, self.flat[off:off + a.size].reshape(a.shape))
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
class ForwardResult:
    """One batch's outputs, keyed by node.

    ``tape`` is the batch's ``ad.Tape`` when it was labeled, else None.
    ``betas`` is [batch row, pattern column], zero where ``present`` is not
    set; ``inner`` holds per pattern (batch rows, segment offsets, instance
    weights).
    """

    batch: list[int]
    loss: float | None
    p: dict[int, float]
    z: dict[int, np.ndarray]
    degenerate: set[int]
    tape: ad.Tape | None
    betas: np.ndarray
    present: np.ndarray
    pattern_ids: list[str]
    inner: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]


def _check_batch(graph: HetGraph, batch: list[int], company: str,
                 labels: dict[int, int] | None) -> None:
    if not batch:
        raise EmptyBatch("forward needs at least one node")
    if len(set(batch)) != len(batch):
        repeated = next(i for i, n in Counter(batch).items() if n > 1)
        raise DuplicateBatchNode(f"batch node {graph.ids[repeated]} appears more than once")
    for i in batch:
        if graph.types[i] != company:
            raise ValueError(f"batch node {graph.ids[i]} is not of type {company!r}")
        if labels is not None and i not in labels:
            raise ValueError(f"batch node {graph.ids[i]} has no label")


@ad.QUIET
def forward(graph: HetGraph, index: NeighborIndex, batch: Sequence[int],
            params: ModelParams, config: ModelConfig,
            labels: dict[int, int] | None = None) -> ForwardResult:
    """Run the full pipeline for a batch of company nodes on plain arrays.

    With ``labels`` the mean binary cross-entropy over the batch is computed and
    the step recorded on an ``ad.Tape`` for its one ``backward``; scoring (no
    labels) builds none.  Instances come from the index's CSR arrays; a batch
    may not repeat a node.
    """
    batch = list(batch)
    company = params.company_type
    _check_batch(graph, batch, company, labels)

    P = params.arrays
    n_batch = len(batch)
    anchors = np.array(batch, dtype=np.intp)
    patterns = {p.pattern_id: p for p in index.patterns}
    pattern_ids = [pid for pid in params.pattern_ids if pid in patterns]

    # per pattern: the batch's instance rows with roles anchor-first, which role
    # columns read the zero row (non-company roles under the company-only
    # ablation), the batch rows that have instances, and their segment offsets
    plan: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
    for pid in pattern_ids:
        nodes, counts = index.gather(pid, anchors)
        if not len(nodes):
            continue
        roles, names = patterns[pid].anchor_first_roles(), patterns[pid].role_names
        cols = [names.index(role) for role, _ in roles]
        zeroed = np.array([config.company_only and rtype != company for _, rtype in roles])
        positions = np.flatnonzero(counts)
        offsets = np.concatenate(([0], np.cumsum(counts[positions])))
        plan[pid] = (nodes[:, cols], zeroed, positions, offsets)

    # project every node a role reads, stacked type by type (types in code order)
    read = np.zeros(len(graph), dtype=bool)
    read[anchors] = True
    for nodes, zeroed, _, _ in plan.values():
        read[nodes[:, ~zeroed]] = True
    needed = np.flatnonzero(read)
    codes = graph.type_code[needed]
    needed = needed[np.argsort(codes, kind="stable")]
    type_ends = np.cumsum(np.bincount(codes, minlength=len(graph.type_names))).tolist()
    projected = []
    for t, lo, hi in zip(graph.type_names, [0] + type_ends, type_ends):
        if lo == hi:
            continue
        if f"proj::{t}" not in P:
            raise MissingProjection(f"no projection matrix for node type {t!r}")
        projected.append((f"proj::{t}", graph.type_features(t)[graph.row_in_type[needed[lo:hi]]],
                          lo, hi))
    # a trailing all-zero row, read by the zeroed role columns
    zero_row = len(needed)
    H = np.concatenate([X @ P[name].T.copy() for name, X, _, _ in projected]
                       + [np.zeros((1, config.proj_dim))])
    row_of = np.empty(len(graph), dtype=np.intp)
    row_of[needed] = np.arange(len(needed))

    Xb = graph.type_features(company)[graph.row_in_type[anchors]]
    q, d_q = ad.elu(Xb @ P["query"].T.copy())
    W_T = P["cross_w"].T.copy()

    present = np.zeros((n_batch, len(pattern_ids)), dtype=bool)
    columns, levels = [], []
    inner: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for c, pid in enumerate(pattern_ids):
        if pid not in plan:
            continue
        nodes, zeroed, positions, offsets = plan[pid]
        idx = row_of[nodes]
        idx[:, zeroed] = zero_row
        m, alpha, back = ad.instance_level(
            H, idx, [P[f"inst::{pid}::h{h}"] for h in range(config.heads)],
            None if config.inner_uniform else P[f"attn_inst::{pid}"],
            W_T, P["cross_b"], offsets)
        present[positions, c] = True
        columns.append((c, m, positions, P[f"attn_cross::{pid}"]))
        levels.append((pid, back))
        inner[pid] = (positions, offsets, alpha)
    logits, betas, z, back = ad.pattern_level(q, W_T, P["cross_b"], columns, present,
                                              P["readout_w"], P["readout_b"],
                                              config.cross_uniform)
    p = ad.sigmoid(logits)

    tape = loss = None
    if labels is not None:
        y = np.array([labels[i] for i in batch], dtype=np.float64)
        loss = float((np.maximum(logits, 0.0) - logits * y
                      + np.log1p(np.exp(-np.abs(logits)))).mean())
        tape = _record_step(params, config, projected, Xb, d_q, levels, back,
                            (p - y) / n_batch)

    return ForwardResult(
        batch, loss,
        p=dict(zip(batch, p.tolist())),
        z=dict(zip(batch, z.copy())),
        degenerate={i for i, on in zip(batch, present.any(axis=1).tolist()) if not on},
        tape=tape, betas=betas, present=present, pattern_ids=pattern_ids, inner=inner)


def _record_step(params: ModelParams, config: ModelConfig, projected, Xb, d_q, levels,
                 pattern_back, g_logits) -> ad.Tape:
    """A labeled batch's tape: the projection per node type read, the query, each
    present pattern's instance level, the pattern level and the loss, in that order."""
    grad = FlatArrays({k: np.zeros(a.shape) for k, a in params.arrays.items()})

    def projection(name, X, lo, hi, up):
        grad[name] += (X.T @ up["H"][lo:hi]).T

    def query(up):
        if up["q"] is not None:
            grad["query"] += (Xb.T @ (up["q"] * d_q)).T

    def instance(pid, back, up):  # after pattern(), the last pattern first
        g_H = back(up.pop(pid), [grad[f"inst::{pid}::h{h}"] for h in range(config.heads)],
                   grad[f"attn_inst::{pid}"], grad["cross_w"].T, grad["cross_b"])
        up["H"] = g_H if "H" not in up else up["H"] + g_H

    def pattern(up):
        up["q"], g_ms = pattern_back(up.pop("logits"), grad["cross_w"].T, grad["cross_b"],
                                     [grad[f"attn_cross::{pid}"] for pid, _ in levels],
                                     grad["readout_w"], grad["readout_b"])
        up.update((pid, g_m) for (pid, _), g_m in zip(levels, g_ms))

    # with no instance level, no gradient reaches the projections
    return ad.Tape(grad, ([partial(projection, *part) for part in projected] if levels else [])
                   + [query, *(partial(instance, *level) for level in levels), pattern,
                      lambda up: up.update(logits=g_logits)])


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
