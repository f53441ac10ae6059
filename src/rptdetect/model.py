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

``forward`` runs the whole pipeline for a batch on an autodiff tape, with
two fused ops for stages 2-3 and 4-5.  The readable node-at-a-time reference
that the tests check it against is ``tests/reference_model.py``.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
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
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

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
    """All learnable arrays, keyed by stable names, plus shape metadata.

    Keys: ``proj::<type>``, ``inst::<pattern>::h<k>``, ``attn_inst::<pattern>``,
    ``cross_w``, ``cross_b``, ``query``, ``attn_cross::<pattern>``,
    ``readout_w``, ``readout_b``.  The arrays live in one flat buffer
    (``arrays.flat``), in key order, so an optimizer step is whole-buffer work.
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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def init_params(schema: Schema, patterns: Sequence[RptPattern],
                config: ModelConfig, seed: int) -> ModelParams:
    """Scale-balanced random matrices, deterministic per seed; biases start at zero."""
    rng = np.random.default_rng(seed)
    d_in = config.proj_dim
    d = config.embed_dim
    arrays: dict[str, np.ndarray] = {}
    for t in sorted(schema.node_types):
        dim = schema.node_types[t]
        arrays[f"proj::{t}"] = _glorot(rng, dim, d_in, (d_in, dim))
    for p in patterns:
        width = len(p.roles) * d_in
        for h in range(config.heads):
            arrays[f"inst::{p.pattern_id}::h{h}"] = _glorot(
                rng, width, config.head_dim, (config.head_dim, width))
        arrays[f"attn_inst::{p.pattern_id}"] = _glorot(rng, d, 1, (d,))
    arrays["cross_w"] = _glorot(rng, d, d, (d, d))
    arrays["cross_b"] = np.zeros(d)
    company_dim = schema.node_types[schema.company_type]
    arrays["query"] = _glorot(rng, company_dim, d, (d, company_dim))
    for p in patterns:
        arrays[f"attn_cross::{p.pattern_id}"] = _glorot(rng, 2 * d, 1, (2 * d,))
    arrays["readout_w"] = _glorot(rng, d, 1, (d,))
    arrays["readout_b"] = np.zeros(())
    meta = {
        "proj_dim": d_in,
        "embed_dim": d,
        "heads": config.heads,
        "company_type": schema.company_type,
        "node_dims": {t: schema.node_types[t] for t in sorted(schema.node_types)},
        "patterns": {p.pattern_id: len(p.roles) for p in patterns},
    }
    return ModelParams(arrays, meta)


# --- batched tape path -----------------------------------------------------------

@dataclass
class ForwardResult:
    """One batch's outputs, keyed by node.

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
    loss_tensor: ad.Tensor | None
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


def forward(graph: HetGraph, index: NeighborIndex, batch: Sequence[int],
            params: ModelParams, config: ModelConfig,
            labels: dict[int, int] | None = None) -> ForwardResult:
    """Run the full pipeline for a batch of company nodes on one tape.

    With ``labels`` the mean binary cross-entropy over the batch is computed
    and the tape kept for its one ``backward``.  Scoring (no labels) records
    nothing: the parameters enter as constants.  Instances come from the
    index's CSR arrays; a batch may not repeat a node.  A training tape holds
    the projection, the query, one ``ad.instance_level`` node per pattern
    with instances in the batch, one ``ad.pattern_level`` node and the loss.
    """
    batch = list(batch)
    company = params.company_type
    _check_batch(graph, batch, company, labels)

    tape = ad.Tape()
    tp = {name: tape.constant(arr) if labels is None else tape.parameter(name, arr)
          for name, arr in params.arrays.items()}
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
    H_parts = []
    for t, lo, hi in zip(graph.type_names, [0] + type_ends, type_ends):
        if lo == hi:
            continue
        if f"proj::{t}" not in params.arrays:
            raise MissingProjection(f"no projection matrix for node type {t!r}")
        X = tape.constant(graph.type_features(t)[graph.row_in_type[needed[lo:hi]]])
        H_parts.append(ad.matmul(X, ad.transpose(tp[f"proj::{t}"])))
    # a trailing all-zero row, read by the zeroed role columns
    zero_row = len(needed)
    H_parts.append(tape.constant(np.zeros((1, config.proj_dim))))
    H = ad.vconcat(H_parts)
    row_of = np.empty(len(graph), dtype=np.intp)
    row_of[needed] = np.arange(len(needed))

    Xb = tape.constant(graph.type_features(company)[graph.row_in_type[anchors]])
    q = ad.elu(ad.matmul(Xb, ad.transpose(tp["query"])))
    W_T = ad.transpose(tp["cross_w"])

    present = np.zeros((n_batch, len(pattern_ids)), dtype=bool)
    columns = []
    inner: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for c, pid in enumerate(pattern_ids):
        if pid not in plan:
            continue
        nodes, zeroed, positions, offsets = plan[pid]
        idx = row_of[nodes]
        idx[:, zeroed] = zero_row
        m, alpha = ad.instance_level(
            H, idx, [tp[f"inst::{pid}::h{h}"] for h in range(config.heads)],
            None if config.inner_uniform else tp[f"attn_inst::{pid}"],
            W_T, tp["cross_b"], offsets)
        present[positions, c] = True
        columns.append((c, m, positions, tp[f"attn_cross::{pid}"]))
        inner[pid] = (positions, offsets, alpha)
    logits, betas, z = ad.pattern_level(q, W_T, tp["cross_b"], columns, present,
                                        tp["readout_w"], tp["readout_b"], config.cross_uniform)

    loss_tensor = loss = None
    if labels is not None:
        y = np.array([labels[i] for i in batch], dtype=np.float64)
        loss_tensor = ad.bce_with_logits_mean(logits, y)
        loss = float(loss_tensor.data)

    return ForwardResult(
        batch, loss,
        p=dict(zip(batch, ad.sigmoid(logits.data).tolist())),
        z=dict(zip(batch, z.copy())),
        degenerate={i for i, on in zip(batch, present.any(axis=1).tolist()) if not on},
        tape=tape if labels is not None else None, loss_tensor=loss_tensor,
        betas=betas, present=present, pattern_ids=pattern_ids, inner=inner)


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
    """Read a ``save_params`` file; a file that is not one raises ``DimensionMismatch``."""
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
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(
            f"checkpoint {path}: 'arrays' must hold [name, shape, values] entries "
            f"whose values fill the shape ({exc})") from exc
    return ModelParams(arrays, doc["meta"])
