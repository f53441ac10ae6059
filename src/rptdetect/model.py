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

``forward`` runs the whole pipeline batched on an autodiff tape; the
module-level functions implement the same stages one node at a time in plain
numpy and exist as the readable reference (tests check both paths agree).
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import DuplicateBatchNode, EmptyBatch, MissingProjection, ShapeMismatch
from .hetgraph import HetGraph, Schema
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


def _elu(x):
    """Feature transform of stages 2-4 (``ad.elu`` on the tape)."""
    return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))


def _leaky_relu(x):
    """Attention-logit activation, slope 0.2 (``ad.leaky_relu`` on the tape)."""
    return np.where(x >= 0, x, 0.2 * x)


class ModelParams:
    """All learnable arrays, keyed by stable names, plus shape metadata.

    Keys: ``proj::<type>``, ``inst::<pattern>::h<k>``, ``attn_inst::<pattern>``,
    ``cross_w``, ``cross_b``, ``query``, ``attn_cross::<pattern>``,
    ``readout_w``, ``readout_b``.
    """

    def __init__(self, arrays: dict[str, np.ndarray], meta: dict):
        self.arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        self.meta = meta

    @property
    def pattern_ids(self) -> list[str]:
        return list(self.meta["patterns"])

    @property
    def company_type(self) -> str:
        return self.meta["company_type"]

    def proj(self, node_type: str) -> np.ndarray:
        key = f"proj::{node_type}"
        if key not in self.arrays:
            raise MissingProjection(f"no projection matrix for node type {node_type!r}")
        return self.arrays[key]

    def inst_w(self, pattern_id: str, head: int) -> np.ndarray:
        return self.arrays[f"inst::{pattern_id}::h{head}"]

    def attn_inst(self, pattern_id: str) -> np.ndarray:
        return self.arrays[f"attn_inst::{pattern_id}"]

    def attn_cross(self, pattern_id: str) -> np.ndarray:
        return self.arrays[f"attn_cross::{pattern_id}"]


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


# --- per-node reference path ---------------------------------------------------

def project(graph: HetGraph, params: ModelParams,
            nodes: Sequence[int] | None = None) -> dict[int, np.ndarray]:
    """Shared-space vectors: h_i = P[type(i)] @ x_i."""
    out: dict[int, np.ndarray] = {}
    targets = range(len(graph)) if nodes is None else nodes
    for i in targets:
        P = params.proj(graph.types[i])
        if P.shape[1] != graph.x[i].size:
            raise ShapeMismatch(
                f"projection for type {graph.types[i]!r} expects input "
                f"{P.shape[1]}, node has {graph.x[i].size}")
        out[i] = P @ graph.x[i]
    return out


def encode_instance(instance, h: dict[int, np.ndarray], params: ModelParams,
                    pattern: RptPattern, config: ModelConfig) -> np.ndarray:
    """Per-head linear map over the concatenated role projections, heads concatenated.

    The anchor's vector always leads; remaining roles follow canonical pattern
    order, so a node filling two roles contributes its vector once per slot.
    With the company-only ablation, non-company roles contribute zeros.
    """
    mapping = instance.mapping(pattern)
    parts = []
    for role, rtype in pattern.anchor_first_roles():
        if config.company_only and rtype != params.company_type:
            parts.append(np.zeros(config.proj_dim))
        else:
            parts.append(h[mapping[role]])
    c = np.concatenate(parts)
    heads = [_elu(params.inst_w(pattern.pattern_id, k) @ c) for k in range(config.heads)]
    return np.concatenate(heads)


def inner_rpt_attention(encodings: np.ndarray, params: ModelParams,
                        pattern_id: str, config: ModelConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Attend over one node's instance encodings (rows); returns (summary, weights)."""
    if encodings.ndim != 2 or encodings.shape[0] < 1:
        raise ShapeMismatch("need at least one instance encoding")
    n = encodings.shape[0]
    if config.inner_uniform:
        alpha = np.full(n, 1.0 / n)
    else:
        e = _leaky_relu(encodings @ params.attn_inst(pattern_id))
        e = e - e.max()
        alpha = np.exp(e) / np.exp(e).sum()
    f = _elu(alpha @ encodings)
    return f, alpha


def cross_rpt_attention(summaries: dict[str, np.ndarray], x_i: np.ndarray,
                        params: ModelParams, config: ModelConfig
                        ) -> tuple[np.ndarray, dict[str, float]]:
    """Fuse per-pattern summaries into the final embedding.

    Only patterns present in ``summaries`` take part; their weights renormalize
    among themselves.  With no pattern present the query vector alone is pushed
    through the shared transform (degenerate path).
    """
    W, b, Q = params.arrays["cross_w"], params.arrays["cross_b"], params.arrays["query"]
    q = _elu(Q @ x_i)
    present = [pid for pid in params.pattern_ids if pid in summaries]
    if not present:
        return _elu(W @ q + b), {}
    d = config.embed_dim
    m = {pid: _elu(W @ summaries[pid] + b) for pid in present}
    if config.cross_uniform:
        beta = np.full(len(present), 1.0 / len(present))
    else:
        logits = np.array([
            _leaky_relu(float(params.attn_cross(pid) @ np.concatenate([q, m[pid]])) / math.sqrt(d))
            for pid in present
        ])
        logits = logits - logits.max()
        beta = np.exp(logits) / np.exp(logits).sum()
    z = np.zeros(d)
    for w, pid in zip(beta, present):
        z += w * m[pid]
    return z, {pid: float(w) for pid, w in zip(present, beta)}


def readout(z: np.ndarray, params: ModelParams) -> float:
    """Evasion probability from the fused embedding: sigmoid of a linear logit."""
    t = float(params.arrays["readout_w"] @ z) + float(params.arrays["readout_b"])
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    return math.exp(t) / (1.0 + math.exp(t))


# --- batched tape path -----------------------------------------------------------

@dataclass
class ForwardResult:
    batch: list[int]
    loss: float | None
    p: dict[int, float]
    z: dict[int, np.ndarray]
    alpha: dict[tuple[int, str], np.ndarray]
    beta: dict[int, dict[str, float]]
    degenerate: set[int]
    tape: ad.Tape | None = None
    loss_tensor: ad.Tensor | None = field(default=None, repr=False)


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
    and the tape kept for ``backward``; without labels only probabilities,
    embeddings, and attention records are produced.  Instances come from the
    index's CSR arrays; a batch may not repeat a node.
    """
    batch = list(batch)
    company = params.company_type
    _check_batch(graph, batch, company, labels)

    tape = ad.Tape()
    tp = {name: tape.parameter(name, arr) for name, arr in params.arrays.items()}
    d = config.embed_dim
    n_batch = len(batch)
    anchors = np.array(batch, dtype=np.intp)
    patterns = {p.pattern_id: p for p in index.patterns}
    pattern_ids = [pid for pid in params.pattern_ids if pid in patterns]

    # per pattern: the batch's instance rows with roles anchor-first, the batch
    # rows that have instances, and the segment offsets of their instances
    plan: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for pid in pattern_ids:
        nodes, counts = index.gather(pid, anchors)
        if not len(nodes):
            continue
        pattern = patterns[pid]
        cols = [pattern.role_names.index(role) for role, _ in pattern.anchor_first_roles()]
        positions = np.flatnonzero(counts)
        offsets = np.concatenate(([0], np.cumsum(counts[positions])))
        plan[pid] = (nodes[:, cols], positions, offsets)

    # project every needed node, stacked type by type (types in code order)
    needed = np.unique(np.concatenate(
        [anchors] + [nodes.ravel() for nodes, _, _ in plan.values()]))
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
    # a trailing all-zero row, read by non-company roles under the company-only ablation
    zero_row = len(needed)
    H_parts.append(tape.constant(np.zeros((1, config.proj_dim))))
    H = ad.vconcat(H_parts)
    row_of = np.empty(len(graph), dtype=np.intp)
    row_of[needed] = np.arange(len(needed))

    Xb = tape.constant(graph.type_features(company)[graph.row_in_type[anchors]])
    q_all = ad.elu(ad.matmul(Xb, ad.transpose(tp["query"])))
    W_T = ad.transpose(tp["cross_w"])

    mask = np.zeros((n_batch, len(pattern_ids)), dtype=bool)
    m_full: dict[str, ad.Tensor] = {}
    logit_cols: list[ad.Tensor] = []
    alpha_tensors: dict[str, ad.Tensor] = {}

    for col_idx, pid in enumerate(pattern_ids):
        if pid not in plan:
            logit_cols.append(ad.as_column(tape.constant(np.zeros(n_batch))))
            continue
        nodes, positions, offsets = plan[pid]
        idx = row_of[nodes]
        if config.company_only:
            roles = patterns[pid].anchor_first_roles()
            idx[:, [rtype != company for _, rtype in roles]] = zero_row
        n_inst, n_roles = idx.shape
        C = ad.reshape(ad.rows(H, idx.ravel()), (n_inst, n_roles * config.proj_dim))
        W_heads = ad.vconcat([tp[f"inst::{pid}::h{h}"] for h in range(config.heads)])
        h_enc = ad.elu(ad.matmul(C, ad.transpose(W_heads)))
        if config.inner_uniform:
            sizes = np.diff(offsets)
            alpha = tape.constant(np.repeat(1.0 / sizes, sizes))
        else:
            e = ad.leaky_relu(ad.matmul(h_enc, tp[f"attn_inst::{pid}"]))
            alpha = ad.segment_softmax(e, offsets)
        alpha_tensors[pid] = alpha
        F = ad.elu(ad.segment_weighted_sum(alpha, h_enc, offsets))
        m = ad.elu(ad.add(ad.matmul(F, W_T), tp["cross_b"]))
        m_full[pid] = ad.scatter_rows(m, positions, n_batch)
        mask[positions, col_idx] = True
        vq = ad.slice1d(tp[f"attn_cross::{pid}"], 0, d)
        vm = ad.slice1d(tp[f"attn_cross::{pid}"], d, 2 * d)
        s = ad.add(ad.matmul(q_all, vq), ad.matmul(m_full[pid], vm))
        logit_cols.append(ad.as_column(ad.leaky_relu(ad.scale(s, 1.0 / math.sqrt(d)))))

    if pattern_ids:
        E = ad.hconcat(logit_cols)
        if config.cross_uniform:
            denom = np.maximum(mask.sum(axis=1, keepdims=True), 1)
            B = tape.constant(np.where(mask, 1.0, 0.0) / denom)
        else:
            B = ad.masked_softmax_rows(E, mask)
    else:
        B = tape.constant(np.zeros((n_batch, 0)))

    z: ad.Tensor | None = None
    for col_idx, pid in enumerate(pattern_ids):
        if pid not in m_full:
            continue
        term = ad.colscale(m_full[pid], ad.col(B, col_idx))
        z = term if z is None else ad.add(z, term)

    degenerate_rows = ~mask.any(axis=1)
    if degenerate_rows.any() or z is None:
        fallback = ad.elu(ad.add(ad.matmul(q_all, W_T), tp["cross_b"]))
        gated = ad.colscale(fallback, tape.constant(degenerate_rows.astype(np.float64)))
        z = gated if z is None else ad.add(z, gated)

    t_logit = ad.add(ad.matmul(z, tp["readout_w"]), tp["readout_b"])
    p_tensor = ad.sigmoid(t_logit)

    loss_tensor = None
    loss = None
    if labels is not None:
        y = np.array([labels[i] for i in batch], dtype=np.float64)
        loss_tensor = ad.bce_with_logits_mean(t_logit, y)
        loss = float(loss_tensor.data)

    alpha_rec: dict[tuple[int, str], np.ndarray] = {}
    for pid, alpha in alpha_tensors.items():
        _, positions, offsets = plan[pid]
        weights = alpha.data.copy()
        bounds = offsets.tolist()
        alpha_rec.update(((batch[r], pid), weights[a:b]) for r, a, b
                         in zip(positions.tolist(), bounds[:-1], bounds[1:]))
    B_rows, mask_rows = B.data.tolist(), mask.tolist()
    beta_rec = {
        node: {pid: b for pid, b, on in zip(pattern_ids, B_rows[r], mask_rows[r]) if on}
        for r, node in enumerate(batch)
    }
    return ForwardResult(
        batch=batch,
        loss=loss,
        p=dict(zip(batch, p_tensor.data.tolist())),
        z=dict(zip(batch, z.data.copy())),
        alpha=alpha_rec,
        beta=beta_rec,
        degenerate={i for i, dg in zip(batch, degenerate_rows.tolist()) if dg},
        tape=tape if labels is not None else None,
        loss_tensor=loss_tensor,
    )


def forward_reference(graph: HetGraph, index: NeighborIndex, batch: Sequence[int],
                      params: ModelParams, config: ModelConfig,
                      labels: dict[int, int] | None = None) -> ForwardResult:
    """Node-at-a-time composition of the reference stages (no tape, no gradients)."""
    batch = list(batch)
    _check_batch(graph, batch, params.company_type, labels)
    needed: set[int] = set(batch)
    pattern_by_id = {p.pattern_id: p for p in index.patterns}
    for i in batch:
        for pid in index.pattern_ids:
            for inst in index.instances(i, pid):
                needed.update(inst.nodes)
    h = project(graph, params, sorted(needed))
    p_map: dict[int, float] = {}
    z_map: dict[int, np.ndarray] = {}
    alpha_rec: dict[tuple[int, str], np.ndarray] = {}
    beta_rec: dict[int, dict[str, float]] = {}
    degenerate: set[int] = set()
    losses = []
    for i in batch:
        summaries: dict[str, np.ndarray] = {}
        for pid in index.pattern_ids:
            insts = index.instances(i, pid)
            if not insts:
                continue
            enc = np.stack([
                encode_instance(inst, h, params, pattern_by_id[pid], config)
                for inst in insts
            ])
            f, alpha = inner_rpt_attention(enc, params, pid, config)
            summaries[pid] = f
            alpha_rec[(i, pid)] = alpha
        z, beta = cross_rpt_attention(summaries, graph.x[i], params, config)
        if not summaries:
            degenerate.add(i)
        z_map[i] = z
        beta_rec[i] = beta
        p_map[i] = readout(z, params)
        if labels is not None:
            y = labels[i]
            p = min(max(p_map[i], 1e-12), 1.0 - 1e-12)
            losses.append(-(y * math.log(p) + (1 - y) * math.log(1.0 - p)))
    loss = float(np.mean(losses)) if losses else None
    return ForwardResult(list(batch), loss, p_map, z_map, alpha_rec, beta_rec, degenerate)


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_params(path: str | os.PathLike) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('format_version')!r}")
    arrays = {
        name: np.array(flat, dtype=np.float64).reshape(shape)
        for name, shape, flat in doc["arrays"]
    }
    return ModelParams(arrays, doc["meta"])
