"""The model's per-node reference: the stages of ``rptdetect.model`` one node at a time.

Each stage reads ``params.arrays`` directly and works in plain numpy, with no
tape and no batching, so the tests can check ``model.forward`` against it.  The
ablation flags are read from ``config.ablation`` here, not from the model.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from rptdetect.errors import MissingProjection, ShapeMismatch
from rptdetect.hetgraph import HetGraph
from rptdetect.matcher import NeighborIndex
from rptdetect.model import ForwardResult, ModelConfig, ModelParams, _check_batch
from rptdetect.patterns import RptPattern

from conftest import node_types, node_x


def _elu(x):
    """Feature transform of stages 2-4 (``ad.elu`` in the model step)."""
    return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))


def _leaky_relu(x):
    """Attention-logit activation, slope 0.2 (``ad._leaky_relu`` in the fused ops)."""
    return np.where(x >= 0, x, 0.2 * x)


def inner_uniform(config: ModelConfig) -> bool:
    """Whether the ablation makes the instance-level weights uniform."""
    return "inner" in config.ablation or "att" in config.ablation


def cross_uniform(config: ModelConfig) -> bool:
    """Whether the ablation makes the pattern-level weights uniform."""
    return "cross" in config.ablation or "att" in config.ablation


def company_only(config: ModelConfig) -> bool:
    """Whether the ablation zeroes every non-company role."""
    return "hete" in config.ablation


def project(graph: HetGraph, params: ModelParams,
            nodes: Sequence[int] | None = None) -> dict[int, np.ndarray]:
    """Shared-space vectors: h_i = P[type(i)] @ x_i."""
    out: dict[int, np.ndarray] = {}
    targets = range(len(graph)) if nodes is None else nodes
    types = node_types(graph)
    for i in targets:
        key = f"proj::{types[i]}"
        if key not in params.arrays:
            raise MissingProjection(f"no projection matrix for node type {types[i]!r}")
        P = params.arrays[key]
        if P.shape[1] != node_x(graph, i).size:
            raise ShapeMismatch(
                f"projection for type {types[i]!r} expects input "
                f"{P.shape[1]}, node has {node_x(graph, i).size}")
        out[i] = P @ node_x(graph, i)
    return out


def encode_instance(row: np.ndarray, h: dict[int, np.ndarray], params: ModelParams,
                    pattern: RptPattern, config: ModelConfig) -> np.ndarray:
    """Per-head linear map over the concatenated role projections, heads concatenated.

    ``row`` holds the instance's nodes in canonical role order.  The anchor's
    vector always leads; remaining roles follow canonical pattern order, so a
    node filling two roles contributes its vector once per slot.  With the
    company-only ablation, non-company roles contribute zeros.
    """
    mapping = dict(zip(pattern.role_names, row.tolist()))
    parts = []
    for role, rtype in pattern.anchor_first_roles():
        if company_only(config) and rtype != params.company_type:
            parts.append(np.zeros(config.proj_dim))
        else:
            parts.append(h[mapping[role]])
    c = np.concatenate(parts)
    heads = [_elu(params.arrays[f"inst::{pattern.pattern_id}::h{k}"] @ c)
             for k in range(config.heads)]
    return np.concatenate(heads)


def inner_rpt_attention(encodings: np.ndarray, params: ModelParams,
                        pattern_id: str, config: ModelConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Attend over one node's instance encodings (rows); returns (summary, weights)."""
    if encodings.ndim != 2 or encodings.shape[0] < 1:
        raise ShapeMismatch("need at least one instance encoding")
    n = encodings.shape[0]
    if inner_uniform(config):
        alpha = np.full(n, 1.0 / n)
    else:
        e = _leaky_relu(encodings @ params.arrays[f"attn_inst::{pattern_id}"])
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
    if cross_uniform(config):
        beta = np.full(len(present), 1.0 / len(present))
    else:
        logits = np.array([
            _leaky_relu(float(params.arrays[f"attn_cross::{pid}"] @ np.concatenate([q, m[pid]]))
                        / math.sqrt(d))
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


def forward_reference(graph: HetGraph, index: NeighborIndex, batch: Sequence[int],
                      params: ModelParams, config: ModelConfig,
                      labels: dict[int, int] | None = None) -> SimpleNamespace:
    """Node-at-a-time composition of the reference stages (no tape, no gradients).

    Returns the batch, its loss and, keyed by node, ``p``, ``z``, ``alpha``
    (by (node, pattern)), ``beta`` and the ``degenerate`` set, all as plain dicts.
    """
    batch = list(batch)
    _check_batch(graph, batch, params.company_type, labels)
    needed: set[int] = set(batch)
    pattern_by_id = {p.pattern_id: p for p in index.patterns}
    for i in batch:
        for pid in index.pattern_ids:
            needed.update(index.instances(i, pid).ravel().tolist())
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
            rows = index.instances(i, pid)
            if not len(rows):
                continue
            enc = np.stack([
                encode_instance(row, h, params, pattern_by_id[pid], config)
                for row in rows
            ])
            f, alpha = inner_rpt_attention(enc, params, pid, config)
            summaries[pid] = f
            alpha_rec[(i, pid)] = alpha
        z, beta = cross_rpt_attention(summaries, node_x(graph, i), params, config)
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
    return SimpleNamespace(batch=batch, loss=loss, p=p_map, z=z_map, degenerate=degenerate,
                           alpha=alpha_rec, beta=beta_rec)


def outputs(res: ForwardResult) -> tuple[dict, dict]:
    """``forward``'s probabilities and embeddings keyed by node, as ``forward_reference``
    keys them: (p, z)."""
    return dict(zip(res.batch, res.probs.tolist())), dict(zip(res.batch, res.embeddings))


def attention(res: ForwardResult) -> tuple[dict, dict]:
    """``forward``'s weights keyed as ``forward_reference`` keys them: (alpha, beta)."""
    alpha = {(res.batch[r], pid): weights[a:b]
             for pid, (positions, offsets, weights) in res.inner.items()
             for r, a, b in zip(positions.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())}
    beta = {node: {pid: b for pid, b, on in zip(res.pattern_ids, row, on_row) if on}
            for node, row, on_row in zip(res.batch, res.betas.tolist(), res.present.tolist())}
    return alpha, beta
