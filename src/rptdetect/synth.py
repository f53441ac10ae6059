"""Schema-conformant synthetic tax graphs with plantable evasion communities.

Each evasion community wires three companies, three persons, and one item so
that every bundled pattern has at least one instance anchored at the first
company; members evade with probability ``p_rpt`` against a ``p_bg``
background.  Decoy groups instantiate only the shared-investor or shared-item
pattern among background-rate companies, giving the pattern-level attention
something real to discriminate.  Background topology uses weighted random
attachment so degree distributions come out heavy-tailed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import InfeasibleConfig
from .hetgraph import EdgeType, HetGraph, Schema, save_graph, save_labels


@dataclass(frozen=True)
class GenConfig:
    companies: int = 500
    persons: int = 400
    items: int = 120
    events: int = 20
    communities: int = 60
    decoy_communities: int = 20
    p_rpt: float = 0.8
    p_bg: float = 0.1
    label_coverage: float = 0.9
    feature_dim: int = 8
    class_shift: float = 0.25
    transaction_density: float = 1.5
    invest_coverage: float = 0.1
    item_trade_rate: float = 0.5
    event_degree: float = 1.0
    category_density: float = 0.3
    degree_exponent: float = 2.5
    seed: int = 0

    def validate(self) -> None:
        for name in ("p_rpt", "p_bg", "label_coverage", "invest_coverage", "item_trade_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InfeasibleConfig(f"{name} must be in [0, 1], got {v}")
        for name in ("transaction_density", "event_degree", "category_density"):
            v = getattr(self, name)
            if not (0.0 <= v < math.inf):
                raise InfeasibleConfig(f"{name} must be finite and non-negative, got {v}")
        if not math.isfinite(self.class_shift):
            raise InfeasibleConfig(f"class_shift must be finite, got {self.class_shift}")
        if self.p_rpt < self.p_bg:
            raise InfeasibleConfig(
                f"p_rpt ({self.p_rpt}) must be >= p_bg ({self.p_bg})")
        for name in ("companies", "persons", "items", "events", "communities", "decoy_communities"):
            if getattr(self, name) < 0:
                raise InfeasibleConfig(f"{name} must be non-negative, got {getattr(self, name)}")
        if not (1.0 < self.degree_exponent < math.inf):
            raise InfeasibleConfig(f"degree_exponent must be finite and exceed 1, "
                                   f"got {self.degree_exponent}")
        needed_c = 3 * self.communities + 2 * self.decoy_communities
        if needed_c > self.companies:
            raise InfeasibleConfig(
                f"{needed_c} companies needed for planted groups, have {self.companies}")
        n_decoy_a = (self.decoy_communities + 1) // 2
        n_decoy_b = self.decoy_communities // 2
        bg_companies = self.companies - needed_c
        needed_p = (3 * self.communities + 3 * n_decoy_a + 2 * n_decoy_b
                    + int(self.invest_coverage * bg_companies))
        if needed_p > self.persons:
            raise InfeasibleConfig(
                f"{needed_p} persons needed for planted groups, have {self.persons}")
        needed_i = self.communities + n_decoy_b
        if needed_i > self.items:
            raise InfeasibleConfig(
                f"{needed_i} items needed for planted groups, have {self.items}")


def default_schema(feature_dim: int = 8) -> Schema:
    return Schema(
        node_types={"company": feature_dim, "person": feature_dim,
                    "item": feature_dim, "event": feature_dim},
        edge_types={
            "transaction": EdgeType("company", "company"),
            "invest": EdgeType("person", "company"),
            "sell": EdgeType("company", "item"),
            "buy": EdgeType("company", "item"),
            "belong": EdgeType("event", "company"),
            "category": EdgeType("item", "item"),
        },
        company_type="company",
    )


@dataclass
class CommunityInfo:
    kind: str  # "evasion", "decoy_invest", "decoy_item"
    companies: list[str]
    persons: list[str]
    items: list[str]
    instances: list[tuple[str, str, tuple[str, ...]]] = field(default_factory=list)


@dataclass
class GroundTruth:
    communities: list[CommunityInfo]
    community_of: dict[str, int]
    true_labels: dict[str, int]


def _power_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    ranks = rng.permutation(n) + 1
    w = ranks ** (-1.0 / (exponent - 1.0))
    return w / w.sum()


def _cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(len(p), p=p)`` builds on every call, built once."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator, size=None):
    """``rng.choice(len(cdf), size, p=p)`` for ``cdf = _cdf(p)``: same indices, same stream."""
    return cdf.searchsorted(rng.random(size), side="right")


def generate(config: GenConfig) -> tuple[HetGraph, dict[str, int], GroundTruth]:
    """Deterministic per seed; returns (graph, observed labels, ground truth)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    schema = default_schema(config.feature_dim)

    c_ids = [f"c{i:06d}" for i in range(config.companies)]
    p_ids = [f"p{i:06d}" for i in range(config.persons)]
    i_ids = [f"i{i:06d}" for i in range(config.items)]
    e_ids = [f"e{i:06d}" for i in range(config.events)]

    edges: list[tuple[str, str, str]] = []
    edge_seen: set[tuple[str, str, str]] = set()

    def add_edge(src: str, dst: str, etype: str) -> None:
        key = (src, dst, etype)
        if key not in edge_seen:
            edge_seen.add(key)
            edges.append(key)

    communities: list[CommunityInfo] = []
    community_of: dict[str, int] = {}
    c_next = p_next = i_next = 0

    for k in range(config.communities):
        ca, cb, cc = c_ids[c_next:c_next + 3]
        pa, pb, pc = p_ids[p_next:p_next + 3]
        ia = i_ids[i_next]
        c_next += 3
        p_next += 3
        i_next += 1
        add_edge(pa, ca, "invest")
        add_edge(pb, ca, "invest")
        add_edge(pb, cb, "invest")
        add_edge(pc, cb, "invest")
        add_edge(pc, cc, "invest")
        add_edge(ca, cb, "transaction")
        add_edge(cb, cc, "transaction")
        add_edge(ca, ia, "sell")
        add_edge(cb, ia, "buy")
        info = CommunityInfo(
            kind="evasion",
            companies=[ca, cb, cc],
            persons=[pa, pb, pc],
            items=[ia],
            instances=[
                ("PCCP", ca, (pa, ca, cb, pb)),
                ("PCCCP", ca, (pa, ca, cb, cc, pc)),
                ("PCICP", ca, (pa, ca, ia, cb, pb)),
                ("PCPCP", ca, (pa, ca, pb, cb, pc)),
                ("PCPCCP", ca, (pa, ca, pb, cb, cc, pc)),
            ],
        )
        for node in info.companies + info.persons + info.items:
            community_of[node] = k
        communities.append(info)

    for k in range(config.decoy_communities):
        idx = config.communities + k
        if k % 2 == 0:  # shared-investor pair -> PCPCP only
            b1, b2 = c_ids[c_next:c_next + 2]
            q1, q2, q3 = p_ids[p_next:p_next + 3]
            c_next += 2
            p_next += 3
            add_edge(q1, b1, "invest")
            add_edge(q2, b1, "invest")
            add_edge(q2, b2, "invest")
            add_edge(q3, b2, "invest")
            info = CommunityInfo("decoy_invest", [b1, b2], [q1, q2, q3], [])
        else:  # shared-item pair -> PCICP only
            b1, b2 = c_ids[c_next:c_next + 2]
            q1, q2 = p_ids[p_next:p_next + 2]
            j = i_ids[i_next]
            c_next += 2
            p_next += 2
            i_next += 1
            add_edge(q1, b1, "invest")
            add_edge(q2, b2, "invest")
            add_edge(b1, j, "sell")
            add_edge(b2, j, "buy")
            info = CommunityInfo("decoy_item", [b1, b2], [q1, q2], [j])
        for node in info.companies + info.persons + info.items:
            community_of[node] = idx
        communities.append(info)

    evasion_companies = {c for info in communities if info.kind == "evasion"
                         for c in info.companies}
    planted_companies = {c for info in communities for c in info.companies}
    bg_companies = [c for c in c_ids if c not in planted_companies]

    # one dedicated investor for a fraction of background companies
    n_invested = int(config.invest_coverage * len(bg_companies))
    invested = rng.choice(len(bg_companies), size=n_invested, replace=False)
    for slot in sorted(invested.tolist()):
        add_edge(p_ids[p_next], bg_companies[slot], "invest")
        p_next += 1

    # heavy-tailed random transactions over all companies
    weights = _cdf(_power_weights(config.companies, config.degree_exponent, rng))
    n_tx = round(config.transaction_density * config.companies)
    attempts = 0
    placed = 0
    while placed < n_tx and attempts < 20 * n_tx + 100:
        attempts += 1
        s, t = _draw(weights, rng, 2)
        if s == t:
            continue
        key = (c_ids[s], c_ids[t], "transaction")
        if key in edge_seen:
            continue
        add_edge(*key)
        placed += 1

    # item trading for non-community companies over the background item pool
    bg_items = i_ids[i_next:]
    traders = [c for c in c_ids if c not in evasion_companies]
    if bg_items:
        item_w = _cdf(_power_weights(len(bg_items), config.degree_exponent, rng))
        for c in traders:
            for etype in ("sell", "buy"):
                if rng.random() < config.item_trade_rate:
                    j = int(_draw(item_w, rng))
                    add_edge(c, bg_items[j], etype)

    # events and item categories are schema-conformant noise
    for e in e_ids:
        for _ in range(rng.poisson(config.event_degree)):
            c = int(_draw(weights, rng))
            add_edge(e, c_ids[c], "belong")
    n_cat = round(config.category_density * config.items)
    for _ in range(n_cat):
        if config.items < 2:
            break
        a, b = rng.choice(config.items, size=2, replace=False)
        add_edge(i_ids[a], i_ids[b], "category")

    # labels first, then class-conditioned company features
    true_labels: dict[str, int] = {}
    for c in c_ids:
        p = config.p_rpt if c in evasion_companies else config.p_bg
        true_labels[c] = int(rng.random() < p)
    shift_dir = rng.normal(size=config.feature_dim)
    shift_dir /= np.linalg.norm(shift_dir)

    # one (n, dim) draw consumes the stream exactly as n draws of dim values
    y = np.array([true_labels[c] for c in c_ids], dtype=np.float64)
    x = rng.normal(size=(config.companies, config.feature_dim))
    x = x + (config.class_shift * y)[:, None] * shift_dir
    ids = c_ids + p_ids + i_ids + e_ids
    others = rng.normal(size=(len(ids) - len(c_ids), config.feature_dim))
    types = [t for t, k in (("company", config.companies), ("person", config.persons),
                            ("item", config.items), ("event", config.events)) for _ in range(k)]

    n_observed = int(round(config.label_coverage * config.companies))
    observed_idx = rng.choice(config.companies, size=n_observed, replace=False)
    labels = {c_ids[i]: true_labels[c_ids[i]] for i in sorted(observed_idx.tolist())}

    graph = HetGraph.from_columns(schema, ids, types, np.concatenate((x, others)).ravel(),
                                  np.full(len(ids), config.feature_dim), edges)
    truth = GroundTruth(communities, community_of, true_labels)
    return graph, labels, truth


def export(graph: HetGraph, labels: dict[str, int], out_dir: str | os.PathLike) -> dict[str, str]:
    """Write schema/nodes/edges/labels files loadable by the graph module."""
    paths = save_graph(graph, out_dir)
    paths["labels"] = os.path.join(out_dir, "labels.csv")
    save_labels(labels, paths["labels"])
    return paths


def save_ground_truth(truth: GroundTruth, path: str | os.PathLike) -> None:
    # the JSON keys are the field names; each instance becomes an object
    doc = {**vars(truth), "communities": [
        {**vars(info), "instances": [{"pattern": pid, "anchor": anchor, "nodes": nodes}
                                     for pid, anchor, nodes in info.instances]}
        for info in truth.communities]}
    Path(path).write_text(_json(doc) + "\n", encoding="utf-8", newline="\n")


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for strings, ints, lists and
    dicts, from C string escapes and joins: the stdlib's indent path is pure Python."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return str(value)
    inner, ends = indent + "  ", "{}" if isinstance(value, dict) else "[]"
    items = ([f"{_json(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
             if isinstance(value, dict) else [_json(v, inner) for v in value])
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def scaled_config(base: GenConfig, total_nodes: int) -> GenConfig:
    """Rescale node counts to a total while keeping per-type shares and densities."""
    total_base = base.companies + base.persons + base.items + base.events
    f = total_nodes / total_base
    return replace(
        base,
        companies=max(1, round(base.companies * f)),
        persons=max(1, round(base.persons * f)),
        items=max(1, round(base.items * f)),
        events=max(0, round(base.events * f)),
        communities=max(1, round(base.communities * f)),
        decoy_communities=round(base.decoy_communities * f),
    )
