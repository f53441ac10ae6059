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
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterator

import numpy as np

from . import hetgraph
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
        # a NaN fails every comparison, so each range also rejects it
        probabilities = ("p_rpt", "p_bg", "label_coverage", "invest_coverage", "item_trade_rate")
        rates = ("transaction_density", "event_degree", "category_density")
        counts = ("seed", "persons", "items", "events", "communities", "decoy_communities")
        for name, ok, want in (
                *((k, 0.0 <= getattr(self, k) <= 1.0, "in [0, 1]") for k in probabilities),
                *((k, 0.0 <= getattr(self, k) < math.inf, "finite and >= 0") for k in rates),
                *((k, getattr(self, k) >= 0, ">= 0") for k in counts),
                ("companies", self.companies >= 1, ">= 1"),
                ("class_shift", math.isfinite(self.class_shift), "finite"),
                ("p_rpt", self.p_rpt >= self.p_bg, f">= p_bg ({self.p_bg})"),
                ("degree_exponent", 1.0 < self.degree_exponent < math.inf, "finite and > 1")):
            if not ok:
                raise InfeasibleConfig(f"{name} must be {want}, got {getattr(self, name)!r}")
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
        # each background transaction takes an ordered company pair no edge holds yet
        n_tx = round(self.transaction_density * self.companies)
        free = self.companies * (self.companies - 1) - 2 * self.communities
        if n_tx > free:
            raise InfeasibleConfig(f"transaction_density asks for {n_tx} transactions, "
                                   f"{free} company pairs are free")


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
    """Deterministic per seed; returns (graph, observed labels, ground truth).

    Nodes are indexed companies, persons, items, then events, each block in id order.
    The edges are index arrays in the order of a loop that adds one edge at a time and
    drops a repeat, and every draw comes from the seed's stream in that loop's order."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    schema = default_schema(config.feature_dim)
    n_c, n_p, n_i, n_e = counts = config.companies, config.persons, config.items, config.events
    P, I, E = n_c, n_c + n_p, n_c + n_p + n_i  # the first person, item and event
    ids = [f"{t}{i:06d}" for t, k in zip("cpie", counts) for i in range(k)]
    code = {r: k for k, r in enumerate(sorted(schema.edge_types))}
    inv, tx, sell, buy = code["invest"], code["transaction"], code["sell"], code["buy"]
    edges: list[tuple] = []  # (sources, targets, edge codes) per block, in order

    # evasion community k: companies and persons 3k..3k+2, item k; nine edges each
    K, D = config.communities, config.decoy_communities
    ca, pa, ia = 3 * np.arange(K), P + 3 * np.arange(K), I + np.arange(K)
    cb, cc, pb, pc = ca + 1, ca + 2, pa + 1, pa + 2
    edges.append((np.stack((pa, pb, pb, pc, pc, ca, cb, ca, cb), 1).ravel(),
                  np.stack((ca, ca, cb, cb, cc, cb, cc, ia, ia), 1).ravel(),
                  np.tile([inv] * 5 + [tx] * 2 + [sell, buy], K)))
    # decoy k: two companies, then in turn three persons (shared investor) or two
    # persons and an item (shared item); four edges each
    odd, b1 = np.arange(D) % 2 == 1, 3 * K + 2 * np.arange(D)
    n_q = np.where(odd, 2, 3)
    q1, j = P + 3 * K + np.cumsum(n_q) - n_q, I + K + np.arange(D) // 2
    q2, b2, shared = q1 + 1, b1 + 1, np.where(odd, j, b1 + 1)
    edges.append((np.stack((q1, q2, np.where(odd, b1, q2), np.where(odd, b2, q2 + 1)), 1).ravel(),
                  np.stack((b1, np.where(odd, b2, b1), shared, shared), 1).ravel(),
                  np.stack(np.broadcast_arrays(inv, inv, np.where(odd, sell, inv),
                                               np.where(odd, buy, inv)), 1).ravel()))
    communities = []
    for k in range(K):
        (a, b, c), (p, q, r), i = ids[3 * k:3 * k + 3], ids[P + 3 * k:P + 3 * k + 3], ids[I + k]
        communities.append(CommunityInfo("evasion", [a, b, c], [p, q, r], [i], [
            ("PCCP", a, (p, a, b, q)), ("PCCCP", a, (p, a, b, c, r)),
            ("PCICP", a, (p, a, i, b, q)), ("PCPCP", a, (p, a, q, b, r)),
            ("PCPCCP", a, (p, a, q, b, c, r))]))
    for o, c, q, i in zip(odd.tolist(), b1.tolist(), q1.tolist(), j.tolist()):
        communities.append(CommunityInfo("decoy_item", ids[c:c + 2], ids[q:q + 2], [ids[i]]) if o
                           else CommunityInfo("decoy_invest", ids[c:c + 2], ids[q:q + 3], []))
    community_of = {node: k for k, info in enumerate(communities)
                    for node in info.companies + info.persons + info.items}

    # one dedicated investor for a fraction of background companies
    planted_c, planted_p = 3 * K + 2 * D, 3 * K + int(n_q.sum())
    n_bg = n_c - planted_c
    invested = np.sort(rng.choice(n_bg, size=int(config.invest_coverage * n_bg), replace=False))
    edges.append((P + planted_p + np.arange(invested.size), planted_c + invested,
                  np.full(invested.size, inv)))

    # heavy-tailed random transactions over all companies, two draws an attempt, drawn in
    # chunks; the stream is rewound to the last attempt used.  n_c * n_c closes the keys
    weights = _cdf(_power_weights(n_c, config.degree_exponent, rng))
    n_tx = round(config.transaction_density * n_c)
    limit, attempts, tx_keys = 20 * n_tx + 100, 0, np.zeros(0, dtype=np.intp)
    while tx_keys.size < n_tx and attempts < limit:
        need, state = n_tx - tx_keys.size, rng.bit_generator.state
        present = np.sort(np.r_[ca * n_c + cb, cb * n_c + cc, tx_keys, n_c * n_c])
        m = min(limit - attempts, need + need // 8 + 64, 1 << 16)
        s, t = _draw(weights, rng, (m, 2)).T
        key = s * n_c + t
        order = np.argsort(key, kind="stable")
        first = np.empty(m, dtype=bool)  # a key's first attempt in the chunk
        first[order] = np.append(True, key[order][1:] != key[order][:-1])
        hit = np.flatnonzero(first & (s != t) & (present[present.searchsorted(key)] != key))[:need]
        used = hit[-1] + 1 if hit.size == need else m
        rng.bit_generator.state = state
        rng.random(2 * used)
        attempts += used
        tx_keys = np.append(tx_keys, key[hit])
    edges.append((tx_keys // n_c, tx_keys % n_c, np.full(tx_keys.size, tx)))

    # item trading for non-community companies over the background item pool: each
    # (trader, sell or buy) slot draws a coin, then an item when the coin comes up
    bg_items = n_i - K - D // 2
    if bg_items:
        item_w = _cdf(_power_weights(bg_items, config.degree_exponent, rng))
        slots, state = 2 * (n_c - 3 * K), rng.bit_generator.state
        block = rng.random(2 * slots)  # the most a slot can take is two draws
        up, pos = block < config.item_trade_rate, np.arange(2 * slots)
        # a draw is an item when the one before it is a coin that came up: in a run of
        # draws below the rate, the second, the fourth, ... are items
        down = np.maximum.accumulate(np.where(up, -1, pos))  # the last draw not below
        item = np.append(False, up[:-1] & ((pos[1:] - down[:-1]) % 2 == 0))
        coins = np.flatnonzero(~item)[:slots]
        rng.bit_generator.state = state
        rng.random(coins[-1] + 1 + up[coins[-1]] if slots else 0)
        traded = np.flatnonzero(up[coins])
        edges.append((3 * K + traded // 2,
                      I + K + D // 2 + item_w.searchsorted(block[coins[traded] + 1], side="right"),
                      np.where(traded % 2 == 0, sell, buy)))

    # events and item categories are schema-conformant noise
    drawn = [_draw(weights, rng, rng.poisson(config.event_degree)) for _ in range(n_e)]
    per_event = np.fromiter(map(len, drawn), np.intp, n_e)
    edges.append((np.repeat(E + np.arange(n_e), per_event), np.concatenate([per_event[:0], *drawn]),
                  np.full(per_event.sum(), code["belong"])))
    if n_i >= 2:
        a, b = np.array([rng.choice(n_i, size=2, replace=False) for _ in range(
            round(config.category_density * n_i))], dtype=np.intp).reshape(-1, 2).T
        edges.append((I + a, I + b, np.full(a.size, code["category"])))

    # labels first, then class-conditioned company features
    y = rng.random(n_c) < np.where(np.arange(n_c) < 3 * K, config.p_rpt, config.p_bg)
    true_labels = dict(zip(ids[:P], y.astype(int).tolist()))
    shift_dir = rng.normal(size=config.feature_dim)
    shift_dir /= np.linalg.norm(shift_dir)

    # one (n, dim) draw consumes the stream exactly as n draws of dim values
    x = rng.normal(size=(n_c, config.feature_dim))
    x = x + (config.class_shift * y)[:, None] * shift_dir
    others = rng.normal(size=(len(ids) - n_c, config.feature_dim))

    observed = rng.choice(n_c, size=int(round(config.label_coverage * n_c)), replace=False)
    labels = {ids[i]: true_labels[ids[i]] for i in sorted(observed.tolist())}

    # a repeated edge keeps its first place: one stable sort of the packed keys
    src, dst, ecode = (np.concatenate(col).astype(np.intp) for col in zip(*edges))
    key = (src * len(ids) + dst) * len(code) + ecode
    order = np.argsort(key, kind="stable")
    keep = np.sort(order[np.append(True, key[order][1:] != key[order][:-1])[:key.size]])
    type_code = np.repeat([sorted(schema.node_types).index(t)
                           for t in ("company", "person", "item", "event")], counts)
    graph = HetGraph.__new__(HetGraph)._build(
        schema, ids, dict(zip(ids, range(len(ids)))), type_code, src[keep], dst[keep],
        ecode[keep], np.concatenate((x, others)).ravel(), None)
    return graph, labels, GroundTruth(communities, community_of, true_labels)


def export(graph: HetGraph, labels: dict[str, int], out_dir: str | os.PathLike) -> dict[str, str]:
    """Write schema/nodes/edges/labels files loadable by the graph module."""
    paths = save_graph(graph, out_dir)
    paths["labels"] = os.path.join(out_dir, "labels.csv")
    save_labels(labels, paths["labels"])
    return paths


def save_ground_truth(truth: GroundTruth, path: str | os.PathLike) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)``, where ``doc`` keys each field by
    its name and each instance is an ``anchor``/``nodes``/``pattern`` object, joined from C
    string escapes for the document's one shape (the stdlib's indent path is pure Python)
    and written one community, or ``BLOCK`` map entries, at a time."""
    q, n8, n10 = encode_basestring_ascii, "\n" + " " * 8, "\n" + " " * 10

    def block(items: list[str], indent: int, ends: str = "[]") -> str:
        inner, outer = "\n" + " " * (indent + 2), "\n" + " " * indent
        return ends[0] + inner + ("," + inner).join(items) + outer + ends[1] if items else ends

    def strs(values: list[str], indent: int) -> str:
        return block(list(map(q, values)), indent)

    communities = (block([f'"companies": {strs(info.companies, 6)}', '"instances": ' + block([
        f'{{{n10}"anchor": {q(anchor)},{n10}"nodes": {strs(nodes, 10)},'
        f'{n10}"pattern": {q(pid)}{n8}}}'
        for pid, anchor, nodes in info.instances], 6),
        f'"items": {strs(info.items, 6)}', f'"kind": {q(info.kind)}',
        f'"persons": {strs(info.persons, 6)}'], 4, "{}") for info in truth.communities)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        def stream(items: Iterator[str], size: int, ends: str) -> None:
            """``block(list(items), 2, ends)``, written ``size`` items at a time."""
            head = ends[0] + "\n    "
            while chunk := list(islice(items, size)):
                f.write(head + ",\n    ".join(chunk))
                head = ",\n    "
            f.write(ends if head[0] == ends[0] else "\n  " + ends[1])

        f.write('{\n  "communities": ')
        stream(communities, 1, "[]")
        for name, d in (("community_of", truth.community_of), ("true_labels", truth.true_labels)):
            f.write(f',\n  "{name}": ')
            stream((f"{q(k)}: {d[k]}" for k in sorted(d)), hetgraph.BLOCK, "{}")
        f.write("\n}\n")


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
