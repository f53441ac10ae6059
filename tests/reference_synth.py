"""The generator's per-edge loop, kept as the reference ``rptdetect.synth.generate`` is
checked against: every edge through a set of (source, target, type) strings and every
weighted index drawn one call at a time, in stream order.
"""

from __future__ import annotations

import numpy as np

from rptdetect.hetgraph import HetGraph
from rptdetect.synth import (CommunityInfo, GenConfig, GroundTruth, _cdf, _draw,
                             _power_weights, default_schema)


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
