"""Comparative evasion statistics across neighbor definitions.

For each definition the headline number is P(neighbor evades | center evades)
over labeled center/neighbor pairs; pairs whose neighbor is unlabeled count
nowhere.  A "background" reference row reports the evasion rate among labeled
companies that sit in no pattern instance at all, and ratio rows compare every
pattern-based probability against every baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoLabeledPairs
from .hetgraph import HetGraph, distinct, tsv
from .matcher import CenterSets, NeighborIndex, anchoring_nodes, count_members

KIND_RPT = "rpt"
KIND_RPT_AGGREGATE = "rpt_aggregate"
KIND_METAPATH = "metapath"
KIND_KORDER = "korder"
KIND_REFERENCE = "reference"

AGGREGATE_NAME = "rpt::all"
BACKGROUND_NAME = "background"


@dataclass(frozen=True)
class StatsRow:
    name: str
    kind: str
    pairs: int
    hits: int

    @property
    def probability(self) -> float | None:
        return self.hits / self.pairs if self.pairs else None


@dataclass
class EvasionStats:
    rows: list[StatsRow]
    ratios: list[tuple[str, str, float | None]]


def evader_centers(graph: HetGraph, labels: dict[int, int]) -> list[int]:
    """The labeled evading companies, ascending: the centers of every pair.

    ``labels`` is keyed by node index.  Raises ``NoLabeledPairs`` when there is
    no labeled evader to center any pair on.
    """
    is_company = graph.type_mask(graph.schema.company_type)
    centers = sorted(i for i, y in labels.items() if y == 1 and is_company[i])
    if not centers:
        raise NoLabeledPairs("no labeled tax-evasion companies to center pairs on")
    return centers


def _member_counts(graph: HetGraph, index: NeighborIndex, centers: list[int]):
    """Per pattern, its id and how many centers hold each node among their distinct company
    members other than themselves: the ``center * n + member`` keys of each company role
    column of the rows anchored at a center, with no gathered copy of the rows."""
    n, company = len(graph), graph.schema.company_type
    centered = np.zeros(n, dtype=bool)
    centered[centers] = True
    for p in index.patterns:
        nodes = index.nodes[p.pattern_id]
        owner = nodes[:, p.role_names.index(p.anchor)]
        mine, keys = centered[owner], []
        for k, (_, t) in enumerate(p.roles):
            if t == company:
                keep = mine & (nodes[:, k] != owner)
                keys.append(distinct(owner[keep] * n + nodes[keep, k]))
        yield p.pattern_id, np.bincount(distinct(np.concatenate(keys)) % n, minlength=n)


def evasion_ratio_stats(graph: HetGraph, index: NeighborIndex,
                        metapaths: dict[int | str, CenterSets],
                        k_orders: dict[int, CenterSets],
                        labels: dict[int, int]) -> EvasionStats:
    """Build the per-definition probability table and the pairwise ratio table.

    ``labels`` is keyed by node index.  The index must cover the ``evader_centers``,
    and every metapath and k-order map must hold a set for each; a missing center
    raises ``KeyError``.  The index is read first and then let go, so a caller that
    hands it over keeps none of it through the walks.  The background row's mark of
    the labeled companies that anchor any instance comes from the existence pass,
    not from the index.  Raises ``NoLabeledPairs`` when there is no labeled evader.
    """
    centers = evader_centers(graph, labels)
    n = len(graph)
    labeled = np.array(sorted(labels), dtype=np.intp)
    y = np.zeros(n, dtype=np.int64)
    y[labeled] = [labels[i] for i in labeled.tolist()]

    def row(name: str, kind: str, counts: np.ndarray) -> StatsRow:
        """A definition's row from how many centers' sets hold each labeled node."""
        return StatsRow(name, kind, int(counts.sum()), int(counts @ y[labeled]))

    rows = [row(pid, KIND_RPT, counts[labeled])
            for pid, counts in _member_counts(graph, index, centers)]
    patterns = index.patterns
    del index  # the rest reads none of it
    rows.append(StatsRow(AGGREGATE_NAME, KIND_RPT_AGGREGATE,
                         sum(r.pairs for r in rows), sum(r.hits for r in rows)))
    # the nodes that anchor an instance of any pattern
    anchored = anchoring_nodes(graph, patterns, labeled)

    walked = ([(str(m), KIND_METAPATH, metapaths[m]) for m in sorted(metapaths, key=str)]
              + [(f"{k}-order", KIND_KORDER, k_orders[k]) for k in sorted(k_orders)])
    counts = count_members([sets for *_, sets in walked], centers, labeled)
    rows += [row(name, kind, c) for (name, kind, _), c in zip(walked, counts)]

    # labeled companies that anchor no instance of any pattern
    is_company = graph.type_mask(graph.schema.company_type)
    rows.append(row(BACKGROUND_NAME, KIND_REFERENCE, (is_company & ~anchored)[labeled]))

    baselines = [r for r in rows if r.kind in (KIND_METAPATH, KIND_KORDER, KIND_REFERENCE)]
    ratios: list[tuple[str, str, float | None]] = []
    for r in rows:
        if r.kind not in (KIND_RPT, KIND_RPT_AGGREGATE):
            continue
        for b in baselines:
            p, q = r.probability, b.probability
            value = p / q if (p is not None and q) else None
            ratios.append((r.name, b.name, value))
    return EvasionStats(rows, ratios)


def stats_table_text(stats: EvasionStats) -> str:
    """Plot-ready TSV: one row per neighbor definition."""
    return tsv(("definition", "kind", "pairs", "hits", "probability"),
               ((r.name, r.kind, r.pairs, r.hits,
                 "undefined" if r.probability is None else r.probability) for r in stats.rows))


def ratio_table_text(stats: EvasionStats) -> str:
    return tsv(("rpt_definition", "baseline", "ratio"),
               ((a, b, "undefined" if v is None else v) for a, b, v in stats.ratios))
