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
    company = graph.schema.company_type
    centers = sorted(i for i, y in labels.items()
                     if y == 1 and graph.types[i] == company)
    if not centers:
        raise NoLabeledPairs("no labeled tax-evasion companies to center pairs on")
    return centers


def evasion_ratio_stats(graph: HetGraph, index: NeighborIndex,
                        metapaths: dict[int | str, CenterSets],
                        k_orders: dict[int, CenterSets],
                        labels: dict[int, int]) -> EvasionStats:
    """Build the per-definition probability table and the pairwise ratio table.

    ``labels`` is keyed by node index.  The index must cover the ``evader_centers``,
    and every metapath and k-order map must hold a set for each; a missing center
    raises ``KeyError``.  The background row's mark of the labeled companies that anchor
    any instance comes from the existence pass, not from the index.  Raises
    ``NoLabeledPairs`` when there is no labeled evader.
    """
    centers = evader_centers(graph, labels)
    n = len(graph)
    labeled = np.array(sorted(labels), dtype=np.intp)
    y = np.zeros(n, dtype=np.int64)
    y[labeled] = [labels[i] for i in labeled.tolist()]
    # before any walk caches its hop plans: the nodes that anchor an instance of any pattern
    anchored = anchoring_nodes(graph, index.patterns, labeled)

    def row(name: str, kind: str, counts: np.ndarray) -> StatsRow:
        """A definition's row from how many centers' sets hold each labeled node."""
        return StatsRow(name, kind, int(counts.sum()), int(counts @ y[labeled]))

    rows: list[StatsRow] = []
    # per pattern, each center's distinct company members other than itself
    is_company = graph.type_code == graph.type_names.index(graph.schema.company_type)
    center_rows = np.array(centers, dtype=np.intp)
    for pid in index.pattern_ids:
        members, counts = index.gather(pid, center_rows)
        owner = np.repeat(center_rows, counts)[:, None]
        pairs = distinct((owner * n + members)[is_company[members] & (members != owner)])
        rows.append(row(pid, KIND_RPT, np.bincount(pairs % n, minlength=n)[labeled]))
    rows.append(StatsRow(AGGREGATE_NAME, KIND_RPT_AGGREGATE,
                         sum(r.pairs for r in rows), sum(r.hits for r in rows)))

    walked = ([(str(m), KIND_METAPATH, metapaths[m]) for m in sorted(metapaths, key=str)]
              + [(f"{k}-order", KIND_KORDER, k_orders[k]) for k in sorted(k_orders)])
    counts = count_members([sets for *_, sets in walked], centers, labeled)
    rows += [row(name, kind, c) for (name, kind, _), c in zip(walked, counts)]

    # labeled companies that anchor no instance of any pattern
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
