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
from .hetgraph import HetGraph
from .matcher import NeighborIndex

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

    def row(self, name: str) -> StatsRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def ratio(self, rpt_name: str, baseline_name: str) -> float | None:
        for a, b, v in self.ratios:
            if (a, b) == (rpt_name, baseline_name):
                return v
        raise KeyError((rpt_name, baseline_name))


def _count_pairs(centers: list[int], neighbors: dict[int, set[int]],
                 labels: dict[int, int]) -> tuple[int, int]:
    pairs = hits = 0
    for i in centers:
        for j in neighbors[i]:
            if j == i:
                continue
            y = labels.get(j)
            if y is None:
                continue
            pairs += 1
            hits += y
    return pairs, hits


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
                        metapaths: dict[int | str, dict[int, set[int]]],
                        k_orders: dict[int, dict[int, set[int]]],
                        labels: dict[int, int]) -> EvasionStats:
    """Build the per-definition probability table and the pairwise ratio table.

    ``labels`` is keyed by node index.  Every metapath and k-order map must
    hold a set for each of the ``evader_centers``; a missing center raises
    ``KeyError``.  Raises ``NoLabeledPairs`` when there is no labeled evader.
    """
    company = graph.schema.company_type
    centers = evader_centers(graph, labels)

    rows: list[StatsRow] = []

    # per-pattern neighbor sets (company members only, anchor excluded)
    is_company = graph.type_code == graph.type_names.index(company)
    center_rows = np.array(centers, dtype=np.intp)
    rpt_sets: dict[str, dict[int, set[int]]] = {}
    for pid in index.pattern_ids:
        members, counts = index.gather(pid, center_rows)
        owner = np.broadcast_to(np.repeat(center_rows, counts)[:, None], members.shape)
        keep = is_company[members] & (members != owner)
        sets: dict[int, set[int]] = {i: set() for i in centers}
        for i, j in zip(owner[keep].tolist(), members[keep].tolist()):
            sets[i].add(j)
        rpt_sets[pid] = sets

    agg_pairs = agg_hits = 0
    for pid in index.pattern_ids:
        pairs, hits = _count_pairs(centers, rpt_sets[pid], labels)
        rows.append(StatsRow(pid, KIND_RPT, pairs, hits))
        agg_pairs += pairs
        agg_hits += hits
    rows.append(StatsRow(AGGREGATE_NAME, KIND_RPT_AGGREGATE, agg_pairs, agg_hits))

    for name in sorted(metapaths, key=str):
        pairs, hits = _count_pairs(centers, metapaths[name], labels)
        rows.append(StatsRow(str(name), KIND_METAPATH, pairs, hits))

    for k in sorted(k_orders):
        pairs, hits = _count_pairs(centers, k_orders[k], labels)
        rows.append(StatsRow(f"{k}-order", KIND_KORDER, pairs, hits))

    bg_pairs = bg_hits = 0
    for i, y in sorted(labels.items()):
        if graph.types[i] == company and not index.has_any(i):
            bg_pairs += 1
            bg_hits += y
    rows.append(StatsRow(BACKGROUND_NAME, KIND_REFERENCE, bg_pairs, bg_hits))

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
    lines = ["definition\tkind\tpairs\thits\tprobability"]
    for r in stats.rows:
        p = "undefined" if r.probability is None else repr(r.probability)
        lines.append(f"{r.name}\t{r.kind}\t{r.pairs}\t{r.hits}\t{p}")
    return "\n".join(lines) + "\n"


def ratio_table_text(stats: EvasionStats) -> str:
    lines = ["rpt_definition\tbaseline\tratio"]
    for a, b, v in stats.ratios:
        lines.append(f"{a}\t{b}\t{'undefined' if v is None else repr(v)}")
    return "\n".join(lines) + "\n"
