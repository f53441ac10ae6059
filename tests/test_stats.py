"""Evasion-statistics tests: hand-countable cases and planted-ratio recovery."""

import pytest

from rptdetect.errors import NoLabeledPairs
from rptdetect.hetgraph import labels_to_indices
from rptdetect.matcher import build_neighbor_index, k_order_neighbors, metapath_neighbors
from rptdetect.patterns import BUNDLED_METAPATHS, bundled_patterns
from rptdetect.stats import (
    evader_centers,
    evasion_ratio_stats,
    ratio_table_text,
    stats_table_text,
)
from rptdetect.synth import GenConfig, generate

from conftest import brute_force_instances, make_graph, random_typed_graph, tax_schema


def community_graph():
    """One fully wired evasion group (all five patterns anchored at A)."""
    nodes = [("A", "company"), ("B", "company"), ("C", "company"),
             ("pa", "person"), ("pb", "person"), ("pc", "person"),
             ("it", "item")]
    edges = [("pa", "A", "invest"), ("pb", "A", "invest"), ("pb", "B", "invest"),
             ("pc", "B", "invest"), ("pc", "C", "invest"),
             ("A", "B", "transaction"), ("B", "C", "transaction"),
             ("A", "it", "sell"), ("B", "it", "buy")]
    return make_graph(tax_schema(), nodes, edges)


def full_stats(graph, labels):
    pats = bundled_patterns()
    index = build_neighbor_index(graph, pats, cap=1000)
    mp = {name: metapath_neighbors(graph, path)
          for name, path in BUNDLED_METAPATHS.items()}
    ko = {k: k_order_neighbors(graph, k) for k in (1, 2, 3)}
    return evasion_ratio_stats(graph, index, mp, ko,
                               labels_to_indices(graph, labels))


def test_all_evaders_give_probability_one_everywhere():
    g = community_graph()
    stats = full_stats(g, {"A": 1, "B": 1, "C": 1})
    for row in stats.rows:
        if row.kind == "reference":
            continue  # every company sits in an instance here
        if row.pairs:
            assert row.probability == 1.0, row
    for _, _, ratio in stats.ratios:
        if ratio is not None:
            assert ratio == pytest.approx(1.0)


def test_unlabeled_neighbors_excluded_from_both_sides():
    g = community_graph()
    # B unlabeled: PCCP pairs from A must skip it entirely
    stats = full_stats(g, {"A": 1, "C": 0})
    row = stats.row("PCCP")
    assert row.pairs == 0 and row.probability is None
    # PCCCP connects A to labeled C
    row = stats.row("PCCCP")
    assert row.pairs == 1 and row.hits == 0 and row.probability == 0.0


def test_zero_pair_definition_reports_undefined_marker():
    g = community_graph()
    stats = full_stats(g, {"A": 1, "C": 0})
    text = stats_table_text(stats)
    assert "undefined" in text
    assert "PCCP\trpt\t0\t0\tundefined" in text


def test_no_labeled_evaders_raises():
    g = community_graph()
    with pytest.raises(NoLabeledPairs):
        full_stats(g, {"A": 0, "B": 0})
    with pytest.raises(NoLabeledPairs):
        evader_centers(g, labels_to_indices(g, {"A": 0, "B": 0}))


def test_rpt_rows_match_a_loop_over_brute_force_instances(rng):
    graph = random_typed_graph(rng, 9, 6, 3, edge_rate=0.3)
    companies = graph.company_nodes()
    # two companies stay unlabeled, so their pairs count nowhere
    y = {i: int(rng.integers(2)) for i in companies[:-2]}
    y[companies[0]] = 1
    index = build_neighbor_index(graph, bundled_patterns(), cap=10_000)
    stats = evasion_ratio_stats(graph, index, {}, {}, y)
    total = 0
    for p in bundled_patterns():
        anchor = p.role_names.index(p.anchor)
        pairs = hits = 0
        for i in evader_centers(graph, y):
            nbrs = {v for row in brute_force_instances(graph, p).tolist()
                    if row[anchor] == i for v in row
                    if v != i and graph.types[v] == "company"}
            for j in nbrs:
                if j in y:
                    pairs += 1
                    hits += y[j]
        row = stats.row(p.pattern_id)
        assert (row.pairs, row.hits) == (pairs, hits), p.pattern_id
        total += pairs
    assert total > 0


def test_k_order_for_evader_centers_only_gives_the_same_tables():
    graph, labels, _ = generate(GenConfig(
        companies=300, persons=240, items=60, events=10,
        communities=30, decoy_communities=10, label_coverage=0.8,
        feature_dim=3, seed=5))
    y = labels_to_indices(graph, labels)
    centers = evader_centers(graph, y)
    assert 0 < len(centers) < len(graph.company_nodes())
    index = build_neighbor_index(graph, bundled_patterns(), cap=64, cap_mode="truncate")
    mp = {name: metapath_neighbors(graph, path)
          for name, path in BUNDLED_METAPATHS.items()}
    restricted = {k: k_order_neighbors(graph, k, centers) for k in (1, 2, 3)}
    everywhere = {k: k_order_neighbors(graph, k) for k in (1, 2, 3)}
    fast = evasion_ratio_stats(graph, index, mp, restricted, y)
    full = evasion_ratio_stats(graph, index, mp, everywhere, y)
    assert fast.rows == full.rows
    assert fast.ratios == full.ratios
    assert all(fast.row(f"{k}-order").pairs > 0 for k in (1, 2, 3))


def test_k_order_map_missing_a_center_raises():
    g = community_graph()
    y = labels_to_indices(g, {"A": 1, "B": 1, "C": 0})
    index = build_neighbor_index(g, bundled_patterns(), cap=1000)
    ko = {1: k_order_neighbors(g, 1, [g.index["A"]])}
    with pytest.raises(KeyError):
        evasion_ratio_stats(g, index, {}, ko, y)


def test_background_row_counts_zero_instance_companies():
    nodes = [("A", "company"), ("B", "company"), ("solo1", "company"),
             ("solo2", "company"), ("pa", "person"), ("pb", "person")]
    edges = [("pa", "A", "invest"), ("pb", "B", "invest"),
             ("A", "B", "transaction")]
    g = make_graph(tax_schema(), nodes, edges)
    stats = full_stats(g, {"A": 1, "B": 1, "solo1": 1, "solo2": 0})
    bg = stats.row("background")
    assert bg.pairs == 2 and bg.hits == 1


def test_planted_ratio_recovers_generator_parameters():
    graph, labels, _ = generate(GenConfig(
        companies=900, persons=700, items=130, events=20,
        communities=100, decoy_communities=0, p_rpt=0.8, p_bg=0.1,
        label_coverage=1.0, invest_coverage=0.1, transaction_density=1.0,
        feature_dim=3, seed=11))
    stats = full_stats(graph, labels)
    agg = stats.row("rpt::all")
    bg = stats.row("background")
    assert agg.pairs >= 300
    ratio = stats.ratio("rpt::all", "background")
    assert ratio == pytest.approx(8.0, rel=0.25)
    assert 0.05 < bg.probability < 0.16
    text = ratio_table_text(stats)
    assert "rpt::all\tbackground" in text
