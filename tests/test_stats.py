"""Evasion-statistics tests: hand-countable cases and planted-ratio recovery."""

import tracemalloc

import numpy as np
import pytest

from rptdetect import matcher
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

from conftest import (
    brute_force_instances,
    brute_force_k_order,
    brute_force_metapath,
    criterion_3_graphs,
    hub_graph,
    make_graph,
    node_types,
    random_typed_graph,
    stats_ratio,
    stats_row,
    tax_schema,
)


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
    row = stats_row(stats, "PCCP")
    assert row.pairs == 0 and row.probability is None
    # PCCCP connects A to labeled C
    row = stats_row(stats, "PCCCP")
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
    types, total = node_types(graph), 0
    for p in bundled_patterns():
        anchor = p.role_names.index(p.anchor)
        pairs = hits = 0
        for i in evader_centers(graph, y):
            nbrs = {v for row in brute_force_instances(graph, p).tolist()
                    if row[anchor] == i for v in row
                    if v != i and types[v] == "company"}
            for j in nbrs:
                if j in y:
                    pairs += 1
                    hits += y[j]
        row = stats_row(stats, p.pattern_id)
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
    assert all(stats_row(fast, f"{k}-order").pairs > 0 for k in (1, 2, 3))


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
    bg = stats_row(stats, "background")
    assert bg.pairs == 2 and bg.hits == 1


def test_planted_ratio_recovers_generator_parameters():
    graph, labels, _ = generate(GenConfig(
        companies=900, persons=700, items=130, events=20,
        communities=100, decoy_communities=0, p_rpt=0.8, p_bg=0.1,
        label_coverage=1.0, invest_coverage=0.1, transaction_density=1.0,
        feature_dim=3, seed=11))
    stats = full_stats(graph, labels)
    agg = stats_row(stats, "rpt::all")
    bg = stats_row(stats, "background")
    assert agg.pairs >= 300
    ratio = stats_ratio(stats, "rpt::all", "background")
    assert ratio == pytest.approx(8.0, rel=0.25)
    assert 0.05 < bg.probability < 0.16
    text = ratio_table_text(stats)
    assert "rpt::all\tbackground" in text


def wide_graph():
    """More than 64 evader centers (not a multiple of 64), one with a self-loop,
    one with no edges at all, and that one the last node."""
    rng = np.random.default_rng(8)
    nodes = ([(f"c{i}", "company") for i in range(150)]
             + [(f"p{i}", "person") for i in range(40)] + [(f"i{i}", "item") for i in range(8)])
    edges = [(f"c{a}", f"c{b}", "transaction") for a in range(150) for b in range(150)
             if a != b and rng.random() < 0.01]
    edges += [(f"p{p}", f"c{c}", "invest") for p in range(40) for c in range(150)
              if rng.random() < 0.02]
    edges += [(f"c{c}", f"i{i}", kind) for c in range(150) for i in range(8)
              for kind in ("sell", "buy") if rng.random() < 0.03]
    edges += [("c1", "c1", "transaction"), ("c1", "c2", "transaction")]
    graph = make_graph(tax_schema(), nodes + [("lone", "company")], edges)
    y = {i: int(rng.random() < 0.55) for i in graph.company_nodes()[:140]}
    y[graph.index["c1"]] = y[graph.index["lone"]] = 1
    return graph, y


def set_tally(centers, sets, y):
    """(pairs, hits) over the centers' sets, one labeled member at a time."""
    members = [j for i in centers for j in sets[i] if j in y]
    return len(members), sum(y[j] for j in members)


def tally_cases(which):
    """(graph, labels) pairs: the oracle graphs with the last two companies unlabeled,
    so their pairs count nowhere, or the wide graph."""
    if which == "wide":
        return [wide_graph()]
    if which == "all-centers":  # the wide graph with every labeled row a center
        g, y = wide_graph()
        return [(g, dict.fromkeys(y, 1))]
    rng = np.random.default_rng(17)
    cases = []
    for g in criterion_3_graphs() if which == "criterion_3" else [hub_graph()]:
        y = {i: int(rng.random() < 0.5) for i in g.company_nodes()[:-2]}
        y[g.company_nodes()[0]] = 1
        cases.append((g, y))
    return cases


def assert_counts_equal_set_tally(g, y, every_company=False):
    """Every stats row equals a set tally over the brute-force baselines; with
    ``every_company`` the baseline sets are built over all companies, as criterion 4's are."""
    centers = evader_centers(g, y)
    built_over = g.company_nodes() if every_company else centers
    index = build_neighbor_index(g, bundled_patterns(), cap=64, cap_mode="truncate")
    mp = {name: metapath_neighbors(g, path, built_over)
          for name, path in BUNDLED_METAPATHS.items()}
    ko = {k: k_order_neighbors(g, k, built_over) for k in (1, 2, 3)}
    got = {r.name: (r.pairs, r.hits)
           for r in evasion_ratio_stats(g, index, mp, ko, y).rows}

    types = node_types(g)
    want = {pid: set_tally(centers, {
        i: {v for row in index.instances(i, pid).tolist() for v in row
            if v != i and types[v] == "company"} for i in centers}, y)
        for pid in index.pattern_ids}
    want["rpt::all"] = tuple(map(sum, zip(*want.values())))
    for name, path in BUNDLED_METAPATHS.items():
        want[name] = set_tally(centers, brute_force_metapath(g, path), y)
    for k in (1, 2, 3):
        want[f"{k}-order"] = set_tally(centers, brute_force_k_order(g, k), y)
    background = [i for i in y if types[i] == "company" and not index.has_any(i)]
    want["background"] = (len(background), sum(y[i] for i in background))
    assert got == want


@pytest.mark.parametrize("which", ["criterion_3", "hub", "wide", "all-centers"])
def test_counts_equal_a_set_tally_over_the_oracles(which):
    for g, y in tally_cases(which):
        if which in ("wide", "all-centers"):  # a center with no neighbors at all
            centers = evader_centers(g, y)
            assert len(centers) > 64 and len(centers) % 64
            assert g.index["lone"] == len(g) - 1 and g.index["lone"] in centers
            assert (which == "all-centers") == (centers == sorted(y))
        assert_counts_equal_set_tally(g, y)


@pytest.fixture
def one_word_blocks(monkeypatch):
    """A walk budget of one uint64 word per node row: blocks of 64 centers."""
    monkeypatch.setattr(matcher, "WALK_BUDGET", 8)


@pytest.mark.parametrize("every_company", [False, True], ids=["evaders", "every-company"])
@pytest.mark.parametrize("which", ["criterion_3", "hub", "wide", "all-centers"])
def test_blocked_counts_equal_a_set_tally(one_word_blocks, which, every_company):
    for g, y in tally_cases(which):
        if which == "wide":  # a full block of 64 centers and a partial one
            assert 64 < len(evader_centers(g, y)) < 128
        if which == "all-centers":  # two full blocks and a partial one
            assert 128 < len(evader_centers(g, y)) < 192
        assert_counts_equal_set_tally(g, y, every_company)


def test_a_callers_own_index_is_intact_after_the_stats():
    g, y = tally_cases("hub")[0]
    index = build_neighbor_index(g, bundled_patterns(), cap=64, cap_mode="truncate")
    before = {pid: (index.nodes[pid].copy(), index.anchor_ptr[pid].copy())
              for pid in index.pattern_ids}
    mp = {name: metapath_neighbors(g, path) for name, path in BUNDLED_METAPATHS.items()}
    first = evasion_ratio_stats(g, index, mp, {1: k_order_neighbors(g, 1)}, y)
    assert set(index.nodes) == set(index.anchor_ptr) == set(before)
    for pid, (nodes, ptr) in before.items():
        assert np.array_equal(index.nodes[pid], nodes)
        assert np.array_equal(index.anchor_ptr[pid], ptr)
    assert evasion_ratio_stats(g, index, mp, {1: k_order_neighbors(g, 1)}, y) == first


def test_blocked_counter_missing_center_raises(one_word_blocks):
    g, y = wide_graph()
    centers = evader_centers(g, y)
    index = build_neighbor_index(g, bundled_patterns(), cap=64, cap_mode="truncate")
    # the center left out sits in the last block
    ko = {1: k_order_neighbors(g, 1, centers[:-1])}
    with pytest.raises(KeyError) as missing:
        evasion_ratio_stats(g, index, {}, ko, y)
    assert missing.value.args == (centers[-1],)
    # with one left out of the first block too, the error names the first missing center
    ko = {1: k_order_neighbors(g, 1, centers[:1] + centers[2:-1])}
    with pytest.raises(KeyError) as missing:
        evasion_ratio_stats(g, index, {}, ko, y)
    assert missing.value.args == (centers[1],)


def test_counting_all_centers_stays_within_twice_one_block(one_word_blocks):
    graph, labels, _ = generate(GenConfig(
        companies=962, persons=769, items=231, events=38, communities=115,
        decoy_communities=38, seed=3))
    y = labels_to_indices(graph, labels)
    centers = evader_centers(graph, y)
    assert len(centers) >= 4 * 64
    sets = [metapath_neighbors(graph, path, centers) for path in BUNDLED_METAPATHS.values()]
    sets += [k_order_neighbors(graph, k, centers) for k in (1, 2, 3)]
    labeled = np.array(sorted(y), dtype=np.intp)
    matcher.count_members(sets, centers[:64], labeled)  # builds the CSRs
    assert not any(s._plans for s in sets)  # each walk's hop plans went with its last block

    def traced_peak(block):
        tracemalloc.start()
        try:
            matcher.count_members(sets, block, labeled)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, every = traced_peak(centers[:64]), traced_peak(centers)
    assert every <= 2 * one, (every, one)
