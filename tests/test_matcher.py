"""Matcher tests: hand-built cases plus brute-force oracle equivalence."""

import hashlib
import itertools
import json
import logging

import numpy as np
import pytest

from rptdetect import matcher
from rptdetect.errors import InstanceCapExceeded, MalformedMetapath, PatternTypeUnknown
from rptdetect.matcher import (
    build_neighbor_index,
    enumerate_instances,
    k_order_neighbors,
    metapath_neighbors,
)
from rptdetect.patterns import RptPattern, bundled_patterns

from conftest import (
    InstanceRows,
    adjacency_corner_graph,
    brute_force_instances,
    brute_force_k_order,
    brute_force_metapath,
    criterion_3_graphs,
    edge_degrees,
    edge_set,
    hub_graph,
    make_graph,
    node_types,
    random_typed_graph,
    small_schema,
    tax_schema,
)


def shared_investor_graph():
    """Jay invests in two companies that trade with each other."""
    return make_graph(
        small_schema(),
        [("jay", "person"), ("C1", "company"), ("C2", "company")],
        [("jay", "C1", "invest"), ("jay", "C2", "invest"),
         ("C1", "C2", "transaction")],
    )


def bundled(pattern_id):
    return next(p for p in bundled_patterns() if p.pattern_id == pattern_id)


def pccp():
    return bundled("PCCP")


def anchor_column(rows, pattern):
    return rows[:, pattern.role_names.index(pattern.anchor)]


def test_collapsed_instance_found_once():
    g = shared_investor_graph()
    instances = enumerate_instances(g, pccp())
    assert instances.shape == (1, 4) and instances.dtype == np.intp
    assert anchor_column(instances, pccp()).tolist() == [g.index["C1"]]
    row = instances[0].tolist()
    assert set(row) == {g.index["jay"], g.index["C1"], g.index["C2"]}
    # both person roles collapse onto jay
    assert row == [g.index["jay"], g.index["C1"], g.index["C2"], g.index["jay"]]


def test_injective_mode_rejects_collapsed_instance():
    g = shared_investor_graph()
    assert enumerate_instances(g, pccp(), injective=True).shape == (0, 4)


def test_empty_graph_gives_no_instances():
    g = make_graph(tax_schema(), [], [])
    for p in bundled_patterns():
        rows = enumerate_instances(g, p)
        assert rows.shape == (0, len(p.roles)) and rows.dtype == np.intp


def test_pattern_type_unknown():
    g = make_graph(small_schema(), [("a", "company")], [])
    alien = RptPattern("X", roles=(("c1", "company"), ("i1", "item")),
                       edges=(("c1", "i1", "sell"),), anchor="c1")
    with pytest.raises(PatternTypeUnknown):
        enumerate_instances(g, alien)


def test_role_permutation_symmetry_deduplicated():
    # two persons both investing one company; symmetric person roles
    pattern = RptPattern(
        "CPP",
        roles=(("c1", "company"), ("q1", "person"), ("q2", "person")),
        edges=(("q1", "c1", "invest"), ("q2", "c1", "invest")),
        anchor="c1",
    )
    g = make_graph(small_schema(),
                   [("A", "company"), ("x", "person"), ("y", "person")],
                   [("x", "A", "invest"), ("y", "A", "invest")])
    instances = enumerate_instances(g, pattern)
    # {A,x,y} kept once; collapsed {A,x,x} and {A,y,y} are distinct instances
    keys = {tuple(sorted(row)) for row in instances.tolist()}
    assert len(instances) == 3 == len(keys)
    inj = enumerate_instances(g, pattern, injective=True)
    assert len(inj) == 1


def test_rows_follow_role_order_not_search_order():
    # the search binds c2 before q, but rows sort by the canonical (c1, q, c2)
    pattern = RptPattern(
        "CPC", roles=(("c1", "company"), ("q", "person"), ("c2", "company")),
        edges=(("c1", "c2", "transaction"), ("q", "c2", "invest")), anchor="c1")
    g = make_graph(small_schema(),
                   [("A", "company"), ("B", "company"), ("C", "company"),
                    ("x", "person"), ("y", "person")],
                   [("A", "B", "transaction"), ("A", "C", "transaction"),
                    ("y", "B", "invest"), ("x", "C", "invest")])
    rows = enumerate_instances(g, pattern)
    A, B, C, x, y = (g.index[v] for v in "ABCxy")
    assert rows.tolist() == [[A, x, C], [A, y, B]]
    assert rows == brute_force_instances(g, pattern)


def test_matches_brute_force_on_random_graphs(rng):
    for trial in range(6):
        g = random_typed_graph(rng, n_companies=6, n_persons=5, n_items=3,
                               edge_rate=0.25)
        for pattern in bundled_patterns():
            for injective in (False, True):
                got = enumerate_instances(g, pattern, injective=injective,
                                          cap=10_000)
                want = brute_force_instances(g, pattern, injective=injective)
                assert got == want, (trial, pattern.pattern_id, injective)


@pytest.mark.parametrize("pid", ["PCCP", "PCPCCP"])
def test_packed_keys_agree_at_every_id_width(pid, monkeypatch):
    # the dedup packs ids into int64 keys: at the hub graph's size a whole row
    # fits one key, at 2**21 three ids do (a 6-role row's seven split inside
    # the row), and at 2**62 one does
    keep, calls = matcher._keep_first_multisets, []
    monkeypatch.setattr(matcher, "_keep_first_multisets",
                        lambda *args: calls.append(args) or keep(*args))
    g = hub_graph()
    enumerate_instances(g, bundled(pid), cap=2, cap_mode="truncate")
    assert sum(keep(*args)[1].size for args in calls) > 0, "the hub graph truncates"
    for leaves, anchor, cap, n in calls:
        assert n == len(g)
        rows, truncated = keep(leaves, anchor, cap, n)
        for wide in (2**21, 2**62):
            got_rows, got_truncated = keep(leaves, anchor, cap, wide)
            assert np.array_equal(got_rows, rows) and np.array_equal(got_truncated, truncated)


@pytest.mark.parametrize("n", [2**21, 2**62])
def test_wide_packed_keys_match_brute_force(rng, monkeypatch, n):
    # the dedup reads every id as n wide, whatever the graph's size
    keep = matcher._keep_first_multisets
    monkeypatch.setattr(matcher, "_keep_first_multisets",
                        lambda leaves, anchor, cap, _: keep(leaves, anchor, cap, n))
    for trial in range(3):
        g = random_typed_graph(rng, n_companies=6, n_persons=5, n_items=3, edge_rate=0.25)
        for pattern in bundled_patterns():  # PCPCCP has six roles
            got = enumerate_instances(g, pattern, cap=10_000)
            assert got == brute_force_instances(g, pattern), (trial, pattern.pattern_id)


def test_enumeration_is_deterministic(rng):
    g = random_typed_graph(rng, 8, 6, 3, edge_rate=0.3)
    p = bundled_patterns()[1]
    a = enumerate_instances(g, p, cap=10_000)
    b = enumerate_instances(g, p, cap=10_000)
    assert len(a) and a.dtype == b.dtype and np.array_equal(a, b)


def test_homomorphism_soundness_property(rng):
    g = random_typed_graph(rng, 7, 6, 3, edge_rate=0.3)
    accepted = edge_set(g)
    for pattern in bundled_patterns():
        for row in enumerate_instances(g, pattern, cap=10_000).tolist():
            mapping = dict(zip(pattern.role_names, row))
            for s, t, etype in pattern.edges:
                assert (mapping[s], mapping[t], etype) in accepted


def test_instance_cap_error_and_truncate():
    # hub company trading with many invested companies -> many PCCP instances
    n = 12
    nodes = [("hub", "company"), ("ph", "person")]
    edges = [("ph", "hub", "invest")]
    for i in range(n):
        nodes += [(f"c{i}", "company"), (f"p{i}", "person")]
        edges += [(f"p{i}", f"c{i}", "invest"), ("hub", f"c{i}", "transaction")]
    g = make_graph(small_schema(), nodes, edges)
    with pytest.raises(InstanceCapExceeded):
        enumerate_instances(g, pccp(), cap=5, cap_mode="error")
    got = enumerate_instances(g, pccp(), cap=5, cap_mode="truncate")
    hub = g.index["hub"]
    assert np.count_nonzero(anchor_column(got, pccp()) == hub) == 5
    full = enumerate_instances(g, pccp(), cap=1000)
    assert np.count_nonzero(anchor_column(full, pccp()) == hub) == n


@pytest.mark.parametrize("injective", [False, True])
def test_edge_order_does_not_change_the_rows(injective):
    # self-loops, anchor self-loops and cycles; a self-loop on a later role
    # may come before the edge that joins it to an earlier one
    rng = np.random.default_rng(3)
    nodes = [(f"c{i}", "company") for i in range(7)] + [(f"p{i}", "person") for i in range(3)]
    edges = [(f"c{a}", f"c{b}", "transaction") for a in range(7) for b in range(7)
             if rng.random() < (0.5 if a == b else 0.3)]
    edges += [(f"p{p}", f"c{c}", "invest") for p in range(3) for c in range(7)
              if rng.random() < 0.4]
    g = make_graph(small_schema(), nodes, edges)
    companies = (("a", "company"), ("b", "company"), ("c", "company"))
    patterns = [
        RptPattern("AB", roles=companies[:2],
                   edges=(("b", "b", "transaction"), ("a", "b", "transaction")), anchor="a"),
        RptPattern("ABQC", roles=companies[:2] + (("q", "person"),) + companies[2:],
                   edges=(("c", "c", "transaction"), ("b", "b", "transaction"),
                          ("q", "c", "invest"), ("a", "b", "transaction"),
                          ("q", "b", "invest")), anchor="a"),
        RptPattern("LOOP", roles=companies[:2] + (("q", "person"),),
                   edges=(("a", "a", "transaction"), ("b", "a", "transaction"),
                          ("q", "b", "invest"), ("a", "b", "transaction")), anchor="a"),
        RptPattern("TRI", roles=companies,
                   edges=(("b", "c", "transaction"), ("a", "c", "transaction"),
                          ("a", "b", "transaction")), anchor="b"),
    ]
    for pattern in patterns:
        want = brute_force_instances(g, pattern, injective=injective)
        assert len(want), pattern.pattern_id
        for edges in itertools.permutations(pattern.edges):
            shuffled = RptPattern(pattern.pattern_id, pattern.roles, edges, pattern.anchor)
            assert enumerate_instances(g, shuffled, injective=injective) == want, edges


def truncation_digest(graphs, pattern, injective, cap, caplog):
    """sha256 over each graph's truncated rows (shape and bytes), its
    truncation warnings in order, and the error mode's message."""
    h = hashlib.sha256()
    for g in graphs:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rptdetect.matcher"):
            rows = enumerate_instances(g, pattern, injective=injective, cap=cap,
                                       cap_mode="truncate")
        h.update(repr(rows.shape).encode() + rows.astype("<i8").tobytes())
        h.update("\n".join(r.getMessage() for r in caplog.records).encode())
        try:
            enumerate_instances(g, pattern, injective=injective, cap=cap, cap_mode="error")
        except InstanceCapExceeded as exc:
            h.update(str(exc).encode())
    return h.hexdigest()[:16]


# computed with the per-anchor depth-first matcher this join replaced
PINNED_CRITERION_3 = {
    ('PCCP', False, 1): '1704f6c654fd852a',
    ('PCCP', False, 2): '376c990c994ce602',
    ('PCCP', True, 1): '3f854ab567c90876',
    ('PCCP', True, 2): '997b2b46ece0a21b',
    ('PCCCP', False, 1): '2336bbc7db53d268',
    ('PCCCP', False, 2): '8255f2a263d14528',
    ('PCCCP', True, 1): '617fa2a69ce9e64c',
    ('PCCCP', True, 2): '220bd8908d74e5d4',
    ('PCICP', False, 1): 'e68102e3e2f6807f',
    ('PCICP', False, 2): '8990bcf4986a9498',
    ('PCICP', True, 1): '90f7440fd88fc1bf',
    ('PCICP', True, 2): '4ad1e3f38c74c5c3',
    ('PCPCP', False, 1): '4128dc7d42ff13fc',
    ('PCPCP', False, 2): 'd9d579592725a721',
    ('PCPCP', True, 1): 'c1786c315ed49e78',
    ('PCPCP', True, 2): 'dc56c7bafc618c59',
    ('PCPCCP', False, 1): '285fbc7342f0c536',
    ('PCPCCP', False, 2): 'a7bf7d45c36804fd',
    ('PCPCCP', True, 1): '548a263ab59a9f48',
    ('PCPCCP', True, 2): '39cca818c920e81c',
}
PINNED_HUB = {
    ('PCCP', False, 1): 'd39a269389ef832c',
    ('PCCP', False, 2): '98efd07c6fe49119',
    ('PCCP', False, 64): 'f13441766037f1da',
    ('PCCP', True, 1): 'deb1b24841efd53b',
    ('PCCP', True, 2): 'c022797e62cd92fd',
    ('PCCP', True, 64): '6897f3abe7ad9d7a',
    ('PCCCP', False, 1): '00d388c491367e1a',
    ('PCCCP', False, 2): 'b3bb5ccace6f4747',
    ('PCCCP', False, 64): 'b4f5044bfe5dc6af',
    ('PCCCP', True, 1): '3cd92c5bbf88dd0f',
    ('PCCCP', True, 2): '2c50e68ae8dd4de7',
    ('PCCCP', True, 64): '62759214dedf0942',
    ('PCICP', False, 1): '126697b02b47b6a2',
    ('PCICP', False, 2): '9dce8b2d9cac75d1',
    ('PCICP', False, 64): '805a6c2a6cbc1319',
    ('PCICP', True, 1): '582b9ad4d5179a92',
    ('PCICP', True, 2): '4d2a906706fde884',
    ('PCICP', True, 64): '628201ec8bcfd705',
    ('PCPCP', False, 1): '4658a7508342ccd1',
    ('PCPCP', False, 2): '2347fc71e61f314d',
    ('PCPCP', False, 64): '8d400c20a1ef4629',
    ('PCPCP', True, 1): '831ee038ec907920',
    ('PCPCP', True, 2): '1da3472da5bd58ba',
    ('PCPCP', True, 64): '7ebedfc67cce01d7',
    ('PCPCCP', False, 1): 'fbdd8788f67a6178',
    ('PCPCCP', False, 2): '30f632264a4c99de',
    ('PCPCCP', False, 64): '74d0703335104eef',
    ('PCPCCP', True, 1): 'baa7f809461e66c5',
    ('PCPCCP', True, 2): '308368ecdd4b27fb',
    ('PCPCCP', True, 64): '39b38804fea1a18d',
}


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("injective", [False, True])
@pytest.mark.parametrize("pid", ["PCCP", "PCCCP", "PCICP", "PCPCP", "PCPCCP"])
def test_truncation_matches_pinned_digests(pid, injective, cap, caplog):
    got = truncation_digest(criterion_3_graphs(), bundled(pid), injective, cap, caplog)
    assert got == PINNED_CRITERION_3[pid, injective, cap]


@pytest.mark.parametrize("budget", [None, 1, 40])
@pytest.mark.parametrize("pid", ["PCCP", "PCCCP", "PCICP", "PCPCP", "PCPCCP"])
def test_chunked_hub_graph_matches_pinned_digests(pid, budget, caplog, monkeypatch):
    # a budget of one row puts every anchor in a chunk of its own
    if budget is not None:
        monkeypatch.setattr(matcher, "ROW_BUDGET", budget)
    for injective, cap in itertools.product((False, True), (1, 2, 64)):
        got = truncation_digest([hub_graph()], bundled(pid), injective, cap, caplog)
        assert got == PINNED_HUB[pid, injective, cap], (injective, cap)


def outcome(fn, *args, **kwargs):
    """What a matcher call gives: its result, or the message of the cap error it raises."""
    try:
        return fn(*args, **kwargs)
    except InstanceCapExceeded as exc:
        return str(exc)


def enumerated_counts(g, pattern, **kwargs):
    """``count_instances``' oracle: the row count and distinct anchors of the enumeration."""
    rows = enumerate_instances(g, pattern, **kwargs)
    return len(rows), len(set(anchor_column(rows, pattern).tolist()))


@pytest.mark.parametrize("injective", [False, True])
@pytest.mark.parametrize("cap_mode", ["truncate", "error"])
def test_count_pass_equals_the_enumerations_counts(injective, cap_mode, caplog):
    errors = 0
    for g in criterion_3_graphs() + (hub_graph(),):
        for pattern, cap in itertools.product(bundled_patterns(), (1, 2, 5, 64)):
            kwargs = dict(injective=injective, cap=cap, cap_mode=cap_mode)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="rptdetect.matcher"):
                want = outcome(enumerated_counts, g, pattern, **kwargs)
                warned = [r.getMessage() for r in caplog.records]
                caplog.clear()
                got = outcome(matcher.count_instances, g, pattern, **kwargs)
            assert got == want, (pattern.pattern_id, cap)
            assert [r.getMessage() for r in caplog.records] == warned
            errors += isinstance(got, str)
    assert errors > 0 if cap_mode == "error" else errors == 0


def test_existence_pass_equals_the_brute_force_anchor_set():
    rng = np.random.default_rng(21)
    for g in criterion_3_graphs():
        companies = np.array(g.company_nodes())
        some = companies[rng.random(companies.size) < 0.5]
        # per pattern, whether the brute-force matcher finds each node anchoring it
        want = {p.pattern_id: np.isin(np.arange(len(g)), anchor_column(
            np.asarray(brute_force_instances(g, p)), p)) for p in bundled_patterns()}
        for patterns in [[p] for p in bundled_patterns()] + [bundled_patterns()]:
            anchoring = np.logical_or.reduce([want[p.pattern_id] for p in patterns])
            for nodes in (companies, some, []):
                got = matcher.anchoring_nodes(g, patterns, nodes)
                given = np.isin(np.arange(len(g)), nodes)
                assert got.dtype == bool and np.array_equal(got, anchoring & given), nodes


@pytest.mark.parametrize("cap", [1, 2, 64])
def test_an_anchor_subset_gets_the_whole_index_rows_at_those_anchors(cap, caplog):
    rng = np.random.default_rng(cap)
    for g in criterion_3_graphs()[:20] + (hub_graph(),):
        full = build_neighbor_index(g, bundled_patterns(), cap=cap, cap_mode="truncate")
        companies = np.array(g.company_nodes())
        subset = companies[rng.random(companies.size) < 0.4].tolist()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rptdetect.matcher"):
            part = build_neighbor_index(g, bundled_patterns(), cap=cap, cap_mode="truncate",
                                        anchors=subset)
        assert part.companies == tuple(subset)
        for pid in full.pattern_ids:
            for i in range(len(g)):
                want = full.instances(i, pid) if i in subset else full.nodes[pid][:0]
                assert part.instances(i, pid) == want.view(InstanceRows), (pid, i)
        # the warnings name the subset's truncated anchors alone
        named = {r.args[1] for r in caplog.records}
        assert named <= {g.ids[i] for i in subset}


@pytest.mark.parametrize("budget", [1, 40])
def test_a_tiny_row_budget_changes_no_row_count_or_error(budget, monkeypatch):
    g, patterns = hub_graph(), bundled_patterns()
    runs = []
    for chunked in (False, True):
        if chunked:
            monkeypatch.setattr(matcher, "ROW_BUDGET", budget)
        got = []
        for pattern, injective, cap in itertools.product(patterns, (False, True), (2, 64)):
            for mode in ("truncate", "error"):
                kwargs = dict(injective=injective, cap=cap, cap_mode=mode)
                got.append(outcome(enumerate_instances, g, pattern, **kwargs))
                got.append(outcome(matcher.count_instances, g, pattern, **kwargs))
        got += [matcher.anchoring_nodes(g, [p], g.company_nodes()).tolist() for p in patterns]
        runs.append(got)
    assert sum(isinstance(x, str) for x in runs[0]) > 0, "some run hits the cap"
    for a, b in zip(*runs):
        assert (a == b.view(InstanceRows) if isinstance(a, np.ndarray) else a == b)


def test_neighbor_index_groups_by_anchor_and_includes_self():
    g = shared_investor_graph()
    # PCCCP matches nothing here, so has_any must look past it
    index = build_neighbor_index(g, [bundled("PCCCP"), pccp()])
    assert index.nodes["PCCCP"].shape == (0, 5)
    c1 = g.index["C1"]
    sets = [set(row) for row in index.instances(c1, "PCCP").tolist()]
    assert sets == [{g.index["jay"], c1, g.index["C2"]}]
    assert index.has_any(c1)
    # a company matching no pattern still has an (empty) entry
    c2 = g.index["C2"]
    assert index.instances(c2, "PCCP").shape == (0, 4)
    assert index.per_node[c2]["PCCP"].shape == (0, 4)
    assert not index.has_any(c2)


def test_anchor_inclusion_property(rng):
    g = random_typed_graph(rng, 7, 5, 3, edge_rate=0.3)
    index = build_neighbor_index(g, bundled_patterns(), cap=10_000)
    assert list(index.per_node) == g.company_nodes()
    for node, groups in index.per_node.items():
        assert list(groups) == list(index.pattern_ids)
        for pid, rows in groups.items():
            for k, row in enumerate(rows.tolist()):
                assert node in row, (node, pid, k)


def test_csr_arrays_hold_exactly_each_anchors_instances(rng):
    g = random_typed_graph(rng, 9, 6, 3, edge_rate=0.3)
    index = build_neighbor_index(g, bundled_patterns(), cap=10_000)
    hits = [False] * len(g)
    for p in index.patterns:
        pid = p.pattern_id
        ptr, nodes = index.anchor_ptr[pid], index.nodes[pid]
        assert ptr.shape == (len(g) + 1,) and ptr[0] == 0
        assert nodes.shape == (ptr[-1], len(p.roles)) and nodes.dtype == np.intp
        # the oracle's rows grouped by anchor, each group in the oracle's order
        want = brute_force_instances(g, p).tolist()
        anchor = p.role_names.index(p.anchor)
        by_anchor = {i: [tuple(r) for r in want if r[anchor] == i] for i in range(len(g))}
        assert sum(map(len, by_anchor.values())) == len(want) > 0
        for i in range(len(g)):
            rows = [tuple(r) for r in nodes[ptr[i]:ptr[i + 1]].tolist()]
            assert rows == by_anchor[i], (pid, i)
            assert [tuple(r) for r in index.instances(i, pid).tolist()] == by_anchor[i]
            hits[i] = hits[i] or bool(by_anchor[i])
        anchors = rng.permutation(g.company_nodes())
        gathered, counts = index.gather(pid, anchors)
        expect = [r for a in anchors for r in by_anchor[a]]
        assert [tuple(r) for r in gathered.tolist()] == expect
        assert counts.tolist() == [len(by_anchor[a]) for a in anchors]
    assert [index.has_any(i) for i in range(len(g))] == hits
    assert any(hits) and not all(hits)


def test_metapath_shared_person():
    g = make_graph(
        small_schema(),
        [("C1", "company"), ("C2", "company"), ("p", "person")],
        [("p", "C1", "invest"), ("p", "C2", "invest")],
    )
    nbrs = metapath_neighbors(g, ["company", "invest", "person", "invest", "company"])
    assert nbrs[g.index["C1"]] == {g.index["C2"]}
    assert nbrs[g.index["C2"]] == {g.index["C1"]}


def test_metapath_disconnected_company_is_empty():
    g = make_graph(small_schema(),
                   [("C1", "company"), ("C2", "company"), ("loner", "company"),
                    ("p", "person")],
                   [("p", "C1", "invest"), ("p", "C2", "invest")])
    nbrs = metapath_neighbors(g, ["company", "invest", "person", "invest", "company"])
    assert nbrs[g.index["loner"]] == set()


def test_metapath_matches_brute_force(rng):
    paths = [
        ["company", "transaction", "company"],
        ["company", "invest", "person", "invest", "company"],
        ["company", "sell", "item", "buy", "company"],
    ]
    for _ in range(4):
        g = random_typed_graph(rng, 7, 5, 4, edge_rate=0.3)
        for path in paths:
            assert metapath_neighbors(g, path) == brute_force_metapath(g, path)


def test_malformed_metapath_rejected():
    g = make_graph(small_schema(), [("C1", "company")], [])
    with pytest.raises(MalformedMetapath):
        metapath_neighbors(g, ["company", "invest"])  # even length
    with pytest.raises(MalformedMetapath):
        metapath_neighbors(g, ["company", "invest", "company"])  # type mismatch
    with pytest.raises(MalformedMetapath):
        metapath_neighbors(g, ["company", "flies", "person"])  # unknown edge type


def test_k_order_on_path_graph():
    g = make_graph(
        small_schema(),
        [("a", "company"), ("b", "company"), ("c", "company")],
        [("a", "b", "transaction"), ("b", "c", "transaction")],
    )
    one = k_order_neighbors(g, 1)
    assert one[g.index["a"]] == {g.index["b"]}
    two = k_order_neighbors(g, 2)
    assert two[g.index["a"]] == {g.index["b"], g.index["c"]}


def test_k_order_matches_matrix_power_oracle(rng):
    for _ in range(3):
        g = random_typed_graph(rng, 8, 5, 3, edge_rate=0.2)
        for k in (1, 2, 3):
            assert k_order_neighbors(g, k) == brute_force_k_order(g, k)


def hop_branch_graph():
    """A graph on which the hop kernel takes every branch: more than 64 centers
    (several bitset words), isolated nodes, hubs with more neighbors than the
    positional passes cover, and directed and undirected edge types."""
    from rptdetect.hetgraph import EdgeType, Schema
    schema = Schema(
        node_types={"company": 1, "person": 1, "item": 1},
        edge_types={"transaction": EdgeType("company", "company"),
                    "partner": EdgeType("company", "company", directed=False),
                    "invest": EdgeType("person", "company"),
                    "sell": EdgeType("company", "item")})
    rng = np.random.default_rng(5)
    # c90..c99, p30..p39 and i9 stay isolated
    nodes = ([(f"c{i}", "company") for i in range(100)]
             + [(f"p{i}", "person") for i in range(40)] + [(f"i{i}", "item") for i in range(10)])
    edges = ([("c0", f"c{i}", "transaction") for i in range(1, 70)]
             + [(f"c{i}", "c1", "transaction") for i in range(2, 50, 2)]
             + [(f"c{i}", "c2", "partner") for i in range(3, 60)]
             + [("p0", f"c{i}", "invest") for i in range(0, 90, 2)])
    for _ in range(150):
        a, b = rng.integers(0, 90, size=2)
        edges.append((f"c{a}", f"c{b}", str(rng.choice(["transaction", "partner"]))))
    edges += [(f"p{rng.integers(1, 30)}", f"c{rng.integers(0, 90)}", "invest") for _ in range(60)]
    edges += [(f"c{rng.integers(0, 90)}", f"i{rng.integers(0, 9)}", "sell") for _ in range(40)]
    return make_graph(schema, nodes, edges)


def test_hop_branch_graph_reaches_every_branch():
    g = hop_branch_graph()
    assert len(g.nodes_of_type("company")) > 64
    for etype, reverse in [(None, False), ("transaction", False), ("transaction", True),
                           ("partner", False), ("invest", False)]:
        ptr, _ = g.adjacency(etype, reverse)
        deg = np.diff(ptr)
        # h nodes of degree >= h hold h * h entries, so the passes stop below sqrt(entries)
        assert deg.max() > np.sqrt(ptr[-1]) and (deg == 0).any(), (etype, reverse)


@pytest.mark.parametrize("path", [
    ["company", "transaction", "company", "transaction", "company"],
    ["company", "partner", "company", "sell", "item"],
    ["company", "invest", "person", "invest", "company"],
    ["person", "invest", "company", "partner", "company"],
], ids=["directed-both-ways", "undirected", "backward-then-forward", "few-centers"])
def test_metapath_matches_brute_force_on_every_hop_branch(path):
    g = hop_branch_graph()
    assert metapath_neighbors(g, path) == brute_force_metapath(g, path)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_order_matches_matrix_power_oracle_on_every_hop_branch(k):
    g = hop_branch_graph()
    assert k_order_neighbors(g, k) == brute_force_k_order(g, k)


def test_lookups_walk_one_block_at_a_time(monkeypatch):
    # one uint64 word per node row: blocks of 64 centers
    monkeypatch.setattr(matcher, "WALK_BUDGET", 8)
    g = hop_branch_graph()
    path = ["company", "transaction", "company", "transaction", "company"]
    for got, want in [(metapath_neighbors(g, path), brute_force_metapath(g, path)),
                      (k_order_neighbors(g, 2), brute_force_k_order(g, 2))]:
        assert got.width == 64 and len(got) > 64
        # every lookup in the other block from the one before it
        jumps = [c for pair in zip(got.centers[:64], got.centers[64:]) for c in pair]
        assert [got[c] for c in jumps] == [want[c] for c in jumps]
        assert got == want


def test_unsorted_repeated_centers_give_the_sets_of_sorted_distinct_ones(monkeypatch):
    monkeypatch.setattr(matcher, "WALK_BUDGET", 8)  # blocks of 64 centers
    g = hop_branch_graph()
    path = ["company", "transaction", "company", "transaction", "company"]
    companies = g.company_nodes()
    messy = np.random.default_rng(0).permutation(companies + companies[::3]).tolist()
    assert len(companies) > 64 and messy != sorted(set(messy))
    for build in (lambda c: metapath_neighbors(g, path, c), lambda c: k_order_neighbors(g, 2, c)):
        got, want = build(messy), build(companies)
        assert got.centers.tolist() == list(got) == companies and len(got) == len(companies)
        assert got == want and {c: got[c] for c in messy} == {c: want[c] for c in messy}
        with pytest.raises(KeyError):
            got[max(companies) + 1]
        assert "x" not in got and 1.5 not in got and got.get(-1) is None


def test_k_order_rejects_bad_radius():
    g = make_graph(small_schema(), [("a", "company")], [])
    with pytest.raises(ValueError):
        k_order_neighbors(g, 0)


@pytest.mark.parametrize("injective", [False, True])
def test_undirected_edge_type_matches_either_orientation(injective):
    from rptdetect.hetgraph import EdgeType, Schema
    schema = Schema(
        node_types={"company": 2, "person": 2},
        edge_types={"invest": EdgeType("person", "company"),
                    "partner": EdgeType("company", "company", directed=False)})
    pattern = RptPattern(
        "CPC2", roles=(("c1", "company"), ("c2", "company"), ("q", "person")),
        edges=(("c1", "c2", "partner"), ("q", "c1", "invest")), anchor="c1")
    g = make_graph(schema,
                   [("A", "company"), ("B", "company"), ("x", "person"),
                    ("C", "company"), ("y", "person")],
                   [("B", "A", "partner"), ("x", "A", "invest"),
                    ("B", "C", "partner"), ("y", "C", "invest")])
    # the stored edges run B->A and B->C; the undirected declaration lets
    # c1=A and c1=C match them although their only partner edge is incoming
    instances = enumerate_instances(g, pattern, injective=injective)
    assert anchor_column(instances, pattern).tolist() == [g.index["A"], g.index["C"]]
    assert instances == brute_force_instances(g, pattern, injective=injective)
    nbrs = metapath_neighbors(g, ["company", "partner", "company"])
    assert nbrs[g.index["A"]] == {g.index["B"]}
    assert nbrs[g.index["B"]] == {g.index["A"], g.index["C"]}
    # one graph edge satisfies an undirected edge listed both ways
    both_ways = RptPattern("AB", roles=(("a", "company"), ("b", "company")),
                           edges=(("a", "b", "partner"), ("b", "a", "partner")), anchor="a")
    pair = make_graph(schema, [("A", "company"), ("B", "company")], [("A", "B", "partner")])
    want = brute_force_instances(pair, both_ways, injective=injective)
    assert want.tolist() == [[0, 1], [1, 0]]
    assert enumerate_instances(pair, both_ways, injective=injective) == want


def degree_mask(graph, pattern, role, injective):
    """The role's candidate mask from per-type degree arrays: every edge the role needs
    has a node's degree at that end (either end for an undirected type) above zero."""
    degrees = edge_degrees(graph)
    keep = np.array([t == pattern.role_type(role) for t in node_types(graph)], dtype=bool)
    for s, t, etype in pattern.edges:
        out_deg, in_deg = degrees[etype]
        for end, deg in ((s, out_deg), (t, in_deg)):
            if end == role:
                keep &= (deg if graph.schema.edge_types[etype].directed else out_deg + in_deg) > 0
    if injective:
        needed = len({t if s == role else s for s, t, _ in pattern.edges if role in (s, t)})
        keep &= sum(o + i for o, i in degrees.values()) >= needed
    return keep


@pytest.mark.parametrize("injective", [False, True])
def test_candidate_masks_equal_the_degree_masks(injective):
    corner, _ = adjacency_corner_graph()
    loops = RptPattern(  # a directed and an undirected self-loop, an undirected edge
        "LOOPS", roles=(("a", "company"), ("b", "company"), ("p", "person")),
        edges=(("a", "a", "transaction"), ("a", "b", "partner"), ("b", "b", "partner"),
               ("p", "b", "invest")), anchor="a")
    back = RptPattern("BACK", roles=(("a", "company"), ("b", "company")),
                      edges=(("b", "a", "partner"), ("a", "b", "transaction")), anchor="a")
    self_loop = RptPattern("SELF", roles=(("a", "company"),),
                           edges=(("a", "a", "transaction"),), anchor="a")
    cases = [(g, bundled_patterns() + [self_loop]) for g in (*criterion_3_graphs(), hub_graph())]
    cases.append((corner, [pccp(), bundled("PCPCP"), loops, back, self_loop]))
    kinds = set()
    for g, patterns in cases:
        for p in patterns:
            for role in p.role_names:
                want = degree_mask(g, p, role, injective)
                assert np.array_equal(matcher._base_candidates(g, p, role, injective), want)
                kinds |= {(g.schema.edge_types[e].directed, s == t, bool(want.any()))
                          for s, t, e in p.edges if role in (s, t)}
    # directed and undirected types, self-loops or not, each with some node kept
    assert {(d, loop, True) for d in (True, False) for loop in (True, False)} <= kinds


def test_pattern_file_round_trip(tmp_path):
    from rptdetect.patterns import load_patterns
    path = tmp_path / "patterns.json"
    path.write_text(json.dumps({"patterns": [
        {"id": p.pattern_id, "anchor": p.anchor, "roles": p.roles, "edges": p.edges}
        for p in bundled_patterns()]}), encoding="utf-8")
    again = load_patterns(path)
    assert again == bundled_patterns()


def test_patterns_with_absent_types_are_skipped_on_reduced_schema():
    # a two-node-type schema keeps only the patterns it can express
    from rptdetect.patterns import applicable_patterns
    usable = applicable_patterns(bundled_patterns(), small_schema())
    assert [p.pattern_id for p in usable] == ["PCCP", "PCCCP", "PCPCP", "PCPCCP"]


def test_pattern_validation_rejects_malformed():
    with pytest.raises(PatternTypeUnknown):
        RptPattern("bad", roles=(("a", "company"), ("b", "person")),
                   edges=(), anchor="a")  # disconnected
    with pytest.raises(PatternTypeUnknown):
        RptPattern("bad", roles=(("a", "company"),), edges=(), anchor="zzz")
