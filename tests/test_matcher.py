"""Matcher tests: hand-built cases plus brute-force oracle equivalence."""

import pytest

from rptdetect.errors import InstanceCapExceeded, MalformedMetapath, PatternTypeUnknown
from rptdetect.matcher import (
    build_neighbor_index,
    enumerate_instances,
    k_order_neighbors,
    metapath_neighbors,
)
from rptdetect.patterns import RptPattern, bundled_patterns

from conftest import (
    brute_force_instances,
    brute_force_k_order,
    brute_force_metapath,
    make_graph,
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


def pccp():
    return next(p for p in bundled_patterns() if p.pattern_id == "PCCP")


def test_collapsed_instance_found_once():
    g = shared_investor_graph()
    instances = enumerate_instances(g, pccp())
    assert len(instances) == 1
    inst = instances[0]
    assert inst.anchor == g.index["C1"]
    assert inst.node_set() == {g.index["jay"], g.index["C1"], g.index["C2"]}
    # both person roles collapse onto jay
    assert inst.nodes == (g.index["jay"], g.index["C1"], g.index["C2"], g.index["jay"])


def test_injective_mode_rejects_collapsed_instance():
    g = shared_investor_graph()
    assert enumerate_instances(g, pccp(), injective=True) == []


def test_empty_graph_gives_no_instances():
    g = make_graph(tax_schema(), [], [])
    for p in bundled_patterns():
        assert enumerate_instances(g, p) == []


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
    keys = {tuple(sorted(i.nodes)) for i in instances}
    assert len(instances) == 3 == len(keys)
    inj = enumerate_instances(g, pattern, injective=True)
    assert len(inj) == 1


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


def test_enumeration_is_deterministic(rng):
    g = random_typed_graph(rng, 8, 6, 3, edge_rate=0.3)
    p = bundled_patterns()[1]
    a = enumerate_instances(g, p, cap=10_000)
    b = enumerate_instances(g, p, cap=10_000)
    assert a == b


def test_homomorphism_soundness_property(rng):
    g = random_typed_graph(rng, 7, 6, 3, edge_rate=0.3)
    for pattern in bundled_patterns():
        for inst in enumerate_instances(g, pattern, cap=10_000):
            mapping = inst.mapping(pattern)
            for s, t, etype in pattern.edges:
                assert g.has_edge(mapping[s], mapping[t], etype)


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
    assert sum(1 for i in got if i.anchor == hub) == 5
    full = enumerate_instances(g, pccp(), cap=1000)
    assert sum(1 for i in full if i.anchor == hub) == n


def test_neighbor_index_groups_by_anchor_and_includes_self():
    g = shared_investor_graph()
    index = build_neighbor_index(g, [pccp()])
    c1 = g.index["C1"]
    sets = index.neighbor_sets(c1, "PCCP")
    assert sets == [{g.index["jay"], c1, g.index["C2"]}]
    # a company matching no pattern still has an (empty) entry
    c2 = g.index["C2"]
    assert index.instances(c2, "PCCP") == []
    assert not index.has_any(c2)


def test_anchor_inclusion_property(rng):
    g = random_typed_graph(rng, 7, 5, 3, edge_rate=0.3)
    index = build_neighbor_index(g, bundled_patterns(), cap=10_000)
    for node, groups in index.per_node.items():
        for pid, instances in groups.items():
            for k, nbrs in enumerate(index.neighbor_sets(node, pid)):
                assert node in nbrs, (node, pid, k)


def test_csr_arrays_hold_exactly_each_anchors_instances(rng):
    g = random_typed_graph(rng, 9, 6, 3, edge_rate=0.3)
    index = build_neighbor_index(g, bundled_patterns(), cap=10_000)
    for p in index.patterns:
        pid = p.pattern_id
        ptr, nodes = index.anchor_ptr[pid], index.nodes[pid]
        assert ptr.shape == (len(g) + 1,) and ptr[0] == 0
        assert nodes.shape == (ptr[-1], len(p.roles))
        for i in range(len(g)):
            rows = [tuple(r) for r in nodes[ptr[i]:ptr[i + 1]].tolist()]
            assert rows == [inst.nodes for inst in index.instances(i, pid)], (pid, i)
        anchors = rng.permutation(g.company_nodes())
        gathered, counts = index.gather(pid, anchors)
        expect = [inst.nodes for a in anchors for inst in index.instances(a, pid)]
        assert [tuple(r) for r in gathered.tolist()] == expect
        assert counts.tolist() == [len(index.instances(a, pid)) for a in anchors]


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


def test_k_order_rejects_bad_radius():
    g = make_graph(small_schema(), [("a", "company")], [])
    with pytest.raises(ValueError):
        k_order_neighbors(g, 0)


def test_undirected_edge_type_matches_either_orientation():
    from rptdetect.hetgraph import EdgeType, Schema
    schema = Schema(
        node_types={"company": 2, "person": 2},
        edge_types={"invest": EdgeType("person", "company"),
                    "partner": EdgeType("company", "company", directed=False)})
    pattern = RptPattern(
        "CPC2", roles=(("c1", "company"), ("c2", "company"), ("q", "person")),
        edges=(("c1", "c2", "partner"), ("q", "c1", "invest")), anchor="c1")
    g = make_graph(schema,
                   [("A", "company"), ("B", "company"), ("x", "person")],
                   [("B", "A", "partner"), ("x", "A", "invest")])
    # the stored edge runs B->A; the undirected declaration lets c1=A match it
    instances = enumerate_instances(g, pattern)
    assert [i.anchor for i in instances] == [g.index["A"]]
    assert instances == brute_force_instances(g, pattern)
    nbrs = metapath_neighbors(g, ["company", "partner", "company"])
    assert nbrs[g.index["A"]] == {g.index["B"]}
    assert nbrs[g.index["B"]] == {g.index["A"]}


def test_pattern_file_round_trip(tmp_path):
    from rptdetect.patterns import load_patterns, save_patterns
    path = tmp_path / "patterns.json"
    save_patterns(bundled_patterns(), path)
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
