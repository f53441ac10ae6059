"""Graph storage, ingestion validation, and histogram tests."""

import numpy as np
import pytest

from rptdetect.errors import (
    DanglingEdge,
    DimensionMismatch,
    DuplicateNodeId,
    UnknownType,
)
from rptdetect.hetgraph import (
    EdgeType,
    HetGraph,
    Schema,
    degree_histogram,
    load_graph,
    load_labels,
    save_graph,
    save_labels,
    validate_labels,
)
from rptdetect.synth import GenConfig, generate

from conftest import make_graph, small_schema, tax_schema


def test_minimal_graph_loads():
    g = make_graph(small_schema(), [("jay", "person"), ("acme", "company")],
                   [("jay", "acme", "invest")])
    assert len(g) == 2
    assert len(g.edges) == 1
    assert g.types[g.index["jay"]] == "person"


def test_full_tax_schema_loads():
    schema = tax_schema()
    assert len(schema.node_types) == 4
    assert len(schema.edge_types) == 6
    g = make_graph(
        schema,
        [("c1", "company"), ("c2", "company"), ("p1", "person"),
         ("i1", "item"), ("e1", "event")],
        [("c1", "c2", "transaction"), ("p1", "c1", "invest"),
         ("c1", "i1", "sell"), ("c2", "i1", "buy"),
         ("e1", "c1", "belong")],
    )
    assert len(g) == 5


def test_type_codes_and_dense_features_follow_the_nodes():
    g = make_graph(tax_schema(), [("c0", "company"), ("i0", "item"), ("p0", "person"),
                                  ("c1", "company"), ("p1", "person")], [])
    g.x = [np.full(2, float(k)) for k in range(len(g))]
    assert g.type_names == ("company", "event", "item", "person")
    for i, t in enumerate(g.types):
        assert g.type_names[g.type_code[i]] == t
        assert g.nodes_of_type(t)[g.row_in_type[i]] == i
        np.testing.assert_array_equal(g.type_features(t)[g.row_in_type[i]], g.x[i])
    assert g.type_features("event").shape == (0, 2)
    g.x = [v + 1.0 for v in g.x]  # a new attribute list replaces the dense copies
    np.testing.assert_array_equal(g.type_features("person"), [[3.0, 3.0], [5.0, 5.0]])


def test_schema_requires_heterogeneity():
    with pytest.raises(UnknownType):
        Schema(node_types={"company": 2},
               edge_types={"transaction": EdgeType("company", "company")})


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge):
        make_graph(small_schema(), [("jay", "person")], [("jay", "ghost", "invest")])


def test_unknown_node_type_rejected():
    schema = small_schema()
    with pytest.raises(UnknownType):
        HetGraph(schema, [("x", "alien", np.zeros(2))], [])


def test_edge_endpoint_type_checked():
    with pytest.raises(UnknownType):
        make_graph(small_schema(), [("a", "company"), ("b", "company")],
                   [("a", "b", "invest")])  # invest needs a person source


def test_duplicate_node_id_rejected():
    schema = small_schema()
    with pytest.raises(DuplicateNodeId):
        HetGraph(schema, [("a", "company", np.zeros(2)),
                          ("a", "company", np.zeros(2))], [])


def test_dimension_mismatch_rejected():
    schema = small_schema(dim=3)
    with pytest.raises(DimensionMismatch):
        HetGraph(schema, [("a", "company", np.zeros(2))], [])


def test_failed_load_is_all_or_nothing(tmp_path):
    g = make_graph(small_schema(), [("jay", "person"), ("acme", "company")],
                   [("jay", "acme", "invest")])
    paths = save_graph(g, tmp_path)
    with open(paths["edges"], "a", encoding="utf-8") as fh:
        fh.write("jay,ghost,invest\n")
    with pytest.raises(DanglingEdge):
        load_graph(paths["schema"], paths["nodes"], paths["edges"])


def test_round_trip_identity(tmp_path):
    graph, labels, _ = generate(GenConfig(
        companies=40, persons=35, items=10, events=4, communities=4,
        decoy_communities=2, feature_dim=3, seed=9))
    paths = save_graph(graph, tmp_path)
    again = load_graph(paths["schema"], paths["nodes"], paths["edges"])
    assert graph.equals(again)
    # serialize the reloaded graph once more: byte-identical files
    second = tmp_path / "again"
    paths2 = save_graph(again, second)
    for key in ("schema", "nodes", "edges"):
        assert open(paths[key], "rb").read() == open(paths2[key], "rb").read()


def test_labels_round_trip(tmp_path):
    labels = {"c1": 1, "c2": 0}
    path = tmp_path / "labels.csv"
    save_labels(labels, path)
    assert load_labels(path) == labels


def test_degree_histogram_empty_graph():
    g = make_graph(small_schema(), [], [])
    assert degree_histogram(g) == []


def test_degree_histogram_star():
    schema = small_schema()
    nodes = [("hub", "company")] + [(f"p{i}", "person") for i in range(4)]
    edges = [(f"p{i}", "hub", "invest") for i in range(4)]
    g = make_graph(schema, nodes, edges)
    assert degree_histogram(g) == [(1, 4), (4, 1)]


def test_degree_histogram_mass_and_independent_recount():
    graph, _, _ = generate(GenConfig(
        companies=120, persons=90, items=20, events=8, communities=10,
        decoy_communities=5, feature_dim=3, seed=4))
    hist = degree_histogram(graph)
    assert sum(c for _, c in hist) == len(graph)
    # independent recount: per-node scan over the raw edge list
    by_node = {i: 0 for i in range(len(graph))}
    for s, t, _ in graph.edges:
        by_node[s] += 1
        by_node[t] += 1
    expected = {}
    for d in by_node.values():
        expected[d] = expected.get(d, 0) + 1
    assert hist == sorted(expected.items())
    # degree-heterogeneous attachment: a spread of distinct degrees shows up
    assert len(hist) >= 5


def test_validate_labels_clean_and_violations():
    g = make_graph(small_schema(),
                   [("a", "company"), ("b", "company"), ("c", "company"),
                    ("jay", "person")],
                   [])
    assert validate_labels(g, {"a": 1, "b": 0, "c": 1}).ok
    report = validate_labels(g, {"jay": 1})
    assert len(report.violations) == 1
    report = validate_labels(g, {"ghost": 0})
    assert len(report.violations) == 1
    report = validate_labels(g, {"a": 2})
    assert len(report.violations) == 1
