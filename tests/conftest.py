"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import shutil
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from rptdetect import hetgraph
from rptdetect.hetgraph import GRAPH_FILES, EdgeType, HetGraph, Schema, load_graph
from rptdetect.patterns import RptPattern


def tax_schema(dim: int = 2) -> Schema:
    return Schema(
        node_types={"company": dim, "person": dim, "item": dim, "event": dim},
        edge_types={
            "transaction": EdgeType("company", "company"),
            "invest": EdgeType("person", "company"),
            "sell": EdgeType("company", "item"),
            "buy": EdgeType("company", "item"),
            "belong": EdgeType("event", "company"),
            "category": EdgeType("item", "item"),
        },
    )


def small_schema(dim: int = 2) -> Schema:
    return Schema(
        node_types={"company": dim, "person": dim},
        edge_types={
            "transaction": EdgeType("company", "company"),
            "invest": EdgeType("person", "company"),
        },
    )


def make_graph(schema: Schema, nodes, edges) -> HetGraph:
    """nodes: (id, type, attributes) triples, or (id, type) pairs whose attributes
    are zeros of the right size; edges: (source id, target id, type) triples."""
    attrs = [np.ravel(n[2]) if len(n) == 3 else np.zeros(schema.node_types[n[1]]) for n in nodes]
    return HetGraph.from_columns(schema, [n[0] for n in nodes], [n[1] for n in nodes],
                                 np.concatenate([np.zeros(0), *attrs]),
                                 np.array([a.size for a in attrs], dtype=np.intp), edges)


def edge_degrees(graph: HetGraph) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per edge type, every node's (out-degree, in-degree) as two arrays, from one
    ``bincount`` per end; each of a run of parallel edges counts."""
    n = len(graph)
    return {r: (np.bincount(graph.src[graph.edge_code == k], minlength=n),
                np.bincount(graph.dst[graph.edge_code == k], minlength=n))
            for k, r in enumerate(graph.edge_names)}


def adjacency_corner_graph():
    """Parallel edges, self-loops, an undirected type, isolated nodes, an unused type."""
    schema = Schema(
        node_types={"company": 1, "person": 1, "item": 1},
        edge_types={"transaction": EdgeType("company", "company"),
                    "invest": EdgeType("person", "company"),
                    "partner": EdgeType("company", "company", directed=False),
                    "sell": EdgeType("company", "item")})
    nodes = [(f"c{k}", "company") for k in range(5)] + [("p0", "person"),
                                                        ("p1", "person"), ("i0", "item")]
    edges = [("c0", "c1", "transaction"), ("c0", "c1", "transaction"),
             ("c1", "c1", "transaction"), ("c2", "c0", "transaction"),
             ("p0", "c0", "invest"), ("p0", "c0", "invest"), ("p1", "c2", "invest"),
             ("c1", "c3", "partner"), ("c1", "c3", "partner"), ("c2", "c2", "partner")]
    return make_graph(schema, nodes, edges), edges


def node_types(graph: HetGraph) -> list[str]:
    """Each node's type name, by node index."""
    return [graph.type_names[c] for c in graph.type_code.tolist()]


def node_x(graph: HetGraph, i: int) -> np.ndarray:
    """Node i's attribute vector: a view of its row in ``type_features``."""
    return graph.type_features(graph.type_names[graph.type_code[i]])[graph.row_in_type[i]]


def stats_row(stats, name: str):
    """The ``EvasionStats`` row of the named neighbor definition."""
    return next(r for r in stats.rows if r.name == name)


def stats_ratio(stats, rpt_name: str, baseline_name: str) -> float | None:
    """The ``EvasionStats`` ratio of an RPT definition's probability to a baseline's."""
    return next(v for a, b, v in stats.ratios if (a, b) == (rpt_name, baseline_name))


def assert_same_graph(a: HetGraph, b: HetGraph) -> None:
    """The same ids, index and schema, and every array equal in dtype, shape and bytes."""
    assert a.ids == b.ids and a.index == b.index and a.schema == b.schema
    assert (a.type_names, a.edge_names) == (b.type_names, b.edge_names)
    for name in ("type_code", "row_in_type", "src", "dst", "edge_code"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for t in a.type_names:
        x, y = a.type_features(t), b.type_features(t)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), t


def load_both(directory: Path, monkeypatch) -> tuple[HetGraph, HetGraph]:
    """The graph in ``directory`` read through its ``graph.bin`` with the CSV parse
    switched off, and the graph parsed from a copy of its CSV files alone."""
    files = [directory / name for name in GRAPH_FILES]
    copy = directory.parent / (directory.name + "-csv-only")
    copy.mkdir()
    for f in files:
        shutil.copy(f, copy)

    def no_parse(*args, **kwargs):
        raise AssertionError("the CSV files were parsed although graph.bin matches them")

    with monkeypatch.context() as m:
        m.setattr(hetgraph, "_read_records", no_parse)
        loaded = load_graph(*files)
    return loaded, load_graph(*(copy / name for name in GRAPH_FILES))


def random_typed_graph(rng: np.random.Generator, n_companies: int, n_persons: int,
                       n_items: int, edge_rate: float = 0.15) -> HetGraph:
    """A small random graph over the tax schema for oracle comparisons."""
    schema = tax_schema()
    nodes = ([(f"c{i}", "company") for i in range(n_companies)]
             + [(f"p{i}", "person") for i in range(n_persons)]
             + [(f"i{i}", "item") for i in range(n_items)])
    edges = []
    for a in range(n_companies):
        for b in range(n_companies):
            if a != b and rng.random() < edge_rate:
                edges.append((f"c{a}", f"c{b}", "transaction"))
    for p in range(n_persons):
        for c in range(n_companies):
            if rng.random() < edge_rate:
                edges.append((f"p{p}", f"c{c}", "invest"))
    for c in range(n_companies):
        for i in range(n_items):
            if rng.random() < edge_rate:
                edges.append((f"c{c}", f"i{i}", "sell"))
            if rng.random() < edge_rate:
                edges.append((f"c{c}", f"i{i}", "buy"))
    return make_graph(schema, nodes, edges)


@lru_cache(maxsize=None)
def criterion_3_graphs():
    """The 50 random graphs of acceptance criterion 3, drawn the same way."""
    rng = np.random.default_rng(2024)
    graphs = []
    for _ in range(50):
        nc, npers, ni = (int(rng.integers(5, 9)), int(rng.integers(4, 9)),
                         int(rng.integers(2, 5)))
        graphs.append(random_typed_graph(rng, nc, npers, ni,
                                         edge_rate=float(rng.uniform(0.1, 0.35))))
    return tuple(graphs)


@lru_cache(maxsize=None)
def hub_graph():
    """Two hub companies trading with most others and a hub investor, plus noise."""
    rng = np.random.default_rng(99)
    nodes = ([(f"c{i}", "company") for i in range(40)]
             + [(f"p{i}", "person") for i in range(25)]
             + [(f"i{i}", "item") for i in range(6)])
    edges = []
    for hub in ("c0", "c7"):
        edges += [(hub, f"c{i}", "transaction") for i in range(40) if rng.random() < 0.8]
    edges += [("p0", f"c{i}", "invest") for i in range(40) if rng.random() < 0.7]
    edges += [(f"c{a}", f"c{b}", "transaction") for a in range(40) for b in range(40)
              if rng.random() < 0.04]
    edges += [(f"p{p}", f"c{c}", "invest") for p in range(1, 25) for c in range(40)
              if rng.random() < 0.06]
    edges += [(f"c{c}", f"i{i}", kind) for c in range(40) for i in range(6)
              for kind in ("sell", "buy") if rng.random() < 0.1]
    return make_graph(tax_schema(), nodes, edges)


class InstanceRows(np.ndarray):
    """Instance rows (``[n_inst, n_roles]``, ``np.intp``) compared as one table.

    ``rows == other`` is a single bool: True only for an array of the same
    shape, dtype and values, so ``assert got == want`` checks the whole table.
    """

    def __eq__(self, other):
        return (isinstance(other, np.ndarray) and other.shape == self.shape
                and other.dtype == self.dtype
                and bool(np.array_equal(np.asarray(self), np.asarray(other))))

    def __ne__(self, other):
        return not self == other


def edge_set(graph: HetGraph) -> set[tuple[int, int, str]]:
    """The (source, target, type) triples an edge test accepts, built from
    ``graph.edges``: an undirected type's edges count both ways."""
    return set(graph.edges) | {(t, s, r) for s, t, r in graph.edges
                               if not graph.schema.edge_types[r].directed}


def brute_force_instances(graph: HetGraph, pattern: RptPattern,
                          injective: bool = False) -> InstanceRows:
    """Exhaustive enumeration over every typed role assignment.

    Checks all pattern edges on complete assignments only; deduplicates by
    (anchor node, sorted node multiset) keeping the lexicographically smallest
    representative, then sorts like the production matcher.  Returns one row
    per instance, columns in canonical role order.
    """
    accepted = edge_set(graph)
    role_names = list(pattern.role_names)
    anchor_pos = role_names.index(pattern.anchor)
    candidate_lists = [graph.nodes_of_type(t) for _, t in pattern.roles]
    kept: dict[tuple, tuple[int, ...]] = {}
    for combo in product(*candidate_lists):
        if injective and len(set(combo)) != len(combo):
            continue
        assign = dict(zip(role_names, combo))
        if not all((assign[s], assign[t], e) in accepted for s, t, e in pattern.edges):
            continue
        key = (combo[anchor_pos], tuple(sorted(combo)))
        if key not in kept or combo < kept[key]:
            kept[key] = tuple(combo)
    out = [(key[0], nodes) for key, nodes in kept.items()]
    out.sort()  # by anchor, then by nodes
    rows = np.array([nodes for _, nodes in out], dtype=np.intp)
    return rows.reshape(len(out), len(role_names)).view(InstanceRows)


def brute_force_metapath(graph: HetGraph, metapath: list[str]) -> dict[int, set[int]]:
    """Recursive typed-path walk, independent of the production traversal."""
    types, path_types, edge_types = node_types(graph), metapath[0::2], metapath[1::2]

    def step(node: int, depth: int) -> set[int]:
        if depth == len(edge_types):
            return {node}
        etype = edge_types[depth]
        want = path_types[depth + 1]
        out: set[int] = set()
        for s, t, r in graph.edges:
            if r != etype:
                continue
            if s == node and types[t] == want:
                out |= step(t, depth + 1)
            if t == node and types[s] == want:
                out |= step(s, depth + 1)
        return out

    result = {}
    for start in graph.nodes_of_type(path_types[0]):
        result[start] = step(start, 0) - {start}
    return result


def brute_force_k_order(graph: HetGraph, k: int) -> dict[int, set[int]]:
    """Boolean adjacency-matrix powers as an independent reachability oracle."""
    n = len(graph)
    A = np.zeros((n, n), dtype=bool)
    for s, t, _ in graph.edges:
        A[s, t] = A[t, s] = True
    np.fill_diagonal(A, False)
    reach = np.zeros((n, n), dtype=bool)
    power = np.eye(n, dtype=bool)
    for _ in range(k):
        power = power @ A
        reach |= power
    np.fill_diagonal(reach, False)
    company = [t == graph.schema.company_type for t in node_types(graph)]
    return {i: {j for j in range(n) if reach[i, j] and company[j]} for i in range(n)}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
