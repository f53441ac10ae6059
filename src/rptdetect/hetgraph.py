"""Typed heterogeneous graph storage, schema validation, flat-file ingestion.

A graph is immutable once loaded: every accessor reads precomputed structures,
so concurrent readers are safe.  Loading is all-or-nothing; any violation
aborts before a graph object exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DanglingEdge,
    DimensionMismatch,
    DuplicateNodeId,
    UnknownType,
)


@dataclass(frozen=True)
class EdgeType:
    source: str
    target: str
    directed: bool = True


@dataclass(frozen=True)
class Schema:
    """Node types with attribute dimensions plus typed, endpoint-checked relations."""

    node_types: dict[str, int]
    edge_types: dict[str, EdgeType]
    company_type: str = "company"

    def __post_init__(self):
        if len(self.node_types) + len(self.edge_types) <= 2:
            raise UnknownType(
                "schema must declare more than two types in total "
                f"(got {len(self.node_types)} node + {len(self.edge_types)} edge types)"
            )
        for name, dim in self.node_types.items():
            if dim < 1:
                raise DimensionMismatch(f"node type {name!r} has dimension {dim}")
        for name, et in self.edge_types.items():
            for endpoint in (et.source, et.target):
                if endpoint not in self.node_types:
                    raise UnknownType(
                        f"edge type {name!r} references undeclared node type {endpoint!r}"
                    )

    def dim(self, node_type: str) -> int:
        if node_type not in self.node_types:
            raise UnknownType(f"unknown node type {node_type!r}")
        return self.node_types[node_type]


class HetGraph:
    """Directed attributed multigraph over a fixed schema.

    Node ids are opaque strings normalized to dense integer indices; edges are
    stored exactly as ingested and expanded into adjacency structures once.
    Node types are also held as integer codes (``type_code``, indexing the
    sorted ``type_names``) with each node's row among the nodes of its type
    (``row_in_type``), the row layout of ``type_features``, and each node's
    out- and in-degree per edge type (``edge_degrees``).  These arrays are
    built on first use; attributes change only by assigning a new ``x`` list.
    """

    def __init__(self, schema: Schema,
                 nodes: list[tuple[str, str, np.ndarray]],
                 edges: list[tuple[str, str, str]]):
        self.schema = schema
        self.ids: list[str] = []
        self.types: list[str] = []
        self.x = []
        self.index: dict[str, int] = {}
        for node_id, node_type, attrs in nodes:
            if node_type not in schema.node_types:
                raise UnknownType(f"node {node_id!r} has undeclared type {node_type!r}")
            if node_id in self.index:
                raise DuplicateNodeId(f"node id {node_id!r} appears twice")
            arr = np.asarray(attrs, dtype=np.float64)
            if arr.shape != (schema.node_types[node_type],):
                raise DimensionMismatch(
                    f"node {node_id!r}: expected {schema.node_types[node_type]} "
                    f"attributes for type {node_type!r}, got {arr.size}"
                )
            self.index[node_id] = len(self.ids)
            self.ids.append(node_id)
            self.types.append(node_type)
            self.x.append(arr)

        self.edges: list[tuple[int, int, str]] = []
        for src, dst, etype in edges:
            if etype not in schema.edge_types:
                raise UnknownType(f"edge ({src!r}, {dst!r}) has undeclared type {etype!r}")
            if src not in self.index:
                raise DanglingEdge(f"edge references missing node id {src!r}")
            if dst not in self.index:
                raise DanglingEdge(f"edge references missing node id {dst!r}")
            s, t = self.index[src], self.index[dst]
            et = schema.edge_types[etype]
            if self.types[s] != et.source or self.types[t] != et.target:
                raise UnknownType(
                    f"edge type {etype!r} expects ({et.source} -> {et.target}), "
                    f"got ({self.types[s]} -> {self.types[t]})"
                )
            self.edges.append((s, t, etype))

        n = len(self.ids)
        self.type_names: tuple[str, ...] = tuple(sorted(schema.node_types))
        self._edge_set: set[tuple[int, int, str]] = set()
        self._out: dict[str, list[list[int]]] = {r: [[] for _ in range(n)]
                                                 for r in schema.edge_types}
        self._in: dict[str, list[list[int]]] = {r: [[] for _ in range(n)]
                                                for r in schema.edge_types}
        self._adj: list[set[int]] = [set() for _ in range(n)]
        for s, t, r in self.edges:
            self._edge_set.add((s, t, r))
            self._out[r][s].append(t)
            self._in[r][t].append(s)
            self._adj[s].add(t)
            self._adj[t].add(s)
        for r in schema.edge_types:
            for lst in self._out[r]:
                lst.sort()
            for lst in self._in[r]:
                lst.sort()

    # --- structure accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def nodes_of_type(self, node_type: str) -> list[int]:
        return [i for i, t in enumerate(self.types) if t == node_type]

    def company_nodes(self) -> list[int]:
        return self.nodes_of_type(self.schema.company_type)

    def has_edge(self, s: int, t: int, etype: str) -> bool:
        """True if the typed edge exists; undirected types match either way."""
        if (s, t, etype) in self._edge_set:
            return True
        if not self.schema.edge_types[etype].directed:
            return (t, s, etype) in self._edge_set
        return False

    def out_neighbors(self, i: int, etype: str) -> list[int]:
        return self._out[etype][i]

    def in_neighbors(self, i: int, etype: str) -> list[int]:
        return self._in[etype][i]

    def neighbors(self, i: int) -> set[int]:
        return self._adj[i]

    @cached_property
    def edge_degrees(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per edge type, every node's (out-degree, in-degree) as two arrays."""
        n, m = len(self), len(self.edges)
        code = {r: k for k, r in enumerate(self.schema.edge_types)}
        src = np.fromiter((s for s, _, _ in self.edges), dtype=np.intp, count=m)
        dst = np.fromiter((t for _, t, _ in self.edges), dtype=np.intp, count=m)
        ecode = np.fromiter((code[r] for _, _, r in self.edges), dtype=np.intp, count=m)
        degrees = {}
        for r, k in code.items():
            mask = ecode == k
            degrees[r] = (np.bincount(src[mask], minlength=n),
                          np.bincount(dst[mask], minlength=n))
        return degrees

    @cached_property
    def type_code(self) -> np.ndarray:
        """Each node's type as an index into ``type_names``."""
        code = {t: k for k, t in enumerate(self.type_names)}
        return np.array([code[t] for t in self.types], dtype=np.intp)

    @cached_property
    def row_in_type(self) -> np.ndarray:
        """Each node's row among the nodes of its type: the row layout of ``type_features``."""
        rows = np.empty(len(self), dtype=np.intp)
        for k in range(len(self.type_names)):
            members = np.flatnonzero(self.type_code == k)
            rows[members] = np.arange(members.size)
        return rows

    @property
    def x(self) -> list[np.ndarray]:
        """Per-node attribute vectors; assigning a new list drops ``type_features``."""
        return self._x

    @x.setter
    def x(self, vectors: list[np.ndarray]) -> None:
        self._x = vectors
        self._type_features: dict[str, np.ndarray] = {}

    def type_features(self, node_type: str) -> np.ndarray:
        """Attributes of every node of the type as one matrix, rows by ``row_in_type``."""
        if node_type not in self._type_features:
            dim = self.schema.dim(node_type)
            rows = [self._x[i] for i in self.nodes_of_type(node_type)]
            self._type_features[node_type] = (
                np.stack(rows) if rows else np.zeros((0, dim)))
        return self._type_features[node_type]

    def equals(self, other: "HetGraph") -> bool:
        return (
            self.schema == other.schema
            and self.ids == other.ids
            and self.types == other.types
            and self.edges == other.edges
            and all(np.array_equal(a, b) for a, b in zip(self.x, other.x))
        )


# --- operations ----------------------------------------------------------------

def degree_histogram(graph: HetGraph) -> list[tuple[int, int]]:
    """Exact-degree bins of undirected total degree; counts sum to |V|."""
    degs: dict[int, int] = {}
    counts = [0] * len(graph)
    for s, t, _ in graph.edges:
        counts[s] += 1
        counts[t] += 1
    for d in counts:
        degs[d] = degs.get(d, 0) + 1
    return sorted(degs.items())


@dataclass
class LabelReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_labels(graph: HetGraph, labels: dict[str, int]) -> LabelReport:
    """List violations instead of raising: unknown ids, non-company nodes, bad values."""
    report = LabelReport()
    company = graph.schema.company_type
    for node_id, y in labels.items():
        if node_id not in graph.index:
            report.violations.append(f"label on unknown node id {node_id!r}")
            continue
        t = graph.types[graph.index[node_id]]
        if t != company:
            report.violations.append(
                f"label on node {node_id!r} of type {t!r} (only {company!r} may be labeled)"
            )
        if y not in (0, 1):
            report.violations.append(f"label for {node_id!r} must be 0 or 1, got {y!r}")
    return report


def labels_to_indices(graph: HetGraph, labels: dict[str, int]) -> dict[int, int]:
    return {graph.index[k]: int(v) for k, v in labels.items()}


# --- flat-file formats ----------------------------------------------------------
#
# schema.json : {"company_type": ..., "node_types": {name: {"dim": int}},
#                "edge_types": {name: {"source":, "target":, "directed": bool}}}
# nodes.csv   : header "id,type,attrs"; each row: id, type, then dim(type) values
# edges.csv   : header "source,target,type"
# labels.csv  : header "id,label"


def load_schema(path: str | os.PathLike) -> Schema:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    node_types: dict[str, int] = {}
    for name, spec in raw["node_types"].items():
        try:
            node_types[name] = int(spec["dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatch(
                f"schema node type {name!r} needs an integer 'dim'") from exc
    edge_types = {
        name: EdgeType(spec["source"], spec["target"], bool(spec.get("directed", True)))
        for name, spec in raw["edge_types"].items()
    }
    return Schema(node_types, edge_types, raw.get("company_type", "company"))


def save_schema(schema: Schema, path: str | os.PathLike) -> None:
    raw = {
        "company_type": schema.company_type,
        "node_types": {name: {"dim": dim} for name, dim in schema.node_types.items()},
        "edge_types": {
            name: {"source": et.source, "target": et.target, "directed": et.directed}
            for name, et in schema.edge_types.items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(schema_file: str | os.PathLike, nodes_file: str | os.PathLike,
               edges_file: str | os.PathLike) -> HetGraph:
    """Load and validate; any violation rejects the whole load."""
    schema = load_schema(schema_file)
    nodes: list[tuple[str, str, np.ndarray]] = []
    with open(nodes_file, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["id", "type"]:
            raise DimensionMismatch(f"nodes file {nodes_file}: missing 'id,type,...' header")
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) < 2:
                raise DimensionMismatch(f"nodes file line {line_no}: too few columns")
            try:
                values = [float(v) for v in rec[2:]]
            except ValueError as exc:
                raise DimensionMismatch(f"nodes file line {line_no}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise DimensionMismatch(f"nodes file line {line_no}: non-finite attribute")
            nodes.append((rec[0], rec[1], np.array(values, dtype=np.float64)))
    edges: list[tuple[str, str, str]] = []
    with open(edges_file, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["source", "target", "type"]:
            raise DimensionMismatch(f"edges file {edges_file}: missing 'source,target,type' header")
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 3:
                raise DimensionMismatch(
                    f"edges file line {line_no}: expected 3 columns, got {len(rec)}")
            edges.append((rec[0], rec[1], rec[2]))
    return HetGraph(schema, nodes, edges)


def _write_csv(path: str | os.PathLike, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in rows:
        writer.writerow(r)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def save_graph(graph: HetGraph, out_dir: str | os.PathLike) -> dict[str, str]:
    """Write schema/nodes/edges files; output is byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "schema": os.path.join(out_dir, "schema.json"),
        "nodes": os.path.join(out_dir, "nodes.csv"),
        "edges": os.path.join(out_dir, "edges.csv"),
    }
    save_schema(graph.schema, paths["schema"])
    node_rows = (
        [graph.ids[i], graph.types[i]] + [repr(float(v)) for v in graph.x[i]]
        for i in range(len(graph))
    )
    _write_csv(paths["nodes"], ["id", "type", "attrs"], node_rows)
    edge_rows = ([graph.ids[s], graph.ids[t], r] for s, t, r in graph.edges)
    _write_csv(paths["edges"], ["source", "target", "type"], edge_rows)
    return paths


def load_labels(path: str | os.PathLike) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "label"]:
            raise DimensionMismatch(f"labels file {path}: missing 'id,label' header")
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 2:
                raise DimensionMismatch(
                    f"labels file line {line_no}: expected 2 columns, got {len(rec)}")
            try:
                labels[rec[0]] = int(rec[1])
            except ValueError as exc:
                raise DimensionMismatch(f"labels file line {line_no}: {exc}") from exc
    return labels


def save_labels(labels: dict[str, int], path: str | os.PathLike) -> None:
    _write_csv(path, ["id", "label"], ([k, str(int(v))] for k, v in labels.items()))
