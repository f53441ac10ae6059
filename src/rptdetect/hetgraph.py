"""Typed heterogeneous graph storage, schema validation, flat-file ingestion.

A graph is immutable once loaded: every accessor reads arrays fixed at load
time or structures built once from them on first use.  Loading is
all-or-nothing; any violation aborts before a graph object exists.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

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


class HetGraph:
    """Directed attributed multigraph over a fixed schema.

    Node ids are opaque strings normalized to dense integer indices (``ids``
    and ``index``).  Node i's type is ``type_code[i]``, an index into the
    sorted ``type_names``, and its attributes are row ``row_in_type[i]`` of
    its type's matrix (``type_features``).  Edges are kept exactly as
    ingested, as the parallel arrays ``src``, ``dst`` and ``edge_code`` (an
    index into ``edge_names``, the schema's order).  Neighbor CSRs and their
    degree orders, edge keys and degrees are built from those arrays on first use.
    """

    @classmethod
    def from_columns(cls, schema: Schema, ids: list[str], types: Sequence[str],
                     values: np.ndarray, widths: np.ndarray,
                     edges: Sequence[Sequence[str]]) -> HetGraph:
        """The graph of nodes given column-wise: node i's attribute vector is the
        next ``widths[i]`` entries of ``values``, the vectors laid end to end in
        node order.  ``edges`` holds (source id, target id, type) records."""
        graph = cls.__new__(cls)
        graph._build(schema, ids, types, values, widths, edges)
        return graph

    def _build(self, schema, ids, types, values, widths, edges) -> None:
        """Validate every node, then every edge; the first violation raises."""
        self.schema = schema
        self.type_names: tuple[str, ...] = tuple(sorted(schema.node_types))
        self.edge_names: tuple[str, ...] = tuple(schema.edge_types)
        sources, targets, etypes = zip(*edges) if len(edges) else ((), (), ())
        n, m = len(ids), len(sources)
        self._n = n
        self.ids: list[str] = ids
        self.index: dict[str, int] = dict(zip(ids, range(n)))

        code_of = {t: k for k, t in enumerate(self.type_names)}
        code = np.fromiter(map(code_of.get, types, repeat(-1)), np.intp, n)
        dims = np.array([schema.node_types[t] for t in self.type_names] + [-1])
        duplicate = np.zeros(n, dtype=bool)
        if len(self.index) != n:
            first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
            duplicate = np.fromiter(map(first.__getitem__, ids), np.intp, n) != np.arange(n)
        bad = np.flatnonzero((code < 0) | duplicate | (widths != dims[code]))
        if bad.size:
            k = bad[0]
            if code[k] < 0:
                raise UnknownType(f"node {ids[k]!r} has undeclared type {types[k]!r}")
            if duplicate[k]:
                raise DuplicateNodeId(f"node id {ids[k]!r} appears twice")
            raise DimensionMismatch(
                f"node {ids[k]!r}: expected {dims[code[k]]} "
                f"attributes for type {types[k]!r}, got {widths[k]}")

        ecode_of = {r: k for k, r in enumerate(self.edge_names)}
        ecode = np.fromiter(map(ecode_of.get, etypes, repeat(-1)), np.intp, m)
        src = np.fromiter(map(self.index.get, sources, repeat(-1)), np.intp, m)
        dst = np.fromiter(map(self.index.get, targets, repeat(-1)), np.intp, m)
        # index -1 (an unknown edge type or node id) reads a sentinel that matches nothing
        ends = np.array([[code_of[et.source], code_of[et.target]]
                         for et in schema.edge_types.values()] + [[-3, -3]], dtype=np.intp)
        codes = np.append(code, -2)
        bad = np.flatnonzero((codes[src] != ends[ecode, 0]) | (codes[dst] != ends[ecode, 1]))
        if bad.size:
            k = bad[0]
            s, t, etype = sources[k], targets[k], etypes[k]
            if ecode[k] < 0:
                raise UnknownType(f"edge ({s!r}, {t!r}) has undeclared type {etype!r}")
            if src[k] < 0:
                raise DanglingEdge(f"edge references missing node id {s!r}")
            if dst[k] < 0:
                raise DanglingEdge(f"edge references missing node id {t!r}")
            et = schema.edge_types[etype]
            raise UnknownType(
                f"edge type {etype!r} expects ({et.source} -> {et.target}), "
                f"got ({types[src[k]]} -> {types[dst[k]]})")

        self.type_code = code
        self.src, self.dst, self.edge_code = src, dst, ecode
        self._degree_orders: dict[tuple[str | None, bool], np.ndarray] = {}
        self.row_in_type = np.empty(n, dtype=np.intp)
        starts = np.cumsum(widths) - widths
        self._features: dict[str, np.ndarray] = {}
        for k, t in enumerate(self.type_names):
            members = np.flatnonzero(code == k)
            self.row_in_type[members] = np.arange(members.size)
            self._features[t] = values[starts[members, None] + np.arange(dims[k])]

    # --- structure accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def nodes_of_type(self, node_type: str) -> list[int]:
        if node_type not in self.schema.node_types:
            return []
        return np.flatnonzero(self.type_code == self.type_names.index(node_type)).tolist()

    def company_nodes(self) -> list[int]:
        return self.nodes_of_type(self.schema.company_type)

    @cached_property
    def types(self) -> list[str]:
        """Each node's type name."""
        return list(map(self.type_names.__getitem__, self.type_code.tolist()))

    @cached_property
    def edges(self) -> list[tuple[int, int, str]]:
        """The edges as ingested: (source, target, edge type) triples."""
        return list(zip(self.src.tolist(), self.dst.tolist(),
                        map(self.edge_names.__getitem__, self.edge_code.tolist())))

    @cached_property
    def _edge_keys(self) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per edge type, the sorted distinct ``source * n + target`` keys of its
        edges, of its reversed edges, and of the pairs ``has_edges`` accepts (both
        for an undirected type) closed by ``n * n``, which is above every key."""
        n, keys = self._n, {}
        for k, r in enumerate(self.edge_names):
            s, t = self.src[self.edge_code == k], self.dst[self.edge_code == k]
            fwd, bwd = np.unique(s * n + t), np.unique(t * n + s)
            either = fwd if self.schema.edge_types[r].directed else np.union1d(fwd, bwd)
            keys[r] = fwd, bwd, np.append(either, n * n)
        return keys

    @cached_property
    def _typed_csr(self) -> dict[str, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Per edge type, the out- and the in-neighbor CSR; for an undirected
        type both are the CSR of its edges either way."""
        n, csr = self._n, {}
        for r, (fwd, bwd, either) in self._edge_keys.items():
            directed = self.schema.edge_types[r].directed
            csr[r] = (_csr(fwd, n), _csr(bwd, n)) if directed else (_csr(either[:-1], n),) * 2
        return csr

    @cached_property
    def _any_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR of every edge, of any type, either way."""
        n = self._n
        return _csr(np.unique(np.concatenate((self.src * n + self.dst, self.dst * n + self.src))), n)

    def has_edges(self, s: np.ndarray, t: np.ndarray, etype: str) -> np.ndarray:
        """For each pair of the source and target arrays, True if the typed edge
        exists; undirected types match either way."""
        keys, key = self._edge_keys[etype][2], s * self._n + t
        return keys[keys.searchsorted(key)] == key

    def adjacency(self, etype: str | None, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The CSR ``(ptr, idx)`` of the pairs ``has_edges`` accepts: node i's
        distinct ``etype`` targets (sources when ``reverse``; both for an
        undirected type) are ``idx[ptr[i]:ptr[i + 1]]``, ascending.  With
        ``etype`` None they are the nodes sharing an edge of any type with i."""
        return self._any_csr if etype is None else self._typed_csr[etype][reverse]

    def degree_order(self, etype: str | None, reverse: bool = False) -> np.ndarray:
        """The nodes with a neighbor in ``adjacency(etype, reverse)``, most first; built once."""
        if (etype, reverse) not in self._degree_orders:
            deg = np.diff(self.adjacency(etype, reverse)[0])
            self._degree_orders[etype, reverse] = np.argsort(-deg, kind="stable")[:np.count_nonzero(deg)]
        return self._degree_orders[etype, reverse]

    @cached_property
    def edge_degrees(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per edge type, every node's (out-degree, in-degree) as two arrays.

        Parallel edges count once each.
        """
        n = len(self)
        return {r: (np.bincount(self.src[self.edge_code == k], minlength=n),
                    np.bincount(self.dst[self.edge_code == k], minlength=n))
                for k, r in enumerate(self.edge_names)}

    @cached_property
    def x(self) -> tuple[np.ndarray, ...]:
        """Each node's attribute vector: a view of its row in ``type_features``."""
        rows = [self._features[t] for t in self.type_names]
        return tuple(rows[c][r] for c, r in zip(self.type_code.tolist(),
                                                 self.row_in_type.tolist()))

    def type_features(self, node_type: str) -> np.ndarray:
        """Attributes of every node of the type as one matrix, rows by ``row_in_type``."""
        return self._features[node_type]


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r's columns are ``idx[ptr[r]:ptr[r + 1]]`` for sorted distinct ``r * n + column`` keys."""
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n


# --- operations ----------------------------------------------------------------

def degree_histogram(graph: HetGraph) -> list[tuple[int, int]]:
    """Exact-degree bins of undirected total degree; counts sum to |V|."""
    degrees = np.bincount(np.concatenate((graph.src, graph.dst)), minlength=len(graph))
    hist = np.bincount(degrees)
    present = np.flatnonzero(hist)
    return list(zip(present.tolist(), hist[present].tolist()))


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
    """Read ``schema.json``; a file that is not a schema raises ``DimensionMismatch`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise DimensionMismatch(f"schema file {path}: not JSON ({exc})") from exc
    for key in ("node_types", "edge_types"):
        if not isinstance(raw, dict) or not isinstance(raw.get(key), dict):
            raise DimensionMismatch(f"schema file {path}: needs a {key!r} object")
    node_types: dict[str, int] = {}
    for name, spec in raw["node_types"].items():
        try:
            node_types[name] = int(spec["dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatch(
                f"schema node type {name!r} needs an integer 'dim'") from exc
    edge_types: dict[str, EdgeType] = {}
    for name, spec in raw["edge_types"].items():
        if not (isinstance(spec, dict) and "source" in spec and "target" in spec):
            raise DimensionMismatch(
                f"schema file {path}: edge type {name!r} needs a 'source' and a 'target'")
        edge_types[name] = EdgeType(spec["source"], spec["target"],
                                    bool(spec.get("directed", True)))
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
    write_text(path, json.dumps(raw, indent=2, sort_keys=True) + "\n")


def _read_records(path: str | os.PathLike) -> tuple[list[str] | None, list[list[str]]]:
    """A CSV file's header, then its records, blank ones (``[]``) too: record k is on line k + 2.

    Bytes that are not UTF-8 raise ``DimensionMismatch`` naming the file and line.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            return next(reader, None), list(reader)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:  # the reader decodes in chunks: locate the bad bytes in the whole file
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DimensionMismatch(f"{path} line {line}: not UTF-8 ({exc.reason})") from exc
        raise


def load_graph(schema_file: str | os.PathLike, nodes_file: str | os.PathLike,
               edges_file: str | os.PathLike) -> HetGraph:
    """Load and validate; any violation rejects the whole load."""
    schema = load_schema(schema_file)
    header, records = _read_records(nodes_file)
    if header is None or header[:2] != ["id", "type"]:
        raise DimensionMismatch(f"nodes file {nodes_file}: missing 'id,type,...' header")
    widths = np.fromiter(map(len, records), np.intp, len(records))
    nodes = [rec for rec in records if rec]
    tokens = list(chain.from_iterable(rec[2:] for rec in nodes))
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        values = np.array([np.nan])  # not a number: the pass below names the bad token
    if (widths == 1).any() or not np.isfinite(values).all():  # find the first bad line
        for line_no, rec in enumerate(records, start=2):
            if len(rec) == 1:
                raise DimensionMismatch(f"nodes file line {line_no}: too few columns")
            try:
                row = list(map(float, rec[2:]))
            except ValueError as exc:
                raise DimensionMismatch(f"nodes file line {line_no}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise DimensionMismatch(f"nodes file line {line_no}: non-finite attribute")
    header, records = _read_records(edges_file)
    if header != ["source", "target", "type"]:
        raise DimensionMismatch(f"edges file {edges_file}: missing 'source,target,type' header")
    columns = np.fromiter(map(len, records), np.intp, len(records))
    if ((columns != 3) & (columns != 0)).any():
        k = np.flatnonzero((columns != 3) & (columns != 0))[0]
        raise DimensionMismatch(f"edges file line {k + 2}: expected 3 columns, got {columns[k]}")
    return HetGraph.from_columns(
        schema, [rec[0] for rec in nodes], [rec[1] for rec in nodes], values,
        widths[widths > 0] - 2, [rec for rec in records if rec])


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quote(field: str) -> str:
    """A CSV field as ``csv.writer`` writes it, but quoted also when it holds a carriage
    return: the writer leaves that bare, and a reader takes it for a line break."""
    return '"' + field.replace('"', '""') + '"' if _NEEDS_QUOTES.search(field) else field


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write the text as UTF-8, line ends as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def tsv(header: Sequence, rows) -> str:
    """A tab-separated table: the header's fields, then each row's, one line each."""
    return "".join("\t".join(map(str, row)) + "\n" for row in chain([header], rows))


def save_graph(graph: HetGraph, out_dir: str | os.PathLike) -> dict[str, str]:
    """Write schema/nodes/edges files; output is byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in
             (("schema", "schema.json"), ("nodes", "nodes.csv"), ("edges", "edges.csv"))}
    save_schema(graph.schema, paths["schema"])
    ids = list(map(_quote, graph.ids))
    types = list(map(_quote, graph.type_names))
    # a list of floats prints as "[1.0, -0.0]", each value its repr
    attrs = [[str(row)[1:-1].replace(" ", "") for row in graph.type_features(t).tolist()]
             for t in graph.type_names]
    write_text(paths["nodes"], "id,type,attrs\n" + "".join([
        f"{i},{types[c]},{attrs[c][r]}\n" for i, c, r in
        zip(ids, graph.type_code.tolist(), graph.row_in_type.tolist())]))
    etypes = list(map(_quote, graph.edge_names))
    write_text(paths["edges"], "source,target,type\n" + "".join([
        f"{ids[s]},{ids[t]},{etypes[r]}\n" for s, t, r in
        zip(graph.src.tolist(), graph.dst.tolist(), graph.edge_code.tolist())]))
    return paths


def load_labels(path: str | os.PathLike) -> dict[str, int]:
    header, records = _read_records(path)
    if header != ["id", "label"]:
        raise DimensionMismatch(f"labels file {path}: missing 'id,label' header")
    labels: dict[str, int] = {}
    line_of: dict[str, int] = {}
    for line_no, rec in filter(lambda numbered: numbered[1], enumerate(records, start=2)):
        if len(rec) != 2:
            raise DimensionMismatch(
                f"labels file line {line_no}: expected 2 columns, got {len(rec)}")
        if rec[0] in line_of:
            raise DimensionMismatch(f"labels file lines {line_of[rec[0]]} and {line_no}: "
                                    f"id {rec[0]!r} is labeled twice")
        try:
            labels[rec[0]] = int(rec[1])
        except ValueError as exc:
            raise DimensionMismatch(f"labels file line {line_no}: {exc}") from exc
        line_of[rec[0]] = line_no
    return labels


def save_labels(labels: dict[str, int], path: str | os.PathLike) -> None:
    write_text(path, "id,label\n" + "".join(
        [f"{_quote(k)},{int(v)}\n" for k, v in labels.items()]))
