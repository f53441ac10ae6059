"""Typed heterogeneous graph storage, schema validation, flat-file ingestion.

A graph is immutable once loaded: every accessor reads arrays fixed at load
time or structures built once from them on first use.  Loading is
all-or-nothing; any violation aborts before a graph object exists.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

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
    index into the sorted ``edge_names``).  Neighbor CSRs, edge keys and
    degrees are built from those arrays on first use.
    """

    @classmethod
    def from_columns(cls, schema: Schema, ids: list[str], types: Sequence[str],
                     values: np.ndarray, widths: np.ndarray,
                     edges: Sequence[Sequence[str]]) -> HetGraph:
        """The graph of nodes given column-wise: node i's attribute vector is the
        next ``widths[i]`` entries of ``values``, the vectors laid end to end in
        node order.  ``edges`` holds (source id, target id, type) records."""
        index = dict(zip(ids, range(len(ids))))
        names = (types, *(zip(*edges) if len(edges) else ((), (), ())))
        lookups = ({t: k for k, t in enumerate(sorted(schema.node_types))}, index, index,
                   {r: k for k, r in enumerate(sorted(schema.edge_types))})
        codes = [np.fromiter(map(d.get, col, repeat(-1)), np.intp, len(col))
                 for d, col in zip(lookups, names)]
        return cls.__new__(cls)._build(schema, ids, index, *codes, values, widths, names)

    def _build(self, schema, ids, index, code, src, dst, ecode, values, widths,
               names=None) -> HetGraph | None:
        """Check the coded nodes, then the coded edges, and keep them (``widths`` None: each
        type's dimension).  The first violation raises, quoting ``names`` (types, sources,
        targets, edge types); with no names, it or a bad ``values`` block returns None."""
        n = len(ids)
        self.schema, self.ids, self.index, self._n = schema, ids, index, n
        self.type_names: tuple[str, ...] = tuple(sorted(schema.node_types))
        self.edge_names: tuple[str, ...] = tuple(sorted(schema.edge_types))
        dims = np.array([schema.node_types[t] for t in self.type_names] + [-1])
        # a code or node index out of range, clipped to -1 or past the end, reads a sentinel
        code = np.clip(code, -1, len(self.type_names))
        widths = dims[code] if widths is None else widths
        duplicate = np.zeros(n, dtype=bool)
        if len(index) != n:
            first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
            duplicate = np.fromiter(map(first.__getitem__, ids), np.intp, n) != np.arange(n)
        bad = np.flatnonzero((dims[code] < 0) | duplicate | (widths != dims[code]))
        ends = np.array([[self.type_names.index(schema.edge_types[r].source),
                          self.type_names.index(schema.edge_types[r].target)]
                         for r in self.edge_names] + [[-3, -3]], dtype=np.intp)
        codes, ecode = np.append(code, -2), np.clip(ecode, -1, len(self.edge_names))
        src, dst = np.clip(src, -1, n), np.clip(dst, -1, n)
        bad_edge = np.flatnonzero((codes[src] != ends[ecode, 0]) | (codes[dst] != ends[ecode, 1]))
        if names is None:
            if (bad.size or bad_edge.size or values.size != widths.sum()
                    or not np.isfinite(values).all()):
                return None
        elif bad.size:
            k, types = bad[0], names[0]
            if dims[code[k]] < 0:
                raise UnknownType(f"node {ids[k]!r} has undeclared type {types[k]!r}")
            if duplicate[k]:
                raise DuplicateNodeId(f"node id {ids[k]!r} appears twice")
            raise DimensionMismatch(
                f"node {ids[k]!r}: expected {dims[code[k]]} "
                f"attributes for type {types[k]!r}, got {widths[k]}")
        elif bad_edge.size:
            k = bad_edge[0]
            types, s, t, etype = names[0], names[1][k], names[2][k], names[3][k]
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
        self.row_in_type = np.empty(n, dtype=np.intp)
        starts = np.cumsum(widths) - widths
        self._features: dict[str, np.ndarray] = {}
        for k, t in enumerate(self.type_names):
            members = np.flatnonzero(code == k)
            self.row_in_type[members] = np.arange(members.size)
            self._features[t] = values[starts[members, None] + np.arange(dims[k])]
        return self

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
            fwd, bwd = distinct(s * n + t), distinct(t * n + s)
            either = fwd if self.schema.edge_types[r].directed else distinct(np.r_[fwd, bwd])
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
        return _csr(distinct(np.concatenate((self.src * n + self.dst, self.dst * n + self.src))), n)

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


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a`` in its dtype, as ``np.unique`` returns them, from
    one sort and a neighbour mask: numpy 2.4's ``np.unique`` hashes, many times slower."""
    a = np.sort(a, axis=None)
    return a[np.append(True, a[1:] != a[:-1])[:a.size]]


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


def validate_labels(graph: HetGraph, labels: dict[str, int]) -> list[str]:
    """List violations instead of raising: unknown ids, non-company nodes, bad values."""
    violations = []
    company = graph.schema.company_type
    for node_id, y in labels.items():
        if node_id not in graph.index:
            violations.append(f"label on unknown node id {node_id!r}")
            continue
        t = graph.types[graph.index[node_id]]
        if t != company:
            violations.append(f"label on node {node_id!r} of type {t!r} "
                              f"(only {company!r} may be labeled)")
        if y not in (0, 1):
            violations.append(f"label for {node_id!r} must be 0 or 1, got {y!r}")
    return violations


def labels_to_indices(graph: HetGraph, labels: dict[str, int]) -> dict[int, int]:
    return {graph.index[k]: int(v) for k, v in labels.items()}


# --- flat-file formats ----------------------------------------------------------
#
# schema.json : {"company_type": ..., "node_types": {name: {"dim": int}},
#                "edge_types": {name: {"source":, "target":, "directed": bool}}}
# nodes.csv   : header "id,type,attrs"; each row: id, type, then dim(type) values
# edges.csv   : header "source,target,type"
# labels.csv  : header "id,label"
# graph.bin   : the arrays of the other three, written beside them by ``save_graph``
#               and keyed by their bytes (layout in ``_sidecar_bytes``)

GRAPH_FILES = ("schema.json", "nodes.csv", "edges.csv")
SIDECAR = "graph.bin"
MAGIC = b"rptdetect graph.bin 1\n"


def read_json(path: str | os.PathLike, what: str, error: type[Exception],
              data: bytes | None = None):
    """The JSON in the file, or in ``data``, its bytes when already read, decoded as a
    file opened in text mode is; text that is not JSON raises ``error`` naming ``what``."""
    try:
        return json.loads(io.StringIO((Path(path).read_bytes() if data is None else data)
                                      .decode("utf-8"), newline=None).read())
    except ValueError as exc:
        raise error(f"{what} {path}: not JSON ({exc})") from exc


def load_schema(path: str | os.PathLike, data: bytes | None = None) -> Schema:
    """Read ``schema.json``, or parse its bytes when already read; a file that is not a
    schema raises ``DimensionMismatch`` naming it."""
    raw = read_json(path, "schema file", DimensionMismatch, data)
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


def _read_records(path: str | os.PathLike,
                  data: bytes | None = None) -> tuple[list[str] | None, list[list[str]]]:
    """A CSV file's (or its bytes' when already read) header, then its records, blank ones
    (``[]``) too: record k is on line k + 2.  Bytes that are not UTF-8 raise
    ``DimensionMismatch`` naming the file and line."""
    data = Path(path).read_bytes() if data is None else data
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DimensionMismatch(f"{path} line {line}: not UTF-8 ({exc.reason})") from exc
    enabled = gc.isenabled()
    gc.disable()  # the records hold no cycles: collections would only scan them
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        return next(reader, None), list(reader)
    finally:
        if enabled:
            gc.enable()


def _key(files: Iterable[bytes]) -> bytes:
    """sha256 over the files' bytes, each prefixed by its length, hashed one at a time."""
    key = hashlib.sha256()
    for f in files:
        key.update(len(f).to_bytes(8, "little"))
        key.update(f)
        del f
    return key.digest()


def _sidecar_bytes(graph: HetGraph, key: bytes) -> bytes:
    """The ``graph.bin`` of the graph saved as files whose ``_key`` is ``key``: MAGIC, the key,
    the sha256 of the rest, the header's length, the header (JSON:
    the edge count and the ids), ``type_code``, ``src``, ``dst`` and ``edge_code`` as
    ``<i8``, then the attribute values in node order as ``<f8`` up to the end."""
    widths = np.array([graph.schema.node_types[t] for t in graph.type_names])[graph.type_code]
    starts, values = np.cumsum(widths) - widths, np.empty(widths.sum(), "<f8")
    for k, rows in enumerate(map(graph.type_features, graph.type_names)):
        values[starts[graph.type_code == k, None] + np.arange(rows.shape[1])] = rows
    header = json.dumps({"edges": len(graph.src), "ids": graph.ids},
                        separators=(",", ":")).encode("ascii")
    codes = np.concatenate([graph.type_code, graph.src, graph.dst, graph.edge_code]).astype("<i8")
    rest = len(header).to_bytes(8, "little") + header + codes.tobytes() + values.tobytes()
    return MAGIC + key + hashlib.sha256(rest).digest() + rest


def _load_sidecar(path: str, schema: Schema, files: Sequence[bytes]) -> HetGraph | None:
    """The graph ``save_graph`` wrote whole to ``path`` with exactly ``files``; else None."""
    start = len(MAGIC) + 72
    try:
        data = Path(path).read_bytes()
        if data[:start - 8] != MAGIC + _key(files) + hashlib.sha256(data[start - 8:]).digest():
            return None
        end = start + int.from_bytes(data[start - 8:start], "little")
        header = json.loads(data[start:end])
        ids, m = header["ids"], header["edges"]
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                and m >= 0):
            return None
        n = len(ids)
        codes = np.frombuffer(data, "<i8", n + 3 * m, end)
        values = np.frombuffer(data, "<f8", offset=end + codes.nbytes)
        return HetGraph.__new__(HetGraph)._build(schema, ids, dict(zip(ids, range(n))),
                                                 *np.split(codes, [n, n + m, n + 2 * m]),
                                                 values, None)
    except (OSError, ValueError, TypeError, KeyError):
        return None


def load_graph(schema_file: str | os.PathLike, nodes_file: str | os.PathLike,
               edges_file: str | os.PathLike) -> HetGraph:
    """Load and validate; any violation rejects the whole load.  A ``graph.bin`` written
    with exactly these files stands in for the CSV parse, after the same checks."""
    sidecar = os.path.join(os.path.dirname(nodes_file), SIDECAR)
    files = ([Path(p).read_bytes() for p in (schema_file, nodes_file, edges_file)]
             if os.path.isfile(sidecar) else [None] * 3)
    schema = load_schema(schema_file, files[0])
    graph = None if files[0] is None else _load_sidecar(sidecar, schema, files)
    if graph is not None:
        return graph
    header, records = _read_records(nodes_file, files[1])
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
    header, records = _read_records(edges_file, files[2])
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


def _quote_all(fields: Sequence[str]) -> Sequence[str]:
    """``_quote`` of each field, after one search over all of them: most need none."""
    return list(map(_quote, fields)) if _NEEDS_QUOTES.search("".join(fields)) else fields


def tsv(header: Sequence, rows) -> str:
    """A tab-separated table: the header's fields, then each row's, one line each."""
    return "".join("\t".join(map(str, row)) + "\n" for row in chain([header], rows))


def save_graph(graph: HetGraph, out_dir: str | os.PathLike) -> dict[str, str]:
    """Write schema/nodes/edges files, then their ``graph.bin``; output is byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in
             zip(("schema", "nodes", "edges", "sidecar"), GRAPH_FILES + (SIDECAR,))}
    schema = graph.schema
    raw = {
        "company_type": schema.company_type,
        "node_types": {name: {"dim": dim} for name, dim in schema.node_types.items()},
        "edge_types": {
            name: {"source": et.source, "target": et.target, "directed": et.directed}
            for name, et in schema.edge_types.items()
        },
    }
    ids, types, etypes = map(_quote_all, (graph.ids, graph.type_names, graph.edge_names))

    def nodes() -> str:
        attrs = [[",".join(map(repr, row)) for row in graph.type_features(t).tolist()]
                 for t in graph.type_names]
        return "".join(chain(["id,type,attrs\n"], [
            f"{i},{types[c]},{attrs[c][r]}\n" for i, c, r in
            zip(ids, graph.type_code.tolist(), graph.row_in_type.tolist())]))

    def edges() -> str:
        return "".join(chain(["source,target,type\n"], [
            f"{ids[s]},{ids[t]},{etypes[r]}\n" for s, t, r in
            zip(graph.src.tolist(), graph.dst.tolist(), graph.edge_code.tolist())]))

    def written():  # each file's bytes, dropped before the next file's text is built
        for path, text in zip(paths.values(), (
                lambda: json.dumps(raw, indent=2, sort_keys=True) + "\n", nodes, edges)):
            data = text().encode("utf-8")
            Path(path).write_bytes(data)
            yield data
            del data

    Path(paths["sidecar"]).write_bytes(_sidecar_bytes(graph, _key(written())))
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
    Path(path).write_text("id,label\n" + "".join(
        [f"{k},{int(v)}\n" for k, v in zip(_quote_all(list(labels)), labels.values())]),
        encoding="utf-8", newline="")
