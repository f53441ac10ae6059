"""Graph storage, ingestion validation, and histogram tests."""

import csv
import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from rptdetect import hetgraph
from rptdetect.errors import (
    DanglingEdge,
    DimensionMismatch,
    DuplicateNodeId,
    UnknownType,
)
from rptdetect.hetgraph import (
    EdgeType,
    Schema,
    degree_histogram,
    load_graph,
    load_labels,
    save_graph,
    save_labels,
    validate_labels,
)
from rptdetect.synth import GenConfig, generate, scaled_config

from conftest import (
    adjacency_corner_graph,
    assert_same_graph,
    criterion_3_graphs,
    edge_degrees,
    hub_graph,
    load_both,
    make_graph,
    node_types,
    node_x,
    random_typed_graph,
    small_schema,
    tax_schema,
)


def test_minimal_graph_loads():
    g = make_graph(small_schema(), [("jay", "person"), ("acme", "company")],
                   [("jay", "acme", "invest")])
    assert len(g) == 2
    assert len(g.edges) == 1
    assert node_types(g)[g.index["jay"]] == "person"


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
    nodes = [("c0", "company"), ("i0", "item"), ("p0", "person"), ("c1", "company"),
             ("p1", "person")]
    g = make_graph(tax_schema(), [(i, t, np.full(2, float(k)))
                                  for k, (i, t) in enumerate(nodes)], [])
    assert g.type_names == ("company", "event", "item", "person")
    for i, (_, t) in enumerate(nodes):
        assert g.type_names[g.type_code[i]] == t
        assert g.nodes_of_type(t)[g.row_in_type[i]] == i
        np.testing.assert_array_equal(g.type_features(t)[g.row_in_type[i]], node_x(g, i))
        np.testing.assert_array_equal(node_x(g, i), [float(i), float(i)])
    assert g.type_features("event").shape == (0, 2)
    np.testing.assert_array_equal(g.type_features("person"), [[2.0, 2.0], [4.0, 4.0]])


def test_type_mask_equals_a_comparison_of_each_nodes_type_name():
    corner, _ = adjacency_corner_graph()
    for g in (*criterion_3_graphs(), hub_graph(), corner):  # some declare a type with no node
        types = node_types(g)
        for t in g.schema.node_types:
            mask = g.type_mask(t)
            assert mask.dtype == bool and mask.tolist() == [u == t for u in types]
            assert g.nodes_of_type(t) == np.flatnonzero(mask).tolist()
        # a type the schema lacks: no node, as nodes_of_type gives none
        assert g.type_mask("no-such-type").tolist() == [False] * len(g)
        assert g.nodes_of_type("no-such-type") == []


@pytest.mark.parametrize("which", ["corners", "random"])
def test_adjacency_matches_a_scan_of_the_edge_list(which):
    if which == "corners":
        g, raw = adjacency_corner_graph()
        assert g.edges == [(g.index[s], g.index[t], r) for s, t, r in raw]
    else:
        g = random_typed_graph(np.random.default_rng(3), 6, 5, 4, edge_rate=0.3)
    n = len(g)

    def rows(ptr, idx):
        assert ptr.shape == (n + 1,) and ptr[0] == 0 and ptr[-1] == len(idx)
        return [idx[ptr[i]:ptr[i + 1]].tolist() for i in range(n)]

    for r, et in g.schema.edge_types.items():
        out_deg, in_deg = edge_degrees(g)[r]
        out_rows, in_rows = rows(*g.adjacency(r)), rows(*g.adjacency(r, True))
        for i in range(n):
            out_edges = [t for s, t, e in g.edges if s == i and e == r]
            in_edges = [s for s, t, e in g.edges if t == i and e == r]
            assert (out_deg[i], in_deg[i]) == (len(out_edges), len(in_edges))
            either = out_edges + in_edges  # an undirected type's CSRs hold both ways
            assert out_rows[i] == sorted(set(out_edges if et.directed else either))
            assert in_rows[i] == sorted(set(in_edges if et.directed else either))
            for j in range(n):
                want = any(e == r and ((s, t) == (i, j) or (not et.directed and (s, t) == (j, i)))
                           for s, t, e in g.edges)
                assert g.has_edges(np.array([i]), np.array([j]), r).tolist() == [want], (i, j, r)
    any_rows = rows(*g.adjacency(None))
    for i in range(n):
        assert any_rows[i] == sorted({t for s, t, _ in g.edges if s == i}
                                     | {s for s, t, _ in g.edges if t == i})
    if which == "corners":
        assert rows(*g.adjacency("transaction"))[g.index["c0"]] == [g.index["c1"]]
        assert any_rows[g.index["c4"]] == [] and any_rows[g.index["i0"]] == []
        assert g.has_edges(np.array([g.index["c3"]]), np.array([g.index["c1"]]),
                           "partner").tolist() == [True]


NODES_HEADER = "id,type,attrs\n"
EDGES_HEADER = "source,target,type\n"
GOOD_NODES = "a,company,1,2\nb,company,3,4\nj,person,5,6\n"
GOOD_EDGES = "j,a,invest\na,b,transaction\n"


@pytest.mark.parametrize("nodes,edges,error,message", [
    (GOOD_NODES + "c,company,inf,1\nd,company\n", GOOD_EDGES, DimensionMismatch,
     "nodes file line 5: non-finite attribute"),
    (GOOD_NODES + "c,company,x,1\nd,company,nan,1\n", GOOD_EDGES, DimensionMismatch,
     "nodes file line 5: could not convert string to float: 'x'"),
    ("a\n" + GOOD_NODES + "c,company,x,1\n", GOOD_EDGES, DimensionMismatch,
     "nodes file line 2: too few columns"),
    ("\n" + GOOD_NODES + "\nc,company,nan,1\n", GOOD_EDGES, DimensionMismatch,
     "nodes file line 7: non-finite attribute"),
    (GOOD_NODES + "a,person,1,2\nz,alien,1,2\n", "a,b\n", DimensionMismatch,
     "edges file line 2: expected 3 columns, got 2"),
    (GOOD_NODES + "a,person,1,2\nz,alien,1,2\n", GOOD_EDGES, DuplicateNodeId,
     "node id 'a' appears twice"),
    (GOOD_NODES + "z,alien,1,2\na,person,1,2\n", GOOD_EDGES, UnknownType,
     "node 'z' has undeclared type 'alien'"),
    (GOOD_NODES + "c,company,1\na,person,1,2\n", GOOD_EDGES, DimensionMismatch,
     "node 'c': expected 2 attributes for type 'company', got 1"),
    (GOOD_NODES, GOOD_EDGES + "a,j,transaction\nghost,a,invest\n", UnknownType,
     "edge type 'transaction' expects (company -> company), got (company -> person)"),
    (GOOD_NODES, GOOD_EDGES + "a,ghost,transaction\na,j,transaction\n", DanglingEdge,
     "edge references missing node id 'ghost'"),
    (GOOD_NODES, GOOD_EDGES + "a,b,partner\nghost,a,invest\n", UnknownType,
     "edge ('a', 'b') has undeclared type 'partner'"),
    (GOOD_NODES, GOOD_EDGES + "\na,b\nghost,a\n", DimensionMismatch,
     "edges file line 5: expected 3 columns, got 2"),
], ids=["non-finite-first", "bad-float-first", "short-first", "blank-lines-count",
        "edges-file-before-node-checks", "duplicate-first", "unknown-type-first",
        "width-first", "endpoint-first", "dangling-first", "edge-type-first",
        "short-edge-after-blank"])
def test_load_reports_the_first_violation_in_file_order(tmp_path, nodes, edges, error, message):
    g = make_graph(small_schema(), [("a", "company")], [])
    paths = save_graph(g, tmp_path)
    (tmp_path / "nodes.csv").write_text(NODES_HEADER + nodes)
    (tmp_path / "edges.csv").write_text(EDGES_HEADER + edges)
    with pytest.raises(error) as exc:
        load_graph(paths["schema"], paths["nodes"], paths["edges"])
    assert str(exc.value).startswith(message)


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
        make_graph(schema, [("x", "alien", np.zeros(2))], [])


def test_edge_endpoint_type_checked():
    with pytest.raises(UnknownType):
        make_graph(small_schema(), [("a", "company"), ("b", "company")],
                   [("a", "b", "invest")])  # invest needs a person source


def test_duplicate_node_id_rejected():
    schema = small_schema()
    with pytest.raises(DuplicateNodeId):
        make_graph(schema, [("a", "company", np.zeros(2)),
                            ("a", "company", np.zeros(2))], [])


def test_dimension_mismatch_rejected():
    schema = small_schema(dim=3)
    with pytest.raises(DimensionMismatch):
        make_graph(schema, [("a", "company", np.zeros(2))], [])


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
    # serialize the reloaded graph once more: byte-identical files
    second = tmp_path / "again"
    paths2 = save_graph(again, second)
    for key in ("schema", "nodes", "edges"):
        assert open(paths[key], "rb").read() == open(paths2[key], "rb").read()


def csv_writer_bytes(rows) -> bytes:
    """``csv.writer``'s rows, each ended by ``\\n``.  The writer is given ``\\r\\n`` as
    its terminator, so it quotes a field holding either character: with ``\\n``
    alone it leaves a carriage return bare, and readers take that for a line end."""
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out).encode("utf-8")


ODD_NAMES = ["a,b", 'say "hi"', "two\nlines", "cr\rid", " spaced out ", "näive-ü", "", "plain"]


def odd_graph():
    """A graph whose ids, type names and values need quoting or exact float text, with
    its (id, type, values) nodes and (source, target, type) edges."""
    schema = Schema(node_types={"co,mpany": 5, 'pé "rson"': 1},
                    edge_types={"in\nvest": EdgeType('pé "rson"', "co,mpany"),
                                "trans action": EdgeType("co,mpany", "co,mpany", directed=False)},
                    company_type="co,mpany")
    values = [-0.0, 5e-324, 1e16, 1e-05, 0.1]
    nodes = ([(name, "co,mpany", np.array(values[k:] + values[:k]))
              for k, name in enumerate(ODD_NAMES)] + [("p\r,1", 'pé "rson"', np.array([-1.5]))])
    edges = [("p\r,1", name, "in\nvest") for name in ODD_NAMES[::2]] + [
        (a, b, "trans action") for a, b in zip(ODD_NAMES, ODD_NAMES[1:])]
    return make_graph(schema, nodes, edges), nodes, edges


def test_writers_match_csv_writer_on_odd_names_and_values(tmp_path):
    g, nodes, edges = odd_graph()
    paths = save_graph(g, tmp_path)
    want_nodes = [["id", "type", "attrs"]] + [[i, t] + list(map(repr, x.tolist())) for i, t, x in nodes]
    want_edges = [["source", "target", "type"]] + [list(e) for e in edges]
    assert open(paths["nodes"], "rb").read() == csv_writer_bytes(want_nodes)
    assert open(paths["edges"], "rb").read() == csv_writer_bytes(want_edges)
    labels = {name: k % 2 for k, name in enumerate(ODD_NAMES)}
    save_labels(labels, tmp_path / "labels.csv")
    assert (tmp_path / "labels.csv").read_bytes() == csv_writer_bytes(
        [["id", "label"]] + [[k, str(v)] for k, v in labels.items()])
    again = load_graph(paths["schema"], paths["nodes"], paths["edges"])
    assert again.ids == g.ids and node_types(again) == node_types(g) and again.edges == g.edges
    for i in range(len(g)):
        a, b = node_x(again, i), node_x(g, i)
        assert a.tobytes() == b.tobytes()  # -0.0 keeps its sign, 5e-324 its value
    assert load_labels(tmp_path / "labels.csv") == labels


def test_sidecar_load_equals_the_csv_parse_on_odd_ids_and_values(tmp_path, monkeypatch):
    g, _, _ = odd_graph()
    save_graph(g, tmp_path / "data")
    loaded, parsed = load_both(tmp_path / "data", monkeypatch)
    assert_same_graph(loaded, parsed)
    assert_same_graph(loaded, g)


@pytest.mark.parametrize("name,edit", [
    ("nodes.csv", lambda text: text.replace(",1e-05", ",2e-05", 1)),
    ("nodes.csv", lambda text: text + 'extra,"co,mpany",1.0,2.0,3.0,4.0,5.0\n'),
    ("edges.csv", lambda text: text[:text.rindex("\n", 0, -1) + 1]),
    ("schema.json", lambda text: text.replace('"company_type"', '"company_type" ')),
], ids=["node-value", "node-added", "edge-dropped", "schema-whitespace"])
def test_load_sees_an_edit_made_after_save(tmp_path, monkeypatch, name, edit):
    g, _, _ = odd_graph()
    paths = save_graph(g, tmp_path / "data")
    path = tmp_path / "data" / name
    path.write_bytes(edit(path.read_bytes().decode("utf-8")).encode("utf-8"))
    calls = []
    monkeypatch.setattr(hetgraph, "_read_records",
                        lambda *a, _read=hetgraph._read_records: calls.append(a) or _read(*a))
    again = load_graph(paths["schema"], paths["nodes"], paths["edges"])
    assert len(calls) == 2  # the stale sidecar was passed over for the parse
    monkeypatch.undo()
    (tmp_path / "data" / "graph.bin").unlink()
    assert_same_graph(again, load_graph(paths["schema"], paths["nodes"], paths["edges"]))


def sidecar_bytes(files, blocks) -> bytes:
    """``graph.bin`` built from the layout ``hetgraph._write_sidecar`` documents: MAGIC, the
    sha256 of the three files
    each prefixed by its 8-byte length, the sha256 of the rest; then the header's length,
    the header (the edge count and the ids), the type, source, target and edge type codes
    as ``<i8``, the values as ``<f8`` and any ``tail`` bytes."""
    header = json.dumps({"edges": blocks["edges"], "ids": blocks["ids"]},
                        separators=(",", ":")).encode("ascii")
    ints = np.concatenate([np.asarray(blocks[k], "<i8") for k in ("code", "src", "dst", "ecode")])
    rest = (len(header).to_bytes(8, "little") + header + ints.tobytes()
            + np.asarray(blocks["values"], "<f8").tobytes() + blocks.get("tail", b""))
    key = hashlib.sha256(b"".join(len(f).to_bytes(8, "little") + f for f in files)).digest()
    return hetgraph.MAGIC + key + hashlib.sha256(rest).digest() + rest


def set_at(name, k, value):
    def edit(blocks):
        blocks[name][k] = value
    return edit


def shift(name, by):
    def edit(blocks):
        blocks[name] = blocks[name] + by(blocks)
    return edit


# each breaks one check of the load while the key and the digest stay valid
BAD_BLOCKS = {
    "type-code-past-the-end": set_at("code", 4, 2),
    "negative-type-code": set_at("code", 2, -7),
    "node-of-another-type": set_at("code", 0, 1),
    "edge-code-past-the-end": shift("ecode", lambda b: 2),
    "negative-edge-code": shift("ecode", lambda b: -2),
    "edge-code-of-another-type": shift("ecode", lambda b: 1 - 2 * b["ecode"]),
    "endpoint-past-the-end": shift("dst", lambda b: len(b["ids"])),
    "negative-endpoint": shift("src", lambda b: -len(b["ids"])),
    "endpoint-of-another-type": shift("src", lambda b: b["dst"] - b["src"]),
    "duplicate-id": set_at("ids", 0, "plain"),
    "non-finite-value": set_at("values", 3, np.nan),
    "values-short": lambda b: b.update(values=b["values"][:-1]),
    "values-long": lambda b: b.update(values=np.append(b["values"], 1.0)),
    "values-ragged": lambda b: b.update(tail=b"\0\0\0"),
    "codes-short": lambda b: b.update(code=b["code"][:-1]),
    "edges-uneven": lambda b: b.update(dst=b["dst"][:-1]),
    "edge-count-high": lambda b: b.update(edges=b["edges"] + 1),
    # read as one type code for ten ids and no edge, the values sized for that code
    "edge-count-negative": lambda b: b.update(ids=b["ids"] + ["spare"], edges=-3,
                                              code=b["code"][:1], src=[], dst=[], ecode=[],
                                              values=b["values"][:5]),
    "edge-count-not-an-integer": lambda b: b.update(edges=float(b["edges"])),
    "ids-not-a-list": lambda b: b.update(ids={i: 0 for i in b["ids"]}),
    "ids-not-text": lambda b: b.update(ids=list(range(len(b["ids"])))),
}


@pytest.mark.parametrize("breaks", [None, *BAD_BLOCKS], ids=["unchanged", *BAD_BLOCKS])
def test_sidecar_arrays_that_break_a_load_check_give_way_to_the_parse(tmp_path, monkeypatch,
                                                                      breaks):
    g, nodes, _ = odd_graph()
    paths = save_graph(g, tmp_path / "data")
    files = [open(paths[k], "rb").read() for k in ("schema", "nodes", "edges")]
    blocks = {"ids": list(g.ids), "edges": len(g.src), "code": g.type_code.copy(),
              "src": g.src.copy(), "dst": g.dst.copy(), "ecode": g.edge_code.copy(),
              "values": np.concatenate([values for _, _, values in nodes])}
    if breaks is None:  # the layout as documented is the layout written
        assert sidecar_bytes(files, blocks) == open(paths["sidecar"], "rb").read()
        loaded, parsed = load_both(tmp_path / "data", monkeypatch)
        assert_same_graph(loaded, parsed)
        return
    BAD_BLOCKS[breaks](blocks)
    open(paths["sidecar"], "wb").write(sidecar_bytes(files, blocks))
    parses = []
    monkeypatch.setattr(hetgraph, "_read_records",
                        lambda *a, _read=hetgraph._read_records: parses.append(a) or _read(*a))
    assert_same_graph(load_graph(paths["schema"], paths["nodes"], paths["edges"]), g)
    assert len(parses) == 2


def ghost_graph(n: int = 40):
    """A graph of n nodes, persons and companies interleaved (every third node a person,
    investing in the next two), whose schema also declares a node type ("ghost") and an
    edge type ("haunts") that hold nothing; with its (id, type, values) nodes and
    (source, target, type) edges."""
    schema = Schema(node_types={"company": 2, "person": 2, "ghost": 1},
                    edge_types={"invest": EdgeType("person", "company"),
                                "haunts": EdgeType("ghost", "ghost")})
    values = np.random.default_rng(4).normal(size=(n, 2))
    nodes = [(f"n{k:05d}", "company" if k % 3 else "person", values[k]) for k in range(n)]
    edges = [(f"n{k:05d}", f"n{t:05d}", "invest")
             for k in range(0, n, 3) for t in (k + 1, k + 2) if t < n]
    return make_graph(schema, nodes, edges), nodes, edges


@pytest.mark.parametrize("block", [1, 3, 10**6])
@pytest.mark.parametrize("build", [odd_graph, ghost_graph])
def test_every_block_size_writes_the_same_bytes(tmp_path, monkeypatch, build, block):
    """Blocks of one row, of three (types mixed within a block) and of more rows than
    any file has give the rows ``csv.writer`` writes and the documented sidecar."""
    g, nodes, edges = build()
    monkeypatch.setattr(hetgraph, "BLOCK", block)
    paths = save_graph(g, tmp_path / "data")
    files = [open(paths[k], "rb").read() for k in ("schema", "nodes", "edges")]
    assert files[1] == csv_writer_bytes([["id", "type", "attrs"]] + [
        [i, t, *map(repr, x.tolist())] for i, t, x in nodes])
    assert files[2] == csv_writer_bytes([["source", "target", "type"]] + [list(e) for e in edges])
    blocks = {"ids": list(g.ids), "edges": len(g.src), "code": g.type_code, "src": g.src,
              "dst": g.dst, "ecode": g.edge_code,
              "values": np.concatenate([np.ravel(x) for *_, x in nodes])}
    assert open(paths["sidecar"], "rb").read() == sidecar_bytes(files, blocks)
    loaded, parsed = load_both(tmp_path / "data", monkeypatch)
    assert_same_graph(loaded, g)
    assert_same_graph(parsed, g)


def move_a_target(data: bytes) -> bytes:
    """The last edge whose target ``n...k`` ends in a digit below 9 and is the first of its
    person's two companies, pointed at the second: a one-byte edit."""
    lines = data.split(b"\n")
    j = max(j for j, line in enumerate(lines[1:-1], 1)
            if int(line.split(b",")[1][1:]) % 3 == 1 and line.split(b",")[1][-1:] != b"9")
    source, target, etype = lines[j].split(b",")
    lines[j] = b",".join([source, target[:-1] + bytes([target[-1] + 1]), etype])
    return b"\n".join(lines)


def bump_the_last_value(data: bytes) -> bytes:
    """The first digit of the last node's first attribute changed: a one-byte edit past
    the first block the sidecar key reads."""
    line = data.rindex(b"\n", 0, -1) + 1
    k = data.index(b",", data.index(b",", line) + 1) + 1
    k += data[k:k + 1] == b"-"
    assert k > hetgraph.BLOCK << 8
    return data[:k] + (b"3" if data[k:k + 1] == b"2" else b"2") + data[k + 1:]


STALE_EDITS = {
    "schema-dim": ("schema.json", lambda data: data.replace(b'"dim": 1', b'"dim": 3'),
                   lambda g, again: again.schema.node_types["ghost"] == 3),
    "node-value": ("nodes.csv", bump_the_last_value,
                   lambda g, again: node_x(again, len(g) - 1)[0] != node_x(g, len(g) - 1)[0]),
    "edge-target": ("edges.csv", move_a_target,
                    lambda g, again: (again.dst != g.dst).sum() == 1),
    "edge-line-dropped": ("edges.csv", lambda data: data[:data.rindex(b"\n", 0, -1) + 1],
                          lambda g, again: len(again.src) == len(g.src) - 1),
}


@pytest.mark.parametrize("edit", STALE_EDITS)
def test_a_stale_sidecar_gives_way_to_the_parse(tmp_path, monkeypatch, edit):
    """Each edit keeps the file's length but the last, and the files still load: the
    streamed key must cover every byte of every file to pass the sidecar over."""
    g, _, _ = ghost_graph(6000)
    paths = save_graph(g, tmp_path / "data")
    name, change, edited = STALE_EDITS[edit]
    path = tmp_path / "data" / name
    before = path.read_bytes()
    path.write_bytes(change(before))
    assert path.read_bytes() != before
    assert edit == "edge-line-dropped" or len(path.read_bytes()) == len(before)
    parses = []
    monkeypatch.setattr(hetgraph, "_read_records",
                        lambda *a, _read=hetgraph._read_records: parses.append(a) or _read(*a))
    again = load_graph(paths["schema"], paths["nodes"], paths["edges"])
    assert len(parses) == 2
    assert edited(g, again)
    monkeypatch.undo()
    (tmp_path / "data" / "graph.bin").unlink()
    assert_same_graph(again, load_graph(paths["schema"], paths["nodes"], paths["edges"]))


@pytest.fixture(scope="module")
def mid_graph():
    """A generated graph of 5,000 nodes."""
    return generate(scaled_config(GenConfig(seed=2), 5000))[0]


def traced(call):
    """``call()``'s result, and the traced memory it held at its end and at its peak."""
    tracemalloc.start()
    try:
        result = call()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_save_graph_holds_less_than_half_of_nodes_csv(tmp_path, mid_graph):
    save_graph(mid_graph, tmp_path / "warm")  # first-call costs stay out of the count
    _, _, peak = traced(lambda: save_graph(mid_graph, tmp_path / "data"))
    size = (tmp_path / "data" / "nodes.csv").stat().st_size
    assert peak < size / 2, (peak, size)


def test_load_graph_with_a_sidecar_holds_less_than_its_csv_files(tmp_path, monkeypatch,
                                                                  mid_graph):
    """Above the graph it returns, a load through ``graph.bin`` peaks below the three
    files' total size: they are hashed in blocks, never read whole."""
    paths = save_graph(mid_graph, tmp_path)
    files = [paths[k] for k in ("schema", "nodes", "edges")]
    load_graph(*files)
    monkeypatch.setattr(hetgraph, "_read_records", None)  # the sidecar must serve the load
    loaded, held, peak = traced(lambda: load_graph(*files))
    assert_same_graph(loaded, mid_graph)
    assert peak - held < sum(map(os.path.getsize, files)), (peak, held)


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
    assert validate_labels(g, {"a": 1, "b": 0, "c": 1}) == []
    assert len(validate_labels(g, {"jay": 1})) == 1
    assert len(validate_labels(g, {"ghost": 0})) == 1
    assert len(validate_labels(g, {"a": 2})) == 1


def gathered_features(nodes, type_names, dims):
    """Per type, its nodes' attribute rows gathered cell by cell from the node-order
    values, as ``_build`` gathers interleaved types."""
    values = np.concatenate([x for _, _, x in nodes])
    widths = np.array([x.size for _, _, x in nodes])
    starts, types = np.cumsum(widths) - widths, [t for _, t, _ in nodes]
    return {t: values[starts[[k for k, u in enumerate(types) if u == t], None]
                      + np.arange(dims[t])] for t in type_names}


@pytest.mark.parametrize("runs", [False, True], ids=["interleaved", "one-run"])
def test_type_features_equal_the_cell_gather(tmp_path, runs):
    """Interleaved types take the gather; a type whose nodes are one run takes one slice,
    copied: through the CSV parse and through ``graph.bin`` alike, each matrix equals the
    gather in dtype, shape and bytes and owns its data."""
    g, nodes, edges = ghost_graph(41)
    if runs:  # persons first, then companies: each type one run of nodes
        nodes = sorted(nodes, key=lambda node: node[1] == "company")
        g = make_graph(g.schema, nodes, edges)
    members = [np.flatnonzero(g.type_code == g.type_names.index(t)) for t in ("company", "person")]
    assert all((m[-1] - m[0] == m.size - 1) == runs for m in members)
    paths = save_graph(g, tmp_path)
    loaded = load_graph(paths["schema"], paths["nodes"], paths["edges"])
    want = gathered_features(nodes, g.type_names, g.schema.node_types)
    for graph in (g, loaded):
        for t in graph.type_names:
            got = graph.type_features(t)
            assert got.dtype == want[t].dtype and got.shape == want[t].shape, t
            assert got.tobytes() == want[t].tobytes() and got.base is None, t


def test_build_holds_no_index_as_large_as_a_types_values(mid_graph):
    """``_build`` keeps each type's attribute matrix; above those, at its peak, it holds
    less than the largest type's values take: no cell index as large as them."""
    g = mid_graph
    values = np.concatenate([g.type_features(g.type_names[c])[r]
                             for c, r in zip(g.type_code.tolist(), g.row_in_type.tolist())])
    args = (g.schema, g.ids, g.index, g.type_code, g.src, g.dst, g.edge_code, values, None)
    hetgraph.HetGraph.__new__(hetgraph.HetGraph)._build(*args)  # first-call costs
    built, held, peak = traced(lambda: hetgraph.HetGraph.__new__(hetgraph.HetGraph)._build(*args))
    assert_same_graph(built, g)
    largest = max(built.type_features(t).nbytes for t in built.type_names)
    assert peak - held < largest, (peak, held, largest)
