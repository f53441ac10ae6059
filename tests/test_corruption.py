"""Corrupted input files: every command that reads them fails with one error line.

Each example takes a valid generated file set, breaks one file in one way
(drops a cell, puts junk in a cell, cuts the file short, writes NaN or inf,
repeats an id, writes bytes that are not UTF-8), adds blank lines, and runs
every command that reads the file.  The set keeps the ``graph.bin`` written
with the unbroken files, which the break makes stale.

A corrupted ``graph.bin`` (cut short, a flipped byte in its key or payload, a
garbage header) is never an error: every command gives the outputs it gives
with no ``graph.bin`` at all.

A malformed pattern file or manifest (cut short, of the wrong shape, a value of
the wrong kind, a name no role or schema has, a bad id) makes match, stats and
train fail with one error line.
"""

import contextlib
import io
import json
import shutil

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rptdetect.cli import CHOICES, MATCH_SPEC, STATS_SPEC, TRAIN_SPEC, main  # noqa: E402
from rptdetect.patterns import bundled_patterns  # noqa: E402

NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity"]
# (file, corruption) pairs that always make the file set invalid
CORRUPTIONS = ([("nodes.csv", k) for k in ("drop-column", "junk-cell", "truncate",
                                           "non-finite", "duplicate-id", "invalid-bytes")]
               + [("edges.csv", k) for k in ("drop-column", "junk-cell", "truncate",
                                             "invalid-bytes")]
               + [("labels.csv", k) for k in ("drop-column", "junk-cell", "truncate",
                                              "non-finite", "duplicate-id", "invalid-bytes")]
               + [("schema.json", "truncate")])
# the first cell junk always breaks: a junk node id would only rename an
# unconnected node, and a junk label id is reported, not rejected, by ingest
FIRST_JUNK_CELL = {"nodes.csv": 1, "edges.csv": 0, "labels.csv": 1}
COMMANDS = {
    "ingest": [],
    "match": ["--cap", "64", "--cap-mode", "truncate"],
    "stats": ["--cap", "64", "--cap-mode", "truncate"],
    "train": ["--epochs", "1", "--cap", "64", "--cap-mode", "truncate"],
    "export": [],
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--out", str(out), "--seed", "5",
                     "--companies", "40", "--persons", "30", "--items", "10",
                     "--events", "3", "--communities", "4", "--decoys", "2",
                     "--label-coverage", "1.0", "--feature-dim", "3"]) == 0
    return out


def corrupt(text: str, name: str, kind: str, row: int, cell: int, other: int,
            junk: str, blanks: list[int]) -> str:
    if name == "schema.json":  # any cut before the closing brace is not JSON
        return text[:row % text.rindex("}")]
    lines = text.splitlines()
    r = 1 + row % (len(lines) - 1)  # a record, not the header
    cells = lines[r].split(",")
    if kind == "drop-column":
        del cells[cell % len(cells)]
    elif kind == "junk-cell":
        first = FIRST_JUNK_CELL[name]
        cells[first + cell % (len(cells) - first)] = "?" + junk
    elif kind == "non-finite":  # an attribute, or the label
        first = 2 if name == "nodes.csv" else 1
        cells[first + cell % (len(cells) - first)] = NON_FINITE[other % len(NON_FINITE)]
    elif kind == "duplicate-id":
        shift = 1 + other % (len(lines) - 2)  # to another record
        cells[0] = lines[1 + (r - 1 + shift) % (len(lines) - 1)].split(",")[0]
    elif kind == "invalid-bytes":  # written as the bytes 0xff 0xfe, which are not UTF-8
        cells[cell % len(cells)] = "\udcff\udcfe" + cells[cell % len(cells)]
    lines[r] = ",".join(cells)
    if kind == "truncate":  # cut just after the first cell of a line, header included
        r = row % len(lines)
        lines = lines[:r] + [lines[r].split(",")[0] + ","]
    for b in blanks:
        lines.insert(b % (len(lines) + 1), "")
    return "\n".join(lines) + "\n"


def assert_one_error_line(directory, tmp_path_factory, commands, extra) -> None:
    """Each of ``commands`` (name: flags) run on ``directory`` with the ``extra`` flags exits 1
    with exactly one ``error`` line on stderr and no traceback."""
    for command, flags in commands.items():
        err = io.StringIO()
        out = tmp_path_factory.mktemp(command)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--graph", str(directory), "--out", str(out)] + flags + extra)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error\t")]
        assert rc == 1 and len(errors) == 1, (command, extra, err.getvalue())
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name,kind", CORRUPTIONS)
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(row=st.integers(0, 10**6), cell=st.integers(0, 10**6), other=st.integers(0, 10**6),
       junk=st.text("abxyz09_", max_size=4), blanks=st.lists(st.integers(0, 10**6), max_size=3))
def test_corrupted_file_fails_every_reading_command_with_one_error_line(
        dataset, tmp_path_factory, name, kind, row, cell, other, junk, blanks):
    bad = tmp_path_factory.mktemp("bad")
    for f in ("schema.json", "nodes.csv", "edges.csv", "labels.csv", "graph.bin"):
        shutil.copy(dataset / f, bad / f)
    (bad / name).write_text(corrupt((dataset / name).read_text(encoding="utf-8"), name, kind,
                                    row, cell, other, junk, blanks),
                            encoding="utf-8", errors="surrogateescape")
    # match is the one command that reads no labels
    assert_one_error_line(bad, tmp_path_factory, {c: flags for c, flags in COMMANDS.items()
                                                  if (name, c) != ("labels.csv", "match")}, [])


def run_all(directory, tmp_path_factory) -> dict[str, bytes]:
    """Every reading command's stdout, exit code and output files (``timing.txt`` aside)."""
    outs = {}
    for command, flags in COMMANDS.items():
        out = tmp_path_factory.mktemp(command)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main([command, "--graph", str(directory), "--out", str(out / "o")] + flags)
        outs[command] = (rc, stdout.getvalue().replace(str(out), "OUT"))
        for f in sorted((out / "o").iterdir()):
            if f.name != "timing.txt":
                outs[f"{command}/{f.name}"] = f.read_bytes()
    return outs


@pytest.fixture(scope="module")
def without_sidecar(dataset, tmp_path_factory):
    bare = tmp_path_factory.mktemp("bare")
    for f in ("schema.json", "nodes.csv", "edges.csv", "labels.csv"):
        shutil.copy(dataset / f, bare / f)
    return run_all(bare, tmp_path_factory)


MAGIC = len(b"rptdetect graph.bin 1\n")
HEADER = MAGIC + 72  # past the key, the digest and the header length


def break_sidecar(data: bytes, kind: str, at: int) -> bytes:
    if kind == "truncate":
        return data[:at % len(data)]
    if kind == "flip-key":
        k = MAGIC + at % 32
    elif kind == "flip-payload":
        k = HEADER + at % (len(data) - HEADER)
    else:  # garbage-header: junk over the start of the JSON header
        return data[:HEADER] + bytes((at + j) % 256 for j in range(16)) + data[HEADER + 16:]
    return data[:k] + bytes([data[k] ^ (1 + at % 255)]) + data[k + 1:]


@pytest.mark.parametrize("kind", ["truncate", "flip-key", "flip-payload", "garbage-header"])
@settings(max_examples=3, deadline=None, database=None, derandomize=True)
@given(at=st.integers(0, 10**6))
def test_corrupted_sidecar_changes_no_command_output(dataset, tmp_path_factory, without_sidecar,
                                                     kind, at):
    data = tmp_path_factory.mktemp("sidecar")
    for f in ("schema.json", "nodes.csv", "edges.csv", "labels.csv"):
        shutil.copy(dataset / f, data / f)
    (data / "graph.bin").write_bytes(break_sidecar((dataset / "graph.bin").read_bytes(), kind, at))
    got = run_all(data, tmp_path_factory)
    assert all(rc == 0 for rc, _ in (got[c] for c in COMMANDS)), kind
    assert got == without_sidecar


# --- pattern files and manifests ------------------------------------------------
#
# Each example takes a valid pattern file (one to three bundled patterns, written as
# the file format spells them) or an empty manifest, breaks it in one way, and runs
# match, stats and train with it.

PATTERN_KEYS = ("id", "roles", "edges", "anchor")
# where a wrong-kind value goes: a whole field, one role or edge entry, or one name in one
WRONG_PLACES = (*PATTERN_KEYS, "role", "edge", "role-name", "role-type", "edge-end", "edge-type")
PATTERN_BREAKS = ["truncate", "not-a-pattern-list", "drop-key", "unknown-role",
                  "duplicate-role", "disconnected-role", "bad-id", "no-pattern-applies",
                  *(f"wrong-kind-{place}" for place in WRONG_PLACES)]
# JSON values of kinds no pattern field takes; ``bad_value`` keeps those an option cannot take
WRONG_KINDS = [7, 2.5, None, True, False, [], {}, [7], {"a": 1}]
PATTERN_COMMANDS = {c: COMMANDS[c] for c in ("match", "stats", "train")}


def pattern_specs(patterns) -> list[dict]:
    return [{"id": p.pattern_id, "roles": [list(r) for r in p.roles],
             "edges": [list(e) for e in p.edges], "anchor": p.anchor} for p in patterns]


def break_patterns(specs: list[dict], kind: str, at: int, pick: int, junk: str) -> str:
    """The text of a pattern file holding ``specs`` broken in the ``kind`` way; ``at`` and
    ``pick`` choose where and with what, ``junk`` spells a name no schema or role has."""
    spec = specs[at % len(specs)]
    roles, edges = spec["roles"], spec["edges"]
    wrong = WRONG_KINDS[pick % len(WRONG_KINDS)]
    if kind == "not-a-pattern-list":
        return json.dumps([[{"patterns": specs}], specs, "patterns", 7, None, {"patterns": []},
                           {"patterns": {"id": "X"}}, {"patterns": "abc"}][pick % 8])
    if kind == "drop-key":
        del spec[PATTERN_KEYS[pick % 4]]
    elif kind.startswith("wrong-kind-"):
        place = kind[len("wrong-kind-"):]
        entries = roles if place.startswith("role") else edges
        if place in PATTERN_KEYS:
            spec[place] = wrong
        elif place in ("role", "edge"):
            entries[at % len(entries)] = wrong
        else:  # a role's name or type, an edge's source or target, or its type
            column = {"role-name": 0, "role-type": 1, "edge-end": pick % 2, "edge-type": 2}
            entries[at % len(entries)][column[place]] = wrong
    elif kind == "unknown-role":  # the anchor or an edge end names no role
        target = edges[at % len(edges)]
        if pick % 3 == 2:
            spec["anchor"] = "?" + junk
        else:
            target[pick % 3] = "?" + junk
    elif kind == "duplicate-role":
        roles[at % len(roles)][0] = roles[(at + 1 + pick % (len(roles) - 1)) % len(roles)][0]
    elif kind == "disconnected-role":
        roles.insert(at % (len(roles) + 1), ["?" + junk, "company"])
    elif kind == "bad-id":
        other = specs[(at + 1) % len(specs)]["id"] if len(specs) > 1 else ""
        spec["id"] = ["", "X\tY", "X\nY", "X\rY", other][pick % 5]
    elif kind == "no-pattern-applies":  # every pattern names a type the schema lacks
        for s in specs:
            if pick % 2 or not s["edges"]:
                s["roles"][at % len(s["roles"])][1] = "?" + junk
            else:
                s["edges"][at % len(s["edges"])][2] = "?" + junk
    text = json.dumps({"patterns": specs})
    return text[:at % text.rindex("}")] if kind == "truncate" else text


@pytest.mark.parametrize("kind", PATTERN_BREAKS)
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(chosen=st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
       at=st.integers(0, 10**6), pick=st.integers(0, 10**6), junk=st.text("abxyz09_", max_size=4))
def test_malformed_pattern_file_fails_every_command_with_one_error_line(
        dataset, tmp_path_factory, kind, chosen, at, pick, junk):
    bundled = bundled_patterns()
    path = tmp_path_factory.mktemp("patterns") / "patterns.json"
    path.write_text(break_patterns(pattern_specs([bundled[k] for k in chosen]), kind, at, pick,
                                   junk), encoding="utf-8")
    assert_one_error_line(dataset, tmp_path_factory, PATTERN_COMMANDS, ["--patterns", str(path)])


MANIFEST_BREAKS = ["truncate", "not-an-object", "wrong-kind"]
SPECS = {"match": MATCH_SPEC, "stats": STATS_SPEC, "train": TRAIN_SPEC}


def bad_value(cast, dest: str, pick: int):
    """A JSON value the option cannot take: of the wrong kind, or outside its choices, or
    for an integer option not an integer (1e400 reads as an infinite float)."""
    if cast is str:
        wrong = [v for v in WRONG_KINDS if dest in CHOICES or not isinstance(v, (int, float))
                 or isinstance(v, bool)] + (["bogus"] if dest in CHOICES else [])
    else:
        wrong = [v for v in WRONG_KINDS if not isinstance(v, (int, float)) or isinstance(v, bool)]
        wrong += ["many"] + ([2.5, 1e400] if cast is int else [])
    return wrong[pick % len(wrong)]


@pytest.mark.parametrize("kind", MANIFEST_BREAKS)
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(at=st.integers(0, 10**6), pick=st.integers(0, 10**6))
def test_malformed_manifest_fails_every_command_with_one_error_line(dataset, tmp_path_factory,
                                                                   kind, at, pick):
    for command, spec in SPECS.items():
        dest = sorted(spec)[at % len(spec)]
        if kind == "truncate":
            text = json.dumps({dest: spec[dest][1]})
            text = text[:at % text.rindex("}")]
        elif kind == "not-an-object":
            text = json.dumps([[], [{dest: spec[dest][1]}], "manifest", 7, None, True][pick % 6])
        else:
            text = json.dumps({dest: bad_value(spec[dest][0], dest, pick)})
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        path.write_text(text, encoding="utf-8")
        # no option on the command line, which would stand in for the manifest's value
        assert_one_error_line(dataset, tmp_path_factory, {command: []}, ["--manifest", str(path)])
