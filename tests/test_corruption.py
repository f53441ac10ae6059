"""Corrupted input files: every command that reads them fails with one error line.

Each example takes a valid generated file set, breaks one file in one way
(drops a cell, puts junk in a cell, cuts the file short, writes NaN or inf,
repeats an id, writes bytes that are not UTF-8), adds blank lines, and runs
every command that reads the file.  The set keeps the ``graph.bin`` written
with the unbroken files, which the break makes stale.

A corrupted ``graph.bin`` (cut short, a flipped byte in its key or payload, a
garbage header) is never an error: every command gives the outputs it gives
with no ``graph.bin`` at all.
"""

import contextlib
import io
import shutil

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rptdetect.cli import main  # noqa: E402

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
    for command, flags in COMMANDS.items():
        if name == "labels.csv" and command == "match":  # the one command without labels
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--graph", str(bad), "--out", str(bad / command)] + flags)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error\t")]
        assert rc == 1 and len(errors) == 1, (command, name, kind, err.getvalue())
        assert "Traceback" not in err.getvalue()


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
