"""Corrupted input files: every command that reads them fails with one error line.

Each example takes a valid generated file set, breaks one file in one way
(drops a cell, puts junk in a cell, cuts the file short, writes NaN or inf,
repeats an id, writes bytes that are not UTF-8), adds blank lines, and runs
every command that reads the file.
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
    for f in ("schema.json", "nodes.csv", "edges.csv", "labels.csv"):
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
