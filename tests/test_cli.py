"""End-to-end CLI tests over a small synthetic dataset."""

import csv
import gc
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rptdetect
from rptdetect import cli
from rptdetect.cli import main
from rptdetect.hetgraph import labels_to_indices, load_graph, load_labels, save_graph, save_labels
from rptdetect.matcher import (
    anchoring_nodes,
    build_neighbor_index,
    enumerate_instances,
    k_order_neighbors,
    metapath_neighbors,
)
from rptdetect.patterns import BUNDLED_METAPATHS, bundled_patterns
from rptdetect.stats import evader_centers, evasion_ratio_stats, ratio_table_text, stats_table_text

from conftest import assert_same_graph, load_both, make_graph, tax_schema


DATASET_FLAGS = ["--seed", "7", "--companies", "90", "--persons", "80", "--items", "25",
                 "--events", "6", "--communities", "9", "--decoys", "4",
                 "--label-coverage", "1.0", "--feature-dim", "4"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["generate", "--out", str(out), *DATASET_FLAGS])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def checkpoint_run(dataset, tmp_path_factory):
    """A two-epoch training run on ``dataset``, for its checkpoint.json."""
    run = tmp_path_factory.mktemp("checkpoint_run")
    assert main(["train", "--graph", str(dataset), "--out", str(run), "--epochs", "2",
                 "--dim", "8", "--proj-dim", "4", "--batch-size", "64"]) == 0
    return run


@pytest.fixture(scope="module")
def dense_dataset(tmp_path_factory):
    """Like ``dataset``, but with 20 evasion communities where ``dataset`` has 9: 17 of its
    90 companies anchor no pattern instance (50 in ``dataset``), so training and scoring on
    it run mostly through the attention path, not the attribute-only fallback."""
    out = tmp_path_factory.mktemp("dense")
    rc = main(["generate", "--out", str(out), "--seed", "7",
               "--companies", "90", "--persons", "80", "--items", "25",
               "--events", "6", "--communities", "20", "--decoys", "6",
               "--label-coverage", "1.0", "--feature-dim", "4"])
    assert rc == 0
    return out


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def only_error(capsys):
    """The one ``error`` line a failed command printed, checked to be the only one."""
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error\t")]
    assert len(errors) == 1, errors
    return errors[0]


def no_load(*args, **kwargs):
    raise AssertionError("the dataset was read or indexed before the inputs were checked")


def only_stderr_line(capsys):
    """All a failed command wrote to stderr, checked to be one ``error`` line: no
    traceback, no numpy warning."""
    err = capsys.readouterr().err
    assert err.startswith("error\t") and err.count("\n") == 1, err
    return err[:-1]


def edited_checkpoint(run, tmp_path, edit):
    """A copy of ``run``'s checkpoint with ``edit`` applied to each array entry."""
    doc = json.loads(read(run / "checkpoint.json"))
    for entry in doc["arrays"]:
        edit(entry)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc))
    return path


def test_generate_writes_loadable_dataset(dataset):
    for name in ("schema.json", "nodes.csv", "edges.csv", "labels.csv",
                 "communities.json"):
        assert (dataset / name).exists()


def test_ingest_reports_and_histogram(dataset, tmp_path, capsys):
    rc = main(["ingest", "--graph", str(dataset), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes: 201" in out
    hist = read(tmp_path / "degree_hist.tsv")
    total = sum(int(line.split("\t")[1]) for line in hist.splitlines()[1:])
    assert total == 201


def test_match_reports_positive_counts(dataset, tmp_path, capsys):
    rc = main(["match", "--graph", str(dataset), "--patterns", "default",
               "--cap", "64", "--cap-mode", "truncate", "--out", str(tmp_path)])
    assert rc == 0
    table = read(tmp_path / "instances.tsv").splitlines()
    assert table[0] == "pattern\tinstances\tanchors"
    counts = {row.split("\t")[0]: int(row.split("\t")[1]) for row in table[1:]}
    assert set(counts) == {"PCCP", "PCCCP", "PCICP", "PCPCP", "PCPCCP"}
    assert all(v > 0 for v in counts.values())


def test_stats_writes_tables(dataset, tmp_path):
    rc = main(["stats", "--graph", str(dataset), "--out", str(tmp_path)])
    assert rc == 0
    stats = read(tmp_path / "stats.tsv")
    assert stats.startswith("definition\tkind\tpairs\thits\tprobability")
    assert "background" in stats
    ratios = read(tmp_path / "ratios.tsv")
    assert "rpt::all" in ratios


def test_train_writes_all_artifacts(dense_dataset, tmp_path, caplog):
    out = tmp_path / "run"
    with caplog.at_level(logging.WARNING, logger="rptdetect.training"):
        rc = main(["train", "--graph", str(dense_dataset), "--out", str(out),
                   "--epochs", "3", "--dim", "8", "--proj-dim", "4",
                   "--batch-size", "64", "--seed", "3", "--test-fraction", "0.3"])
    assert rc == 0
    assert not [r for r in caplog.records if r.name == "rptdetect.training"]
    for name in ("checkpoint.json", "metrics.tsv", "trend.tsv", "loss.tsv",
                 "embeddings.csv", "split.json", "timing.txt"):
        assert (out / name).exists(), name
    metrics = dict(line.split("\t") for line in
                   read(out / "metrics.tsv").splitlines()[1:])
    assert 0.0 <= float(metrics["f1"]) <= 1.0
    loss_rows = read(out / "loss.tsv").splitlines()[1:]
    assert len(loss_rows) == 3
    # every pattern's attention was read in every epoch
    trend = [line.split("\t") for line in read(out / "trend.tsv").splitlines()[1:]]
    assert len(trend) == 3 * 5 and all(beta != "na" for _, _, beta in trend)


def test_seeded_runs_reproduce_byte_identical_outputs(dense_dataset, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["train", "--graph", str(dense_dataset), "--out", str(out),
                   "--epochs", "2", "--dim", "8", "--proj-dim", "4",
                   "--batch-size", "64", "--seed", "11", "--test-fraction", "0.3"])
        assert rc == 0
        outs.append(out)
    for name in ("checkpoint.json", "metrics.tsv", "trend.tsv", "loss.tsv",
                 "embeddings.csv", "split.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def package_env():
    """The environment with this checkout's package first on PYTHONPATH, for subprocesses."""
    src = os.path.dirname(os.path.dirname(rptdetect.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_outputs_do_not_depend_on_blas_thread_count(dense_dataset, tmp_path):
    """`rptdetect train` in fresh processes, BLAS pinned to one thread and not."""
    env = package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    outs = []
    for sub, threads in (("one", "1"), ("default", None)):
        run_env = dict(env, OPENBLAS_NUM_THREADS=threads) if threads else env
        out = tmp_path / sub
        subprocess.run(
            [sys.executable, "-m", "rptdetect.cli", "train", "--graph", str(dense_dataset),
             "--out", str(out), "--epochs", "3", "--dim", "8", "--proj-dim", "4",
             "--batch-size", "64", "--seed", "4", "--test-fraction", "0.3"],
            env=run_env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    for name in ("checkpoint.json", "embeddings.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# prints the top-level modules that importing the package and a small generate/
# match/stats/train chain load from disk (Cython's in-memory runtime modules have no file)
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from rptdetect import cli
data = sys.argv[1] + "/data"
assert cli.main(["generate", "--out", data, "--seed", "3", "--companies", "40", "--persons", "30",
                 "--items", "10", "--events", "3", "--communities", "4", "--decoys", "2"]) == 0
for argv in (["match"], ["stats"], ["train", "--epochs", "1", "--dim", "4", "--proj-dim", "4"]):
    assert cli.main(argv + ["--graph", data, "--out", sys.argv[1] + "/" + argv[0]]) == 0
print(*{name.split(".")[0] for name in set(sys.modules) - before
        if getattr(sys.modules[name], "__file__", None)})
"""


def test_only_numpy_and_the_standard_library_are_imported(tmp_path):
    # numpy is the one declared dependency: a stray import of anything else
    # installed here would pass locally and fail on a clean install
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)], env=package_env(),
                          check=True, capture_output=True, text=True, timeout=300)
    loaded = set(proc.stdout.splitlines()[-1].split())  # the commands' tables come first
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "rptdetect"}


def test_src_stays_within_its_line_cap():
    # the package's line budget, counted as `wc -l` counts: newline characters
    src = Path(__file__).resolve().parents[1] / "src" / "rptdetect"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    assert 0 < lines <= 3337, f"src/rptdetect/*.py has {lines} lines, over the cap of 3,337"


@pytest.mark.parametrize("mode", ["direct", "downstream"])
def test_eval_reuses_checkpoint_and_split(dense_dataset, tmp_path, capsys, mode):
    run = tmp_path / "run"
    rc = main(["train", "--graph", str(dense_dataset), "--out", str(run),
               "--epochs", "2", "--dim", "8", "--proj-dim", "4",
               "--batch-size", "64", "--seed", "5", "--test-fraction", "0.3",
               "--eval-mode", mode])
    assert rc == 0
    rc = main(["eval", "--graph", str(dense_dataset),
               "--checkpoint", str(run / "checkpoint.json"),
               "--split", str(run / "split.json"), "--eval-mode", mode,
               "--out", str(tmp_path / "eval")])
    assert rc == 0
    train_metrics = read(run / "metrics.tsv")
    eval_metrics = read(tmp_path / "eval" / "metrics.tsv")
    assert train_metrics == eval_metrics


TRAIN_ARTIFACTS = ("checkpoint.json", "metrics.tsv", "trend.tsv", "loss.tsv",
                   "embeddings.csv", "split.json")

# sha256 over the train artifacts above, in that order, per (ablation, eval
# mode); computed with the op-by-op tape forward and per-array Adam that the
# fused model step replaced, and recomputed when split.json gained the seed
# (every other artifact hashed the same before and after)
PINNED_TRAIN = {
    ("none", "direct"): "6e4dbde08d6e3202",
    ("none", "downstream"): "9493e229f7e18b9e",
    ("hete", "direct"): "a8dfc44c09e315f1",
    ("hete", "downstream"): "83e820258730d666",
    ("inner", "direct"): "df84f177ec428908",
    ("inner", "downstream"): "df84f177ec428908",
    ("cross", "direct"): "f534624f7451f2ec",
    ("cross", "downstream"): "7ce25007ce111490",
    ("att", "direct"): "51cc46419b92115a",
    ("att", "downstream"): "51cc46419b92115a",
}


@pytest.mark.parametrize("mode", ["direct", "downstream"])
@pytest.mark.parametrize("ablation", ["none", "hete", "inner", "cross", "att"])
def test_train_artifacts_match_pinned_digests(dataset, tmp_path, ablation, mode):
    out = tmp_path / "run"
    rc = main(["train", "--graph", str(dataset), "--out", str(out),
               "--epochs", "3", "--dim", "8", "--proj-dim", "4",
               "--batch-size", "32", "--seed", "3", "--test-fraction", "0.3",
               "--ablation", ablation, "--eval-mode", mode])
    assert rc == 0
    h = hashlib.sha256()
    for name in TRAIN_ARTIFACTS:
        h.update((out / name).read_bytes())
    assert h.hexdigest()[:16] == PINNED_TRAIN[(ablation, mode)]


@pytest.mark.parametrize("communities,decoys,tx_density,invest,fires", [
    ("1", "0", "0.1", "0.01", True),    # 87 of 90 companies have no instance
    ("20", "6", "1.5", "0.1", False),   # 17 of 90
])
def test_train_warns_once_when_most_scored_companies_have_no_instance(
        tmp_path, caplog, communities, decoys, tx_density, invest, fires):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--seed", "7",
                 "--companies", "90", "--persons", "80", "--items", "25",
                 "--events", "6", "--communities", communities, "--decoys", decoys,
                 "--tx-density", tx_density, "--invest-coverage", invest,
                 "--label-coverage", "1.0", "--feature-dim", "4"]) == 0
    with caplog.at_level(logging.WARNING, logger="rptdetect.training"):
        assert main(["train", "--graph", str(data), "--out", str(tmp_path / "run"),
                     "--epochs", "2", "--dim", "8", "--proj-dim", "4",
                     "--batch-size", "32", "--seed", "3", "--test-fraction", "0.3"]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.name == "rptdetect.training"]
    assert len(warnings) == (1 if fires else 0), warnings
    if fires:
        assert "scored companies have no instance of any pattern" in warnings[0]


def test_export_round_trips(dataset, tmp_path):
    rc = main(["export", "--graph", str(dataset), "--out", str(tmp_path / "copy")])
    assert rc == 0
    for name in ("schema.json", "nodes.csv", "edges.csv", "labels.csv"):
        assert read(dataset / name) == read(tmp_path / "copy" / name)


def test_sidecar_load_equals_the_csv_parse_on_the_dataset(dataset, tmp_path, monkeypatch):
    copy = tmp_path / "data"
    assert main(["export", "--graph", str(dataset), "--out", str(copy)]) == 0
    assert (copy / "graph.bin").read_bytes() == (dataset / "graph.bin").read_bytes()
    loaded, parsed = load_both(copy, monkeypatch)
    assert_same_graph(loaded, parsed)


def test_generate_writes_the_same_sidecar_bytes_for_the_same_seed(tmp_path):
    flags = ["--seed", "3", "--companies", "60", "--persons", "50", "--items", "15",
             "--events", "3", "--communities", "6", "--decoys", "2"]
    for sub in ("a", "b"):
        assert main(["generate", "--out", str(tmp_path / sub)] + flags) == 0
    assert (tmp_path / "a" / "graph.bin").read_bytes() == (tmp_path / "b" / "graph.bin").read_bytes()


@pytest.mark.parametrize("command", ["ingest", "match", "stats", "train", "eval"])
def test_readers_never_write_a_sidecar(dataset, tmp_path, command):
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("schema.json", "nodes.csv", "edges.csv", "labels.csv"):
        (bare / name).write_bytes((dataset / name).read_bytes())
    run = tmp_path / "run"
    assert main(["train", "--graph", str(dataset), "--out", str(run), "--epochs", "1"]) == 0
    flags = {"train": ["--epochs", "1"], "eval": ["--checkpoint", str(run / "checkpoint.json")]}
    assert main([command, "--graph", str(bare), "--out", str(tmp_path / "out")]
                + flags.get(command, [])) == 0
    assert sorted(p.name for p in bare.iterdir()) == [
        "edges.csv", "labels.csv", "nodes.csv", "schema.json"]


def test_export_then_ingest_keeps_an_id_holding_a_carriage_return(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "schema.json").write_text(json.dumps({
        "node_types": {"company": {"dim": 1}, "person": {"dim": 1}},
        "edge_types": {"transaction": {"source": "company", "target": "company"},
                       "invest": {"source": "person", "target": "company"}}}))
    (src / "nodes.csv").write_bytes(
        b'id,type,attrs\n"c\r1",company,1.0\nc2,company,2.0\np1,person,0.5\n')
    (src / "edges.csv").write_bytes(
        b'source,target,type\n"c\r1",c2,transaction\np1,"c\r1",invest\n')
    (src / "labels.csv").write_bytes(b'id,label\n"c\r1",1\nc2,0\n')
    copy, again = tmp_path / "copy", tmp_path / "again"
    assert main(["ingest", "--graph", str(src)]) == 0
    assert main(["export", "--graph", str(src), "--out", str(copy)]) == 0
    assert main(["ingest", "--graph", str(copy)]) == 0
    assert main(["export", "--graph", str(copy), "--out", str(again)]) == 0
    out = capsys.readouterr().out
    assert out.count("nodes: 3 ") == 2 and out.count("labels: ok") == 2, out
    for name in ("nodes.csv", "edges.csv", "labels.csv"):
        assert (copy / name).read_bytes() == (src / name).read_bytes(), name
        assert (again / name).read_bytes() == (src / name).read_bytes(), name


def test_ablate_writes_variant_table(dense_dataset, tmp_path):
    rc = main(["ablate", "--graph", str(dense_dataset), "--out", str(tmp_path),
               "--epochs", "2", "--dim", "8", "--proj-dim", "4",
               "--batch-size", "64", "--seed", "2", "--test-fraction", "0.3"])
    assert rc == 0
    rows = read(tmp_path / "ablation.tsv").splitlines()
    assert rows[0] == "variant\tf1\taccuracy"
    assert [r.split("\t")[0] for r in rows[1:]] == [
        "full", "hete", "inner", "cross", "att"]


def test_sweep_timing_mode_writes_rows(tmp_path):
    rc = main(["sweep", "--mode", "timing", "--sizes", "250,500",
               "--epochs", "1", "--dim", "8", "--proj-dim", "4",
               "--batch-size", "64", "--seed", "1", "--max-epochs", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read(tmp_path / "timing.tsv").splitlines()
    assert rows[0] == "nodes\tepochs\tseconds"
    assert len(rows) == 3


def test_sweep_timing_mode_rejects_bad_sizes_flag_in_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--mode", "timing", "--sizes", "5k,10k"])
    assert exc.value.code == 2 and "--sizes" in capsys.readouterr().err


@pytest.mark.parametrize("flags,error", [
    (["--manifest", "{manifest}"], "PipelineError\tmanifest {manifest}:"),
    ([], "PipelineError\tRPTDETECT_SIZES:"),
    (["--sizes", ","], "InfeasibleConfig\t"),
], ids=["manifest", "env", "empty"])
def test_sweep_timing_mode_rejects_bad_sizes_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                                 flags, error):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"sizes": "5k,10k"}))
    monkeypatch.setenv("RPTDETECT_SIZES", "5k,10k")  # the manifest and a flag come first
    argv = ["sweep", "--mode", "timing", "--out", str(tmp_path / "run")]
    assert main(argv + [f.format(manifest=manifest) for f in flags]) == 1
    assert only_error(capsys).startswith("error\t" + error.format(manifest=manifest))
    assert not (tmp_path / "run").exists()


def test_embeddings_csv_quotes_ids_for_csv_reader():
    embeddings = {'a,"b"': np.array([0.5, -1.0]), "plain": np.array([1e-05, 2.0])}
    rows = list(csv.reader(io.StringIO(cli._embeddings_text(embeddings), newline="")))
    assert rows == [["id", "z0", "z1"], ['a,"b"', "0.5", "-1.0"], ["plain", "1e-05", "2.0"]]


def test_sweep_timing_mode_rejects_one_class_train_split(capsys):
    assert main(["sweep", "--mode", "timing", "--sizes", "250", "--psr", "1.0",
                 "--epochs", "1", "--dim", "8", "--proj-dim", "4",
                 "--batch-size", "64", "--seed", "1", "--max-epochs", "5"]) == 1
    assert only_error(capsys).startswith("error\tInsufficientSamples\t")


@pytest.mark.parametrize("command,flags", [
    ("train", ["--epochs", "1", "--batch-size", "0"]),
    ("train", ["--epochs", "1", "--cap", "0"]),
    ("match", ["--cap", "0"]),
    ("train", ["--epochs", "1", "--heads", "0"]),
    ("train", ["--epochs", "1", "--dim", "0"]),
    ("train", ["--epochs", "1", "--proj-dim", "0"]),
    ("train", ["--epochs", "-1"]),
    ("stats", ["--korder-max", "0"]),
])
def test_out_of_range_config_fails_with_one_error_line(dataset, tmp_path, capsys,
                                                       command, flags):
    assert main([command, "--graph", str(dataset), "--out", str(tmp_path / "run")] + flags) == 1
    assert only_error(capsys).startswith("error\tInfeasibleConfig\t")


@pytest.mark.parametrize("command,flags", [
    ("train", ["--lr", "0"]),
    ("train", ["--lr", "-1"]),
    ("train", ["--lr", "nan"]),
    ("train", ["--lr", "inf"]),
    ("train", ["--weight-decay", "-1"]),
    ("train", ["--weight-decay", "nan"]),
    ("train", ["--test-fraction", "1.5"]),
    ("eval", ["--checkpoint", "missing.json", "--lr", "nan"]),
])
def test_bad_training_float_knob_fails_before_any_load(tmp_path, capsys, command, flags):
    # the graph directory does not exist, so any load would fail with another error
    assert main([command, "--graph", str(tmp_path / "none"), "--out", str(tmp_path / "run")]
                + flags) == 1
    assert only_error(capsys).startswith("error\tInfeasibleConfig\t")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--decoys", "-1"],
    ["generate", "--communities", "-1"],
    ["sweep", "--mode", "timing", "--sizes", "-50", "--epochs", "1"],
], ids=["decoys", "communities", "sweep-size"])
def test_negative_community_count_fails_with_one_error_line(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert only_error(capsys).startswith("error\tInfeasibleConfig\t")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["ablate", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--mode", "timing", "--sizes", "500", "--epochs", "1", "--seed", "-1"],
], ids=["generate", "train", "ablate", "sweep-psr", "sweep-timing"])
def test_negative_seed_fails_with_one_error_line_before_any_load(tmp_path, capsys, argv):
    # the graph directory does not exist, so any load would fail with another error
    graph = [] if argv[0] == "generate" else ["--graph", str(tmp_path / "none")]
    assert main(argv + graph + ["--out", str(tmp_path / "run")]) == 1
    assert only_error(capsys).startswith("error\tInfeasibleConfig\tseed must be")
    assert not (tmp_path / "run").exists()


def test_negative_split_seed_fails_with_one_error_line(dataset, tmp_path, capsys, monkeypatch):
    run = tmp_path / "run"
    assert main(["train", "--graph", str(dataset), "--out", str(run), "--epochs", "1",
                 "--dim", "8", "--proj-dim", "4", "--batch-size", "64"]) == 0
    split = run / "split.json"
    split.write_text(json.dumps({**json.loads(read(split)), "seed": -1}))
    monkeypatch.setattr(cli, "build_neighbor_index", no_load)
    capsys.readouterr()
    assert main(["eval", "--graph", str(dataset), "--checkpoint", str(run / "checkpoint.json"),
                 "--split", str(split)]) == 1
    assert only_error(capsys).startswith("error\tInfeasibleConfig\tseed must be")


@pytest.mark.parametrize("flags", [
    ["--companies", "0", "--communities", "0", "--decoys", "0", "--persons", "0",
     "--items", "0", "--events", "0"],
    ["--companies", "1", "--communities", "0", "--decoys", "0"],
], ids=["no-nodes", "one-company"])
def test_degenerate_generate_config_fails_with_one_error_line(tmp_path, capsys, flags):
    assert main(["generate", "--out", str(tmp_path / "run")] + flags) == 1
    assert only_error(capsys).startswith("error\tInfeasibleConfig\t")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags", [
    ["--tx-density", "nan"],
    ["--tx-density", "-1"],
    ["--delta", "nan"],
    ["--exponent", "nan"],
], ids=["tx-density-nan", "tx-density-negative", "delta-nan", "exponent-nan"])
def test_bad_float_knob_fails_with_one_error_line(tmp_path, capsys, flags):
    assert main(["generate", "--out", str(tmp_path / "run")] + flags) == 1
    assert only_error(capsys).startswith("error\tInfeasibleConfig\t")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("row", ["C0,x", "C0"])
def test_malformed_labels_row_fails_with_line_number(dataset, tmp_path, capsys, row):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    lines = read(bad / "labels.csv").splitlines()
    (bad / "labels.csv").write_text("\n".join(lines[:3] + [row] + lines[3:]) + "\n")
    assert main(["ingest", "--graph", str(bad)]) == 1
    assert only_error(capsys).startswith("error\tDimensionMismatch\tlabels file line 4:")


@pytest.mark.parametrize("command", ["ingest", "stats", "train"])
def test_label_id_listed_twice_fails_naming_both_lines(dataset, tmp_path, capsys, command):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    lines = read(bad / "labels.csv").splitlines()
    node_id, label = lines[2].split(",")
    (bad / "labels.csv").write_text("\n".join(lines + [f"{node_id},{1 - int(label)}"]) + "\n")
    capsys.readouterr()
    argv = [command, "--graph", str(bad)]
    assert main(argv + (["--out", str(tmp_path / "run")] if command == "train" else [])) == 1
    assert only_error(capsys).startswith(f"error\tDimensionMismatch\tlabels file lines 3 and "
                                         f"{len(lines) + 1}: id {node_id!r}")


@pytest.mark.parametrize("spec", [{}, {"dim": "four"}])
def test_schema_node_type_without_integer_dim_fails_naming_the_type(dataset, tmp_path,
                                                                    capsys, spec):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    schema = json.loads(read(bad / "schema.json"))
    schema["node_types"]["person"] = spec
    (bad / "schema.json").write_text(json.dumps(schema))
    assert main(["ingest", "--graph", str(bad)]) == 1
    line = only_error(capsys)
    assert line.startswith("error\tDimensionMismatch\t") and "'person'" in line


@pytest.mark.parametrize("edit", [
    lambda schema: "not json",
    lambda schema: json.dumps({k: v for k, v in schema.items() if k != "node_types"}),
    lambda schema: json.dumps({k: v for k, v in schema.items() if k != "edge_types"}),
    lambda schema: json.dumps({**schema, "edge_types": {
        **schema["edge_types"], "invest": {"target": "company"}}}),
    lambda schema: json.dumps([schema]),
], ids=["not-json", "no-node-types", "no-edge-types", "edge-without-source", "not-object"])
def test_malformed_schema_fails_naming_the_file(dataset, tmp_path, capsys, edit):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    (bad / "schema.json").write_text(edit(json.loads(read(bad / "schema.json"))))
    assert main(["ingest", "--graph", str(bad)]) == 1
    assert only_error(capsys).startswith(
        f"error\tDimensionMismatch\tschema file {bad / 'schema.json'}:")


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_attribute_fails_with_line_number(dataset, tmp_path, capsys, value):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    lines = read(bad / "nodes.csv").splitlines()
    cells = lines[4].split(",")
    cells[2] = value
    lines[4] = ",".join(cells)
    (bad / "nodes.csv").write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--graph", str(bad)]) == 1
    assert only_error(capsys).startswith("error\tDimensionMismatch\tnodes file line 5:")


def test_short_edges_row_fails_with_line_number(dataset, tmp_path, capsys):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    lines = read(bad / "edges.csv").splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2])
    (bad / "edges.csv").write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--graph", str(bad)]) == 1
    assert only_error(capsys).startswith("error\tDimensionMismatch\tedges file line 4:")


@pytest.mark.parametrize("name", ["nodes.csv", "edges.csv", "labels.csv"])
def test_non_utf8_bytes_fail_naming_the_file_and_line(dataset, tmp_path, capsys, name):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    lines = (bad / name).read_bytes().split(b"\n")
    lines[2] = b"\xff\xfe" + lines[2]
    (bad / name).write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["ingest", "--graph", str(bad)]) == 1
    assert only_error(capsys).startswith(
        f"error\tDimensionMismatch\t{bad / name} line 3: not UTF-8")


@pytest.mark.parametrize("content", [
    "not json",
    '[{"id": "X"}]',
    '{"patterns": [{"id": "X", "edges": [], "anchor": "a"}]}',
    '{"patterns": [{"id": "X", "roles": [["a"]], "edges": [], "anchor": "a"}]}',
], ids=["not-json", "not-an-object", "no-roles", "role-not-a-pair"])
def test_malformed_pattern_file_fails_naming_the_file(dataset, tmp_path, capsys, content):
    patterns = tmp_path / "patterns.json"
    patterns.write_text(content)
    assert main(["match", "--graph", str(dataset), "--patterns", str(patterns)]) == 1
    assert only_error(capsys).startswith(f"error\tPatternTypeUnknown\tpattern file {patterns}:")


@pytest.mark.parametrize("command", ["stats", "train"])
def test_label_on_unknown_node_fails_with_one_error_line(dataset, tmp_path, capsys,
                                                         command):
    bad = tmp_path / "bad"
    assert main(["export", "--graph", str(dataset), "--out", str(bad)]) == 0
    with open(bad / "labels.csv", "a", encoding="utf-8") as fh:
        fh.write("C_unknown,1\n")
    flags = ["--epochs", "1"] if command == "train" else []
    assert main([command, "--graph", str(bad), "--out", str(tmp_path / "run")] + flags) == 1
    line = only_error(capsys)
    assert line.startswith("error\tPipelineError\tinvalid labels: ")
    assert "'C_unknown'" in line


@pytest.mark.parametrize("content", [
    '{"format_version": 9, "meta": {}, "arrays": []}',
    "not a checkpoint",
    '{"format_version": 1, "arrays": []}',
    '{"format_version": 1, "meta": {}}',
    '{"format_version": 1, "meta": {}, "arrays": [["x", [2], [1.0]]]}',
    '{"format_version": 1, "meta": {}, "arrays": [["x", [1]]]}',
    '{"format_version": 1, "meta": {}, "arrays": 3}',
], ids=["version", "not-json", "no-meta", "no-arrays", "count-mismatch", "not-a-triple",
        "arrays-not-a-list"])
def test_eval_with_bad_checkpoint_fails_naming_the_file(dataset, tmp_path, capsys,
                                                       content):
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(content)
    assert main(["eval", "--graph", str(dataset), "--checkpoint", str(checkpoint)]) == 1
    assert only_error(capsys).startswith(f"error\tDimensionMismatch\tcheckpoint {checkpoint}:")


def test_train_on_separable_dataset_reaches_high_f1(tmp_path):
    data = tmp_path / "sep"
    rc = main(["generate", "--out", str(data), "--seed", "0",
               "--companies", "300", "--persons", "280", "--items", "60",
               "--events", "10", "--communities", "40", "--decoys", "10",
               "--p-rpt", "1.0", "--p-bg", "0.0", "--label-coverage", "1.0",
               "--feature-dim", "6", "--delta", "1.5",
               "--tx-density", "0.6", "--invest-coverage", "0.02"])
    assert rc == 0
    out = tmp_path / "run"
    rc = main(["train", "--graph", str(data), "--out", str(out),
               "--psr", "0.5", "--epochs", "40", "--dim", "16",
               "--proj-dim", "8", "--batch-size", "128", "--seed", "0",
               "--test-fraction", "0.3"])
    assert rc == 0
    metrics = dict(line.split("\t") for line in
                   read(out / "metrics.tsv").splitlines()[1:])
    assert float(metrics["f1"]) >= 0.9


def test_manifest_supplies_defaults(dataset, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"epochs": 2, "dim": 8, "proj_dim": 4,
                                    "batch_size": 64, "seed": 9,
                                    "test_fraction": 0.3}))
    out = tmp_path / "run"
    rc = main(["train", "--graph", str(dataset), "--manifest", str(manifest),
               "--out", str(out)])
    assert rc == 0
    assert len(read(out / "loss.tsv").splitlines()) == 3


@pytest.mark.parametrize("content", ["not json", "[2]", '{"epochs": "many"}'],
                         ids=["not-json", "not-object", "bad-value"])
def test_malformed_manifest_fails_naming_the_file(dataset, tmp_path, capsys, content):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(content)
    assert main(["train", "--graph", str(dataset), "--manifest", str(manifest),
                 "--out", str(tmp_path / "run")]) == 1
    assert only_error(capsys).startswith(f"error\tPipelineError\tmanifest {manifest}:")


def test_bad_env_var_value_fails_naming_the_variable(dataset, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("RPTDETECT_EPOCHS", "two")
    assert main(["train", "--graph", str(dataset), "--out", str(tmp_path / "run")]) == 1
    assert only_error(capsys).startswith("error\tPipelineError\tRPTDETECT_EPOCHS:")


@pytest.mark.parametrize("edit", [
    lambda split: "not json",
    lambda split: json.dumps({"train": split["train"]}),
    lambda split: json.dumps({"train": split["train"], "test": split["test"] + ["nope"]}),
    lambda split: json.dumps({"train": split["train"], "test": "C0"}),
    lambda split: json.dumps({**split, "seed": "5"}),
    lambda split: json.dumps({**split, "seed": 1.5}),
    lambda split: json.dumps({**split, "train": split["train"] + split["test"][:1]}),
    lambda split: json.dumps({**split, "test": split["test"] * 2}),
], ids=["not-json", "no-test", "unlabeled-id", "test-not-a-list", "seed-text", "seed-float",
        "test-id-in-train", "test-ids-twice"])
def test_malformed_split_fails_naming_the_file(dataset, tmp_path, capsys, monkeypatch, edit):
    run = tmp_path / "run"
    assert main(["train", "--graph", str(dataset), "--out", str(run), "--epochs", "1",
                 "--dim", "8", "--proj-dim", "4", "--batch-size", "64",
                 "--test-fraction", "0.3"]) == 0
    split = run / "split.json"
    split.write_text(edit(json.loads(read(split))))
    monkeypatch.setattr(cli, "build_neighbor_index", no_load)  # every split fault comes first
    capsys.readouterr()
    assert main(["eval", "--graph", str(dataset), "--checkpoint", str(run / "checkpoint.json"),
                 "--split", str(split)]) == 1
    assert only_error(capsys).startswith(f"error\tPipelineError\tsplit {split}:")


@pytest.mark.parametrize("bad", ["checkpoint", "split"])
def test_eval_checks_checkpoint_and_split_before_building_the_index(dataset, tmp_path, capsys,
                                                                    monkeypatch, bad):
    run = tmp_path / "run"
    assert main(["train", "--graph", str(dataset), "--out", str(run), "--epochs", "1",
                 "--dim", "8", "--proj-dim", "4", "--batch-size", "64"]) == 0
    (run / f"{bad}.json").write_text("not json")
    monkeypatch.setattr(cli, "build_neighbor_index", no_load)
    capsys.readouterr()
    assert main(["eval", "--graph", str(dataset), "--checkpoint", str(run / "checkpoint.json"),
                 "--split", str(run / "split.json")]) == 1
    line = only_error(capsys)
    assert f"\t{bad} {run / (bad + '.json')}: not JSON" in line


@pytest.mark.filterwarnings("error")
def test_eval_with_a_checkpoint_array_in_the_wrong_shape_fails_naming_the_file(
        dataset, checkpoint_run, tmp_path, capsys):
    def reshape(entry):
        if entry[0] == "readout_w":
            assert entry[1] == [8]
            entry[1] = [2, 4]  # the same eight values under another shape

    checkpoint = edited_checkpoint(checkpoint_run, tmp_path, reshape)
    capsys.readouterr()
    assert main(["eval", "--graph", str(dataset), "--checkpoint", str(checkpoint)]) == 1
    assert only_stderr_line(capsys) == (
        f"error\tDimensionMismatch\tcheckpoint {checkpoint}: array 'readout_w' has shape "
        f"[2, 4], but its meta implies [8]")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("change", ["feature-dim", "pattern-ids", "pattern-roles"])
def test_eval_checks_the_checkpoint_against_the_graph_and_patterns(
        dataset, checkpoint_run, tmp_path, capsys, monkeypatch, change):
    graph, pattern_flags = dataset, []
    if change == "feature-dim":
        graph = tmp_path / "dim8"
        assert main(["generate", "--out", str(graph), *DATASET_FLAGS, "--feature-dim", "8"]) == 0
    else:
        specs = [{"id": p.pattern_id, "roles": p.roles, "edges": p.edges, "anchor": p.anchor}
                 for p in bundled_patterns()]
        if change == "pattern-ids":
            specs = specs[:4]
        else:  # the checkpoint's PCCP has four roles
            specs[0] = {"id": "PCCP", "roles": [["p1", "person"], ["c1", "company"]],
                        "edges": [["p1", "c1", "invest"]], "anchor": "c1"}
        pattern_flags = ["--patterns", str(tmp_path / "patterns.json")]
        (tmp_path / "patterns.json").write_text(json.dumps({"patterns": specs}))
    monkeypatch.setattr(cli, "build_neighbor_index", no_load)
    capsys.readouterr()
    checkpoint = checkpoint_run / "checkpoint.json"
    assert main(["eval", "--graph", str(graph), "--checkpoint", str(checkpoint),
                 *pattern_flags]) == 1
    assert only_stderr_line(capsys).startswith(
        f"error\tDimensionMismatch\tcheckpoint {checkpoint}: ")


@pytest.mark.filterwarnings("error")
def test_a_diverged_last_step_fails_with_one_error_line(dataset, checkpoint_run, tmp_path,
                                                        capsys):
    # one batch per epoch: the loss before the one step is finite, and the
    # step leaves weights near 1e300, so only scoring overflows
    run = tmp_path / "run"
    assert main(["train", "--graph", str(dataset), "--out", str(run), "--epochs", "1",
                 "--lr", "1e300", "--dim", "8", "--proj-dim", "4"]) == 1
    assert only_stderr_line(capsys).startswith("error\tDivergedLoss\tscoring gave a non-finite")
    assert not (run / "embeddings.csv").exists()
    # scoring a checkpoint with such weights fails the same way
    def scale(entry):
        entry[2] = [v * 1e300 for v in entry[2]]

    checkpoint = edited_checkpoint(checkpoint_run, tmp_path, scale)
    assert main(["eval", "--graph", str(dataset), "--checkpoint", str(checkpoint)]) == 1
    assert only_stderr_line(capsys).startswith("error\tDivergedLoss\tscoring gave a non-finite")


def test_env_var_overrides_default(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("RPTDETECT_EPOCHS", "2")
    out = tmp_path / "run"
    rc = main(["train", "--graph", str(dataset), "--out", str(out),
               "--dim", "8", "--proj-dim", "4", "--batch-size", "64",
               "--seed", "1", "--test-fraction", "0.3"])
    assert rc == 0
    assert len(read(out / "loss.tsv").splitlines()) == 3


def test_unknown_flag_exits_nonzero(dataset):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--graph", str(dataset), "--frobnicate", "yes"])
    assert exc.value.code != 0


def test_runtime_error_prints_machine_readable_line(tmp_path, capsys):
    assert main(["ingest", "--graph", str(tmp_path / "missing")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error\t")


def test_missing_labels_for_train_fails_cleanly(dataset, tmp_path, capsys):
    bare = tmp_path / "bare"
    rc = main(["export", "--graph", str(dataset), "--out", str(bare)])
    assert rc == 0
    os.remove(bare / "labels.csv")
    assert main(["train", "--graph", str(bare), "--out", str(tmp_path / "r"),
                 "--epochs", "1"]) == 1
    assert "error\tPipelineError" in capsys.readouterr().err


EMPTY_PATTERN_FILES = {
    "no-patterns": {"patterns": []},
    "person-anchor": {"patterns": [{"id": "PP", "roles": [["p1", "person"], ["c1", "company"]],
                                    "edges": [["p1", "c1", "invest"]], "anchor": "p1"}]},
}


@pytest.mark.parametrize("command", ["train", "stats", "match"])
@pytest.mark.parametrize("content", sorted(EMPTY_PATTERN_FILES))
def test_an_empty_usable_pattern_set_fails_before_any_index_build(
        dataset, tmp_path, capsys, monkeypatch, command, content):
    patterns = tmp_path / "patterns.json"
    patterns.write_text(json.dumps(EMPTY_PATTERN_FILES[content]))
    for name in ("build_neighbor_index", "count_instances"):
        monkeypatch.setattr(cli, name, no_load)
    monkeypatch.setattr(rptdetect.stats, "anchoring_nodes", no_load)
    flags = ["--epochs", "1"] if command == "train" else []
    assert main([command, "--graph", str(dataset), "--out", str(tmp_path / "run"),
                 "--patterns", str(patterns), *flags]) == 1
    assert only_error(capsys).startswith(
        f"error\tInfeasibleConfig\tno usable pattern in {patterns}: ")


def hub_dataset(directory):
    """A dataset whose one company over a PCCP cap of 5 (``hub``: 12 instances) is labeled
    but no evader; the one evader (``e``) anchors a single PCCP instance."""
    nodes = [("hub", "company"), ("ph", "person"), ("e", "company"), ("pe", "person")]
    edges = [("ph", "hub", "invest"), ("pe", "e", "invest"), ("e", "c0", "transaction")]
    for i in range(12):
        nodes += [(f"c{i}", "company"), (f"p{i}", "person")]
        edges += [(f"p{i}", f"c{i}", "invest"), ("hub", f"c{i}", "transaction")]
    save_graph(make_graph(tax_schema(), nodes, edges), directory)
    save_labels({"e": 1, "hub": 0, **{f"c{i}": i % 2 for i in range(6)}},
                directory / "labels.csv")
    return directory


def test_stats_fails_on_a_cap_only_a_non_evader_exceeds(tmp_path, capsys, caplog):
    # the RPT rows come from the evader centers alone, so only a pass over every
    # company sees the hub: stats fails as match does, naming the same anchor
    data = hub_dataset(tmp_path / "data")
    message = "error\tInstanceCapExceeded\tpattern 'PCCP': anchor 'hub' exceeds instance cap 5"
    for command in ("match", "stats"):
        capsys.readouterr()
        assert main([command, "--graph", str(data), "--cap", "5", "--cap-mode", "error"]) == 1
        assert only_error(capsys) == message
    # under truncate, only match, which counts every company's rows, warns about the hub
    for command, warned in (("match", {"PCCP", "PCPCCP"}), ("stats", set())):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rptdetect.matcher"):
            assert main([command, "--graph", str(data), "--cap", "5",
                         "--cap-mode", "truncate"]) == 0
        assert {r.args[0] for r in caplog.records if r.args[1] == "hub"} == warned


@pytest.mark.parametrize("korder", ["1", "5"])
@pytest.mark.parametrize("which", ["dataset", "dense_dataset", "hub"])
def test_stats_tables_equal_a_build_over_every_company(request, tmp_path, which, korder):
    data = hub_dataset(tmp_path / "data") if which == "hub" else request.getfixturevalue(which)
    out = tmp_path / "out"
    assert main(["stats", "--graph", str(data), "--out", str(out), "--cap", "5",
                 "--korder-max", korder]) == 0
    graph = load_graph(*(data / name for name in ("schema.json", "nodes.csv", "edges.csv")))
    labels = labels_to_indices(graph, load_labels(data / "labels.csv"))
    centers = evader_centers(graph, labels)
    index = build_neighbor_index(graph, bundled_patterns(), cap=5, cap_mode="truncate")
    stats = evasion_ratio_stats(
        graph, index, {name: metapath_neighbors(graph, path, centers)
                       for name, path in BUNDLED_METAPATHS.items()},
        {k: k_order_neighbors(graph, k, centers) for k in range(1, int(korder) + 1)}, labels)
    assert read(out / "stats.tsv") == stats_table_text(stats)
    assert read(out / "ratios.tsv") == ratio_table_text(stats)
    # the background's existence mark is where the whole index holds rows
    labeled = sorted(labels)
    rows_at = sum(np.diff(ptr) for ptr in index.anchor_ptr.values()) > 0
    assert np.array_equal(anchoring_nodes(graph, index.patterns, labeled), np.isin(
        np.arange(len(graph)), labeled) & rows_at)


@pytest.mark.parametrize("injective", [False, True])
def test_match_counts_equal_the_enumerated_rows(dataset, tmp_path, injective):
    flags = ["--injective"] if injective else []
    assert main(["match", "--graph", str(dataset), "--out", str(tmp_path), "--cap", "3",
                 "--cap-mode", "truncate", *flags]) == 0
    graph = load_graph(*(dataset / name for name in ("schema.json", "nodes.csv", "edges.csv")))
    want = ["pattern\tinstances\tanchors"]
    for p in bundled_patterns():
        rows = enumerate_instances(graph, p, injective=injective, cap=3, cap_mode="truncate")
        anchors = rows[:, p.role_names.index(p.anchor)]
        want.append(f"{p.pattern_id}\t{len(rows)}\t{len(set(anchors.tolist()))}")
    assert read(tmp_path / "instances.tsv").splitlines() == want


@pytest.mark.parametrize("enabled", [True, False])
def test_generate_pauses_garbage_collection_and_leaves_it_as_found(tmp_path, monkeypatch,
                                                                   enabled):
    during, export = [], cli.export_dataset
    monkeypatch.setattr(cli, "export_dataset",
                        lambda *a: during.append(gc.isenabled()) or export(*a))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["generate", "--out", str(tmp_path / "a"), *DATASET_FLAGS]) == 0
        assert gc.isenabled() == enabled
        monkeypatch.setattr(cli, "save_ground_truth", no_load)
        with pytest.raises(AssertionError):
            main(["generate", "--out", str(tmp_path / "b"), *DATASET_FLAGS])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]
