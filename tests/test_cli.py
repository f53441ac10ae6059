"""End-to-end CLI tests over a small synthetic dataset."""

import json
import os
import subprocess
import sys

import pytest

import rptdetect
from rptdetect.cli import main


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["generate", "--out", str(out), "--seed", "7",
               "--companies", "90", "--persons", "80", "--items", "25",
               "--events", "6", "--communities", "9", "--decoys", "4",
               "--label-coverage", "1.0", "--feature-dim", "4"])
    assert rc == 0
    return out


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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


def test_train_writes_all_artifacts(dataset, tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--graph", str(dataset), "--out", str(out),
               "--epochs", "3", "--dim", "8", "--proj-dim", "4",
               "--batch-size", "64", "--seed", "3", "--test-fraction", "0.3"])
    assert rc == 0
    for name in ("checkpoint.json", "metrics.tsv", "trend.tsv", "loss.tsv",
                 "embeddings.csv", "split.json", "timing.txt"):
        assert (out / name).exists(), name
    metrics = dict(line.split("\t") for line in
                   read(out / "metrics.tsv").splitlines()[1:])
    assert 0.0 <= float(metrics["f1"]) <= 1.0
    loss_rows = read(out / "loss.tsv").splitlines()[1:]
    assert len(loss_rows) == 3


def test_seeded_runs_reproduce_byte_identical_outputs(dataset, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["train", "--graph", str(dataset), "--out", str(out),
                   "--epochs", "2", "--dim", "8", "--proj-dim", "4",
                   "--batch-size", "64", "--seed", "11", "--test-fraction", "0.3"])
        assert rc == 0
        outs.append(out)
    for name in ("checkpoint.json", "metrics.tsv", "trend.tsv", "loss.tsv",
                 "embeddings.csv", "split.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_outputs_do_not_depend_on_blas_thread_count(dataset, tmp_path):
    """`rptdetect train` in fresh processes, BLAS pinned to one thread and not."""
    src = os.path.dirname(os.path.dirname(rptdetect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    outs = []
    for sub, threads in (("one", "1"), ("default", None)):
        run_env = dict(env, OPENBLAS_NUM_THREADS=threads) if threads else env
        out = tmp_path / sub
        subprocess.run(
            [sys.executable, "-m", "rptdetect.cli", "train", "--graph", str(dataset),
             "--out", str(out), "--epochs", "3", "--dim", "8", "--proj-dim", "4",
             "--batch-size", "64", "--seed", "4", "--test-fraction", "0.3"],
            env=run_env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    for name in ("checkpoint.json", "embeddings.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_eval_reuses_checkpoint_and_split(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    rc = main(["train", "--graph", str(dataset), "--out", str(run),
               "--epochs", "2", "--dim", "8", "--proj-dim", "4",
               "--batch-size", "64", "--seed", "5", "--test-fraction", "0.3"])
    assert rc == 0
    rc = main(["eval", "--graph", str(dataset),
               "--checkpoint", str(run / "checkpoint.json"),
               "--split", str(run / "split.json"),
               "--out", str(tmp_path / "eval")])
    assert rc == 0
    train_metrics = read(run / "metrics.tsv")
    eval_metrics = read(tmp_path / "eval" / "metrics.tsv")
    assert train_metrics == eval_metrics


def test_export_round_trips(dataset, tmp_path):
    rc = main(["export", "--graph", str(dataset), "--out", str(tmp_path / "copy")])
    assert rc == 0
    for name in ("schema.json", "nodes.csv", "edges.csv", "labels.csv"):
        assert read(dataset / name) == read(tmp_path / "copy" / name)


def test_ablate_writes_variant_table(dataset, tmp_path):
    rc = main(["ablate", "--graph", str(dataset), "--out", str(tmp_path),
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
    rc = main(["ingest", "--graph", str(tmp_path / "missing")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error\t")


def test_missing_labels_for_train_fails_cleanly(dataset, tmp_path, capsys):
    bare = tmp_path / "bare"
    rc = main(["export", "--graph", str(dataset), "--out", str(bare)])
    assert rc == 0
    os.remove(bare / "labels.csv")
    rc = main(["train", "--graph", str(bare), "--out", str(tmp_path / "r"),
               "--epochs", "1"])
    assert rc == 1
    assert "error\tPipelineError" in capsys.readouterr().err
