"""Smoke tests for the benchmark itself: ``python -m pytest bench/test_bench.py``.

Every workload and the traced suite run on toy inputs in a few seconds; each
output check is shown to fail on a deliberately corrupted output.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_end_to_end_metric(workload):
    result = bench_run.run(workload, seed=0, seconds=0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench_run.MIN_REPS
    assert _emitted(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_traced_suite_emits_every_per_layer_metric():
    result = bench_run.run("fit-acc", seed=0, seconds=0, trace=True, smoke=True)
    assert result["correct"] and result["attempted"] == len(workloads.WORKLOADS) + 1
    assert _emitted(result) == _declared("per_layer")


@pytest.fixture
def workdir(tmp_path):
    yield str(tmp_path)
    shutil.rmtree(str(tmp_path), ignore_errors=True)


def test_fit_check_rejects_corrupted_outputs(workdir):
    wl = workloads.make("fit-acc", 0, workdir, smoke=True)
    wl.setup()
    out = os.path.join(workdir, "out")
    assert workloads._cli(workloads.train_argv(wl.data, out, wl.config)) == 0
    ref = workloads.read_fit_outputs(out)
    workloads.check_fit(ref, ref)
    with open(os.path.join(out, "embeddings.csv"), "a", encoding="utf-8") as fh:
        fh.write("x\n")
    with pytest.raises(CheckFailed, match="embeddings.csv"):
        workloads.check_fit(workloads.read_fit_outputs(out), ref)
    with open(os.path.join(out, "loss.tsv"), "a", encoding="utf-8") as fh:
        fh.write("99\tnan\n")
    with pytest.raises(CheckFailed, match="loss"):
        workloads.check_fit(workloads.read_fit_outputs(out), None)


def test_graph_check_rejects_corrupted_outputs(workdir):
    wl = workloads.make("graph-20k", 0, workdir, smoke=True)
    out = os.path.join(workdir, "chain")
    for argv in workloads.chain_argv(os.path.join(out, "data"), out, 0, wl.size):
        assert workloads._cli(argv) == 0
    ref = workloads.read_graph_outputs(out)
    workloads.check_graph(ref, ref)
    with open(os.path.join(out, "match", "instances.tsv"), "a", encoding="utf-8") as fh:
        fh.write("PCCP\t0\t0\n")
    with pytest.raises(CheckFailed, match="instances.tsv"):
        workloads.check_graph(workloads.read_graph_outputs(out), ref)
    bad = workloads.read_graph_outputs(out)
    bad.extra["probability"]["background"] = bad.extra["probability"]["rpt::all"]
    with pytest.raises(CheckFailed, match="does not exceed background"):
        workloads.check_graph(bad, None)


def test_refuses_when_acceptance_config_drifts(tmp_path):
    with open(bench_run.ACCEPTANCE, encoding="utf-8") as fh:
        source = fh.read()
    assert "epochs=40" in source
    drifted = tmp_path / "test_acceptance.py"
    drifted.write_text(source.replace("epochs=40", "epochs=41", 1), encoding="utf-8")
    workloads.check_acceptance_configs(bench_run.ACCEPTANCE)
    with pytest.raises(SystemExit, match="BENCH_TRAIN"):
        workloads.check_acceptance_configs(str(drifted))


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-acc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
