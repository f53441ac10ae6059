"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload drives ``rptdetect`` through its public CLI (``cli.main``), so
the tracer in ``spans.py`` can wrap exactly the names the program looks up.

A workload object offers:

* ``clear()``   drop the state of an earlier set-up (untimed);
* ``setup()``   build what the timed operation needs (timed as ``setup_s``);
* ``run(rep)``  one timed operation, returning a ``Rep``;
* ``check(rep, ref)`` raise ``CheckFailed`` unless ``rep`` is correct, where
  ``ref`` is the first good repetition of this run (or ``None``).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from time import perf_counter

from rptdetect import cli, synth, training

PATTERN_IDS = ("PCCP", "PCCCP", "PCICP", "PCPCP", "PCPCCP")
CAP = 64

# fit-acc: the acceptance benchmark config.  These must equal BENCH_GEN and
# BENCH_TRAIN in tests/test_acceptance.py; ``check_acceptance_configs``
# refuses to run when they drift apart.
FIT_GEN = dict(companies=1400, persons=1200, items=220, events=25,
               communities=180, decoy_communities=55, p_rpt=0.9, p_bg=0.03,
               label_coverage=1.0, feature_dim=8, class_shift=0.25,
               transaction_density=0.8, invest_coverage=0.05)
FIT_TRAIN = dict(epochs=40, batch_size=128, embed_dim=16, proj_dim=8,
                 test_fraction=0.3, psr=0.5, eval_mode="downstream")

# Default-share graphs (``scaled_config(GenConfig(), n)``), spelled out so a
# change to the generator's scaling cannot silently change the inputs.
GRAPH_SIZES = {
    "20k": dict(companies=9615, persons=7692, items=2308, events=385,
                communities=1154, decoy_communities=385),
    "10k": dict(companies=4808, persons=3846, items=1154, events=192,
                communities=577, decoy_communities=192),
    "2k": dict(companies=962, persons=769, items=231, events=38,
               communities=115, decoy_communities=38),
}
# the remaining GenConfig fields, at their defaults, passed explicitly
GRAPH_GEN = dict(p_rpt=0.8, p_bg=0.1, label_coverage=0.9, feature_dim=8,
                 class_shift=0.25, transaction_density=1.5,
                 invest_coverage=0.1, degree_exponent=2.5)

# Smoke mode: the same code paths on toy inputs, for the benchmark's own tests.
SMOKE_FIT_GEN = dict(FIT_GEN, companies=150, persons=130, items=40, events=8,
                     communities=15, decoy_communities=6, feature_dim=4)
SMOKE_FIT_TRAIN = dict(FIT_TRAIN, epochs=3, batch_size=32)
SMOKE_GRAPH_SIZES = {
    "20k": dict(companies=240, persons=200, items=60, events=10,
                communities=24, decoy_communities=8),
    "10k": dict(companies=120, persons=100, items=30, events=5,
                communities=12, decoy_communities=4),
    "2k": dict(companies=60, persons=50, items=15, events=3,
               communities=6, decoy_communities=2),
}


class CheckFailed(Exception):
    """An output check failed; the repetition counts as a failed operation."""


@dataclass
class Rep:
    """One timed operation: its wall time, inner step latencies and outputs."""

    seconds: float
    steps: list[float]
    quality: float
    digests: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> int:
    """One CLI call; its table output is discarded, its stderr is kept."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _gen_flags(seed: int, c: dict) -> list[str]:
    return ["--seed", str(seed),
            "--companies", str(c["companies"]), "--persons", str(c["persons"]),
            "--items", str(c["items"]), "--events", str(c["events"]),
            "--communities", str(c["communities"]),
            "--decoys", str(c["decoy_communities"]),
            "--p-rpt", repr(c["p_rpt"]), "--p-bg", repr(c["p_bg"]),
            "--label-coverage", repr(c["label_coverage"]),
            "--feature-dim", str(c["feature_dim"]),
            "--delta", repr(c["class_shift"]),
            "--tx-density", repr(c["transaction_density"]),
            "--invest-coverage", repr(c["invest_coverage"]),
            "--exponent", repr(c["degree_exponent"])]


def train_argv(data: str, out: str, c: training.TrainConfig) -> list[str]:
    """``rptdetect train`` with every option given, so no RPTDETECT_* default applies."""
    return ["train", "--graph", data, "--out", out, "--patterns", "default",
            "--epochs", str(c.epochs), "--batch-size", str(c.batch_size),
            "--dim", str(c.embed_dim), "--proj-dim", str(c.proj_dim),
            "--heads", str(c.heads), "--lr", repr(c.learning_rate),
            "--weight-decay", repr(c.weight_decay), "--psr", repr(c.psr),
            "--test-fraction", repr(c.test_fraction),
            "--eval-mode", c.eval_mode, "--ablation", "none",
            "--seed", str(c.seed), "--cap", str(CAP), "--cap-mode", "truncate"]


def chain_argv(data: str, out: str, seed: int, size: dict) -> list[list[str]]:
    """The graph-20k CLI chain: generate -> ingest -> match -> stats."""
    c = dict(size, **GRAPH_GEN)
    return [
        ["generate", "--out", data] + _gen_flags(seed, c),
        ["ingest", "--graph", data, "--out", os.path.join(out, "ingest")],
        ["match", "--graph", data, "--out", os.path.join(out, "match"),
         "--patterns", "default", "--cap", str(CAP), "--cap-mode", "truncate"],
        ["stats", "--graph", data, "--out", os.path.join(out, "stats"),
         "--patterns", "default", "--cap", str(CAP), "--cap-mode", "truncate",
         "--korder-max", "3"],
    ]


def check_acceptance_configs(path: str) -> None:
    """Refuse to run when fit-acc no longer matches the acceptance benchmark config.

    Reads ``BENCH_GEN = dict(...)`` and ``BENCH_TRAIN = TrainConfig(...)`` from
    the acceptance test source without importing it.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found: dict[str, dict] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("BENCH_GEN", "BENCH_TRAIN")
                and isinstance(node.value, ast.Call) and not node.value.args):
            found[node.targets[0].id] = {kw.arg: ast.literal_eval(kw.value)
                                         for kw in node.value.keywords}
    if set(found) != {"BENCH_GEN", "BENCH_TRAIN"}:
        raise SystemExit(f"bench: cannot read BENCH_GEN/BENCH_TRAIN from {path}")
    if synth.GenConfig(**FIT_GEN) != synth.GenConfig(**found["BENCH_GEN"]):
        raise SystemExit(f"bench: fit-acc generator settings differ from BENCH_GEN: "
                         f"{FIT_GEN} != {found['BENCH_GEN']}")
    ours = training.TrainConfig(**FIT_TRAIN)
    if ours != training.TrainConfig(**found["BENCH_TRAIN"]):
        raise SystemExit(f"bench: fit-acc train settings differ from BENCH_TRAIN: "
                         f"{FIT_TRAIN} != {found['BENCH_TRAIN']}")
    # train_argv cannot express these, so they must stay at the CLI's values
    default = training.TrainConfig()
    for f in ("ablation", "adam_beta1", "adam_beta2", "adam_eps"):
        if getattr(ours, f) != getattr(default, f):
            raise SystemExit(f"bench: BENCH_TRAIN sets {f}, which the CLI cannot pass")
    args = cli.build_parser().parse_args(train_argv("data", "out", ours))
    unset = sorted(d for d in cli.TRAIN_SPEC if getattr(args, d, None) is None)
    if unset:  # RPTDETECT_* is stripped, so these take their built-in defaults
        print(f"bench: warning: train options not passed explicitly: {unset}",
              file=sys.stderr)


# --- fit-acc -------------------------------------------------------------------------

FIT_IDENTICAL = ("checkpoint.json", "metrics.tsv", "embeddings.csv")


def read_fit_outputs(out: str) -> Rep:
    """Parse one training run's artifacts; ``seconds`` is filled in by the caller."""
    def text(name):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            return fh.read()

    losses = [float(line.split("\t")[1]) for line in text("loss.tsv").splitlines()[1:]]
    epochs = [float(line.split("\t")[1]) for line in text("timing.txt").splitlines()
              if line.startswith("epoch_")]
    metrics = dict(line.split("\t") for line in text("metrics.tsv").splitlines()[1:])
    digests = {}
    for name in FIT_IDENTICAL:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = _digest(fh.read())
    return Rep(0.0, epochs, float(metrics["f1"]), digests, {"losses": losses})


def check_fit(rep: Rep, ref: Rep | None) -> None:
    losses = rep.extra["losses"]
    if not losses or not all(math.isfinite(v) for v in losses):
        raise CheckFailed(f"loss history is empty or not finite: {losses[:5]}")
    if ref is not None:
        for name in FIT_IDENTICAL:
            if rep.digests[name] != ref.digests[name]:
                raise CheckFailed(f"{name} differs from the first repetition")


class FitAcc:
    """``rptdetect train`` on the acceptance benchmark dataset."""

    name = "fit-acc"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.workdir = workdir
        self.data = os.path.join(workdir, "fit-data")
        self.gen = synth.GenConfig(seed=seed, **(SMOKE_FIT_GEN if smoke else FIT_GEN))
        self.config = training.TrainConfig(
            seed=seed, **(SMOKE_FIT_TRAIN if smoke else FIT_TRAIN))

    def clear(self) -> None:
        shutil.rmtree(self.data, ignore_errors=True)

    def setup(self) -> None:
        graph, labels, _ = synth.generate(self.gen)
        synth.export(graph, labels, self.data)

    def run(self, rep: int) -> Rep:
        out = os.path.join(self.workdir, f"fit-run{rep}")
        t0 = perf_counter()
        rc = _cli(train_argv(self.data, out, self.config))
        seconds = perf_counter() - t0
        if rc != 0:
            raise CheckFailed(f"train exited with {rc}")
        result = read_fit_outputs(out)
        result.seconds = seconds
        shutil.rmtree(out)
        return result

    check = staticmethod(check_fit)


# --- graph-20k -----------------------------------------------------------------------

GRAPH_IDENTICAL = ("match/instances.tsv", "stats/stats.tsv", "stats/ratios.tsv")


def read_graph_outputs(out: str) -> Rep:
    digests = {}
    for name in GRAPH_IDENTICAL:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = _digest(fh.read())
    with open(os.path.join(out, "stats", "stats.tsv"), encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
    prob = {r[0]: (float(r[4]) if r[4] != "undefined" else None) for r in rows}
    rpt, bg = prob.get("rpt::all"), prob.get("background")
    quality = rpt / bg if rpt and bg else 0.0
    return Rep(0.0, [], quality, digests, {"probability": prob})


def check_graph(rep: Rep, ref: Rep | None) -> None:
    prob = rep.extra["probability"]
    rpt, bg = prob.get("rpt::all"), prob.get("background")
    if rpt is None or not bg or not rpt > bg:
        raise CheckFailed(f"rpt::all probability {rpt!r} does not exceed background {bg!r}")
    if ref is not None:
        for name in GRAPH_IDENTICAL:
            if rep.digests[name] != ref.digests[name]:
                raise CheckFailed(f"{name} differs from the first repetition")


class GraphChain:
    """The CLI chain generate -> ingest -> match -> stats at one graph size."""

    def __init__(self, seed: int, workdir: str, smoke: bool = False, size: str = "20k"):
        sizes = SMOKE_GRAPH_SIZES if smoke else GRAPH_SIZES
        self.name = f"graph-{size}"
        self.seed = seed
        self.workdir = workdir
        self.size = sizes[size]
        self.warmup_size = sizes["2k"]

    def clear(self) -> None:
        shutil.rmtree(os.path.join(self.workdir, f"{self.name}-warmup"),
                      ignore_errors=True)

    def setup(self) -> None:
        """A chain on a 2k-node graph: loads every code path and the page cache
        once, and fails fast before the long timed chains."""
        out = os.path.join(self.workdir, f"{self.name}-warmup")
        for argv in chain_argv(os.path.join(out, "data"), out, self.seed,
                               self.warmup_size):
            if _cli(argv) != 0:
                raise SystemExit(f"bench: warm-up call {argv[0]} failed")

    def run(self, rep: int) -> Rep:
        out = os.path.join(self.workdir, f"{self.name}-run{rep}")
        steps = []
        for argv in chain_argv(os.path.join(out, "data"), out, self.seed, self.size):
            t0 = perf_counter()
            rc = _cli(argv)
            steps.append(perf_counter() - t0)
            if rc != 0:
                raise CheckFailed(f"{argv[0]} exited with {rc}")
        result = read_graph_outputs(out)
        result.seconds = sum(steps)
        result.steps = steps
        shutil.rmtree(out)
        return result

    check = staticmethod(check_graph)


def make(name: str, seed: int, workdir: str, smoke: bool = False):
    if name == "fit-acc":
        return FitAcc(seed, workdir, smoke)
    if name == "graph-20k":
        return GraphChain(seed, workdir, smoke, "20k")
    if name == "graph-10k":
        return GraphChain(seed, workdir, smoke, "10k")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fit-acc", "graph-20k")
