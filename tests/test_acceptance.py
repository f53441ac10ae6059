"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  The heavier criteria share one module-scoped benchmark of 25
training runs (5 seeds x 5 variants) plus the PSR-0.1 and features-only runs.
"""

import functools
import logging
import time
from dataclasses import replace

import numpy as np
import pytest

from rptdetect.cli import main as cli_main
from rptdetect.hetgraph import labels_to_indices
from rptdetect.matcher import (
    build_neighbor_index,
    enumerate_instances,
    k_order_neighbors,
    metapath_neighbors,
)
from rptdetect.model import ModelConfig, ModelParams, forward, init_params
from rptdetect.patterns import BUNDLED_METAPATHS, applicable_patterns, bundled_patterns
from rptdetect.stats import evasion_ratio_stats
from rptdetect.synth import GenConfig, generate, scaled_config
from rptdetect.training import (
    TrainConfig,
    metrics_from_predictions,
    timing_sweep,
    train,
    train_downstream_classifier,
)

from conftest import brute_force_instances, node_x, random_typed_graph, stats_ratio, stats_row
from gradcheck import finite_diff_check
from reference_model import attention

logging.disable(logging.WARNING)

SEEDS = (0, 1, 2, 3, 4)

BENCH_GEN = dict(companies=1400, persons=1200, items=220, events=25,
                 communities=180, decoy_communities=55, p_rpt=0.9, p_bg=0.03,
                 label_coverage=1.0, feature_dim=8, class_shift=0.25,
                 transaction_density=0.8, invest_coverage=0.05)

BENCH_TRAIN = TrainConfig(epochs=40, batch_size=128, embed_dim=16, proj_dim=8,
                          test_fraction=0.3, psr=0.5, eval_mode="downstream")


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num} ({name}): FAIL", flush=True)
                raise
            print(f"\ncriterion {num} ({name}): PASS", flush=True)
        return wrapper
    return deco


def toy_dataset(seed=0, n_patterns=2):
    """A 20-node graph exercising every parameter family."""
    config = GenConfig(companies=8, persons=7, items=3, events=2,
                       communities=1, decoy_communities=1, feature_dim=4,
                       label_coverage=1.0, class_shift=0.3, seed=seed)
    graph, labels, _ = generate(config)
    assert len(graph) == 20
    pats = bundled_patterns()[:n_patterns]
    index = build_neighbor_index(graph, pats, cap=64, cap_mode="truncate")
    return graph, labels, index, pats


def bench_dataset(seed):
    graph, labels, _ = generate(GenConfig(seed=seed, **BENCH_GEN))
    pats = applicable_patterns(bundled_patterns(), graph.schema)
    index = build_neighbor_index(graph, pats, cap=64, cap_mode="truncate")
    return graph, index, labels


@pytest.fixture(scope="module")
def benchmark_runs():
    """Per-seed F1 for every variant plus the per-seed features-only baseline."""
    t0 = time.perf_counter()
    f1 = {v: [] for v in ("full", "inner", "cross", "att")}
    feats, psr01 = [], []
    for seed in SEEDS:
        graph, index, labels = bench_dataset(seed)
        for variant in f1:
            ablation = () if variant == "full" else (variant,)
            result = train(graph, index, labels,
                           replace(BENCH_TRAIN, seed=seed, ablation=ablation))
            f1[variant].append(result.metrics.f1)
            if variant == "full":
                Xtr = np.stack([node_x(graph, graph.index[i]) for i in result.train_ids])
                ytr = [labels[i] for i in result.train_ids]
                Xte = np.stack([node_x(graph, graph.index[i]) for i in result.test_ids])
                yte = [labels[i] for i in result.test_ids]
                clf = train_downstream_classifier(Xtr, ytr, seed=seed,
                                                  class_weight="balanced")
                feats.append(metrics_from_predictions(
                    yte, clf.predict(Xte).tolist()).f1)
        psr01.append(train(graph, index, labels,
                           replace(BENCH_TRAIN, seed=seed, psr=0.1)).metrics.f1)
    return {"f1": f1, "features_only": feats, "psr01": psr01,
            "seconds": time.perf_counter() - t0}


@criterion(1, "gradient oracle")
def test_every_parameter_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    graph, labels, index, pats = toy_dataset(seed=0, n_patterns=2)
    mc = ModelConfig(proj_dim=4, embed_dim=8, heads=2)
    params = init_params(graph.schema, pats, mc, seed=0)
    li = labels_to_indices(graph, labels)
    batch = sorted(li)

    def build(arrays):
        p = ModelParams({k: v.copy() for k, v in arrays.items()}, params.meta)
        res = forward(graph, index, batch, p, mc, labels=li)
        return res.loss, res.tape.backward()

    err = finite_diff_check(build, params.arrays, eps=1e-5)
    elapsed = time.perf_counter() - t0
    assert err < 1e-4, f"max relative gradient error {err}"
    assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"


@criterion(2, "attention normalization")
def test_attention_weights_normalize_over_100_random_forwards():
    graph, labels, index, pats = toy_dataset(seed=1, n_patterns=5)
    mc = ModelConfig(proj_dim=4, embed_dim=8, heads=2)
    li = labels_to_indices(graph, labels)
    batch = sorted(li)
    worst_alpha = worst_beta = 0.0
    for seed in range(100):
        params = init_params(graph.schema, pats, mc, seed=seed)
        alphas, betas_by_node = attention(forward(graph, index, batch, params, mc))
        for alpha in alphas.values():
            worst_alpha = max(worst_alpha, abs(float(alpha.sum()) - 1.0))
        for betas in betas_by_node.values():
            if betas:
                worst_beta = max(worst_beta, abs(sum(betas.values()) - 1.0))
    assert worst_alpha < 1e-9, f"max |sum(alpha) - 1| = {worst_alpha}"
    assert worst_beta < 1e-9, f"max |sum(beta) - 1| = {worst_beta}"


@criterion(3, "matcher oracle equivalence")
def test_matcher_equals_brute_force_on_50_random_graphs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    patterns = bundled_patterns()
    for trial in range(50):
        nc = int(rng.integers(5, 9))
        npers = int(rng.integers(4, 9))
        ni = int(rng.integers(2, 5))
        g = random_typed_graph(rng, nc, npers, ni,
                               edge_rate=float(rng.uniform(0.1, 0.35)))
        assert len(g) <= 30
        for pattern in patterns:
            for injective in (False, True):
                got = enumerate_instances(g, pattern, injective=injective,
                                          cap=100_000)
                want = brute_force_instances(g, pattern, injective=injective)
                assert got == want, (trial, pattern.pattern_id, injective)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"matcher oracle took {elapsed:.1f}s"


@criterion(4, "planted evasion-ratio statistic")
def test_rpt_vs_background_ratio_recovers_configured_signal():
    config = GenConfig(companies=1800, persons=1400, items=260, events=40,
                       communities=220, decoy_communities=0, p_rpt=0.8,
                       p_bg=0.1, label_coverage=1.0, feature_dim=3,
                       transaction_density=0.8, invest_coverage=0.05, seed=1)
    graph, labels, _ = generate(config)
    index = build_neighbor_index(graph, bundled_patterns(), cap=256,
                                 cap_mode="truncate")
    mp = {n: metapath_neighbors(graph, p) for n, p in BUNDLED_METAPATHS.items()}
    ko = {k: k_order_neighbors(graph, k, graph.company_nodes())
          for k in (1, 2, 3)}
    stats = evasion_ratio_stats(graph, index, mp, ko,
                                labels_to_indices(graph, labels))
    agg = stats_row(stats, "rpt::all")
    assert agg.pairs >= 1000, f"only {agg.pairs} labeled pairs"
    ratio = stats_ratio(stats, "rpt::all", "background")
    assert ratio == pytest.approx(8.0, rel=0.20), f"ratio {ratio:.2f}"


@criterion(5, "detection lift over features-only")
def test_detector_beats_features_only_classifier(benchmark_runs):
    lift = (float(np.mean(benchmark_runs["f1"]["full"]))
            - float(np.mean(benchmark_runs["features_only"])))
    assert lift >= 0.10, (
        f"lift {lift:.3f} (model {np.mean(benchmark_runs['f1']['full']):.3f}, "
        f"features-only {np.mean(benchmark_runs['features_only']):.3f})")
    assert benchmark_runs["seconds"] < 600.0, (
        f"benchmark took {benchmark_runs['seconds']:.0f}s")


@criterion(6, "ablation ordering")
def test_attention_variants_order_as_reported(benchmark_runs):
    f1 = {v: float(np.mean(scores)) for v, scores in benchmark_runs["f1"].items()}
    tie = 0.02
    best_single = max(f1["inner"], f1["cross"])
    assert f1["full"] >= best_single - tie, f1
    assert best_single >= f1["att"] - tie, f1


@criterion(7, "robustness to scarce positives")
def test_f1_degrades_gently_at_low_positive_ratio(benchmark_runs):
    at_half = float(np.mean(benchmark_runs["f1"]["full"]))
    at_tenth = float(np.mean(benchmark_runs["psr01"]))
    assert at_half - at_tenth <= 0.15, (
        f"PSR 0.5 -> {at_half:.3f}, PSR 0.1 -> {at_tenth:.3f}")


@criterion(8, "near-linear scaling of convergence time")
def test_wall_time_grows_at_most_2_5x_per_doubling():
    base_gen = GenConfig(p_rpt=1.0, p_bg=0.0, label_coverage=0.9,
                         transaction_density=0.8, invest_coverage=0.05, seed=0)
    pats = bundled_patterns()

    def make_dataset(n):
        graph, labels, _ = generate(scaled_config(base_gen, n))
        index = build_neighbor_index(
            graph, applicable_patterns(pats, graph.schema),
            cap=64, cap_mode="truncate")
        return graph, index, labels

    config = TrainConfig(epochs=1, batch_size=256, embed_dim=16, proj_dim=8,
                         test_fraction=0.2, psr=0.5, seed=0)
    rows = timing_sweep([5000, 10000, 20000, 40000], make_dataset, config,
                        loss_threshold=0.2, max_epochs=60)
    assert all(r.epochs < 60 for r in rows), "a size failed to converge"
    for prev, cur in zip(rows, rows[1:]):
        ratio = cur.seconds / prev.seconds
        assert ratio <= 2.5, (
            f"{prev.n_nodes}->{cur.n_nodes}: {prev.seconds:.2f}s ->"
            f" {cur.seconds:.2f}s (x{ratio:.2f})")


@criterion(9, "pipeline determinism")
def test_identical_seeds_give_byte_identical_artifacts(tmp_path):
    compared = ("checkpoint.json", "metrics.tsv", "trend.tsv", "loss.tsv",
                "embeddings.csv", "split.json")
    outputs = []
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}"
        assert cli_main(["generate", "--out", str(data), "--seed", "13",
                         "--companies", "150", "--persons", "130",
                         "--items", "40", "--events", "8",
                         "--communities", "15", "--decoys", "6",
                         "--feature-dim", "4"]) == 0
        out = tmp_path / f"run_{run}"
        assert cli_main(["train", "--graph", str(data), "--out", str(out),
                         "--epochs", "4", "--dim", "8", "--proj-dim", "4",
                         "--batch-size", "64", "--seed", "13",
                         "--test-fraction", "0.3"]) == 0
        outputs.append((data, out))
    (data_a, run_a), (data_b, run_b) = outputs
    for name in ("schema.json", "nodes.csv", "edges.csv", "labels.csv"):
        assert (data_a / name).read_bytes() == (data_b / name).read_bytes(), name
    for name in compared:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
