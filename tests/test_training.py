"""Training-loop tests: splits, Adam arithmetic, metrics, classifier, sweeps."""

import gc

import numpy as np
import pytest

from rptdetect.errors import (
    DivergedLoss,
    EmptyTestSet,
    InfeasibleConfig,
    InsufficientSamples,
    SingleClass,
)
import logging

from rptdetect.hetgraph import labels_to_indices
from rptdetect.matcher import build_neighbor_index
from rptdetect.model import forward, init_params
from rptdetect.patterns import applicable_patterns, bundled_patterns
from rptdetect.synth import GenConfig, generate, scaled_config

logging.getLogger("rptdetect.matcher").setLevel(logging.ERROR)
from rptdetect import training
from rptdetect.training import (
    TrainConfig,
    adam_step,
    evaluate,
    init_adam_state,
    metrics_from_predictions,
    split_dataset,
    timing_sweep,
    train,
    train_downstream_classifier,
)

from conftest import make_graph, node_types, node_x
from reference_model import attention


def balanced_labels(n=100):
    return {f"c{i:03d}": (1 if i < n // 2 else 0) for i in range(n)}


# --- splits -----------------------------------------------------------------

def test_split_balanced_preserved_at_half():
    train_ids, test_ids = split_dataset(balanced_labels(), psr=0.5,
                                        test_fraction=0.2, seed=0)
    labels = balanced_labels()
    assert len(test_ids) == 20
    train_pos = sum(labels[i] for i in train_ids)
    assert train_pos == len(train_ids) - train_pos  # exactly balanced
    assert not set(train_ids) & set(test_ids)


def test_split_hits_requested_ratio_within_one_sample():
    labels = balanced_labels()
    for psr in (0.4, 0.3, 0.2, 0.1):
        train_ids, _ = split_dataset(labels, psr=psr, test_fraction=0.2, seed=3)
        pos = sum(labels[i] for i in train_ids)
        assert abs(pos / len(train_ids) - psr) * len(train_ids) <= 1.0 + 1e-9


def test_split_deterministic_per_seed():
    labels = balanced_labels()
    a = split_dataset(labels, 0.3, 0.2, seed=7)
    b = split_dataset(labels, 0.3, 0.2, seed=7)
    c = split_dataset(labels, 0.3, 0.2, seed=8)
    assert a == b
    assert a != c


def test_split_insufficient_samples():
    all_negative = {f"n{i}": 0 for i in range(20)}
    with pytest.raises(InsufficientSamples):
        split_dataset(all_negative, psr=0.5, test_fraction=0.2, seed=0)
    # one positive against ten negatives cannot reach 90% positives
    labels = {f"n{i}": 0 for i in range(10)}
    labels["p0"] = 1
    with pytest.raises(InsufficientSamples):
        split_dataset(labels, psr=0.9, test_fraction=0.0, seed=0)


def test_split_test_composition_untouched_by_psr():
    labels = balanced_labels(200)
    _, test_a = split_dataset(labels, 0.5, 0.25, seed=5)
    _, test_b = split_dataset(labels, 0.1, 0.25, seed=5)
    assert test_a == test_b


# --- Adam -------------------------------------------------------------------

def make_tiny_params():
    from rptdetect.model import ModelParams
    return ModelParams({"w": np.zeros(4), "v": np.ones((2, 2))},
                       {"patterns": {}, "company_type": "company"})


@pytest.mark.parametrize("name,value", [(name, value) for name, values in {
    "learning_rate": (0.0, -1.0, np.nan, np.inf), "weight_decay": (-1.0, np.nan, np.inf),
    "adam_beta1": (1.0, -0.1), "adam_beta2": (1.0, np.nan), "adam_eps": (0.0, np.inf),
    "test_fraction": (1.0, -0.1, np.nan)}.items() for value in values])
def test_train_config_rejects_out_of_range_floats(name, value):
    with pytest.raises(InfeasibleConfig, match=f"^{name} must be"):
        TrainConfig(**{name: value})
    TrainConfig(weight_decay=0.0, adam_beta1=0.0, adam_beta2=0.0, test_fraction=0.0)  # edges


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(InfeasibleConfig, match="^seed must be >= 0"):
        TrainConfig(seed=-1)
    TrainConfig(seed=0)


def test_adam_first_step_matches_hand_evaluation():
    # g=1 everywhere: m_hat=1, v_hat=1 -> delta ~= -lr
    params = make_tiny_params()
    state = init_adam_state(params)
    config = TrainConfig(learning_rate=0.005, weight_decay=0.0)
    adam_step(params, np.ones_like(params.arrays.flat), state, config)
    np.testing.assert_allclose(params.arrays["w"], -0.005, atol=1e-10)
    np.testing.assert_allclose(params.arrays["v"], 1.0 - 0.005, atol=1e-10)


def test_adam_zero_gradient_zero_decay_is_identity():
    params = make_tiny_params()
    params.arrays["w"] += 3.0
    before = {k: a.copy() for k, a in params.arrays.items()}
    state = init_adam_state(params)
    config = TrainConfig(weight_decay=0.0)
    adam_step(params, np.zeros_like(params.arrays.flat), state, config)
    for k in before:
        np.testing.assert_array_equal(params.arrays[k], before[k])


def test_adam_trajectories_bit_identical():
    def run():
        params = make_tiny_params()
        state = init_adam_state(params)
        config = TrainConfig(learning_rate=0.01, weight_decay=0.001)
        rng = np.random.default_rng(0)
        for _ in range(25):
            adam_step(params, rng.normal(size=params.arrays.flat.shape), state, config)
        return {k: a.tobytes() for k, a in params.arrays.items()}

    assert run() == run()


# --- metrics ----------------------------------------------------------------

def test_metrics_confusion_example():
    y_true = [1] * 12 + [0] * 8
    y_pred = [1] * 8 + [0] * 4 + [1] * 2 + [0] * 6
    m = metrics_from_predictions(y_true, y_pred)
    assert (m.tp, m.fp, m.fn, m.tn) == (8, 2, 4, 6)
    assert m.f1 == pytest.approx(0.7273, abs=1e-4)
    assert m.accuracy == pytest.approx(0.7)
    assert m.tp + m.fp + m.fn + m.tn == 20


def test_metrics_perfect_predictions():
    m = metrics_from_predictions([1, 0, 1, 0], [1, 0, 1, 0])
    assert m.f1 == 1.0 and m.accuracy == 1.0


def test_metrics_all_negative_predictions_give_zero_f1():
    m = metrics_from_predictions([1, 0, 1], [0, 0, 0])
    assert m.f1 == 0.0


def test_evaluate_direct_mode_and_permutation_invariance():
    labels = {"a": 1, "b": 0, "c": 1, "d": 0}
    probs = {"a": 0.9, "b": 0.2, "c": 0.4, "d": 0.6}
    m1 = evaluate(probs, labels, "direct")
    m2 = evaluate(dict(reversed(list(probs.items()))), labels, "direct")
    assert (m1.f1, m1.accuracy) == (m2.f1, m2.accuracy)
    assert (m1.tp, m1.fp, m1.fn, m1.tn) == (1, 1, 1, 1)


def test_evaluate_empty_test_set():
    with pytest.raises(EmptyTestSet):
        evaluate({}, {}, "direct")


# --- downstream classifier ----------------------------------------------------

def test_classifier_separable_blobs_reach_full_accuracy(rng):
    X0 = rng.normal(size=(40, 2)) + np.array([-3.0, -3.0])
    X1 = rng.normal(size=(40, 2)) + np.array([3.0, 3.0])
    X = np.vstack([X0, X1])
    y = np.array([0] * 40 + [1] * 40)
    clf = train_downstream_classifier(X, y, seed=0)
    assert (clf.predict(X) == y).mean() == 1.0


def test_classifier_identical_features_near_majority(rng):
    X = np.ones((30, 3))
    y = np.array([1] * 10 + [0] * 20)
    clf = train_downstream_classifier(X, y, seed=0)
    acc = (clf.predict(X) == y).mean()
    assert acc >= 19 / 30  # no better than majority, and must not crash


def test_classifier_deterministic_per_seed(rng):
    X = rng.normal(size=(50, 4))
    y = (X[:, 0] > 0).astype(int)
    a = train_downstream_classifier(X, y, seed=3)
    b = train_downstream_classifier(X, y, seed=3)
    np.testing.assert_array_equal(a.w, b.w)
    assert a.b == b.b


def test_classifier_single_class_rejected():
    with pytest.raises(SingleClass):
        train_downstream_classifier(np.ones((5, 2)), [1] * 5, seed=0)


# --- training loop ---------------------------------------------------------------

def bench_dataset(seed=0, companies=120, communities=14, decoys=6):
    graph, labels, _ = generate(GenConfig(
        companies=companies, persons=companies, items=30, events=6,
        communities=communities, decoy_communities=decoys,
        label_coverage=1.0, feature_dim=6, class_shift=0.3, seed=seed))
    pats = applicable_patterns(bundled_patterns(), graph.schema)
    index = build_neighbor_index(graph, pats, cap=64, cap_mode="truncate")
    return graph, index, labels


def test_zero_epochs_returns_initial_params_and_empty_history():
    graph, index, labels = bench_dataset()
    config = TrainConfig(epochs=0, batch_size=64, embed_dim=8, proj_dim=8,
                         test_fraction=0.3, seed=1)
    result = train(graph, index, labels, config)
    initial = init_params(graph.schema, index.patterns, config.model_config(),
                          config.seed)
    for k in initial.arrays:
        np.testing.assert_array_equal(result.params.arrays[k], initial.arrays[k])
    assert result.metrics.loss_history == []


def test_train_steps_and_scoring_leave_no_cyclic_garbage():
    # a tape drops its record when its backward pass ends and scoring records
    # nothing, so reference counting alone frees every batch's activations
    graph, index, labels = bench_dataset()
    config = TrainConfig()
    mc = config.model_config()
    params = init_params(graph.schema, index.patterns, mc, seed=0)
    state = init_adam_state(params)
    li = labels_to_indices(graph, labels)
    batch = sorted(li)[:100]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            res = forward(graph, index, batch, params, mc, labels=li)
            adam_step(params, res.tape.backward(), state, config)
        for _ in range(3):
            res = forward(graph, index, batch, params, mc)
        del res
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("n_patterns", [1, 5])
def test_trend_is_the_node_by_node_mean_of_beta(monkeypatch, n_patterns):
    graph, index, labels = bench_dataset(seed=1)
    index = build_neighbor_index(graph, index.patterns[:n_patterns], cap=64,
                                 cap_mode="truncate")
    recorded = []

    def spy(*args, **kwargs):
        res = forward(*args, **kwargs)
        if kwargs.get("labels") is not None:
            recorded.append(attention(res)[1])
        return res

    monkeypatch.setattr(training, "forward", spy)
    config = TrainConfig(epochs=2, batch_size=16, embed_dim=8, proj_dim=8,
                         test_fraction=0.3, seed=1)
    trend = train(graph, index, labels, config).trend
    per_epoch = len(recorded) // 2
    expected = []
    for epoch in range(2):
        sums = {pid: 0.0 for pid in index.pattern_ids}
        counts = {pid: 0 for pid in index.pattern_ids}
        for betas in recorded[epoch * per_epoch:(epoch + 1) * per_epoch]:
            for node_betas in betas.values():
                for pid, b in node_betas.items():
                    sums[pid] += b
                    counts[pid] += 1
        expected += [(epoch, pid, sums[pid] / counts[pid] if counts[pid] else None)
                     for pid in index.pattern_ids]
    assert trend == expected


@pytest.mark.parametrize("fault", ["not a company", "unlabeled"])
def test_train_rejects_a_bad_train_node_before_any_step(monkeypatch, fault):
    """The whole epoch's order is checked before its first batch steps: a train node
    that is no company, or has no label, raises the per-batch check's ``ValueError``
    with no Adam step taken, wherever in the shuffled order it falls."""
    graph, index, labels = bench_dataset()
    config = TrainConfig(epochs=2, batch_size=16, embed_dim=8, proj_dim=8, seed=0)
    train_ids, test_ids = split_dataset(labels, config.psr, config.test_fraction, config.seed)
    bad = train_ids[0]
    if fault == "not a company":
        bad = graph.ids[graph.nodes_of_type("person")[0]]
        labels = {**labels, bad: 0}
        monkeypatch.setattr(training, "split_dataset", lambda *a: (train_ids + [bad], test_ids))
        message = f"batch node {bad} is not of type 'company'"
    else:
        monkeypatch.setattr(training, "labels_to_indices", lambda g, ls: {
            g.index[i]: y for i, y in ls.items() if i != bad})
        message = f"batch node {bad} has no label"
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(graph, index, labels, config)
    assert steps == []


def test_train_calls_forward_as_the_benchmark_tracer_reads_it(monkeypatch):
    """``bench/spans.py`` wraps ``training.forward`` and reads the index as its second
    positional argument, ``labels=`` from the keywords, ``result.batch`` and
    ``len(result.degenerate)``: one call per training batch with ``labels=`` set, then one
    per scoring batch without, ``degenerate`` a set of the batch's nodes without instances."""
    graph, index, labels = bench_dataset()
    calls = []

    def spy(*args, **kwargs):
        res = forward(*args, **kwargs)
        calls.append((args[1], kwargs.get("labels", args[5] if len(args) > 5 else None), res))
        return res

    monkeypatch.setattr(training, "forward", spy)
    config = TrainConfig(epochs=2, batch_size=16, embed_dim=8, proj_dim=8, seed=0)
    result = train(graph, index, labels, config)
    n_train, n_scored = len(result.train_ids), len(result.train_ids) + len(result.test_ids)
    labeled = [lab is not None for _, lab, _ in calls]
    steps = 2 * -(-n_train // 16)
    assert labeled == [True] * steps + [False] * -(-n_scored // 16)
    assert all(idx is index for idx, _, _ in calls)
    scored = [i for _, lab, res in calls if lab is None for i in res.batch]
    assert scored == [graph.index[i] for i in result.train_ids + result.test_ids]
    for _, _, res in calls:
        assert type(res.degenerate) is set
        assert res.degenerate == {i for i in res.batch if not index.has_any(i)}


def test_training_loss_decreases_on_separable_config():
    graph, index, labels = bench_dataset(seed=2)
    config = TrainConfig(epochs=25, batch_size=64, embed_dim=8, proj_dim=8,
                         test_fraction=0.3, seed=2, eval_mode="direct")
    result = train(graph, index, labels, config)
    hist = result.metrics.loss_history
    assert len(hist) == 25
    early = float(np.mean(hist[:5]))
    late = float(np.mean(hist[-5:]))
    assert late < early * 0.95


def test_training_deterministic_given_seed():
    graph, index, labels = bench_dataset(seed=3)
    config = TrainConfig(epochs=4, batch_size=64, embed_dim=8, proj_dim=8,
                         test_fraction=0.3, seed=3)
    a = train(graph, index, labels, config)
    b = train(graph, index, labels, config)
    for k in a.params.arrays:
        np.testing.assert_array_equal(a.params.arrays[k], b.params.arrays[k])
    assert a.metrics.loss_history == b.metrics.loss_history
    assert a.metrics.f1 == b.metrics.f1


def test_no_att_ablation_trains_and_records_uniform_trend():
    graph, index, labels = bench_dataset(seed=4)
    config = TrainConfig(epochs=2, batch_size=64, embed_dim=8, proj_dim=8,
                         test_fraction=0.3, seed=4, ablation=("att",))
    result = train(graph, index, labels, config)
    assert len(result.trend) == 2 * len(index.pattern_ids)
    # with uniform cross attention the recorded means stay inside [0, 1]
    for _, _, beta in result.trend:
        if beta is not None:
            assert 0.0 <= beta <= 1.0


def test_diverged_loss_raises():
    graph, index, labels = bench_dataset(seed=5)
    # overflow-scale attributes drive the forward pass to NaN within an epoch
    with np.errstate(all="ignore"):
        graph = make_graph(graph.schema, [(i, t, node_x(graph, k) * 1e308) for k, (i, t)
                                          in enumerate(zip(graph.ids, node_types(graph)))],
                           [(graph.ids[s], graph.ids[t], r) for s, t, r in graph.edges])
    config = TrainConfig(epochs=5, batch_size=64, embed_dim=8, proj_dim=8,
                         test_fraction=0.3, seed=5)
    with np.errstate(all="ignore"), pytest.raises(DivergedLoss):
        train(graph, index, labels, config)


def separable_dataset(seed):
    """Labels fully determined by community membership, strong feature shift."""
    graph, labels, _ = generate(GenConfig(
        companies=300, persons=280, items=60, events=10,
        communities=40, decoy_communities=10, p_rpt=1.0, p_bg=0.0,
        label_coverage=1.0, feature_dim=6, class_shift=1.5,
        transaction_density=0.6, invest_coverage=0.02, seed=seed))
    pats = applicable_patterns(bundled_patterns(), graph.schema)
    index = build_neighbor_index(graph, pats, cap=64, cap_mode="truncate")
    return graph, index, labels


def test_direct_and_downstream_evaluations_agree_on_separable_config():
    diffs = []
    for seed in range(5):
        graph, index, labels = separable_dataset(seed)
        config = TrainConfig(epochs=40, batch_size=128, embed_dim=16,
                             proj_dim=8, test_fraction=0.3, seed=seed,
                             psr=0.5, eval_mode="downstream")
        result = train(graph, index, labels, config)
        test_labels = {i: labels[i] for i in result.test_ids}
        direct = evaluate({i: result.probabilities[i] for i in result.test_ids},
                          test_labels, "direct")
        assert 0.0 <= result.metrics.f1 <= 1.0
        assert 0.0 <= direct.f1 <= 1.0
        diffs.append(abs(result.metrics.f1 - direct.f1))
    assert max(diffs) <= 0.1, diffs


def test_loss_decreases_monotonically_after_warmup():
    for seed in range(5):
        graph, index, labels = separable_dataset(seed)
        config = TrainConfig(epochs=21, batch_size=128, embed_dim=16,
                             proj_dim=8, test_fraction=0.3, seed=seed,
                             psr=0.5, eval_mode="direct")
        hist = train(graph, index, labels, config).metrics.loss_history
        for t in range(5, 20):
            assert hist[t + 1] <= hist[t] * 1.05, (seed, t, hist)


def test_null_model_scores_near_chance():
    # labels independent of structure and features: no model should beat the
    # trivial all-positive baseline by a real margin
    graph, labels, truth = generate(GenConfig(
        companies=300, persons=280, items=60, events=10,
        communities=40, decoy_communities=10, p_rpt=0.25, p_bg=0.25,
        class_shift=0.0, label_coverage=1.0, feature_dim=6, seed=6))
    pats = applicable_patterns(bundled_patterns(), graph.schema)
    index = build_neighbor_index(graph, pats, cap=64, cap_mode="truncate")
    config = TrainConfig(epochs=25, batch_size=128, embed_dim=16, proj_dim=8,
                         test_fraction=0.3, seed=6, psr=0.5,
                         eval_mode="downstream")
    result = train(graph, index, labels, config)
    q = np.mean([labels[i] for i in result.test_ids])
    all_positive_f1 = 2 * q / (1 + q)
    assert result.metrics.f1 <= all_positive_f1 + 0.10


def test_timing_sweep_single_size_row():
    base = GenConfig(companies=60, persons=60, items=12, events=4,
                     communities=8, decoy_communities=0, p_rpt=1.0, p_bg=0.0,
                     label_coverage=0.8, feature_dim=4, seed=0)
    pats = bundled_patterns()

    def make_dataset(n):
        graph, labels, _ = generate(scaled_config(base, n))
        index = build_neighbor_index(graph, applicable_patterns(pats, graph.schema),
                                     cap=64, cap_mode="truncate")
        return graph, index, labels

    config = TrainConfig(epochs=1, batch_size=64, embed_dim=8, proj_dim=8,
                         test_fraction=0.2, seed=0)
    rows = timing_sweep([150], make_dataset, config, loss_threshold=0.2,
                        max_epochs=30)
    assert len(rows) == 1
    assert rows[0].epochs >= 1
    assert rows[0].seconds > 0


def test_timing_sweep_reuses_identical_graphs_across_repeats():
    base = GenConfig(companies=60, persons=60, items=12, events=4,
                     communities=8, decoy_communities=0, label_coverage=0.8,
                     feature_dim=4, seed=0)
    pats = bundled_patterns()

    def count_instances(n):
        graph, _, _ = generate(scaled_config(base, n))
        index = build_neighbor_index(graph, applicable_patterns(pats, graph.schema),
                                     cap=64, cap_mode="truncate")
        return sum(len(index.instances(i, pid)) for i in graph.company_nodes()
                   for pid in index.pattern_ids)

    assert count_instances(150) == count_instances(150)
