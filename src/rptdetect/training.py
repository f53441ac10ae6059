"""Semi-supervised training: PSR-controlled splits, Adam, metrics, timing sweep.

All randomness flows from the config seed; two runs with identical inputs
produce bit-identical parameter trajectories and metric values.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DivergedLoss,
    EmptyTestSet,
    InfeasibleConfig,
    InsufficientSamples,
    SingleClass,
)
from .hetgraph import HetGraph, labels_to_indices
from .matcher import NeighborIndex
from .model import ModelConfig, ModelParams, forward, init_params

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    weight_decay: float = 0.0005
    batch_size: int = 256
    epochs: int = 100
    heads: int = 2
    embed_dim: int = 16
    proj_dim: int = 16
    seed: int = 0
    psr: float = 0.5
    test_fraction: float = 0.2
    ablation: tuple[str, ...] = ()
    eval_mode: str = "downstream"  # or "direct"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        # a NaN fails every comparison, so each range also rejects it
        for name, ok, want in (
                ("psr", 0.0 < self.psr <= 1.0, "in (0, 1]"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("heads", self.heads >= 1, ">= 1"),
                ("embed_dim", self.embed_dim >= 1, ">= 1"),
                ("proj_dim", self.proj_dim >= 1, ">= 1"),
                ("epochs", self.epochs >= 0, ">= 0"),
                ("seed", self.seed >= 0, ">= 0"),
                ("eval_mode", self.eval_mode in ("downstream", "direct"),
                 "'downstream' or 'direct'"),
                ("learning_rate", 0.0 < self.learning_rate < math.inf, "finite and > 0"),
                ("weight_decay", 0.0 <= self.weight_decay < math.inf, "finite and >= 0"),
                ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
                ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)"),
                ("adam_eps", 0.0 < self.adam_eps < math.inf, "finite and > 0"),
                ("test_fraction", 0.0 <= self.test_fraction < 1.0, "in [0, 1)")):
            if not ok:
                raise InfeasibleConfig(f"{name} must be {want}, got {getattr(self, name)!r}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(proj_dim=self.proj_dim, embed_dim=self.embed_dim,
                           heads=self.heads, ablation=self.ablation)


@dataclass
class Metrics:
    f1: float
    accuracy: float
    tp: int
    fp: int
    fn: int
    tn: int
    loss_history: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)


def metrics_from_predictions(y_true: Sequence[int], y_pred: Sequence[int]) -> Metrics:
    """F1 = 2PR/(P+R), defined as 0 when P+R = 0; accuracy = correct/total."""
    if len(y_true) == 0:
        raise EmptyTestSet("no samples to evaluate")
    if len(y_true) != len(y_pred):
        raise ValueError("prediction/label length mismatch")
    tp = fp = fn = tn = 0
    for y, p in zip(y_true, y_pred):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    acc = (tp + tn) / len(y_true)
    return Metrics(f1, acc, tp, fp, fn, tn)


# --- splits ------------------------------------------------------------------

def split_dataset(labels: dict[str, int], psr: float, test_fraction: float,
                  seed: int) -> tuple[list[str], list[str]]:
    """Stratified test split, then a train set whose positive fraction is psr.

    The test set keeps the natural class composition; the train set is the
    largest subset of the remaining pool whose positive fraction equals psr
    within one sample.  Deterministic per seed.
    """
    if not (0.0 < psr <= 1.0):
        raise InfeasibleConfig(f"psr must be in (0, 1], got {psr}")
    if not (0.0 <= test_fraction < 1.0):
        raise InfeasibleConfig(f"test_fraction must be in [0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    pos = sorted(k for k, y in labels.items() if y == 1)
    neg = sorted(k for k, y in labels.items() if y == 0)
    rng.shuffle(pos)
    rng.shuffle(neg)
    n_test_pos = round(test_fraction * len(pos))
    n_test_neg = round(test_fraction * len(neg))
    test = pos[:n_test_pos] + neg[:n_test_neg]
    pool_pos = pos[n_test_pos:]
    pool_neg = neg[n_test_neg:]
    if psr == 1.0:
        n_pos, n_neg = len(pool_pos), 0
    else:
        n_pos = min(len(pool_pos), round(len(pool_neg) * psr / (1.0 - psr)))
        n_neg = min(len(pool_neg), round(n_pos * (1.0 - psr) / psr)) if n_pos else 0
    if n_pos < 1 or (psr < 1.0 and n_neg < 1):
        raise InsufficientSamples(
            f"cannot build a train set with psr={psr} from "
            f"{len(pool_pos)} positives / {len(pool_neg)} negatives")
    got = n_pos / (n_pos + n_neg)
    if abs(got - psr) * (n_pos + n_neg) > 1.0 + 1e-9:
        raise InsufficientSamples(
            f"psr={psr} not reachable within one sample "
            f"(best {got:.4f} with {n_pos}+{n_neg})")
    train = pool_pos[:n_pos] + pool_neg[:n_neg]
    return sorted(train), sorted(test)


# --- Adam ----------------------------------------------------------------------

@dataclass
class AdamState:
    """Step count and moment estimates, flat in the order of ``ModelParams.arrays.flat``."""
    t: int
    m: np.ndarray
    v: np.ndarray


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(t=0, m=np.zeros_like(params.arrays.flat),
                     v=np.zeros_like(params.arrays.flat))


def adam_step(params: ModelParams, flat_grad: np.ndarray,
              state: AdamState, config: TrainConfig) -> ModelParams:
    """Bias-corrected Adam with additive L2 weight decay folded into ``flat_grad``,
    a gradient laid out like ``params.arrays.flat`` (as ``Tape.backward`` returns it)."""
    state.t += 1
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    w = params.arrays.flat
    g = flat_grad + config.weight_decay * w
    state.m = b1 * state.m + (1.0 - b1) * g
    state.v = b2 * state.v + (1.0 - b2) * g * g
    m_hat = state.m / c1
    v_hat = state.v / c2
    w -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return params


# --- downstream linear classifier ------------------------------------------------

@dataclass
class LinearClassifier:
    w: np.ndarray
    b: float
    mean: np.ndarray
    std: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (((X - self.mean) / self.std) @ self.w + self.b >= 0).astype(int)


# the downstream classifier's iteration budget, L2 weight and base step size
CLASSIFIER_ITERS, CLASSIFIER_REG, CLASSIFIER_LR0 = 300, 1e-3, 0.5


def train_downstream_classifier(X: np.ndarray, y: Sequence[int], seed: int = 0, *,
                                class_weight: str | None = None) -> LinearClassifier:
    """Linear max-margin classifier: L2-regularized hinge loss minimized by
    deterministic full-batch subgradient descent with a fixed iteration budget.

    ``class_weight="balanced"`` scales each hinge term inversely to its class
    frequency; the evaluation pipeline uses it so skewed positive ratios keep
    the separator meaningful.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    classes = set(y.tolist())
    if classes != {0, 1}:
        raise SingleClass(f"need both classes present, got {sorted(classes)}")
    if class_weight not in (None, "balanced"):
        raise ValueError(f"class_weight must be None or 'balanced', got {class_weight!r}")
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), 1e-8)
    Xs = (X - mean) / std
    s = 2.0 * y - 1.0
    n = len(y)
    if class_weight == "balanced":
        n_pos = int(y.sum())
        weight = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    else:
        weight = np.ones(n)
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.01, 0.01, size=X.shape[1])
    b = 0.0
    for t in range(1, CLASSIFIER_ITERS + 1):
        margins = s * (Xs @ w + b)
        viol = margins < 1.0
        sw = s[viol] * weight[viol]
        gw = CLASSIFIER_REG * w - (sw[:, None] * Xs[viol]).sum(axis=0) / n
        gb = -float(sw.sum()) / n
        lr = CLASSIFIER_LR0 / math.sqrt(t)
        w = w - lr * gw
        b = b - lr * gb
    return LinearClassifier(w, b, mean, std)


# --- evaluation -------------------------------------------------------------------

def evaluate(predictions, labels: dict[str, int], mode: str, *,
             train_embeddings: dict[str, np.ndarray] | None = None,
             train_labels: dict[str, int] | None = None, seed: int = 0) -> Metrics:
    """Score a test set either from probabilities or through the linear classifier.

    direct:     ``predictions`` maps test id -> probability, thresholded at 0.5.
    downstream: ``predictions`` maps test id -> embedding; a linear classifier is
                fit on (train_embeddings, train_labels) and applied to the test set.
    """
    ids = sorted(labels)
    if not ids:
        raise EmptyTestSet("no labeled samples in the test set")
    y_true = [labels[i] for i in ids]
    if mode == "direct":
        y_pred = [1 if predictions[i] >= 0.5 else 0 for i in ids]
    elif mode == "downstream":
        if train_embeddings is None or train_labels is None:
            raise ValueError("downstream mode needs train embeddings and labels")
        train_ids = sorted(train_labels)
        clf = train_downstream_classifier(
            np.stack([train_embeddings[i] for i in train_ids]),
            [train_labels[i] for i in train_ids], seed, class_weight="balanced")
        y_pred = clf.predict(np.stack([predictions[i] for i in ids])).tolist()
    else:
        raise ValueError(f"unknown eval mode {mode!r}")
    return metrics_from_predictions(y_true, y_pred)


# --- training loop ------------------------------------------------------------------

@dataclass
class TrainResult:
    params: ModelParams
    metrics: Metrics
    trend: list[tuple[int, str, float | None]]
    train_ids: list[str]
    test_ids: list[str]
    embeddings: dict[str, np.ndarray]
    probabilities: dict[str, float]


def _epoch_batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size].tolist()


def _run_epoch(graph: HetGraph, index: NeighborIndex, train_idx: list[int],
               labels_idx: dict[int, int], params: ModelParams, mc: ModelConfig,
               state: AdamState, config: TrainConfig, rng: np.random.Generator
               ) -> tuple[float, dict[str, float], dict[str, int]]:
    """One epoch of Adam; returns (mean loss, per pattern: summed beta, nodes with the pattern)."""
    order = np.array(train_idx)
    rng.shuffle(order)
    total = 0.0
    count = 0
    betas, present = [], []
    for batch in _epoch_batches(order, config.batch_size):
        res = forward(graph, index, batch, params, mc, labels=labels_idx)
        if not math.isfinite(res.loss):
            raise DivergedLoss(f"loss became {res.loss} during training")
        adam_step(params, res.tape.backward(), state, config)
        total += res.loss * len(batch)
        count += len(batch)
        betas.append(res.betas)
        present.append(res.present)
    # beta is zero off the mask; the cumulative sum adds node by node in epoch order
    beta_sum = np.cumsum(np.concatenate(betas), axis=0)[-1].tolist()
    beta_n = np.concatenate(present).sum(axis=0).tolist()
    return (total / count, dict(zip(res.pattern_ids, beta_sum)),
            dict(zip(res.pattern_ids, beta_n)))


def _fit(graph: HetGraph, index: NeighborIndex, labels: dict[str, int],
         config: TrainConfig, epochs: int, loss_threshold: float = -math.inf):
    """Split, class check, init, then epochs of Adam: what ``train`` and
    ``timing_sweep`` share.

    Runs ``epochs`` epochs, or stops after the first whose mean loss is at
    most ``loss_threshold``.  Returns (params, train ids, test ids, trend,
    per-epoch mean loss, per-epoch seconds).
    """
    train_ids, test_ids = split_dataset(labels, config.psr, config.test_fraction,
                                        config.seed)
    if len({labels[i] for i in train_ids}) < 2:
        raise InsufficientSamples("train split needs at least one node per class")
    labels_idx = labels_to_indices(graph, labels)
    train_idx = [graph.index[i] for i in train_ids]

    mc = config.model_config()
    params = init_params(graph.schema, index.patterns, mc, config.seed)
    state = init_adam_state(params)
    rng = np.random.default_rng(config.seed)

    loss_history: list[float] = []
    epoch_seconds: list[float] = []
    trend: list[tuple[int, str, float | None]] = []
    for epoch in range(epochs):
        t0 = time.perf_counter()
        mean_loss, beta_sum, beta_n = _run_epoch(
            graph, index, train_idx, labels_idx, params, mc, state, config, rng)
        epoch_seconds.append(time.perf_counter() - t0)
        loss_history.append(mean_loss)
        for pid in index.pattern_ids:
            mean_beta = beta_sum[pid] / beta_n[pid] if beta_n.get(pid) else None
            trend.append((epoch, pid, mean_beta))
        if mean_loss <= loss_threshold:
            break
    return params, train_ids, test_ids, trend, loss_history, epoch_seconds


def score_split(graph: HetGraph, index: NeighborIndex, labels: dict[str, int],
                params: ModelParams, train_ids: list[str], test_ids: list[str],
                config: TrainConfig
                ) -> tuple[Metrics, dict[str, np.ndarray], dict[str, float]]:
    """Embed the split's nodes and score the test ids under ``config.eval_mode``.

    Shared by ``train`` and ``rptdetect eval``.  Returns (metrics, embeddings,
    probabilities), the last two keyed by node id in train-then-test order.
    Warns once when most scored nodes have no pattern instance at all; a
    non-finite embedding or probability (diverged parameters) raises
    ``DivergedLoss``.
    """
    mc = config.model_config()
    nodes = [graph.index[i] for i in train_ids + test_ids]
    z: dict[str, np.ndarray] = {}
    p: dict[str, float] = {}
    degenerate = 0
    for start in range(0, len(nodes), config.batch_size):
        res = forward(graph, index, nodes[start:start + config.batch_size], params, mc)
        if not (np.isfinite(list(res.p.values())).all()
                and np.isfinite(list(res.z.values())).all()):
            raise DivergedLoss("scoring gave a non-finite embedding or probability: "
                               "the parameters diverged")
        z.update((graph.ids[i], v) for i, v in res.z.items())
        p.update((graph.ids[i], v) for i, v in res.p.items())
        degenerate += len(res.degenerate)
    if 2 * degenerate > len(nodes):
        log.warning("%d of %d scored companies have no instance of any pattern; their "
                    "embeddings come from their own attributes alone", degenerate, len(nodes))
    metrics = evaluate(p if config.eval_mode == "direct" else z,
                       {i: labels[i] for i in test_ids}, config.eval_mode,
                       train_embeddings=z, train_labels={i: labels[i] for i in train_ids},
                       seed=config.seed)
    return metrics, z, p


def train(graph: HetGraph, index: NeighborIndex, labels: dict[str, int],
          config: TrainConfig) -> TrainResult:
    """Full semi-supervised run: split, epochs of Adam, final evaluation.

    Returns final parameters, test metrics under ``config.eval_mode``, and the
    per-epoch mean pattern-attention trend.
    """
    params, train_ids, test_ids, trend, loss_history, epoch_seconds = _fit(
        graph, index, labels, config, config.epochs)
    metrics, embeddings, probabilities = score_split(
        graph, index, labels, params, train_ids, test_ids, config)
    metrics.loss_history = loss_history
    metrics.epoch_seconds = epoch_seconds
    return TrainResult(params, metrics, trend, train_ids, test_ids,
                       embeddings, probabilities)


# --- timing sweep ---------------------------------------------------------------------

@dataclass
class SweepRow:
    n_nodes: int
    epochs: int
    seconds: float


def timing_sweep(sizes: Sequence[int], make_dataset, config: TrainConfig, *,
                 loss_threshold: float = 0.2,
                 max_epochs: int = 500) -> list[SweepRow]:
    """One row per graph size: nodes, epochs to the loss threshold, seconds.

    Each size runs ``train``'s set-up and epochs until an epoch's mean loss is
    at most ``loss_threshold`` (or ``max_epochs`` have run); the seconds count
    the epochs only.  ``make_dataset(total_nodes)`` must return
    (graph, index, labels).
    """
    rows = []
    for n in sizes:
        graph, index, labels = make_dataset(n)
        *_, seconds = _fit(graph, index, labels, config, max_epochs, loss_threshold)
        rows.append(SweepRow(len(graph), len(seconds), sum(seconds)))
    return rows
