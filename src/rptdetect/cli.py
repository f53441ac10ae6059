"""Single entry point for the pipeline.

Subcommands: generate, ingest, match, stats, train, eval, ablate, sweep,
export.  Options resolve as command line > manifest file > RPTDETECT_* env
var > built-in default; all randomness flows from one --seed.  Outputs are
plot-ready delimited tables plus JSON checkpoints, never images.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, InfeasibleConfig, PipelineError
from .hetgraph import (
    GRAPH_FILES,
    _quote,
    degree_histogram,
    labels_to_indices,
    load_graph,
    load_labels,
    read_json,
    save_graph,
    save_labels,
    tsv,
    validate_labels,
)
# enumerate_instances is not called here, but the benchmark's tracer wraps it under this name
from .matcher import (CAP_ERROR, build_neighbor_index, count_instances,  # noqa: F401
                      enumerate_instances, k_order_neighbors, metapath_neighbors)
from .model import load_params, save_params
from .patterns import (
    BUNDLED_METAPATHS,
    applicable_patterns,
    bundled_patterns,
    load_patterns,
)
from .stats import evader_centers, evasion_ratio_stats, ratio_table_text, stats_table_text
from .synth import GenConfig, export as export_dataset, generate, save_ground_truth, scaled_config
from .training import TrainConfig, score_split, split_dataset, timing_sweep, train

ENV_PREFIX = "RPTDETECT_"
PSR_GRID = (0.5, 0.4, 0.3, 0.2, 0.1)


def _resolve(args: argparse.Namespace, spec: dict[str, tuple]) -> None:
    """Fill unset options from manifest, environment, then defaults, each checked as the
    command line is: a value that is no string or number, is outside the option's choices
    or is non-integral for an integer option is a ``PipelineError`` naming its source."""
    manifest = {}
    if getattr(args, "manifest", None):
        manifest = read_json(args.manifest, "manifest", PipelineError)
        if not isinstance(manifest, dict):
            raise PipelineError(f"manifest {args.manifest}: not a JSON object")
    for dest, (cast, default) in spec.items():
        if getattr(args, dest, None) is not None:
            continue
        env = ENV_PREFIX + dest.upper()
        source, value = ((f"manifest {args.manifest}", manifest[dest]) if dest in manifest
                         else (env, os.environ.get(env, default)))
        try:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise TypeError("JSON true, false, null, a list or an object")
            setattr(args, dest, cast(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise PipelineError(f"{source}: bad value {value!r} for {dest!r}") from exc
        resolved = getattr(args, dest)
        if dest in CHOICES and resolved not in CHOICES[dest]:
            raise PipelineError(f"{source}: bad value {value!r} for {dest!r}, "
                                f"not one of {', '.join(CHOICES[dest])}")
        if cast is int and isinstance(value, float) and resolved != value:
            raise PipelineError(f"{source}: bad value {value!r} for {dest!r}, not an integer")


def _graph_paths(args: argparse.Namespace) -> tuple[str, str, str]:
    if args.graph:
        return tuple(os.path.join(args.graph, name) for name in GRAPH_FILES)
    if not (args.schema and args.nodes and args.edges):
        raise PipelineError("provide --graph DIR or all of --schema/--nodes/--edges")
    return args.schema, args.nodes, args.edges


def _labels_path(args: argparse.Namespace) -> str | None:
    if getattr(args, "labels", None):
        return args.labels
    if args.graph:
        candidate = os.path.join(args.graph, "labels.csv")
        if os.path.exists(candidate):
            return candidate
    return None


def _load_labels(args: argparse.Namespace, graph) -> dict[str, int]:
    """The labels file, checked against the graph; any violation is a ``PipelineError``."""
    labels_path = _labels_path(args)
    if not labels_path:
        raise PipelineError(f"{args.command} requires --labels")
    labels = load_labels(labels_path)
    violations = validate_labels(graph, labels)
    if violations:
        raise PipelineError("invalid labels: " + "; ".join(violations))
    return labels


def _load_pattern_arg(patterns_arg: str | None, schema, allow_empty: bool = False):
    pats = bundled_patterns() if patterns_arg in (None, "default") \
        else load_patterns(patterns_arg)
    usable = applicable_patterns(pats, schema)
    if not (usable or allow_empty):
        raise InfeasibleConfig(f"no usable pattern in {patterns_arg or 'default'}: "
                               f"{len(pats)} given, none applies to the graph's schema")
    skipped = [p.pattern_id for p in pats if p not in usable]
    if skipped:
        print(f"skipping patterns not matching schema: {', '.join(skipped)}",
              file=sys.stderr)
    return usable


def node_counts(text) -> list[int]:
    """Comma-separated node counts, such as ``5000,10000``; empty items are skipped."""
    return [int(s) for s in str(text).split(",") if s]


TRAIN_SPEC = {
    "patterns": (str, "default"),
    "psr": (float, 0.5),
    "test_fraction": (float, 0.2),
    "epochs": (int, 50),
    "heads": (int, 2),
    "dim": (int, 16),
    "proj_dim": (int, 16),
    "batch_size": (int, 256),
    "lr": (float, 0.005),
    "weight_decay": (float, 0.0005),
    "seed": (int, 0),
    "eval_mode": (str, "downstream"),
    "ablation": (str, "none"),
    "cap": (int, 64),
    "cap_mode": (str, "truncate"),
}
GENERATE_SPEC = {
    "seed": (int, 0), "companies": (int, 500), "persons": (int, 400),
    "items": (int, 120), "events": (int, 20), "communities": (int, 60),
    "decoys": (int, 20), "p_rpt": (float, 0.8), "p_bg": (float, 0.1),
    "label_coverage": (float, 0.9), "feature_dim": (int, 8),
    "delta": (float, 0.25), "tx_density": (float, 1.5),
    "invest_coverage": (float, 0.1), "exponent": (float, 2.5),
}
MATCH_SPEC = {"patterns": (str, "default"), "cap": (int, 64), "cap_mode": (str, "error")}
STATS_SPEC = {**MATCH_SPEC, "cap_mode": (str, "truncate"), "korder_max": (int, 3)}
SWEEP_SPEC = {**TRAIN_SPEC, "mode": (str, "psr"),
              "sizes": (node_counts, "5000,10000,20000,40000"),
              "threshold": (float, 0.2), "max_epochs": (int, 500),
              "p_rpt": (float, 1.0), "p_bg": (float, 0.0)}
CHOICES = {"eval_mode": ["downstream", "direct"], "cap_mode": ["error", "truncate"],
           "ablation": ["none", "hete", "att", "inner", "cross"], "mode": ["psr", "timing"]}
HELP = {"patterns": "pattern file or 'default'", "dim": "embedding dimension",
        "delta": "class-conditional feature shift",
        "sizes": "comma-separated node counts for timing mode"}


def _train_config(args: argparse.Namespace) -> TrainConfig:
    ablation = () if args.ablation == "none" else (args.ablation,)
    return TrainConfig(
        learning_rate=args.lr, weight_decay=args.weight_decay,
        batch_size=args.batch_size, epochs=args.epochs, heads=args.heads,
        embed_dim=args.dim, proj_dim=args.proj_dim, seed=args.seed,
        psr=args.psr, test_fraction=args.test_fraction, ablation=ablation,
        eval_mode=args.eval_mode,
    )


def _metrics_text(metrics) -> str:
    return tsv(("metric", "value"), [("f1", metrics.f1), ("accuracy", metrics.accuracy),
                                     ("tp", metrics.tp), ("fp", metrics.fp),
                                     ("fn", metrics.fn), ("tn", metrics.tn)])


def _embeddings_text(embeddings: dict[str, np.ndarray]) -> str:
    ids = sorted(embeddings)
    dim = len(embeddings[ids[0]]) if ids else 0
    lines = ["id" + "".join(f",z{k}" for k in range(dim))]
    lines += [_quote(i) + "".join(f",{float(v)!r}" for v in embeddings[i]) for i in ids]
    return "\n".join(lines) + "\n"


def _write_outputs(out: str | None, texts: dict[str, str]) -> None:
    """Write each text to the file of its name under ``out``; nothing without ``out``."""
    if out:
        os.makedirs(out, exist_ok=True)
        for name, text in texts.items():
            Path(out, name).write_text(text, encoding="utf-8", newline="")


# --- subcommands ------------------------------------------------------------------

def cmd_generate(args) -> int:
    _resolve(args, GENERATE_SPEC)
    config = GenConfig(
        companies=args.companies, persons=args.persons, items=args.items,
        events=args.events, communities=args.communities,
        decoy_communities=args.decoys, p_rpt=args.p_rpt, p_bg=args.p_bg,
        label_coverage=args.label_coverage, feature_dim=args.feature_dim,
        class_shift=args.delta, transaction_density=args.tx_density,
        invest_coverage=args.invest_coverage, degree_exponent=args.exponent,
        seed=args.seed,
    )
    graph, labels, truth = generate(config)
    export_dataset(graph, labels, args.out)
    save_ground_truth(truth, os.path.join(args.out, "communities.json"))
    print(f"wrote dataset: {len(graph)} nodes, {len(graph.src)} edges, "
          f"{len(labels)} labels -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    graph = load_graph(*_graph_paths(args))
    for what, names, codes in (("nodes", graph.type_names, graph.type_code),
                               ("edges", graph.edge_names, graph.edge_code)):
        counts = np.bincount(codes, minlength=len(names)).tolist()
        print(f"{what}: {len(codes)} " + " ".join(
            f"{name}={c}" for name, c in sorted(zip(names, counts)) if c))
    texts = {"degree_hist.tsv": tsv(("degree", "count"), degree_histogram(graph))}
    labels_path = _labels_path(args)
    if labels_path:
        violations = validate_labels(graph, load_labels(labels_path))
        status = f"{len(violations)} violations" if violations else "ok"
        print(f"labels: {status}")
        for v in violations:
            print(f"  {v}")
        texts["label_report.txt"] = "".join(v + "\n" for v in violations)
    _write_outputs(args.out, texts)
    return 0


def cmd_match(args) -> int:
    _resolve(args, MATCH_SPEC)
    graph = load_graph(*_graph_paths(args))
    pats = _load_pattern_arg(args.patterns, graph.schema)
    rows = [(p.pattern_id, *count_instances(graph, p, injective=args.injective,
                                             cap=args.cap, cap_mode=args.cap_mode))
            for p in pats]
    table = tsv(("pattern", "instances", "anchors"), rows)
    print(table, end="")
    _write_outputs(args.out, {"instances.tsv": table})
    return 0


def cmd_stats(args) -> int:
    _resolve(args, STATS_SPEC)
    if args.korder_max < 1:
        raise InfeasibleConfig(f"korder_max must be >= 1, got {args.korder_max}")
    graph = load_graph(*_graph_paths(args))
    labels = labels_to_indices(graph, _load_labels(args, graph))
    centers = evader_centers(graph, labels)
    pats = _load_pattern_arg(args.patterns, graph.schema)
    if args.cap_mode == CAP_ERROR:  # fail as a build over every company would
        for p in pats:
            count_instances(graph, p, cap=args.cap, cap_mode=args.cap_mode)
    mp = {name: metapath_neighbors(graph, path, centers)
          for name, path in BUNDLED_METAPATHS.items()
          if all(t in graph.schema.node_types for t in path[0::2])
          and all(e in graph.schema.edge_types for e in path[1::2])}
    ko = {k: k_order_neighbors(graph, k, centers) for k in range(1, args.korder_max + 1)}
    # the RPT rows and the baselines are read only around the evader centers; the index is
    # handed over unnamed, so it is freed once its rows are counted
    stats = evasion_ratio_stats(graph, build_neighbor_index(
        graph, pats, cap=args.cap, cap_mode=args.cap_mode, anchors=centers), mp, ko, labels)
    table = stats_table_text(stats)
    print(table, end="")
    _write_outputs(args.out, {"stats.tsv": table, "ratios.tsv": ratio_table_text(stats)})
    return 0


def _prepare_training(args):
    graph = load_graph(*_graph_paths(args))
    labels = _load_labels(args, graph)
    pats = _load_pattern_arg(args.patterns, graph.schema)
    index = build_neighbor_index(graph, pats, cap=args.cap, cap_mode=args.cap_mode)
    return graph, labels, index


def cmd_train(args) -> int:
    _resolve(args, TRAIN_SPEC)
    config = _train_config(args)
    graph, labels, index = _prepare_training(args)
    result = train(graph, index, labels, config)
    seconds = result.metrics.epoch_seconds
    _write_outputs(args.out, {
        "metrics.tsv": _metrics_text(result.metrics),
        "trend.tsv": tsv(("epoch", "pattern", "mean_beta"),
                         ((e, pid, "na" if b is None else b) for e, pid, b in result.trend)),
        "loss.tsv": tsv(("epoch", "loss"), enumerate(result.metrics.loss_history)),
        "embeddings.csv": _embeddings_text(result.embeddings),
        "split.json": json.dumps({"seed": config.seed, "train": result.train_ids,
                                  "test": result.test_ids}, indent=2, sort_keys=True) + "\n",
        "timing.txt": tsv(("total_seconds", sum(seconds)),
                          ((f"epoch_{i}", s) for i, s in enumerate(seconds))),
    })
    save_params(result.params, os.path.join(args.out, "checkpoint.json"))
    print(f"f1={result.metrics.f1:.4f} accuracy={result.metrics.accuracy:.4f} "
          f"final_loss={result.metrics.loss_history[-1] if result.metrics.loss_history else float('nan'):.4f}")
    return 0


def cmd_eval(args) -> int:
    split = read_json(args.split, "split", PipelineError) if args.split else {}
    if args.split and not (isinstance(split, dict) and isinstance(split.get("train"), list)
                           and isinstance(split.get("test"), list)):
        raise PipelineError(f"split {args.split}: needs 'train' and 'test' id lists")
    if type(split.get("seed", 0)) is not int:
        raise PipelineError(f"split {args.split}: seed {split['seed']!r} is not an integer")
    # the seed train wrote into the split stands in for the built-in default
    _resolve(args, {**TRAIN_SPEC, "seed": (int, split.get("seed", 0))})
    config = _train_config(args)
    graph = load_graph(*_graph_paths(args))
    labels = _load_labels(args, graph)
    params = load_params(args.checkpoint)
    config = replace(config, proj_dim=params.meta["proj_dim"],
                     embed_dim=params.meta["embed_dim"], heads=params.meta["heads"])
    if args.split:
        train_ids, test_ids = split["train"], split["test"]
        unlabeled = [i for i in train_ids + test_ids if not isinstance(i, str) or i not in labels]
        if unlabeled:
            raise PipelineError(f"split {args.split}: {unlabeled[0]!r} is not a labeled company")
        # a test id also in train, or one listed twice, would score a leaky split
        repeated = [i for i, n in Counter(train_ids + test_ids).items() if n > 1]
        if repeated:
            raise PipelineError(f"split {args.split}: {repeated[0]!r} is listed more than once "
                                f"across train and test")
    else:
        train_ids, test_ids = split_dataset(labels, config.psr, config.test_fraction,
                                            config.seed)
    # the checkpoint and split are checked before the costly index build
    pats = _load_pattern_arg(args.patterns, graph.schema, allow_empty=True)
    for key, value in (("company_type", graph.schema.company_type),
                       ("node_dims", graph.schema.node_types),
                       ("patterns", {p.pattern_id: len(p.roles) for p in pats})):
        if params.meta[key] != value:
            raise DimensionMismatch(f"checkpoint {args.checkpoint}: {key} {params.meta[key]!r} "
                                    f"does not match {value!r} from the graph and patterns")
    index = build_neighbor_index(graph, pats, cap=args.cap, cap_mode=args.cap_mode)
    metrics, _, _ = score_split(graph, index, labels, params, train_ids, test_ids, config)
    table = _metrics_text(metrics)
    print(table, end="")
    _write_outputs(args.out, {"metrics.tsv": table})
    return 0


def cmd_ablate(args) -> int:
    _resolve(args, TRAIN_SPEC)
    base = _train_config(args)
    graph, labels, index = _prepare_training(args)
    rows = []
    for variant in ("full", "hete", "inner", "cross", "att"):
        ablation = () if variant == "full" else (variant,)
        metrics = train(graph, index, labels, replace(base, ablation=ablation)).metrics
        rows.append((variant, metrics.f1, metrics.accuracy))
        print(*rows[-1], sep="\t")
    _write_outputs(args.out, {"ablation.tsv": tsv(("variant", "f1", "accuracy"), rows)})
    return 0


def cmd_sweep(args) -> int:
    _resolve(args, SWEEP_SPEC)
    rows = []
    if args.mode == "psr":
        base = _train_config(args)
        graph, labels, index = _prepare_training(args)
        for psr in PSR_GRID:
            metrics = train(graph, index, labels, replace(base, psr=psr)).metrics
            rows.append((psr, metrics.f1, metrics.accuracy))
            print(*rows[-1], sep="\t")
        name, header = "psr_sweep.tsv", ("psr", "f1", "accuracy")
    else:
        if not args.sizes:
            raise InfeasibleConfig("sizes must name at least one node count")
        base_gen = GenConfig(p_rpt=args.p_rpt, p_bg=args.p_bg, seed=args.seed)
        pats = bundled_patterns()

        def make_dataset(n):
            graph, labels, _ = generate(scaled_config(base_gen, n))
            index = build_neighbor_index(graph, applicable_patterns(pats, graph.schema),
                                         cap=args.cap, cap_mode="truncate")
            return graph, index, labels

        for r in timing_sweep(args.sizes, make_dataset, _train_config(args),
                              loss_threshold=args.threshold, max_epochs=args.max_epochs):
            rows.append((r.n_nodes, r.epochs, r.seconds))
            print(*rows[-1], sep="\t")
        name, header = "timing.tsv", ("nodes", "epochs", "seconds")
    _write_outputs(args.out, {name: tsv(header, rows)})
    return 0


def cmd_export(args) -> int:
    graph = load_graph(*_graph_paths(args))
    save_graph(graph, args.out)
    labels_path = _labels_path(args)
    if labels_path:
        save_labels(load_labels(labels_path), os.path.join(args.out, "labels.csv"))
    print(f"re-exported {len(graph)} nodes to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rptdetect",
        description="Tax-evasion detection over heterogeneous tax graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, spec, out_required in (
            ("generate", cmd_generate, "write a synthetic dataset", GENERATE_SPEC, True),
            ("ingest", cmd_ingest, "load, validate, and summarize a dataset", {}, False),
            ("match", cmd_match, "count pattern instances", MATCH_SPEC, False),
            ("stats", cmd_stats, "evasion probability per neighbor definition", STATS_SPEC,
             False),
            ("train", cmd_train, "train the detector", TRAIN_SPEC, True),
            ("eval", cmd_eval, "evaluate a checkpoint", TRAIN_SPEC, False),
            ("ablate", cmd_ablate, "train every model variant", TRAIN_SPEC, False),
            ("sweep", cmd_sweep, "PSR grid or timing-by-scale sweep", SWEEP_SPEC, False),
            ("export", cmd_export, "round-trip a dataset to a new directory", {}, True)):
        p = sub.add_parser(name, help=help_text)
        if name != "generate":
            p.add_argument("--graph", help="dataset directory (schema.json/nodes.csv/edges.csv)")
            for flag in ("--schema", "--nodes", "--edges", "--labels"):
                p.add_argument(flag)
        p.add_argument("--manifest", help="JSON file supplying defaults for any option")
        for dest, (cast, _) in spec.items():  # --test-fraction sets test_fraction
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=cast,
                           choices=CHOICES.get(dest), help=HELP.get(dest))
        p.add_argument("--out", required=out_required)
        p.set_defaults(func=func)
    sub.choices["match"].add_argument("--injective", action="store_true")
    sub.choices["eval"].add_argument("--checkpoint", required=True)
    sub.choices["eval"].add_argument("--split", help="split.json from a training run")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error\tIoFailure\t{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
