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
from dataclasses import replace

import numpy as np

from .errors import InfeasibleConfig, PipelineError
from .hetgraph import (
    degree_histogram,
    labels_to_indices,
    load_graph,
    load_labels,
    save_graph,
    save_labels,
    validate_labels,
    write_text,
)
from .matcher import build_neighbor_index, enumerate_instances, k_order_neighbors, metapath_neighbors
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


def _read_json(path: str, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise PipelineError(f"{what} {path}: not JSON ({exc})") from exc


def _resolve(args: argparse.Namespace, spec: dict[str, tuple]) -> None:
    """Fill unset options from manifest, environment, then defaults."""
    manifest = {}
    if getattr(args, "manifest", None):
        manifest = _read_json(args.manifest, "manifest")
        if not isinstance(manifest, dict):
            raise PipelineError(f"manifest {args.manifest}: not a JSON object")
    for dest, (cast, default) in spec.items():
        if getattr(args, dest, None) is not None:
            continue
        env = ENV_PREFIX + dest.upper()
        source, value = ((f"manifest {args.manifest}", manifest[dest]) if dest in manifest
                         else (env, os.environ.get(env, default)))
        try:
            setattr(args, dest, cast(value))
        except (TypeError, ValueError) as exc:
            raise PipelineError(f"{source}: bad value {value!r} for {dest!r}") from exc


def _graph_paths(args: argparse.Namespace) -> tuple[str, str, str]:
    if args.graph:
        base = args.graph
        return (os.path.join(base, "schema.json"),
                os.path.join(base, "nodes.csv"),
                os.path.join(base, "edges.csv"))
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
    report = validate_labels(graph, labels)
    if not report.ok:
        raise PipelineError("invalid labels: " + "; ".join(report.violations))
    return labels


def _load_pattern_arg(patterns_arg: str | None, schema):
    pats = bundled_patterns() if patterns_arg in (None, "default") \
        else load_patterns(patterns_arg)
    usable = applicable_patterns(pats, schema)
    skipped = [p.pattern_id for p in pats if p not in usable]
    if skipped:
        print(f"skipping patterns not matching schema: {', '.join(skipped)}",
              file=sys.stderr)
    return usable


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="dataset directory (schema.json/nodes.csv/edges.csv)")
    p.add_argument("--schema")
    p.add_argument("--nodes")
    p.add_argument("--edges")
    p.add_argument("--labels")
    p.add_argument("--manifest", help="JSON file supplying defaults for any option")


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
SWEEP_SPEC = {**TRAIN_SPEC, "mode": (str, "psr"), "sizes": (str, "5000,10000,20000,40000"),
              "threshold": (float, 0.2), "max_epochs": (int, 500),
              "p_rpt": (float, 1.0), "p_bg": (float, 0.0)}
CHOICES = {"eval_mode": ["downstream", "direct"], "cap_mode": ["error", "truncate"],
           "ablation": ["none", "hete", "att", "inner", "cross"], "mode": ["psr", "timing"]}
HELP = {"patterns": "pattern file or 'default'", "dim": "embedding dimension",
        "delta": "class-conditional feature shift",
        "sizes": "comma-separated node counts for timing mode"}


def _add_options(p: argparse.ArgumentParser, spec: dict[str, tuple]) -> None:
    """One flag per option of ``spec`` (``--test-fraction`` sets ``test_fraction``)."""
    for dest, (cast, _) in spec.items():
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=cast,
                       choices=CHOICES.get(dest), help=HELP.get(dest))


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
    lines = ["metric\tvalue",
             f"f1\t{metrics.f1!r}",
             f"accuracy\t{metrics.accuracy!r}",
             f"tp\t{metrics.tp}",
             f"fp\t{metrics.fp}",
             f"fn\t{metrics.fn}",
             f"tn\t{metrics.tn}"]
    return "\n".join(lines) + "\n"


def _trend_text(trend) -> str:
    lines = ["epoch\tpattern\tmean_beta"]
    for epoch, pid, beta in trend:
        lines.append(f"{epoch}\t{pid}\t{'na' if beta is None else repr(beta)}")
    return "\n".join(lines) + "\n"


def _loss_text(history) -> str:
    lines = ["epoch\tloss"]
    lines += [f"{i}\t{v!r}" for i, v in enumerate(history)]
    return "\n".join(lines) + "\n"


def _embeddings_text(embeddings: dict[str, np.ndarray]) -> str:
    ids = sorted(embeddings)
    dim = len(next(iter(embeddings.values()))) if ids else 0
    header = "id," + ",".join(f"z{k}" for k in range(dim))
    lines = [header]
    for i in ids:
        lines.append(i + "," + ",".join(repr(float(v)) for v in embeddings[i]))
    return "\n".join(lines) + "\n"


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
    os.makedirs(args.out, exist_ok=True)
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
    hist = degree_histogram(graph)
    labels_path = _labels_path(args)
    report = None
    if labels_path:
        report = validate_labels(graph, load_labels(labels_path))
        status = "ok" if report.ok else f"{len(report.violations)} violations"
        print(f"labels: {status}")
        for v in report.violations:
            print(f"  {v}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "degree_hist.tsv"),
                   "degree\tcount\n" + "".join(f"{d}\t{c}\n" for d, c in hist))
        if report is not None:
            write_text(os.path.join(args.out, "label_report.txt"),
                       "".join(v + "\n" for v in report.violations))
    return 0


def cmd_match(args) -> int:
    _resolve(args, MATCH_SPEC)
    graph = load_graph(*_graph_paths(args))
    pats = _load_pattern_arg(args.patterns, graph.schema)
    lines = ["pattern\tinstances\tanchors"]
    for p in pats:
        insts = enumerate_instances(graph, p, injective=args.injective,
                                    cap=args.cap, cap_mode=args.cap_mode)
        anchors = len(np.unique(insts[:, p.role_names.index(p.anchor)]))
        lines.append(f"{p.pattern_id}\t{len(insts)}\t{anchors}")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "instances.tsv"), table)
    return 0


def cmd_stats(args) -> int:
    _resolve(args, STATS_SPEC)
    if args.korder_max < 1:
        raise InfeasibleConfig(f"korder_max must be >= 1, got {args.korder_max}")
    graph = load_graph(*_graph_paths(args))
    labels = labels_to_indices(graph, _load_labels(args, graph))
    centers = evader_centers(graph, labels)
    pats = _load_pattern_arg(args.patterns, graph.schema)
    index = build_neighbor_index(graph, pats, cap=args.cap, cap_mode=args.cap_mode)
    # the baselines are read only around the evader centers
    mp = {name: metapath_neighbors(graph, path, centers)
          for name, path in BUNDLED_METAPATHS.items()
          if all(t in graph.schema.node_types for t in path[0::2])
          and all(e in graph.schema.edge_types for e in path[1::2])}
    ko = {k: k_order_neighbors(graph, k, centers) for k in range(1, args.korder_max + 1)}
    stats = evasion_ratio_stats(graph, index, mp, ko, labels)
    print(stats_table_text(stats), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "stats.tsv"), stats_table_text(stats))
        write_text(os.path.join(args.out, "ratios.tsv"), ratio_table_text(stats))
    return 0


def _prepare_training(args):
    graph = load_graph(*_graph_paths(args))
    labels = _load_labels(args, graph)
    pats = _load_pattern_arg(args.patterns, graph.schema)
    index = build_neighbor_index(graph, pats, cap=args.cap, cap_mode=args.cap_mode)
    return graph, labels, index


def _write_train_outputs(out_dir, result) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_params(result.params, os.path.join(out_dir, "checkpoint.json"))
    write_text(os.path.join(out_dir, "metrics.tsv"), _metrics_text(result.metrics))
    write_text(os.path.join(out_dir, "trend.tsv"), _trend_text(result.trend))
    write_text(os.path.join(out_dir, "loss.tsv"), _loss_text(result.metrics.loss_history))
    write_text(os.path.join(out_dir, "embeddings.csv"), _embeddings_text(result.embeddings))
    split = {"train": result.train_ids, "test": result.test_ids}
    write_text(os.path.join(out_dir, "split.json"),
               json.dumps(split, indent=2, sort_keys=True) + "\n")
    seconds = result.metrics.epoch_seconds
    write_text(os.path.join(out_dir, "timing.txt"),
               f"total_seconds\t{sum(seconds)!r}\n"
               + "".join(f"epoch_{i}\t{s!r}\n" for i, s in enumerate(seconds)))


def cmd_train(args) -> int:
    _resolve(args, TRAIN_SPEC)
    config = _train_config(args)
    graph, labels, index = _prepare_training(args)
    result = train(graph, index, labels, config)
    _write_train_outputs(args.out, result)
    print(f"f1={result.metrics.f1:.4f} accuracy={result.metrics.accuracy:.4f} "
          f"final_loss={result.metrics.loss_history[-1] if result.metrics.loss_history else float('nan'):.4f}")
    return 0


def cmd_eval(args) -> int:
    _resolve(args, TRAIN_SPEC)
    graph = load_graph(*_graph_paths(args))
    labels = _load_labels(args, graph)
    params = load_params(args.checkpoint)
    config = replace(_train_config(args), proj_dim=params.meta["proj_dim"],
                     embed_dim=params.meta["embed_dim"], heads=params.meta["heads"])
    if args.split:
        split = _read_json(args.split, "split")
        if not (isinstance(split, dict) and isinstance(split.get("train"), list)
                and isinstance(split.get("test"), list)):
            raise PipelineError(f"split {args.split}: needs 'train' and 'test' id lists")
        train_ids, test_ids = split["train"], split["test"]
        unlabeled = [i for i in train_ids + test_ids if not isinstance(i, str) or i not in labels]
        if unlabeled:
            raise PipelineError(f"split {args.split}: {unlabeled[0]!r} is not a labeled company")
    else:
        train_ids, test_ids = split_dataset(labels, config.psr, config.test_fraction,
                                            config.seed)
    # the checkpoint and split are checked before the costly index build
    pats = _load_pattern_arg(args.patterns, graph.schema)
    index = build_neighbor_index(graph, pats, cap=args.cap, cap_mode=args.cap_mode)
    metrics, _, _ = score_split(graph, index, labels, params, train_ids, test_ids, config)
    print(_metrics_text(metrics), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "metrics.tsv"), _metrics_text(metrics))
    return 0


def cmd_ablate(args) -> int:
    _resolve(args, TRAIN_SPEC)
    base = _train_config(args)
    graph, labels, index = _prepare_training(args)
    lines = ["variant\tf1\taccuracy"]
    for variant in ("full", "hete", "inner", "cross", "att"):
        ablation = () if variant == "full" else (variant,)
        result = train(graph, index, labels, replace(base, ablation=ablation))
        lines.append(f"{variant}\t{result.metrics.f1!r}\t{result.metrics.accuracy!r}")
        print(lines[-1])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "ablation.tsv"), "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    _resolve(args, SWEEP_SPEC)
    if args.mode == "psr":
        base = _train_config(args)
        graph, labels, index = _prepare_training(args)
        lines = ["psr\tf1\taccuracy"]
        for psr in PSR_GRID:
            metrics = train(graph, index, labels, replace(base, psr=psr)).metrics
            lines.append(f"{psr!r}\t{metrics.f1!r}\t{metrics.accuracy!r}")
            print(lines[-1])
        table = "\n".join(lines) + "\n"
        out_name = "psr_sweep.tsv"
    else:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        base_gen = GenConfig(p_rpt=args.p_rpt, p_bg=args.p_bg, seed=args.seed)
        pats = bundled_patterns()

        def make_dataset(n):
            graph, labels, _ = generate(scaled_config(base_gen, n))
            index = build_neighbor_index(graph, applicable_patterns(pats, graph.schema),
                                         cap=args.cap, cap_mode="truncate")
            return graph, index, labels

        rows = timing_sweep(sizes, make_dataset, _train_config(args),
                            loss_threshold=args.threshold, max_epochs=args.max_epochs)
        lines = ["nodes\tepochs\tseconds"]
        for r in rows:
            lines.append(f"{r.n_nodes}\t{r.epochs}\t{r.seconds!r}")
            print(lines[-1])
        table = "\n".join(lines) + "\n"
        out_name = "timing.tsv"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, out_name), table)
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

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    _add_options(p, GENERATE_SPEC)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="load, validate, and summarize a dataset")
    _add_graph_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("match", help="count pattern instances")
    _add_graph_flags(p)
    _add_options(p, MATCH_SPEC)
    p.add_argument("--injective", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("stats", help="evasion probability per neighbor definition")
    _add_graph_flags(p)
    _add_options(p, STATS_SPEC)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the detector")
    _add_graph_flags(p)
    _add_options(p, TRAIN_SPEC)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_graph_flags(p)
    _add_options(p, TRAIN_SPEC)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", help="split.json from a training run")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train every model variant")
    _add_graph_flags(p)
    _add_options(p, TRAIN_SPEC)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="PSR grid or timing-by-scale sweep")
    _add_graph_flags(p)
    _add_options(p, SWEEP_SPEC)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="round-trip a dataset to a new directory")
    _add_graph_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

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
