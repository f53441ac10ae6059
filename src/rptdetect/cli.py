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

from .errors import PipelineError
from .hetgraph import (
    degree_histogram,
    labels_to_indices,
    load_graph,
    load_labels,
    save_graph,
    validate_labels,
)
from .matcher import build_neighbor_index, enumerate_instances, k_order_neighbors, metapath_neighbors
from .model import load_params, save_params
from .patterns import (
    BUNDLED_METAPATHS,
    applicable_patterns,
    bundled_patterns,
    load_patterns,
)
from .stats import evasion_ratio_stats, ratio_table_text, stats_table_text
from .synth import GenConfig, export as export_dataset, generate, save_ground_truth, scaled_config
from .training import TrainConfig, score_split, split_dataset, timing_sweep, train

ENV_PREFIX = "RPTDETECT_"
PSR_GRID = (0.5, 0.4, 0.3, 0.2, 0.1)


def _resolve(args: argparse.Namespace, spec: dict[str, tuple]) -> None:
    """Fill unset options from manifest, environment, then defaults."""
    manifest = {}
    if getattr(args, "manifest", None):
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    for dest, (cast, default) in spec.items():
        if getattr(args, dest, None) is not None:
            continue
        if dest in manifest:
            setattr(args, dest, cast(manifest[dest]))
            continue
        env = os.environ.get(ENV_PREFIX + dest.upper())
        if env is not None:
            setattr(args, dest, cast(env))
        else:
            setattr(args, dest, default)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patterns", help="pattern file or 'default'")
    p.add_argument("--psr", type=float)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--proj-dim", dest="proj_dim", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--eval-mode", dest="eval_mode", choices=["downstream", "direct"])
    p.add_argument("--ablation", choices=["none", "hete", "att", "inner", "cross"])
    p.add_argument("--cap", type=int)
    p.add_argument("--cap-mode", dest="cap_mode", choices=["error", "truncate"])


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
    _resolve(args, {
        "seed": (int, 0), "companies": (int, 500), "persons": (int, 400),
        "items": (int, 120), "events": (int, 20), "communities": (int, 60),
        "decoys": (int, 20), "p_rpt": (float, 0.8), "p_bg": (float, 0.1),
        "label_coverage": (float, 0.9), "feature_dim": (int, 8),
        "delta": (float, 0.25), "tx_density": (float, 1.5),
        "invest_coverage": (float, 0.1), "exponent": (float, 2.5),
    })
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
    print(f"wrote dataset: {len(graph)} nodes, {len(graph.edges)} edges, "
          f"{len(labels)} labels -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    graph = load_graph(*_graph_paths(args))
    counts: dict[str, int] = {}
    for t in graph.types:
        counts[t] = counts.get(t, 0) + 1
    ecounts: dict[str, int] = {}
    for _, _, r in graph.edges:
        ecounts[r] = ecounts.get(r, 0) + 1
    print(f"nodes: {len(graph)} " + " ".join(f"{t}={n}" for t, n in sorted(counts.items())))
    print(f"edges: {len(graph.edges)} " + " ".join(f"{r}={n}" for r, n in sorted(ecounts.items())))
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
        _write(os.path.join(args.out, "degree_hist.tsv"),
               "degree\tcount\n" + "".join(f"{d}\t{c}\n" for d, c in hist))
        if report is not None:
            _write(os.path.join(args.out, "label_report.txt"),
                   "".join(v + "\n" for v in report.violations))
    return 0


def cmd_match(args) -> int:
    _resolve(args, {"patterns": (str, "default"), "cap": (int, 64),
                    "cap_mode": (str, "error")})
    graph = load_graph(*_graph_paths(args))
    pats = _load_pattern_arg(args.patterns, graph.schema)
    lines = ["pattern\tinstances\tanchors"]
    for p in pats:
        insts = enumerate_instances(graph, p, injective=args.injective,
                                    cap=args.cap, cap_mode=args.cap_mode)
        anchors = len({i.anchor for i in insts})
        lines.append(f"{p.pattern_id}\t{len(insts)}\t{anchors}")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "instances.tsv"), table)
    return 0


def cmd_stats(args) -> int:
    _resolve(args, {"patterns": (str, "default"), "cap": (int, 64),
                    "cap_mode": (str, "truncate"), "korder_max": (int, 3)})
    graph = load_graph(*_graph_paths(args))
    labels_path = _labels_path(args)
    if not labels_path:
        raise PipelineError("stats requires --labels")
    labels = load_labels(labels_path)
    pats = _load_pattern_arg(args.patterns, graph.schema)
    index = build_neighbor_index(graph, pats, cap=args.cap, cap_mode=args.cap_mode)
    mp = {name: metapath_neighbors(graph, path)
          for name, path in BUNDLED_METAPATHS.items()
          if all(t in graph.schema.node_types for t in path[0::2])
          and all(e in graph.schema.edge_types for e in path[1::2])}
    centers = graph.company_nodes()
    ko = {k: k_order_neighbors(graph, k, centers) for k in range(1, args.korder_max + 1)}
    stats = evasion_ratio_stats(graph, index, mp, ko, labels_to_indices(graph, labels))
    print(stats_table_text(stats), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "stats.tsv"), stats_table_text(stats))
        _write(os.path.join(args.out, "ratios.tsv"), ratio_table_text(stats))
    return 0


def _prepare_training(args):
    graph = load_graph(*_graph_paths(args))
    labels_path = _labels_path(args)
    if not labels_path:
        raise PipelineError("training requires --labels")
    labels = load_labels(labels_path)
    report = validate_labels(graph, labels)
    if not report.ok:
        raise PipelineError("invalid labels: " + "; ".join(report.violations))
    pats = _load_pattern_arg(args.patterns, graph.schema)
    index = build_neighbor_index(graph, pats, cap=args.cap, cap_mode=args.cap_mode)
    return graph, labels, index


def _write_train_outputs(out_dir, result) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_params(result.params, os.path.join(out_dir, "checkpoint.json"))
    _write(os.path.join(out_dir, "metrics.tsv"), _metrics_text(result.metrics))
    _write(os.path.join(out_dir, "trend.tsv"), _trend_text(result.trend))
    _write(os.path.join(out_dir, "loss.tsv"), _loss_text(result.metrics.loss_history))
    _write(os.path.join(out_dir, "embeddings.csv"), _embeddings_text(result.embeddings))
    split = {"train": result.train_ids, "test": result.test_ids}
    _write(os.path.join(out_dir, "split.json"),
           json.dumps(split, indent=2, sort_keys=True) + "\n")
    seconds = result.metrics.epoch_seconds
    _write(os.path.join(out_dir, "timing.txt"),
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
    graph, labels, index = _prepare_training(args)
    params = load_params(args.checkpoint)
    config = replace(_train_config(args), proj_dim=params.meta["proj_dim"],
                     embed_dim=params.meta["embed_dim"], heads=params.meta["heads"])
    if args.split:
        with open(args.split, encoding="utf-8") as fh:
            split = json.load(fh)
        train_ids, test_ids = split["train"], split["test"]
    else:
        train_ids, test_ids = split_dataset(labels, config.psr, config.test_fraction,
                                            config.seed)
    metrics, _, _ = score_split(graph, index, labels, params, train_ids, test_ids, config)
    print(_metrics_text(metrics), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "metrics.tsv"), _metrics_text(metrics))
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
        _write(os.path.join(args.out, "ablation.tsv"), "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    _resolve(args, {**TRAIN_SPEC, "mode": (str, "psr"),
                    "sizes": (str, "5000,10000,20000,40000"),
                    "threshold": (float, 0.2), "max_epochs": (int, 500),
                    "p_rpt": (float, 1.0), "p_bg": (float, 0.0)})
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
        _write(os.path.join(args.out, out_name), table)
    return 0


def cmd_export(args) -> int:
    graph = load_graph(*_graph_paths(args))
    os.makedirs(args.out, exist_ok=True)
    save_graph(graph, args.out)
    labels_path = _labels_path(args)
    if labels_path:
        from .hetgraph import save_labels
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
    p.add_argument("--seed", type=int)
    p.add_argument("--companies", type=int)
    p.add_argument("--persons", type=int)
    p.add_argument("--items", type=int)
    p.add_argument("--events", type=int)
    p.add_argument("--communities", type=int)
    p.add_argument("--decoys", type=int)
    p.add_argument("--p-rpt", dest="p_rpt", type=float)
    p.add_argument("--p-bg", dest="p_bg", type=float)
    p.add_argument("--label-coverage", dest="label_coverage", type=float)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--delta", type=float, help="class-conditional feature shift")
    p.add_argument("--tx-density", dest="tx_density", type=float)
    p.add_argument("--invest-coverage", dest="invest_coverage", type=float)
    p.add_argument("--exponent", type=float)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="load, validate, and summarize a dataset")
    _add_graph_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("match", help="count pattern instances")
    _add_graph_flags(p)
    p.add_argument("--patterns")
    p.add_argument("--cap", type=int)
    p.add_argument("--cap-mode", dest="cap_mode", choices=["error", "truncate"])
    p.add_argument("--injective", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("stats", help="evasion probability per neighbor definition")
    _add_graph_flags(p)
    p.add_argument("--patterns")
    p.add_argument("--cap", type=int)
    p.add_argument("--cap-mode", dest="cap_mode", choices=["error", "truncate"])
    p.add_argument("--korder-max", dest="korder_max", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the detector")
    _add_graph_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_graph_flags(p)
    _add_train_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", help="split.json from a training run")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train every model variant")
    _add_graph_flags(p)
    _add_train_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="PSR grid or timing-by-scale sweep")
    _add_graph_flags(p)
    _add_train_flags(p)
    p.add_argument("--mode", choices=["psr", "timing"])
    p.add_argument("--sizes", help="comma-separated node counts for timing mode")
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--p-rpt", dest="p_rpt", type=float)
    p.add_argument("--p-bg", dest="p_bg", type=float)
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
