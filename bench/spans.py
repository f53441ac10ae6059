"""Spans around calls into each ``rptdetect`` layer, and the per-layer metrics.

The tracer replaces functions at the module attribute each caller looks them
up through (``cli.load_graph``, ``training.forward``, ``matcher.enumerate_instances``
for ``build_neighbor_index``, ``autodiff.Tape.backward``, ...) while a traced
operation runs, and puts the originals back afterwards.  Each span records
name, start, end, parent and a few counters; spans stay in memory until the
run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import gc
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from rptdetect import autodiff, cli, matcher, training

from workloads import PATTERN_IDS, WORKLOADS

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    """The spans of one traced run, each ``[name, start, end, parent, counters]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # --- recording ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, extra)``."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs), rec[EXTRA]
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def _wrapper(self, fn, name, record=None):
        tracer = self

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            result, extra = tracer.call(span, fn, *args, **kwargs)
            if record is not None:
                record(extra, args, kwargs, result)
            return result

        return traced

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_t0
            self.gc_collections += 1

    @contextmanager
    def active(self):
        """Wrap the layer functions and count garbage collections."""
        saved = []
        for owner, attr, name, record in self._patches():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, record))
        gc.callbacks.append(self._gc_callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._gc_callback)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _patches(self):
        def edges(extra, args, kwargs, result):
            extra["edges"] = len(result[0].edges)

        def bytes_read(extra, args, kwargs, result):
            extra["bytes"] = sum(os.path.getsize(p) for p in args[:3])

        def anchors(extra, args, kwargs, result):
            companies = list(result.per_node)
            extra["companies"] = len(companies)
            extra["hit"] = sum(1 for i in companies if result.has_any(i))

        def enum_name(args, kwargs):
            return f"matcher.enumerate.{args[1].pattern_id}"

        def enum_record(extra, args, kwargs, result):
            extra["instances"] = len(result)

        def korder_name(args, kwargs):
            return f"matcher.korder.k{args[1] if len(args) > 1 else kwargs['k']}"

        def members(extra, args, kwargs, result):
            extra["members"] = sum(len(s) for s in result.values())

        def pairs(extra, args, kwargs, result):
            extra["pairs"] = sum(r.pairs for r in result.rows)

        def forward_name(args, kwargs):
            labels = kwargs.get("labels", args[5] if len(args) > 5 else None)
            return "model.forward.score" if labels is None else "model.forward.train"

        def batch(extra, args, kwargs, result):
            extra["index"] = args[1]
            extra["batch"] = result.batch
            extra["nodes"] = len(result.batch)
            extra["degenerate"] = len(result.degenerate)

        enum_wrap = (enum_name, enum_record)
        return [
            (cli, "main", lambda args, kwargs: f"cli.{args[0][0]}", None),
            (cli, "generate", "synth.generate", edges),
            (cli, "export_dataset", "synth.export", None),
            (cli, "load_graph", "hetgraph.load_graph", bytes_read),
            (cli, "degree_histogram", "hetgraph.degree_histogram", None),
            (cli, "build_neighbor_index", "matcher.index", anchors),
            (cli, "enumerate_instances", *enum_wrap),
            (matcher, "enumerate_instances", *enum_wrap),
            (cli, "metapath_neighbors", "matcher.metapath", None),
            (cli, "k_order_neighbors", korder_name, members),
            (cli, "evasion_ratio_stats", "stats.ratio", pairs),
            (cli, "save_params", "model.save_params", None),
            (cli, "train", "training.train", None),
            (training, "forward", forward_name, batch),
            (training, "adam_step", "training.adam", None),
            (training, "evaluate", "training.evaluate", None),
            (autodiff.Tape, "backward", "autodiff.backward", None),
        ]

    def calibrate(self, calls: int = 20000) -> float:
        """Seconds one span adds, from wrapping a no-op with a named span and a record."""
        def noop():
            return None

        def record(extra, args, kwargs, result):
            extra["calls"] = 1

        wrapped = self._wrapper(noop, lambda args, kwargs: "calibrate", record)
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        del self.spans[:]
        return max(best, 0.0)

    # --- analysis ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def tree(self, root: int) -> list[int]:
        """Span indices under ``root``, itself included (children follow parents)."""
        inside = {root}
        for k in range(root + 1, len(self.spans)):
            if self.spans[k][PARENT] in inside:
                inside.add(k)
        return sorted(inside)

    def totals(self, roots: list[int]):
        """Per span name: inclusive seconds, self seconds, calls, summed counters."""
        own = self.self_times()
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        extra: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for root in roots:
            for k in self.tree(root):
                name, start, end, _, ex = self.spans[k]
                incl[name] += end - start
                self_s[name] += own[k]
                calls[name] += 1
                for key, v in ex.items():
                    if isinstance(v, (int, float)):
                        extra[name][key] += v
        return incl, self_s, calls, extra

    def instances_per_batch(self, roots: list[int]) -> tuple[int, int]:
        """(instances gathered, forward calls) over every forward span."""
        per_index: dict[int, tuple] = {}
        total = n = 0
        for root in roots:
            for k in self.tree(root):
                name, _, _, _, ex = self.spans[k]
                if not name.startswith("model.forward."):
                    continue
                index = ex["index"]
                if id(index) not in per_index:
                    per_index[id(index)] = (index, {
                        i: sum(len(v) for v in d.values())
                        for i, d in index.per_node.items()})
                counts = per_index[id(index)][1]
                total += sum(counts.get(i, 0) for i in ex["batch"])
                n += 1
        return total, n

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tself_s\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for k, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{k}\t{parent}\t{name}\t{start - t0:.6f}\t{end - t0:.6f}"
                         f"\t{own[k]:.6f}\n")


# --- per-layer metrics -------------------------------------------------------------

def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


# inclusive span seconds of the graph layers: metric -> span name
GRAPH_SPANS = {
    "synth.generate_s": "synth.generate",
    "synth.export_s": "synth.export",
    "hetgraph.load_graph_s": "hetgraph.load_graph",
    "hetgraph.degree_histogram_s": "hetgraph.degree_histogram",
    "matcher.index_s": "matcher.index",
    **{f"matcher.enumerate_s.{pid}": f"matcher.enumerate.{pid}" for pid in PATTERN_IDS},
    "matcher.metapath_s": "matcher.metapath",
    **{f"matcher.korder_s.k{k}": f"matcher.korder.k{k}" for k in (1, 2, 3)},
    "stats.ratio_s": "stats.ratio",
}


def layer_metrics(tracer: Tracer, suite: dict[str, int], truncated: dict[str, int],
                  overhead: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit).

    Totals run over the suite's timed operations (``suite`` maps workload to
    root span); ``.x2`` ratios compare the graph-20k chain to the graph-10k one.
    """
    roots = [suite[w] for w in WORKLOADS]
    incl, own, calls, extra = tracer.totals(roots)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit="s"):
        out[name] = (float(value), unit)

    for metric, span in GRAPH_SPANS.items():
        put(metric, incl[span])
    put("synth.edges", extra["synth.generate"]["edges"], "count")
    put("hetgraph.load_graph_calls", calls["hetgraph.load_graph"], "count")
    put("hetgraph.bytes_read", extra["hetgraph.load_graph"]["bytes"], "bytes")
    for pid in PATTERN_IDS:
        put(f"matcher.instances.{pid}",
            extra[f"matcher.enumerate.{pid}"]["instances"], "count")
        put(f"matcher.truncated_anchors.{pid}", truncated.get(pid, 0), "count")
    put("matcher.anchor_hit_ratio",
        _div(extra["matcher.index"]["hit"], extra["matcher.index"]["companies"]), "ratio")
    put("matcher.korder_members.k3", extra["matcher.korder.k3"]["members"], "count")
    put("stats.pairs", extra["stats.ratio"]["pairs"], "count")

    train, score = "model.forward.train", "model.forward.score"
    put("model.forward_s.train", incl[train])
    put("model.forward_s.score", incl[score])
    put("model.forward_calls", calls[train] + calls[score], "count")
    instances, n_forward = tracer.instances_per_batch(roots)
    put("model.instances_per_batch", _div(instances, n_forward), "count")
    put("model.degenerate_ratio",
        _div(extra[train]["degenerate"] + extra[score]["degenerate"],
             extra[train]["nodes"] + extra[score]["nodes"]), "ratio")
    put("model.save_params_s", incl["model.save_params"])
    put("autodiff.backward_s", incl["autodiff.backward"])
    put("autodiff.backward_calls", calls["autodiff.backward"], "count")
    put("training.adam_s", incl["training.adam"])
    put("training.evaluate_s", incl["training.evaluate"])
    put("training.train_self_s", own["training.train"])
    for cmd in ("train", "generate", "ingest", "match", "stats"):
        put(f"cli.{cmd}_self_s", own[f"cli.{cmd}"])
    put("python.gc_s", tracer.gc_s)
    put("python.gc_collections", tracer.gc_collections, "count")
    for w in WORKLOADS:
        put(f"trace.overhead_s.{w}", overhead[w])

    big = tracer.totals([suite["graph-20k"]])[0]
    small = tracer.totals([suite["graph-10k"]])[0]
    for metric, span in GRAPH_SPANS.items():
        put(f"{metric}.x2", _div(big[span], small[span]), "ratio")
    return out
