"""Pipeline benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload fit-acc --seed 0 --seconds 45 --trace 0

With ``--trace 0`` the named workload is set up at least three times and for
at least a second (``setup_s`` is the median), then its operation repeats
until ``--seconds`` have passed, and at least twice, so outputs can be
compared across repetitions (``op_s`` is the mean: timed seconds over
operations).  Every repetition's outputs are checked; a failed check counts
as a failed operation and its timing is dropped.  The last stdout line is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 1`` the traced suite runs instead: one operation of every
workload plus the graph chain at 10k nodes, with spans around each layer,
and the per-layer metrics are printed.  ``--smoke`` runs on toy inputs.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
RUNS = os.path.join(ROOT, ".bench_runs")
SETUPS = 3          # set-ups per run, at least; setup_s is their median
SETUP_SECONDS = 1.0  # ... and at least this long, so short set-ups get more samples
MIN_REPS = 2


def _require_checkout() -> None:
    """The benchmark builds nothing: it needs the package sources next to it."""
    for path in (os.path.join(SRC, "rptdetect", "__init__.py"), ACCEPTANCE):
        if not os.path.isfile(path):
            sys.exit(f"bench: {os.path.relpath(path, ROOT)} is missing; "
                     "run from the root of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rptdetect
    if os.path.dirname(os.path.dirname(os.path.abspath(rptdetect.__file__))) != SRC:
        sys.exit(f"bench: imported rptdetect from {rptdetect.__file__}, not {SRC}")


class TruncationCounter(logging.Handler):
    """Counts matcher's per-anchor truncation warnings by pattern, writes nothing.

    Installed in traced and untraced runs alike, so stderr does not differ.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record):
        if record.msg.startswith("pattern %s: anchor %s truncated"):
            self.counts[record.args[0]] += 1


def _install_truncation_counter() -> TruncationCounter:
    handler = TruncationCounter()
    log = logging.getLogger("rptdetect.matcher")
    log.addHandler(handler)
    log.propagate = False
    return handler


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    max_threads = next((w.split("=", 1)[1] for w in config.split()
                        if w.startswith("MAX_THREADS=")), "unknown")
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_max_threads": max_threads,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _summary(what: str, values: list[float]) -> str:
    """Median and upper percentiles with their sample count, for the log only."""
    if len(values) < 2:
        return f"{len(values)} {what}s"
    q = statistics.quantiles(values, n=20, method="inclusive")
    return (f"{len(values)} {what}s, p50 {statistics.median(values):.4g} s, "
            f"p75 {q[14]:.4g} s, p90 {q[17]:.4g} s")


def measure(wl, seconds: float) -> dict:
    """Set-up, then the closed loop of timed operations; returns the result dict."""
    from rptdetect.errors import PipelineError
    from workloads import CheckFailed
    setup: list[float] = []
    while len(setup) < SETUPS or sum(setup) < SETUP_SECONDS:
        wl.clear()
        gc.collect()
        t0 = perf_counter()
        wl.setup()
        setup.append(perf_counter() - t0)
    reps, attempted, failed, ref = [], 0, 0, None
    start = perf_counter()
    while attempted < MIN_REPS or perf_counter() - start < seconds:
        attempted += 1
        gc.collect()
        try:
            rep = wl.run(attempted - 1)
            wl.check(rep, ref)
        except (PipelineError, CheckFailed) as exc:
            failed += 1
            print(f"bench: {wl.name} operation {attempted} failed: {exc}", file=sys.stderr)
            continue
        if ref is None:
            ref = rep
        reps.append(rep)
    if not reps:
        sys.exit(f"bench: every {wl.name} operation failed")
    steps = [s for r in reps for s in r.steps]
    ops = [r.seconds for r in reps]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (statistics.fmean(ops), "s"),
        "quality": (statistics.median(r.quality for r in reps), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"bench: {wl.name}: {_summary('op', ops)}; {_summary('step', steps)}",
          file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "samples": {"setup_s": setup, "op_s": ops, "step_s": steps}}


def traced_suite(seed: int, workdir: str, smoke: bool, truncations) -> dict:
    """One traced operation of every workload, plus graph-10k for growth ratios."""
    import spans
    import workloads
    from rptdetect.errors import PipelineError
    from workloads import CheckFailed
    tracer = spans.Tracer()
    per_span = tracer.calibrate()
    suite: dict[str, int] = {}
    truncated: Counter = Counter()
    attempted = failed = 0
    for name in workloads.WORKLOADS + ("graph-10k",):
        wl = workloads.make(name, seed, workdir, smoke)
        if name == "fit-acc":  # graph chains skip their warm-up here
            wl.setup()
        gc.collect()
        before = truncations.counts.copy()
        attempted += 1
        suite[name] = len(tracer.spans)
        with tracer.active():
            try:
                rep, _ = tracer.call(f"op.{name}", wl.run, 0)
                wl.check(rep, None)
            except (PipelineError, CheckFailed) as exc:
                failed += 1
                print(f"bench: traced {name} failed: {exc}", file=sys.stderr)
        if name != "graph-10k":
            truncated.update(truncations.counts - before)
        wl.clear()
    own = tracer.self_times()
    overhead = {}
    print("bench: traced wall time per workload (s): wall, self time of all spans, "
          "outside any layer span, estimated tracing overhead", file=sys.stderr)
    for name, root in suite.items():
        tree = tracer.tree(root)
        s = tracer.spans[root]
        overhead[name] = per_span * len(tree)
        print(f"bench:   {name}\t{s[spans.END] - s[spans.START]:.3f}"
              f"\t{sum(own[k] for k in tree):.3f}\t{own[root]:.3f}\t{overhead[name]:.4f}",
              file=sys.stderr)
    path = os.path.join(RUNS, f"spans-seed{seed}{'-smoke' if smoke else ''}.tsv")
    tracer.write(path)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": spans.layer_metrics(tracer, suite, dict(truncated), overhead),
            "samples": {"spans": os.path.relpath(path, ROOT)}}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload (or the traced suite) in a scratch directory of the checkout."""
    _require_checkout()
    import workloads
    for key in [k for k in os.environ if k.startswith("RPTDETECT_")]:
        del os.environ[key]
    workloads.check_acceptance_configs(ACCEPTANCE)
    truncations = _install_truncation_counter()
    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS)
    env = environment()
    env.update(workload=workload, seed=seed, trace=int(trace),
               loadavg_before=os.getloadavg())
    try:
        if trace:
            result = traced_suite(seed, workdir, smoke, truncations)
        else:
            result = measure(workloads.make(workload, seed, workdir, smoke), seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update(loadavg_after=os.getloadavg(), truncated_anchors=dict(truncations.counts))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    record = os.path.join(RUNS, f"run-{workload}-seed{seed}-trace{int(trace)}"
                                f"{'-smoke' if smoke else ''}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "samples": result.pop("samples"), "result": result},
                  fh, indent=1, sort_keys=True)
    print(f"bench: environment, raw samples and result in {os.path.relpath(record, ROOT)}: "
          + json.dumps(env, sort_keys=True), file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-acc", "graph-20k"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; seeds 1-4 are held out to confirm claims")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
