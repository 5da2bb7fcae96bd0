"""Traced run of one pcacompress command, and the per-layer figures drawn from it.

Run as a script, this file executes one CLI command in-process with a span
recorded around every call into a public function of the six library
modules, then writes the spans to a JSON file:

    python3 perfbench/tracer.py --spans spans.json --threads 1 -- analyze --matrix ...

The thread variables are set before numpy loads, exactly as ``--threads``
sets them for an untraced command. The spans are kept in memory while
the command runs and written once it ends.

Each span records its name (``module.function``), its parent, its wall
and process CPU time, and the highest resident memory seen while it was
open. Memory comes from two sources: a sampler thread that reads the
resident size every couple of milliseconds, and the process high-water
mark (``ru_maxrss``), which is exact whenever the span sets a new high.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import threading
import time

LAYERS = ("io", "models", "linalg", "metrics", "bounds", "cluster")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "cpu", "peak", "count", "dim")

    def __init__(self, sid, parent, name):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = self.end = self.cpu = 0.0
        self.peak = 0  # bytes
        self.count = None
        self.dim = None

    def to_list(self):
        return [self.sid, self.parent, self.name, self.start, self.end, self.cpu,
                self.peak, self.count, self.dim]


class Recorder:
    """Spans of one process, with a resident-memory sampler for the open ones."""

    def __init__(self, interval=0.002):
        self.spans = []
        self.stack = []
        self.interval = interval
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def rss(self) -> int:
        try:
            with open("/proc/self/statm", "rb") as fh:
                return int(fh.read().split()[1]) * self._page
        except (OSError, ValueError, IndexError):
            return 0

    def _sample(self):
        while not self._stop.wait(self.interval):
            now = self.rss()
            for span in list(self.stack):
                if now > span.peak:
                    span.peak = now

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def wrap(self, name, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(recorder.spans), recorder.stack[-1].sid if recorder.stack else None, name)
            recorder.spans.append(span)
            if name == "cluster.kmeans" and args:
                span.dim = int(getattr(args[0], "shape", (0, 0))[1])
            high_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span.peak = recorder.rss()
            recorder.stack.append(span)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                recorder.stack.pop()
                high_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if high_after > high_before:
                    # the process set its high-water mark inside this span
                    span.peak = max(span.peak, high_after * 1024)
            span.count = _count(name, result)
            return result

        return traced


def _count(name, result):
    """Work done by a call, where the benchmark reports a rate for it."""
    if name == "io.load_matrix":
        values = result[0].values
        return int(values.nnz) if hasattr(values, "nnz") else int(values.size)
    if name == "metrics.pair_compression":
        return len(result)
    return None


def install(recorder: Recorder):
    """Replace every public library function by its traced form, everywhere it is bound."""
    import importlib
    import inspect

    modules = [importlib.import_module(f"pcacompress.{layer}") for layer in LAYERS]
    modules.append(importlib.import_module("pcacompress.cli"))
    originals = {}
    for layer, module in zip(LAYERS, modules):
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                originals[id(value)] = recorder.wrap(f"{layer}.{attr}", value)
    # modules that imported a function by name hold their own binding
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in originals and inspect.isfunction(value):
                setattr(module, attr, originals[id(value)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON file for the spans")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)

    recorder = Recorder()
    install(recorder)
    from pcacompress.cli import main as cli_main

    with recorder:
        code = cli_main(command)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": [s.to_list() for s in recorder.spans]}, fh)
    return code


# ---------------------------------------------------------------- analysis


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = [Span(*row[:3]) for row in doc["spans"]]
    for span, row in zip(spans, doc["spans"]):
        span.start, span.end, span.cpu, span.peak, span.count, span.dim = row[3:]
    return spans


def _outermost(spans, names):
    """Spans named in ``names`` that no other span of ``names`` encloses."""
    by_id = {s.sid: s for s in spans}
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


class CallStats:
    """Totals over the outermost calls to a group of functions."""

    def __init__(self, spans, names, keep=None):
        calls = [s for s in _outermost(spans, set(names)) if keep is None or keep(s)]
        self.seconds = sum(s.end - s.start for s in calls)
        self.cpu = sum(s.cpu for s in calls)
        self.peak_mb = max((s.peak for s in calls), default=0) / _MB
        self.count = sum(s.count or 0 for s in calls)

    def rate(self) -> float:
        return self.count / self.seconds if self.seconds > 0 else 0.0


def self_seconds(spans):
    """Self time per layer: each span's duration less that of its direct children."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        totals[layer] += span.end - span.start - child_time.get(span.sid, 0.0)
    return totals


def layer_metrics(commands, raw_dim, bound_seeds):
    """Per-layer figures from one traced pass over a workload.

    ``commands`` holds one entry per command of the pass (set-up and
    measured): ``spans``, ``measured`` (bool), ``untraced_s`` and
    ``traced_s``, the wall times of the same command run without and
    with tracing. ``raw_dim`` tells raw k-means calls (points of that
    dimension) from k-means after projection.
    """
    spans = []
    other = 0.0
    overhead = 0.0
    self_totals = {layer: 0.0 for layer in LAYERS}
    for command in commands:
        # span ids are per process; offset them so parents stay distinct
        base = len(spans)
        for span in command["spans"]:
            span.sid += base
            if span.parent is not None:
                span.parent += base
        spans.extend(command["spans"])
        for layer, value in self_seconds(command["spans"]).items():
            self_totals[layer] += value
        overhead += command["traced_s"] - command["untraced_s"]
        if command["measured"]:
            roots = sum(s.end - s.start for s in command["spans"] if s.parent is None)
            other += command["untraced_s"] - roots

    load = CallStats(spans, ["io.load_matrix"])
    fit = CallStats(
        spans, ["linalg.fit_uncentered_pca", "linalg.fit_centered_pca", "linalg.truncated_svd"]
    )
    pairs = CallStats(spans, ["metrics.pair_compression"])
    curve = CallStats(spans, ["metrics.intra_fraction_curve"])
    noise = CallStats(spans, ["bounds.noise_norm_check"])
    per_seed = max(bound_seeds, 1)
    values = {
        "io.load_matrix_s": load.seconds,
        "io.entries_per_s": load.rate(),
        "io.load_matrix_peak_mb": load.peak_mb,
        "io.log_normalize_s": CallStats(spans, ["io.log_normalize"]).seconds,
        "io.write_matrix_s": CallStats(spans, ["io.write_matrix"]).seconds,
        "models.generate_dataset_s": CallStats(spans, ["models.generate_dataset"]).seconds,
        "linalg.fit_s": fit.seconds,
        "linalg.fit_cpu_s": fit.cpu,
        "linalg.project_columns_s": CallStats(spans, ["linalg.project_columns"]).seconds,
        "metrics.pair_compression_s": pairs.seconds,
        "metrics.pair_compression_cpu_s": pairs.cpu,
        "metrics.pairs_per_s": pairs.rate(),
        "metrics.pair_compression_peak_mb": pairs.peak_mb,
        "metrics.cluster_summary_s": CallStats(spans, ["metrics.cluster_summary"]).seconds,
        "metrics.pointwise_summary_s": CallStats(spans, ["metrics.pointwise_summary"]).seconds,
        "metrics.intra_fraction_curve_s": curve.seconds,
        "metrics.intra_fraction_curve_peak_mb": curve.peak_mb,
        "bounds.noise_norm_check_s": noise.seconds,
        "bounds.noise_norm_check_cpu_s": noise.cpu,
        "bounds.noise_norm_check_peak_mb": noise.peak_mb,
        "bounds.verify_bounds_s": CallStats(spans, ["bounds.verify_bounds"]).seconds / per_seed,
        "bounds.calibrate_c0_s": CallStats(spans, ["bounds.calibrate_c0"]).seconds / per_seed,
        "cluster.kmeans_raw_s": CallStats(
            spans, ["cluster.kmeans"], keep=lambda s: s.dim == raw_dim
        ).seconds,
        "cluster.kmeans_pca_s": CallStats(
            spans, ["cluster.kmeans"], keep=lambda s: s.dim != raw_dim
        ).seconds,
        "cluster.knn_graph_s": CallStats(spans, ["cluster.knn_graph"]).seconds,
        "cluster.community_detect_s": CallStats(spans, ["cluster.community_detect"]).seconds,
        "cli.other_s": other,
        "trace.overhead_s": overhead,
    }
    for layer, value in self_totals.items():
        values[f"{layer}.self_s"] = value
    return values


if __name__ == "__main__":
    sys.exit(main())
