"""The benchmark's workloads: inputs made from the seed, commands, and output checks.

Each workload has one set-up command, whose output the measured
commands read, and one or more measured commands. Commands are
argument lists for the ``pcacompress`` command line; paths in them are
relative to the workload's work directory. Sizes come in two grades:
``full`` for the benchmark, ``small`` for the benchmark's self-tests.
"""

from __future__ import annotations

import json

import numpy as np

import checks


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _analysis_checks(analysis, curve, ref):
    return [
        ("singular-values", checks.check_singular_values(analysis, ref)),
        ("pair-counts", checks.check_pair_counts(analysis, ref)),
        ("curve-end", checks.check_curve_end(curve, ref)),
        ("sampled-means", checks.check_sampled_means(analysis, ref)),
        ("intra-above-inter", checks.check_intra_above_inter(analysis)),
    ]


class SbmCompress:
    """The README round trip, scaled up: four dense-ish blocks, exact pair engine."""

    name = "sbm-compress"
    why = "four-block sbm at 40% nonzero; analyze and sweep-pcs over all pairs, so the pair engine dominates time and memory"
    kprime = 25
    grid = "4,25"
    shapes = {"full": (600, 300), "small": (120, 40)}  # d, cluster size
    log1p = False
    bound_seeds = 0

    def __init__(self, size):
        self.d, self.cluster = self.shapes[size]
        self.raw_dim = self.d

    def model(self):
        return {"sbm": {"d": self.d, "sizes": [self.cluster] * 4, "p": 0.7, "q": 0.3}}

    def write_inputs(self, work, seed):
        with open(work / "model.json", "w", encoding="utf-8") as fh:
            json.dump(self.model(), fh)
        self.seed = seed

    def setup_command(self, work):
        return ["simulate", "--model", "model.json", "--seed", str(self.seed), "--out-dir", "data"]

    def check_setup(self, work):
        return []

    def _ingest(self):
        args = ["--matrix", "data/dataset.mtx", "--labels", "data/dataset.labels.txt"]
        return args + (["--normalize", "log1p"] if self.log1p else [])

    def measured_commands(self, work):
        return [
            ["analyze", *self._ingest(), "--pcs", str(self.kprime), "--format", "json",
             "--out-dir", "out/analyze"],
            ["sweep-pcs", *self._ingest(), "--grid", self.grid, "--format", "json",
             "--out-dir", "out/sweep"],
        ]

    def reference(self, work):
        X, labels = checks.read_dataset(
            work / "data/dataset.mtx", work / "data/dataset.labels.txt", log1p=self.log1p
        )
        return checks.PairReference(X, labels, self.kprime, self.seed)

    def check_outputs(self, work, ref):
        analysis = _read_json(work / "out/analyze/analysis.json")
        curve = checks.read_curve(work / "out/analyze/curve.csv")
        sweep = _read_json(work / "out/sweep/sweep.json")
        return _analysis_checks(analysis, curve, ref) + [
            ("sweep", checks.check_sweep(sweep, analysis)),
        ]


class SparseCluster(SbmCompress):
    """The single-cell shape: tall, 5% nonzero, log1p; analyze and clustering."""

    name = "sparse-cluster"
    why = "tall ten-block matrix at 5% nonzero with log1p; parsing, the sparse fit and raw k-means dominate, pairs are few"
    shapes = {"full": (8000, 70), "small": (3000, 30)}
    log1p = True
    runs = 2

    def model(self):
        return {"sbm": {"d": self.d, "sizes": [self.cluster] * 10, "p": 0.14, "q": 0.04}}

    def measured_commands(self, work):
        return [
            ["analyze", *self._ingest(), "--pcs", str(self.kprime), "--format", "json",
             "--out-dir", "out/analyze"],
            ["cluster-compare", *self._ingest(), "--runs", str(self.runs), "--format", "json",
             "--out-dir", "out/cluster"],
        ]

    def check_outputs(self, work, ref):
        analysis = _read_json(work / "out/analyze/analysis.json")
        curve = checks.read_curve(work / "out/analyze/curve.csv")
        comparison = _read_json(work / "out/cluster/comparison.json")
        return _analysis_checks(analysis, curve, ref) + [
            ("scores-in-range", checks.check_scores(comparison, self.runs)),
            ("pca-beats-raw", checks.check_pca_beats_raw(comparison)),
        ]


class BoundsVerify:
    """The acceptance-04 model, scaled down: calibrate C0, then verify every bound.

    The seed permutes the coordinates of the two blocks. That changes the
    drawn datasets but none of the model's moments, so every bound keeps
    the same value and the same margin whatever the seed.
    """

    name = "bounds-verify"
    why = "two-block sbm with d far above n; dataset generation, the dense fit and Gram product, and the noise-norm check dominate"
    shapes = {"full": (34000, 350), "small": (34000, 350)}
    p, q = 0.66, 0.34
    bound_seeds = 1

    def __init__(self, size):
        self.d, self.cluster = self.shapes[size]
        self.sizes = [self.cluster, self.cluster]
        self.raw_dim = self.d

    def write_inputs(self, work, seed):
        half = self.d // 2
        block = np.r_[np.full(half, self.p), np.full(self.d - half, self.q)]
        perm = np.random.default_rng([seed, 11]).permutation(self.d)
        self.centers = np.stack([block, block[::-1]])[:, perm]
        model = {
            "centers": self.centers.tolist(),
            "sizes": self.sizes,
            "noise": [{"family": "bernoulli-residual", "scale": None}] * 2,
        }
        with open(work / "model.json", "w", encoding="utf-8") as fh:
            json.dump(model, fh)

    def setup_command(self, work):
        return ["calibrate-c0", "--model", "model.json", "--seeds", str(self.bound_seeds),
                "--format", "json", "--out-dir", "out/c0"]

    def check_setup(self, work):
        return [("c0-ratios", checks.check_c0(_read_json(work / "out/c0/c0.json"), self.ref))]

    def measured_commands(self, work):
        c0 = _read_json(work / "out/c0/c0.json")["c0"]
        return [
            ["verify-bounds", "--model", "model.json", "--seeds", str(self.bound_seeds),
             "--c0", repr(c0), "--format", "json", "--out-dir", "out/bounds"],
        ]

    def reference(self, work):
        self.ref = checks.BoundReference(
            self.centers, self.sizes, self.p, self.q, range(self.bound_seeds)
        )
        return self.ref

    def check_outputs(self, work, ref):
        report = _read_json(work / "out/bounds/bounds.json")
        return [
            ("bound-report", checks.check_bound_report(report)),
            ("s_k-closed-form", checks.check_s_k(report, ref)),
        ]


WORKLOADS = {w.name: w for w in (SbmCompress, SparseCluster, BoundsVerify)}
