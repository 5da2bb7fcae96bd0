"""Reference results computed apart from pcacompress, and the output checks.

Nothing here imports the library. Inputs are read with ``scipy.io.mmread``
and plain numpy, factorizations come from LAPACK ``eigh`` on the small
Gram matrix, and pair distances are taken as direct differences of
columns. Each ``check_*`` function returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.io
import scipy.sparse

SV_RTOL = 1e-8  # singular values against the exact factorization
MEAN_RTOL = 1e-9  # sums over the same pairs reduced in another order
C0_RTOL = 1e-9  # noise-norm ratios against eigvalsh of E^T E
# sampled means may differ from the program's exact ones by this many
# standard errors of the sample; the chance that an exact mean strays
# that far is below 1e-8 per comparison
SAMPLE_Z = 6.0
# pairs sampled from each cluster's intra and inter set; at the benchmark
# sizes this keeps SAMPLE_Z standard errors under 0.6% of every mean
SAMPLE_PER_GROUP = 20000
DEGENERATE_RTOL = 1e-12  # a pair the projection collapses has no ratio


# ----------------------------------------------------------------- inputs


def read_labels(path):
    """Cluster ids by first appearance, as the label-file format defines them."""
    with open(path, encoding="utf-8") as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    index = {}
    return np.array([index.setdefault(t, len(index)) for t in tokens], dtype=np.int64)


def read_dataset(matrix_path, labels_path, log1p=False):
    X = scipy.io.mmread(str(matrix_path)).toarray().astype(np.float64)
    if log1p:
        X = np.log1p(X)
    return X, read_labels(labels_path)


def top_singular(X, k):
    """Top k singular values and left vectors by ``eigh`` of the smaller Gram matrix."""
    d, n = X.shape
    if n <= d:
        w, V = np.linalg.eigh(X.T @ X)
        order = np.argsort(w)[::-1][:k]
        s = np.sqrt(np.clip(w[order], 0.0, None))
        U = (X @ V[:, order]) / s
    else:
        w, U = np.linalg.eigh(X @ X.T)
        order = np.argsort(w)[::-1][:k]
        s = np.sqrt(np.clip(w[order], 0.0, None))
        U = U[:, order]
    return s, U


# ------------------------------------------------------ pair reference


def _pair_distances(Z, i, j, chunk=4096):
    """Direct-difference distances between columns i and j of Z (dense or CSC)."""
    out = np.empty(len(i))
    for start in range(0, len(i), chunk):
        sl = slice(start, start + chunk)
        diff = Z[:, i[sl]] - Z[:, j[sl]]
        if scipy.sparse.issparse(diff):
            out[sl] = np.sqrt(np.asarray(diff.multiply(diff).sum(axis=0)).ravel())
        else:
            out[sl] = np.sqrt(np.einsum("ij,ij->j", diff, diff))
    return out


def _sample_group(rng, members, others, intra, m):
    """Up to m distinct pairs drawn uniformly from one cluster's intra or inter set."""
    s = len(members)
    total = s * (s - 1) // 2 if intra else s * len(others)
    take = min(m, total)
    index = rng.choice(total, size=take, replace=False) if take < total else np.arange(total)
    if intra:
        # unordered pairs (a, b), a < b, enumerated row by row
        a = np.floor((2 * s - 1 - np.sqrt((2 * s - 1) ** 2 - 8.0 * index)) / 2).astype(np.int64)
        start = a * (2 * s - a - 1) // 2
        a = np.where(start > index, a - 1, a)
        start = a * (2 * s - a - 1) // 2
        a = np.where(index >= start + (s - 1 - a), a + 1, a)
        start = a * (2 * s - a - 1) // 2
        b = index - start + a + 1
        return members[a], members[b], total
    return members[index // len(others)], others[index % len(others)], total


class PairReference:
    """Exact spectrum, exact pair counts and sampled per-cluster means for one input.

    ``groups[(cluster, "intra"|"inter")]`` maps each of ``pre_avg``,
    ``post_avg`` and ``ratio_avg`` to (sample mean, standard error).
    """

    def __init__(self, X, labels, kprime, seed, sample_per_group=SAMPLE_PER_GROUP):
        self.n = X.shape[1]
        self.sizes = np.bincount(labels)
        self.singular_values, U = top_singular(X, kprime)
        Y = U.T @ X
        columns = scipy.sparse.csc_array(X)
        rng = np.random.default_rng([seed, 7])
        self.groups = {}
        for cluster in range(len(self.sizes)):
            members = np.flatnonzero(labels == cluster)
            others = np.flatnonzero(labels != cluster)
            for kind in ("intra", "inter"):
                if kind == "intra" and len(members) < 2:
                    continue
                i, j, total = _sample_group(rng, members, others, kind == "intra", sample_per_group)
                pre = _pair_distances(columns, i, j)
                post = _pair_distances(Y, i, j)
                finite = post > DEGENERATE_RTOL * pre
                self.groups[(cluster, kind)] = {
                    "pre_avg": _mean_and_error(pre, total),
                    "post_avg": _mean_and_error(post, total),
                    "ratio_avg": _mean_and_error(pre[finite] / post[finite], total),
                }
        same = sum(int(s) * (int(s) - 1) // 2 for s in self.sizes)
        self.same_share = same / (self.n * (self.n - 1) // 2)


def _mean_and_error(values, population):
    m = len(values)
    mean = float(values.mean())
    if m >= population or m < 2:
        return mean, 0.0
    correction = math.sqrt((population - m) / (population - 1))
    return mean, float(values.std(ddof=1) / math.sqrt(m) * correction)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------- analyze


def read_curve(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return {round(float(r["fraction"]), 2): float(r["intra_share"]) for r in csv.DictReader(fh)}


def check_singular_values(doc, ref):
    got = np.asarray(doc["singular_values"], dtype=np.float64)
    want = ref.singular_values[: len(got)]
    if len(got) != len(want) or len(got) == 0:
        return [f"expected {len(want)} singular values, got {len(got)}"]
    worst = int(np.argmax(np.abs(got - want) / want))
    err = abs(got[worst] - want[worst]) / want[worst]
    return [] if err <= SV_RTOL else [f"s_{worst + 1} = {got[worst]!r}, exact {want[worst]!r} (rel {err:.2e})"]


def check_pair_counts(doc, ref):
    problems = []
    n = ref.n
    if doc["pair_count"] != n * (n - 1) // 2:
        problems.append(f"pair_count {doc['pair_count']} != {n * (n - 1) // 2}")
    for row in doc["clusters"]:
        s = int(ref.sizes[row["cluster"]])
        if row["size"] != s:
            problems.append(f"cluster {row['cluster']}: size {row['size']} != {s}")
        intra = row["intra"]["pair_count"] if row["intra"] else 0
        if intra != s * (s - 1) // 2:
            problems.append(f"cluster {row['cluster']}: intra pair_count {intra} != {s * (s - 1) // 2}")
        if row["inter"]["pair_count"] != s * (n - s):
            problems.append(
                f"cluster {row['cluster']}: inter pair_count {row['inter']['pair_count']} != {s * (n - s)}"
            )
    if len(doc["clusters"]) != len(ref.sizes):
        problems.append(f"{len(doc['clusters'])} cluster rows for {len(ref.sizes)} clusters")
    return problems


def check_curve_end(curve, ref):
    got = curve.get(1.0)
    if got is None:
        return ["curve has no point at 1.00"]
    return [] if _rel(got, ref.same_share) <= 1e-12 else [
        f"curve(1.00) = {got!r}, exact same-cluster share {ref.same_share!r}"
    ]


def check_sampled_means(doc, ref):
    problems = []
    for row in doc["clusters"]:
        for kind in ("intra", "inter"):
            group = row[kind]
            expected = ref.groups.get((row["cluster"], kind))
            if expected is None or group is None:
                if (expected is None) != (group is None):
                    problems.append(f"cluster {row['cluster']} {kind}: group presence differs")
                continue
            for key, (mean, error) in expected.items():
                got = group[key]
                tol = SAMPLE_Z * error + MEAN_RTOL * abs(mean)
                if got is None or abs(got - mean) > tol:
                    problems.append(
                        f"cluster {row['cluster']} {kind} {key} = {got!r}, sample mean "
                        f"{mean:.6g} +- {tol:.2g}"
                    )
    return problems


def check_intra_above_inter(doc):
    problems = []
    for row in doc["clusters"]:
        intra = row["intra"]["ratio_avg"] if row["intra"] else None
        inter = row["inter"]["ratio_avg"]
        if intra is None or inter is None or not intra > inter:
            problems.append(f"cluster {row['cluster']}: intra ratio {intra} not above inter {inter}")
    return problems


# ----------------------------------------------------------- sweep-pcs


def _weighted_ratio(doc, kind):
    total = 0.0
    weight = 0
    for row in doc["clusters"]:
        group = row[kind]
        if group is None or group["ratio_avg"] is None:
            continue
        finite = group["pair_count"] - group["excluded"]
        total += group["ratio_avg"] * finite
        weight += finite
    return total / weight


def check_sweep(sweep, analysis):
    """The sweep's k'=kmax means equal the analysis's pair-weighted ones; the gap falls."""
    problems = []
    grid = {row["pcs"]: row for row in sweep["grid"]}
    top = grid.get(analysis["pcs"])
    if top is None:
        return [f"sweep has no k'={analysis['pcs']} row"]
    for kind in ("intra", "inter"):
        want = _weighted_ratio(analysis, kind)
        got = top[f"{kind}_ratio_avg"]
        if got is None or _rel(got, want) > MEAN_RTOL:
            problems.append(f"sweep {kind}_ratio_avg {got!r} != analysis pair-weighted {want!r}")
    pcs = sorted(grid)
    gaps = [grid[k]["gap"] for k in pcs]
    if any(g is None for g in gaps) or not all(a > b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gap does not fall along k'={pcs}: {gaps}")
    return problems


# ----------------------------------------------------- cluster-compare


def check_scores(doc, runs):
    problems = []
    for arm, rows in doc["arms"].items():
        if len(rows) != runs:
            problems.append(f"{arm}: {len(rows)} rows for {runs} runs")
        for row in rows:
            for metric, lo in (("ari", -1.0), ("nmi", 0.0), ("accuracy", 0.0)):
                value = row[metric]
                if not (isinstance(value, float) and lo <= value <= 1.0 + 1e-12):
                    problems.append(f"{arm} seed {row['seed']}: {metric} = {value!r} out of range")
    return problems


def check_pca_beats_raw(doc):
    raw = doc["medians"]["kmeans-raw"]["ari"]
    pca = doc["medians"]["kmeans-pca"]["ari"]
    return [] if pca > raw else [f"median ARI after PCA {pca!r} does not beat raw {raw!r}"]


# -------------------------------------------------------------- bounds


def bernoulli_dataset(centers, sizes, seed):
    """The model's dataset for one seed: column i draws from Philox key (seed, i)."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    X = np.empty((centers.shape[1], len(labels)), order="F")
    for col, cluster in enumerate(labels):
        rng = np.random.Generator(np.random.Philox(key=[seed, col]))
        X[:, col] = rng.random(centers.shape[1]) < centers[cluster]
    return X, labels


class BoundReference:
    """Noise-norm ratios per dataset seed and the closed-form s_k of a two-block model."""

    def __init__(self, centers, sizes, p, q, seeds):
        centers = np.asarray(centers, dtype=np.float64)
        d, n = centers.shape[1], sum(sizes)
        sigma = math.sqrt(float((centers * (1.0 - centers)).max()))
        self.ratios = []
        for seed in seeds:
            X, labels = bernoulli_dataset(centers, sizes, seed)
            X -= centers.T[:, labels]
            top = float(np.linalg.eigvalsh(X.T @ X)[-1])
            self.ratios.append(math.sqrt(top) / (sigma * math.sqrt(d + n)))
        # equal blocks of d/2 coordinates: the mean matrix has singular
        # values (p +- q) sqrt(s d / 2); the smaller is s_k
        self.s_k = (p - q) * math.sqrt(sizes[0] * d / 2.0)


def check_c0(doc, ref):
    got = doc["ratios"]
    if len(got) != len(ref.ratios):
        return [f"{len(got)} ratios for {len(ref.ratios)} seeds"]
    problems = [
        f"seed {s}: ratio {g!r}, eigvalsh gives {w!r}"
        for s, (g, w) in enumerate(zip(got, ref.ratios))
        if _rel(g, w) > C0_RTOL
    ]
    if _rel(doc["c0"], max(ref.ratios) * (1.0 + 1e-9)) > C0_RTOL:
        problems.append(f"c0 {doc['c0']!r} is not the largest ratio {max(ref.ratios)!r}")
    return problems


RATIO_BOUNDS = ("intra-ratio-lower", "inter-ratio-upper")


def check_bound_report(doc):
    problems = []
    for record in doc["records"]:
        if record["violations"]:
            problems.append(f"{record['bound']} {record['clusters']}: {record['violations']} violations")
        if record["bound"] in RATIO_BOUNDS and record["vacuous"]:
            problems.append(f"{record['bound']} {record['clusters']} is vacuous")
    if not any(r["bound"] in RATIO_BOUNDS for r in doc["records"]):
        problems.append("no ratio-bound records")
    return problems


def check_s_k(doc, ref):
    got = doc["s_k_analytic"]
    return [] if _rel(got, ref.s_k) <= 1e-9 else [f"s_k_analytic {got!r}, closed form {ref.s_k!r}"]
