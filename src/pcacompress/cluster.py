"""Clustering on raw and projected coordinates, and agreement metrics.

Three arms are compared: Lloyd k-means on the raw columns, the same on
the top-k' projection, and a nearest-neighbor graph on the projection
followed by greedy modularity communities. Agreement with reference
labels is reported as adjusted Rand index, normalized mutual
information, and best one-to-one matching accuracy, since no single
convention dominates.

All algorithms here are deterministic given their seeds; the graph arm
takes no seed at all (exact neighbor search, fixed node order).

Lloyd's iterations need only inner products, so k-means runs in one of
two forms, chosen from the points' shape. Points with fewer coordinates
than points (n > d, as after projection) store each center as
coordinates and read x·μ from X Cᵀ. Points with at least as many
coordinates as points (n <= d, and n² within ``linalg._DENSIFY_BUDGET``,
as for the raw columns of a wide matrix) take the Gram form of kernel
k-means (Dhillon, Guan & Kulis 2004): K = XXᵀ is formed once per
:class:`KMeansPoints`, so once for any number of seeds,
each center is stored as weights b over the points (member/size for a
mean, eᵢ for a seed or a reseeded point), x·μ is read from (K Bᵀ) and
‖μ‖² from bᵀKb, so an iteration is one dense n x n product. The forms
are equal in exact arithmetic, and agree to roundoff on continuous
data. On discrete data (0/1, or log1p of 0/1) equal nonzero counts give
exactly tied distances, which the two forms' roundoff may break
differently, so their labelings there can differ.

Distances are measured on points scaled by ``linalg.range_scale``, an
exact power of two, so squares do not leave float64 at either end of
its range; k-means reports its inertia in the input's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError
from .linalg import (
    _DENSIFY_BUDGET, DataMatrix, as_dense, checked_matrix, fit_uncentered_pca, project_columns,
    range_scale, squared_norms,
)

_GAIN_EPS = 1e-12
# k-means: Lloyd iterations per restart at most, the relative inertia
# change that ends them, and restarts per call
_MAX_ITER = 300
_TOL = 1e-9
_RESTARTS = 10
# points per block of knn_graph's distance evaluation
_KNN_BLOCK = 512


@dataclass
class Labeling:
    labels: np.ndarray
    k: int
    inertia: Optional[float] = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1 or not np.issubdtype(self.labels.dtype, np.integer):
            raise InputError("labels must be a 1-D integer array")
        if self.k < 1:
            raise InputError("k must be positive")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise InputError(f"label ids must lie in [0, {self.k})")

    @property
    def n(self) -> int:
        return len(self.labels)


def _sq_distances(sq_norms, cross, c_norms) -> np.ndarray:
    """‖x‖² − 2x·μ + ‖μ‖², clipped at 0, from the points' and centers' squared norms and x·μ."""
    out = sq_norms[:, None] - 2.0 * cross + c_norms[None, :]
    np.clip(out, 0.0, None, out=out)
    return out


def _scaled(X):
    """``(X * s, s)`` with s from :func:`~pcacompress.linalg.range_scale`; X itself when s is 1."""
    scale = range_scale(X)
    return (X if scale == 1.0 else X * scale), scale


def _one_hot(labels: np.ndarray, k: int):
    """Zᵀ, the k x n membership matrix: Z[u, labels[u]] = 1."""
    n = len(labels)
    return sp.csr_array((np.ones(n), (labels, np.arange(n))), shape=(k, n))


class _PointForm:
    """Centers as coordinates: x·μ is read from X Cᵀ."""

    def __init__(self, X):
        self.X, self.sq_norms = X, squared_norms(X, 1)

    def points(self, idx) -> np.ndarray:
        return as_dense(self.X[idx])

    def means(self, labels, k):
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = as_dense(_one_hot(labels, k) @ self.X)
        return sums / np.maximum(counts, 1.0)[:, None], counts

    def distances(self, centers) -> np.ndarray:
        cross = self.X @ centers.T
        return _sq_distances(self.sq_norms, cross, squared_norms(centers, 1))


class _GramForm:
    """Centers as weights b over the points (μ = Xᵀb): x·μ is read from K Bᵀ, ‖μ‖² from bᵀKb."""

    def __init__(self, X):
        self.K = as_dense(X @ X.T)
        self.sq_norms = self.K.diagonal()

    def points(self, idx) -> np.ndarray:
        weights = np.zeros((len(idx), len(self.K)))
        weights[np.arange(len(idx)), idx] = 1.0
        return weights

    def means(self, labels, k):
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        weights = np.zeros((k, len(labels)))
        weights[labels, np.arange(len(labels))] = 1.0 / counts[labels]
        return weights, counts

    def distances(self, centers) -> np.ndarray:
        cross = self.K @ centers.T
        return _sq_distances(self.sq_norms, cross, np.einsum("ji,ij->j", centers, cross))


def _lloyd(form, k, rng):
    n = len(form.sq_norms)
    # k-means++ seeding
    chosen = [int(rng.integers(n))]
    d2 = form.distances(form.points(chosen))[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, form.distances(form.points([idx]))[:, 0])
    centers = form.points(chosen)

    previous = math.inf
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_MAX_ITER):
        D = form.distances(centers)
        labels = D.argmin(axis=1)
        inertia = float(D[np.arange(n), labels].sum())
        if inertia > previous * (1.0 + 1e-9) + 1e-12:
            raise NumericalError(
                f"inertia rose from {previous:g} to {inertia:g} during Lloyd iteration"
            )
        centers, counts = form.means(labels, k)
        for c in np.flatnonzero(counts == 0):
            # the documented policy: an emptied cluster restarts from the
            # point currently farthest from its assigned center
            point_d = form.distances(centers)[np.arange(n), labels]
            far = int(point_d.argmax())
            centers[c] = form.points([far])[0]
            labels[far] = c
        if previous - inertia <= _TOL * max(inertia, 1.0) and previous < math.inf:
            previous = inertia
            break
        previous = inertia
    D = form.distances(centers)
    labels = D.argmin(axis=1)
    inertia = float(D[np.arange(n), labels].sum())
    return labels, inertia


class KMeansPoints:
    """Points set up once for any number of :func:`kmeans` calls.

    ``points`` holds one point per row, dense or sparse. They are checked
    and scaled here, and the iteration's form is chosen (see the module
    docstring), so the Gram form's K is formed once, however many seeds
    run on the points.
    """

    def __init__(self, points):
        X, self.scale = _scaled(checked_matrix(points, "csr", "points"))
        n, self.shape = X.shape[0], X.shape
        self.form = _GramForm(X) if n <= X.shape[1] and n * n <= _DENSIFY_BUDGET else _PointForm(X)


def kmeans(prepared: KMeansPoints, k: int, seed: int = 0) -> Labeling:
    """Lloyd's algorithm with k-means++ seeding, best of ``_RESTARTS``.

    Inertia is checked to be non-increasing on every iteration.
    """
    n = prepared.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n={n}, got k={k}")
    best_labels, best_inertia = None, math.inf
    for restart in range(_RESTARTS):
        rng = np.random.Generator(np.random.Philox(key=[seed, restart]))
        labels, inertia = _lloyd(prepared.form, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return Labeling(best_labels, k, inertia=best_inertia / prepared.scale / prepared.scale)


class NeighborGraph:
    """Undirected unweighted graph: a symmetric n x n CSR adjacency of unit entries.

    Each entry the given sparse ``adjacency`` stores is an edge, whatever its value.
    """

    def __init__(self, adjacency):
        W = sp.csr_array(adjacency)
        n = W.shape[0]
        if W.shape != (n, n):
            raise InputError(f"adjacency must be square, got shape {W.shape}")
        if ((W.indices < 0) | (W.indices >= n)).any():
            raise InputError(f"out-of-range neighbor: nodes are 0 .. {n - 1}")
        # unit entries, so a neighbor listed twice sums to 2
        W = sp.csr_array((np.ones(W.nnz), W.indices, W.indptr), shape=(n, n))
        W.sum_duplicates()
        if (W.data > 1).any():
            raise InputError("a node lists a neighbor twice")
        loops = np.flatnonzero(W.diagonal())
        if len(loops):
            raise InputError(f"node {loops[0]} has a self-loop")
        u, v = (W != W.T).nonzero()
        if len(u):
            raise InputError(f"edge {u[0]}-{v[0]} is not symmetric")
        self.n, self.adjacency = n, W

    def neighbors(self, u: int) -> np.ndarray:
        """Node u's neighbors, ascending."""
        return self.adjacency.indices[slice(*self.adjacency.indptr[u : u + 2])]


def knn_graph(points, m: int = 20) -> NeighborGraph:
    """Exact m-nearest-neighbor graph, edges unioned to undirected.

    Brute force with blocked distance evaluation; distance ties resolve
    to the lower index, and a point is never its own neighbor.
    """
    X = as_dense(checked_matrix(points, "csr", "points"))
    n = X.shape[0]
    if not 1 <= m < n:
        raise InputError(f"need 1 <= m < n={n}, got m={m}")
    X, _ = _scaled(X)
    sq_norms = squared_norms(X, 1)
    nearest = np.empty((n, m), dtype=np.int64)
    for start in range(0, n, _KNN_BLOCK):
        stop = min(start + _KNN_BLOCK, n)
        D = _sq_distances(sq_norms[start:stop], X[start:stop] @ X.T, sq_norms)
        D[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # a stable sort keeps equal distances in index order
        nearest[start:stop] = np.argsort(D, axis=1, kind="stable")[:, :m]
    W = sp.csr_array((np.ones(n * m), nearest.ravel(), np.arange(0, n * m + 1, m)), shape=(n, n))
    return NeighborGraph(W.maximum(W.T))


def _first_appearance(ids: np.ndarray):
    """``(relabeled, k)``: ids renumbered 0 .. k-1 in order of first appearance."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse], len(first)


def _modularity(W) -> float:
    """Modularity of W's nodes as singleton communities: tr(W)/2m − Σ(deg/2m)²."""
    two_m = W.sum()
    if two_m == 0:
        return 0.0
    return float(W.trace() / two_m - np.sum((W.sum(axis=1) / two_m) ** 2))


def _louvain_level(W):
    """Local moves in node order until none moves: ``(comm, improved)``.

    A move must beat the best gain so far by ``_GAIN_EPS``, over candidates
    in ascending id, so equal gains go to the lowest id (or stay put).
    """
    n = W.shape[0]
    degree = W.sum(axis=1)
    two_m = float(degree.sum())
    comm = np.arange(n)
    if two_m == 0:
        return comm, False
    indptr, indices, weights, loops = W.indptr, W.indices, W.data, W.diagonal()
    sigma_tot = degree.copy()
    improved, moved = False, True
    while moved:
        moved = False
        for u in range(n):
            lo, hi = indptr[u], indptr[u + 1]
            weight_to = np.bincount(comm[indices[lo:hi]], weights=weights[lo:hi], minlength=n)
            old = comm[u]
            weight_to[old] -= loops[u]  # a self-loop counts in the degree only
            sigma_tot[old] -= degree[u]
            best_c, best_gain = old, weight_to[old] - degree[u] * sigma_tot[old] / two_m
            candidates = weight_to.nonzero()[0]
            gains = weight_to[candidates] - degree[u] * sigma_tot[candidates] / two_m
            for c, gain in zip(candidates.tolist(), gains.tolist()):
                if c != old and gain > best_gain + _GAIN_EPS:
                    best_c, best_gain = c, gain
            comm[u] = best_c
            sigma_tot[best_c] += degree[u]
            if best_c != old:
                moved = improved = True
    return comm, improved


def community_detect(graph: NeighborGraph) -> Labeling:
    """Greedy modularity communities: local moves, then aggregation.

    Nodes are visited in index order and ties go to the lowest
    community id, so the result is a pure function of the graph.
    Modularity is checked to never decrease across passes.
    """
    W = graph.adjacency
    assignment = np.arange(graph.n)
    q_before = _modularity(W)
    while True:
        comm, improved = _louvain_level(W)
        comm, k = _first_appearance(comm)
        ZT = _one_hot(comm, k)
        collapsed = (ZT @ W @ ZT.T).tocsr()  # the communities' adjacency
        q_after = _modularity(collapsed)
        if q_after < q_before - _GAIN_EPS:
            raise NumericalError(
                f"modularity dropped from {q_before:g} to {q_after:g}"
            )
        q_before = q_after
        if not improved:
            break
        W, assignment = collapsed, comm[assignment]
    final, k = _first_appearance(assignment)
    return Labeling(final, k=max(k, 1))


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ka = int(a.max()) + 1 if len(a) else 1
    kb = int(b.max()) + 1 if len(b) else 1
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


def _labels_of(x) -> np.ndarray:
    arr = x.labels if isinstance(x, Labeling) else np.asarray(x)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise InputError("labelings must be 1-D integer arrays")
    if len(arr) and arr.min() < 0:
        raise InputError("label ids must be nonnegative")
    return arr


def _check_same_length(a, b):
    if len(a) != len(b):
        raise InputError(f"labelings differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise InputError("labelings must be non-empty")


def ari(a, b) -> float:
    """Adjusted Rand index via the pair-counting closed form."""
    a, b = _labels_of(a), _labels_of(b)
    _check_same_length(a, b)
    table = _contingency(a, b)
    n = len(a)

    def choose2(x):
        return x * (x - 1) / 2.0

    sum_ij = choose2(table).sum()
    sum_a = choose2(table.sum(axis=1)).sum()
    sum_b = choose2(table.sum(axis=0)).sum()
    total = choose2(n)
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_ij - expected) / (maximum - expected))


def nmi(a, b) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Two trivial one-cluster labelings score 1; one trivial against a
    non-trivial one scores 0.
    """
    a, b = _labels_of(a), _labels_of(b)
    _check_same_length(a, b)
    table = _contingency(a, b).astype(np.float64)
    n = table.sum()
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    joint = table / n
    outer = pa[:, None] * pb[None, :]
    live = joint > 0
    mi = float(np.sum(joint[live] * np.log(joint[live] / outer[live])))
    return float(mi / ((ha + hb) / 2.0))


def _max_matching(weights: np.ndarray):
    """``(rows, cols)``: a one-to-one matching of rows to columns of greatest total weight.

    Every row of a table with no more rows than columns is matched (the
    Hungarian method by shortest augmenting paths, with row and column
    potentials; Kuhn 1955, Jonker & Volgenant 1987); a taller table is
    matched through its transpose. Equal totals resolve to the first
    column found, a pure function of the table.
    """
    if weights.shape[0] > weights.shape[1]:
        cols, rows = _max_matching(weights.T)
        order = np.argsort(rows)
        return rows[order], cols[order]
    cost = -np.asarray(weights, dtype=np.float64)
    r, c = cost.shape
    u, v = np.zeros(r), np.zeros(c + 1)
    # owner[j] is the row matched to column j - 1; column 0 is the path's root
    owner = np.full(c + 1, -1)
    for row in range(r):
        owner[0], j0 = row, 0
        slack, via = np.full(c + 1, np.inf), np.zeros(c + 1, dtype=np.int64)
        used = np.zeros(c + 1, dtype=bool)
        while owner[j0] != -1:
            used[j0] = True
            i0, free = owner[j0], np.flatnonzero(~used)
            reduced = cost[i0, free - 1] - u[i0] - v[free]
            better = reduced < slack[free]
            slack[free[better]], via[free[better]] = reduced[better], j0
            j1 = free[np.argmin(slack[free])]
            delta = slack[j1]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j0 = j1
        while j0:  # flip the augmenting path back to the root
            owner[j0] = owner[via[j0]]
            j0 = via[j0]
    cols = np.flatnonzero(owner[1:] != -1)
    rows = owner[1:][cols]
    order = np.argsort(rows)
    return rows[order], cols[order]


def best_match_accuracy(a, b) -> float:
    """Accuracy under the best one-to-one cluster matching."""
    a, b = _labels_of(a), _labels_of(b)
    _check_same_length(a, b)
    table = _contingency(a, b)
    rows, cols = _max_matching(table)
    return float(table[rows, cols].sum() / len(a))


@dataclass
class ArmResult:
    seed: int
    ari: float
    nmi: float
    accuracy: float

    def to_dict(self) -> dict:
        return {"seed": self.seed, "ari": self.ari, "nmi": self.nmi,
                "accuracy": self.accuracy}


@dataclass
class ComparisonReport:
    arms: Dict[str, List[ArmResult]]
    k: int
    kprime: int
    neighbors: int

    def median(self, arm: str, metric: str = "ari") -> float:
        return float(np.median([getattr(r, metric) for r in self.arms[arm]]))

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "kprime": self.kprime,
            "neighbors": self.neighbors,
            "arms": {
                name: [r.to_dict() for r in results]
                for name, results in self.arms.items()
            },
            "medians": {
                name: {
                    metric: self.median(name, metric)
                    for metric in ("ari", "nmi", "accuracy")
                }
                for name in self.arms
            },
        }


ARM_NAMES = ("kmeans-raw", "kmeans-pca", "graph-pca")


def pipeline_compare(
    A: DataMatrix,
    k: int,
    kprime: int,
    seeds: Union[int, Sequence[int]],
    neighbors: int = 20,
) -> ComparisonReport:
    """Score k-means on raw and projected columns plus graph communities.

    The graph arm is deterministic, so its per-seed rows only repeat;
    they are kept so every arm has the same shape.
    """
    if A.labels is None:
        raise InputError("pipeline comparison needs reference labels")
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise InputError("need at least one seed")
    P = fit_uncentered_pca(A, kprime)
    projected = project_columns(P, A).T
    graph = knn_graph(projected, m=neighbors)
    graph_labels = community_detect(graph)
    reference = A.labels

    def score(seed, labeling):
        return ArmResult(
            seed=seed,
            ari=ari(labeling, reference),
            nmi=nmi(labeling, reference),
            accuracy=best_match_accuracy(labeling, reference),
        )

    arms: Dict[str, List[ArmResult]] = {name: [] for name in ARM_NAMES}
    raw, reduced = KMeansPoints(A.values.T), KMeansPoints(projected)
    for seed in seed_list:
        arms["kmeans-raw"].append(score(seed, kmeans(raw, k, seed=seed)))
        arms["kmeans-pca"].append(score(seed, kmeans(reduced, k, seed=seed)))
        arms["graph-pca"].append(score(seed, graph_labels))
    return ComparisonReport(arms=arms, k=k, kprime=kprime, neighbors=neighbors)
