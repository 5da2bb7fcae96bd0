"""Clustering on raw and projected coordinates, and agreement metrics.

Three arms are compared: Lloyd k-means on the raw columns, the same on
the top-k' projection, and a nearest-neighbor graph on the projection
followed by greedy modularity communities. Agreement with reference
labels is reported as adjusted Rand index, normalized mutual
information, and best one-to-one matching accuracy, since no single
convention dominates.

All algorithms here are deterministic given their seeds; the graph arm
takes no seed at all (exact neighbor search, fixed node order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from .errors import InputError, NumericalError
from .linalg import DataMatrix, SvdOptions, fit_uncentered_pca, project_columns

_GAIN_EPS = 1e-12


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


def _as_points(points) -> Union[np.ndarray, sp.csr_array]:
    if sp.issparse(points):
        mat = sp.csr_array(points)
        if np.isnan(mat.data).any() or np.isinf(mat.data).any():
            raise InputError("points must be finite")
        return mat
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError("points must be a 2-D row matrix")
    if not np.isfinite(arr).all():
        raise InputError("points must be finite")
    return arr


def _row_sq_norms(X) -> np.ndarray:
    if sp.issparse(X):
        return np.asarray(X.multiply(X).sum(axis=1)).ravel()
    return np.einsum("ij,ij->i", X, X)


def _sq_distances(X, sq_norms, centers) -> np.ndarray:
    cross = X @ centers.T
    if sp.issparse(cross):
        cross = np.asarray(cross.todense())
    c_norms = np.einsum("ij,ij->i", centers, centers)
    out = sq_norms[:, None] - 2.0 * cross + c_norms[None, :]
    np.clip(out, 0.0, None, out=out)
    return out


def _cluster_means(X, labels, k) -> np.ndarray:
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    onehot = sp.csr_array(
        (np.ones(len(labels)), (labels, np.arange(len(labels)))),
        shape=(k, X.shape[0]),
    )
    sums = onehot @ X
    if sp.issparse(sums):
        sums = sums.toarray()
    safe = np.maximum(counts, 1.0)
    return sums / safe[:, None], counts


def _lloyd(X, sq_norms, k, rng, max_iter, tol):
    n = X.shape[0]
    # k-means++ seeding
    first = int(rng.integers(n))
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[[first]].toarray()[0] if sp.issparse(X) else X[first]
    d2 = _sq_distances(X, sq_norms, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = X[[idx]].toarray()[0] if sp.issparse(X) else X[idx]
        d2 = np.minimum(d2, _sq_distances(X, sq_norms, centers[j : j + 1])[:, 0])

    previous = math.inf
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        D = _sq_distances(X, sq_norms, centers)
        labels = D.argmin(axis=1)
        inertia = float(D[np.arange(n), labels].sum())
        if inertia > previous * (1.0 + 1e-9) + 1e-12:
            raise NumericalError(
                f"inertia rose from {previous:g} to {inertia:g} during Lloyd iteration"
            )
        centers, counts = _cluster_means(X, labels, k)
        for c in np.flatnonzero(counts == 0):
            # the documented policy: an emptied cluster restarts from the
            # point currently farthest from its assigned center
            point_d = _sq_distances(X, sq_norms, centers)[np.arange(n), labels]
            far = int(point_d.argmax())
            centers[c] = X[[far]].toarray()[0] if sp.issparse(X) else X[far]
            labels[far] = c
        if previous - inertia <= tol * max(inertia, 1.0) and previous < math.inf:
            previous = inertia
            break
        previous = inertia
    D = _sq_distances(X, sq_norms, centers)
    labels = D.argmin(axis=1)
    inertia = float(D[np.arange(n), labels].sum())
    return labels, inertia


def kmeans(
    points,
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-9,
    restarts: int = 10,
) -> Labeling:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts``.

    ``points`` holds one point per row, dense or sparse. Inertia is
    checked to be non-increasing on every iteration.
    """
    X = _as_points(points)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n={n}, got k={k}")
    if restarts < 1 or max_iter < 1:
        raise InputError("restarts and max_iter must be positive")
    sq_norms = _row_sq_norms(X)
    best_labels, best_inertia = None, math.inf
    for restart in range(restarts):
        rng = np.random.Generator(np.random.Philox(key=[seed, restart]))
        labels, inertia = _lloyd(X, sq_norms, k, rng, max_iter, tol)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return Labeling(best_labels, k, inertia=best_inertia)


class NeighborGraph:
    """Undirected unweighted graph stored as per-node neighbor arrays."""

    def __init__(self, n: int, neighbors: List[np.ndarray]):
        if len(neighbors) != n:
            raise InputError("need one neighbor list per node")
        self.n = n
        self.neighbors = [np.asarray(sorted(v), dtype=np.int64) for v in neighbors]
        seen = [set(v.tolist()) for v in self.neighbors]
        for u, row in enumerate(self.neighbors):
            if len(seen[u]) != len(row):
                raise InputError(f"node {u} lists a neighbor twice")
            if u in seen[u]:
                raise InputError(f"node {u} has a self-loop")
            for v in row:
                if not 0 <= v < n:
                    raise InputError(f"node {u} has out-of-range neighbor {v}")
                if u not in seen[v]:
                    raise InputError(f"edge {u}-{v} is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges) -> "NeighborGraph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, [np.array(sorted(s), dtype=np.int64) for s in adj])

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.neighbors) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]


def knn_graph(points, m: int = 20, block: int = 512) -> NeighborGraph:
    """Exact m-nearest-neighbor graph, edges unioned to undirected.

    Brute force with blocked distance evaluation; distance ties resolve
    to the lower index, and a point is never its own neighbor.
    """
    X = _as_points(points)
    n = X.shape[0]
    if not 1 <= m < n:
        raise InputError(f"need 1 <= m < n={n}, got m={m}")
    sq_norms = _row_sq_norms(X)
    dense = np.asarray(X.todense()) if sp.issparse(X) else X
    adj = [set() for _ in range(n)]
    for start in range(0, n, block):
        stop = min(start + block, n)
        D = _sq_distances(X[start:stop], sq_norms[start:stop], dense)
        for local, u in enumerate(range(start, stop)):
            row = D[local].copy()
            row[u] = np.inf
            order = np.lexsort((np.arange(n), row))
            for v in order[:m]:
                adj[u].add(int(v))
                adj[int(v)].add(u)
    return NeighborGraph(n, [np.array(sorted(s), dtype=np.int64) for s in adj])


def _weighted_modularity(adj: List[Dict[int, float]], comm: np.ndarray) -> float:
    two_m = sum(sum(nbrs.values()) for nbrs in adj)
    if two_m == 0:
        return 0.0
    intra = 0.0
    comm_degree: Dict[int, float] = {}
    for u, nbrs in enumerate(adj):
        degree = sum(nbrs.values())
        comm_degree[comm[u]] = comm_degree.get(comm[u], 0.0) + degree
        for v, w in nbrs.items():
            if comm[u] == comm[v]:
                intra += w
    return intra / two_m - sum((dc / two_m) ** 2 for dc in comm_degree.values())


def _louvain_level(adj: List[Dict[int, float]]):
    n = len(adj)
    degree = np.array([sum(nbrs.values()) for nbrs in adj])
    two_m = float(degree.sum())
    comm = np.arange(n)
    if two_m == 0:
        return comm, False
    sigma_tot = degree.astype(np.float64).copy()
    improved = False
    moved = True
    while moved:
        moved = False
        for u in range(n):
            old = comm[u]
            weight_to: Dict[int, float] = {}
            for v, w in adj[u].items():
                if v != u:
                    c = comm[v]
                    weight_to[c] = weight_to.get(c, 0.0) + w
            sigma_tot[old] -= degree[u]
            best_c = old
            best_gain = weight_to.get(old, 0.0) - degree[u] * sigma_tot[old] / two_m
            for c in sorted(weight_to):
                if c == old:
                    continue
                gain = weight_to[c] - degree[u] * sigma_tot[c] / two_m
                if gain > best_gain + _GAIN_EPS:
                    best_c, best_gain = c, gain
            comm[u] = best_c
            sigma_tot[best_c] += degree[u]
            if best_c != old:
                moved = True
                improved = True
    return comm, improved


def _aggregate(adj: List[Dict[int, float]], comm: np.ndarray):
    ids = []
    remap = {}
    for c in comm:
        if c not in remap:
            remap[c] = len(ids)
            ids.append(c)
    new_adj: List[Dict[int, float]] = [dict() for _ in ids]
    for u, nbrs in enumerate(adj):
        cu = remap[comm[u]]
        for v, w in nbrs.items():
            cv = remap[comm[v]]
            new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    return new_adj, np.array([remap[c] for c in comm])


def community_detect(graph: NeighborGraph) -> Labeling:
    """Greedy modularity communities: local moves, then aggregation.

    Nodes are visited in index order and ties go to the lowest
    community id, so the result is a pure function of the graph.
    Modularity is checked to never decrease across passes.
    """
    adj: List[Dict[int, float]] = [
        {int(v): 1.0 for v in graph.neighbors[u]} for u in range(graph.n)
    ]
    assignment = np.arange(graph.n)
    q_before = _weighted_modularity(adj, np.arange(len(adj)))
    while True:
        comm, improved = _louvain_level(adj)
        q_after = _weighted_modularity(adj, comm)
        if q_after < q_before - _GAIN_EPS:
            raise NumericalError(
                f"modularity dropped from {q_before:g} to {q_after:g}"
            )
        q_before = q_after
        if not improved:
            break
        adj, node_to_new = _aggregate(adj, comm)
        assignment = node_to_new[assignment]
    # relabel communities by first appearance over original node order
    remap = {}
    final = np.empty(graph.n, dtype=np.int64)
    for u in range(graph.n):
        c = assignment[u]
        if c not in remap:
            remap[c] = len(remap)
        final[u] = remap[c]
    return Labeling(final, k=max(len(remap), 1))


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


def best_match_accuracy(a, b) -> float:
    """Accuracy under the best one-to-one cluster matching."""
    a, b = _labels_of(a), _labels_of(b)
    _check_same_length(a, b)
    table = _contingency(a, b)
    rows, cols = linear_sum_assignment(table, maximize=True)
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
    opts: Optional[SvdOptions] = None,
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
    raw_points = A.values.T if not A.is_sparse else sp.csr_array(A.values.T)
    P = fit_uncentered_pca(A, kprime, opts)
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
    for seed in seed_list:
        arms["kmeans-raw"].append(score(seed, kmeans(raw_points, k, seed=seed)))
        arms["kmeans-pca"].append(score(seed, kmeans(projected, k, seed=seed)))
        arms["graph-pca"].append(score(seed, graph_labels))
    return ComparisonReport(arms=arms, k=k, kprime=kprime, neighbors=neighbors)
