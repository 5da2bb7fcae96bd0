"""Pairwise distances before and after projection, and their summaries.

The central quantity is a pair's compression ratio: its distance in the
original space divided by its distance after projection. Ratios are
aggregated three ways: per cluster (table rows), per point (plot data),
and as a ranking curve (what fraction of the most-compressed pairs are
same-cluster pairs).

Pairs whose projected distance is negligible relative to the original
distance (below 1e-12 of it) are "maximally compressed": their ratio is
reported absent rather than as a huge or infinite number, and they rank
above every finite ratio in the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError
from .linalg import DataMatrix, Projector, gram, project_columns

DEGENERATE_RTOL = 1e-12
# allowed numerical overshoot of post over pre before it is an error
_CONTRACTION_RTOL = 1e-9

PairPolicy = Union[str, Tuple[str, int, int]]


@dataclass
class PairStats:
    pair: Tuple[int, int]
    pre_dist: float
    post_dist: float
    ratio: Optional[float]
    same_cluster: Optional[bool]


class PairSet:
    """All computed pair distances, column-vectorized.

    Behaves as a sequence of :class:`PairStats` but keeps everything in
    flat arrays (``i``, ``j``, ``pre``, ``post``, ``ratio`` with NaN for
    absent, ``degenerate`` mask, ``same`` mask or None).
    """

    def __init__(self, i, j, pre, post, labels=None):
        self.i = i
        self.j = j
        self.pre = pre
        self.post = post
        self.degenerate = post <= DEGENERATE_RTOL * pre
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = pre / post
        ratio[self.degenerate] = np.nan
        self.ratio = ratio
        self.labels = labels
        self.same = None if labels is None else labels[i] == labels[j]

    def __len__(self) -> int:
        return len(self.pre)

    def __iter__(self) -> Iterator[PairStats]:
        for t in range(len(self)):
            yield PairStats(
                pair=(int(self.i[t]), int(self.j[t])),
                pre_dist=float(self.pre[t]),
                post_dist=float(self.post[t]),
                ratio=None if self.degenerate[t] else float(self.ratio[t]),
                same_cluster=None if self.same is None else bool(self.same[t]),
            )


def _distances_from_gram(G: np.ndarray, i, j) -> np.ndarray:
    g = np.diag(G).copy()
    sq = g[i] + g[j] - 2.0 * G[i, j]
    return np.sqrt(np.clip(sq, 0.0, None))


def _triangular_decode(index: np.ndarray, n: int):
    """Map linear indices over unordered pairs to (i, j), i < j, row-major."""
    index = index.astype(np.int64)
    # row i starts at offset i*(2n - i - 1)/2; invert the quadratic
    b = 2 * n - 1
    i = np.floor((b - np.sqrt(b * b - 8.0 * index)) / 2.0).astype(np.int64)
    start = i * (2 * n - i - 1) // 2
    # float rounding can land one row off; correct both directions
    overshoot = start > index
    i[overshoot] -= 1
    start = i * (2 * n - i - 1) // 2
    undershoot = index >= start + (n - 1 - i)
    i[undershoot] += 1
    start = i * (2 * n - i - 1) // 2
    j = index - start + i + 1
    return i, j


def pair_compression(A: DataMatrix, P: Projector, pair_policy: PairPolicy = "exact") -> PairSet:
    """Distances and compression ratios for all (or sampled) column pairs.

    ``pair_policy`` is ``"exact"`` or ``("sampled", m, seed)`` for a
    uniform sample of m unordered pairs. Columns are projected once;
    projected distances are computed in k' dimensions.
    """
    if A.d != P.d:
        raise InputError(f"matrix has d={A.d}, projector wants {P.d}")
    n = A.n
    Y = project_columns(P, A)
    if pair_policy == "exact":
        i, j = np.triu_indices(n, k=1)
        i = i.astype(np.int64)
        j = j.astype(np.int64)
        pre = _distances_from_gram(gram(A.values), i, j)
        post = _distances_from_gram(Y.T @ Y, i, j)
    elif (
        isinstance(pair_policy, tuple)
        and len(pair_policy) == 3
        and pair_policy[0] == "sampled"
    ):
        _, m, seed = pair_policy
        total = n * (n - 1) // 2
        if not 1 <= m <= total:
            raise InputError(f"sample size {m} outside [1, {total}]")
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        chosen = rng.choice(total, size=m, replace=False)
        chosen.sort()
        i, j = _triangular_decode(chosen, n)
        pre = _pair_distances_direct(A.values, i, j)
        post = _pair_distances_direct(Y, i, j)
    else:
        raise InputError(f"unknown pair policy {pair_policy!r}")

    bad = post > pre * (1.0 + _CONTRACTION_RTOL)
    if np.any(bad):
        t = int(np.argmax(post - pre))
        raise NumericalError(
            f"projected distance {post[t]:g} exceeds original {pre[t]:g} "
            f"for pair ({i[t]}, {j[t]}); projection should contract"
        )
    post = np.minimum(post, pre)
    return PairSet(i, j, pre, post, labels=A.labels)


def _pair_distances_direct(values, i, j) -> np.ndarray:
    if sp.issparse(values):
        left = values[:, i]
        right = values[:, j]
        diff = (left - right).power(2).sum(axis=0)
        return np.sqrt(np.asarray(diff).ravel())
    diff = values[:, i] - values[:, j]
    return np.sqrt(np.einsum("ij,ij->j", diff, diff))


@dataclass
class GroupStats:
    """Averages over one pair group (one cluster's intra or inter set)."""

    pair_count: int
    pre_avg: float
    post_avg: float
    ratio_avg: Optional[float]
    ratio_of_averages: Optional[float]
    excluded: int  # pairs with absent ratio, left out of ratio_avg


@dataclass
class ClusterRow:
    cluster: int
    size: int
    intra: Optional[GroupStats]
    inter: GroupStats


@dataclass
class ClusterSummary:
    rows: List[ClusterRow]

    def row(self, cluster: int) -> ClusterRow:
        return self.rows[cluster]


def _group_stats(pairs: PairSet, mask: np.ndarray) -> Optional[GroupStats]:
    count = int(mask.sum())
    if count == 0:
        return None
    pre_avg = float(pairs.pre[mask].mean())
    post_avg = float(pairs.post[mask].mean())
    finite = mask & ~pairs.degenerate
    n_finite = int(finite.sum())
    ratio_avg = float(pairs.ratio[finite].mean()) if n_finite else None
    roa = pre_avg / post_avg if post_avg > 0 else None
    return GroupStats(
        pair_count=count,
        pre_avg=pre_avg,
        post_avg=post_avg,
        ratio_avg=ratio_avg,
        ratio_of_averages=roa,
        excluded=count - n_finite,
    )


def cluster_summary(pairs: PairSet, labels: Optional[np.ndarray] = None) -> ClusterSummary:
    """Per-cluster intra and inter averages, the report-table shape.

    ``ratio_avg`` is the mean of per-pair ratios; the ratio of the
    averaged distances is reported alongside it since the two differ.
    """
    if labels is None:
        labels = pairs.labels
    if labels is None:
        raise InputError("cluster summary requires labels")
    labels = np.asarray(labels)
    la, lb = labels[pairs.i], labels[pairs.j]
    same = la == lb
    sizes = np.bincount(labels)
    rows = []
    for cluster in range(len(sizes)):
        touches = (la == cluster) | (lb == cluster)
        intra = _group_stats(pairs, touches & same)
        inter = _group_stats(pairs, touches & ~same)
        if inter is None:
            raise InputError("every cluster needs at least one cross pair")
        rows.append(
            ClusterRow(cluster=cluster, size=int(sizes[cluster]), intra=intra, inter=inter)
        )
    return ClusterSummary(rows)


@dataclass
class PointSummary:
    point: int
    intra_avg: Optional[float]
    inter_avg: Optional[float]


def pointwise_summary(pairs: PairSet, labels: Optional[np.ndarray] = None) -> List[PointSummary]:
    """Mean compression ratio of each point against its own and other clusters."""
    if labels is None:
        labels = pairs.labels
    if labels is None:
        raise InputError("pointwise summary requires labels")
    labels = np.asarray(labels)
    n = len(labels)
    same = labels[pairs.i] == labels[pairs.j]
    finite = ~pairs.degenerate
    sums = np.zeros((n, 2))
    counts = np.zeros((n, 2), dtype=np.int64)
    which = np.where(same, 0, 1)
    for endpoint in (pairs.i, pairs.j):
        np.add.at(sums, (endpoint[finite], which[finite]), pairs.ratio[finite])
        np.add.at(counts, (endpoint[finite], which[finite]), 1)
    out = []
    for point in range(n):
        intra = sums[point, 0] / counts[point, 0] if counts[point, 0] else None
        inter = sums[point, 1] / counts[point, 1] if counts[point, 1] else None
        out.append(PointSummary(point, intra, inter))
    return out


@dataclass
class CurvePoint:
    x: float
    y: float


def default_curve_grid() -> np.ndarray:
    return np.round(np.arange(1, 101) * 0.01, 2)


def intra_fraction_curve(
    pairs: PairSet,
    labels: Optional[np.ndarray] = None,
    grid: Optional[np.ndarray] = None,
) -> List[CurvePoint]:
    """Fraction of same-cluster pairs among the top-x most compressed.

    Pairs sort by ratio descending; absent ratios count as maximally
    compressed and come first; ties keep pair-index order.
    """
    if labels is None:
        labels = pairs.labels
    if labels is None:
        raise InputError("curve requires labels")
    labels = np.asarray(labels)
    grid = default_curve_grid() if grid is None else np.asarray(grid)
    same = labels[pairs.i] == labels[pairs.j]
    finite_rank = np.where(pairs.degenerate, np.inf, pairs.ratio)
    order = np.lexsort((np.arange(len(pairs)), -finite_rank))
    cumulative = np.cumsum(same[order])
    total = len(pairs)
    out = []
    for x in grid:
        top = min(total, max(1, int(np.ceil(x * total - 1e-9))))
        out.append(CurvePoint(float(x), float(cumulative[top - 1] / top)))
    return out


@dataclass
class CenteringReport:
    cosine: Optional[float]
    uncentered: Optional[ClusterSummary]
    centered: Optional[ClusterSummary]
    ratio_deltas: Optional[dict]


def centering_comparison(A: DataMatrix, k: int, opts=None) -> CenteringReport:
    """How much centering changes the fit: mean alignment and table deltas.

    The cosine compares the top uncentered component with the mean
    vector; when labels are present, the uncentered and centered tables
    and their relative per-cell differences are included.
    """
    from .linalg import fit_centered_pca, fit_uncentered_pca

    unc = fit_uncentered_pca(A, k, opts)
    cen = fit_centered_pca(A, k, opts)
    mean = A.row_means()
    norm = np.linalg.norm(mean)
    cosine = None if norm == 0 else float(abs(unc.components[0] @ mean) / norm)
    if A.labels is None:
        return CenteringReport(cosine, None, None, None)
    table_unc = cluster_summary(pair_compression(A, unc))
    table_cen = cluster_summary(pair_compression(A, cen))
    deltas = {}
    for row_u, row_c in zip(table_unc.rows, table_cen.rows):
        cells = {}
        for group in ("intra", "inter"):
            got_u, got_c = getattr(row_u, group), getattr(row_c, group)
            if got_u is None or got_c is None:
                continue
            for cell in ("pre_avg", "post_avg", "ratio_avg"):
                a, b = getattr(got_u, cell), getattr(got_c, cell)
                if a is None or b is None or a == 0:
                    continue
                cells[f"{group}.{cell}"] = (b - a) / a
        deltas[row_u.cluster] = cells
    return CenteringReport(cosine, table_unc, table_cen, deltas)


@dataclass
class PairSplit:
    """Each pair's projected distance cut into leading-k and trailing parts."""

    i: np.ndarray
    j: np.ndarray
    leading: np.ndarray
    trailing: np.ndarray
    post: np.ndarray
    same: Optional[np.ndarray]


def extra_pc_split(A: DataMatrix, P: Projector, k: int) -> PairSplit:
    """Split each pair's post-projection distance at component k.

    Checks the Pythagorean identity between the full projected distance
    and the two parts to 1e-9 relative before returning.
    """
    if not 1 <= k <= P.k:
        raise InputError(f"need 1 <= k <= k'={P.k}, got k={k}")
    Y = project_columns(P, A)
    i, j = np.triu_indices(A.n, k=1)
    i = i.astype(np.int64)
    j = j.astype(np.int64)
    diff = Y[:, i] - Y[:, j]
    lead_sq = np.einsum("ij,ij->j", diff[:k], diff[:k])
    trail_sq = np.einsum("ij,ij->j", diff[k:], diff[k:])
    post_sq = np.einsum("ij,ij->j", diff, diff)
    mismatch = np.abs(post_sq - (lead_sq + trail_sq))
    tolerance = 1e-9 * np.maximum(post_sq, 1e-300)
    if np.any(mismatch > tolerance):
        raise NumericalError("projected distance parts fail the Pythagorean identity")
    same = None if A.labels is None else A.labels[i] == A.labels[j]
    return PairSplit(
        i=i,
        j=j,
        leading=np.sqrt(lead_sq),
        trailing=np.sqrt(trail_sq),
        post=np.sqrt(post_sq),
        same=same,
    )
