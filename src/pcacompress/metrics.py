"""Pairwise distances before and after projection, and their summaries.

The central quantity is a pair's compression ratio: its distance in the
original space divided by its distance after projection. Ratios are
aggregated three ways: per cluster (table rows), per point (plot data),
and as a ranking curve (what fraction of the most-compressed pairs are
same-cluster pairs).

Every consumer reads one pair engine: one routine for pair distances
(:func:`_pair_distances`) and one reduction over cluster pairs
(:class:`ClusterPairTable`).

Pairs whose projected distance is negligible relative to the original
distance (below 1e-12 of it) are "maximally compressed": their ratio is
reported absent rather than as a huge or infinite number, and they rank
above every finite ratio in the curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError
from .linalg import DataMatrix, Projector, centered_gram, gram, project_columns

DEGENERATE_RTOL = 1e-12
# allowed numerical overshoot of post over pre before it is an error
_CONTRACTION_RTOL = 1e-9
# g_i + g_j - 2 G_ij is off by a few ulps of g_i + g_j; a squared distance
# at or below this share of g_i + g_j is recomputed by direct difference
GRAM_RECOMPUTE_RTOL = 1e-4
# stored share of entries from which a sparse input's all-pairs Gram product
# runs through dense BLAS row blocks: the sparse product costs more from
# about 10 % nonzero on, whatever the shape
DENSE_GRAM_DENSITY = 0.1
# entries per block of direct differences, and pairs per reduction step
_BLOCK_ENTRIES = 1 << 20
_CHUNK_PAIRS = 1 << 16

PairPolicy = Union[str, Tuple[str, int, int]]


class PairSet:
    """All computed pair distances, column-vectorized.

    Flat arrays ``i``, ``j``, ``pre``, ``post``, ``ratio`` (NaN for
    absent), the ``degenerate`` mask, and the ``same`` mask or None.
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


def _triangular_decode(index: np.ndarray, n: int):
    """Map linear indices over unordered pairs to (i, j), i < j, row-major."""
    index = np.asarray(index, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    # row i's pairs start at linear index i*(2n - i - 1)/2
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, index, side="right") - 1
    return i, index - starts[i] + i + 1


def _pair_indices(n: int, pair_policy: PairPolicy):
    """The policy's pairs (i, j), i < j: all of them, or a uniform sample."""
    if pair_policy == "exact":
        i, j = np.triu_indices(n, k=1)
        return i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
    if isinstance(pair_policy, tuple) and len(pair_policy) == 3 and pair_policy[0] == "sampled":
        _, m, seed = pair_policy
        total = n * (n - 1) // 2
        if not 1 <= m <= total:
            raise InputError(f"sample size {m} outside [1, {total}]")
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        chosen = rng.choice(total, size=m, replace=False)
        chosen.sort()
        return _triangular_decode(chosen, n)
    raise InputError(f"unknown pair policy {pair_policy!r}")


def _pair_distances(
    M, i: np.ndarray, j: np.ndarray, all_pairs: bool, G: Optional[np.ndarray] = None
) -> np.ndarray:
    """Distances between columns ``i[t]`` and ``j[t]`` of a dense or sparse M.

    With ``all_pairs`` (i, j) hold every column pair, and a pair's squared
    distance comes from the Gram matrix unless it is at or below
    ``GRAM_RECOMPUTE_RTOL * (g_i + g_j)``. That Gram matrix is the
    caller's G (of the columns after any shift they all share), else the
    one of the mean-centered columns (:func:`centered_gram`) for a dense
    M or a sparse one with at least ``DENSE_GRAM_DENSITY`` of its entries
    stored: distances ignore a shared shift, and such a shift would
    otherwise cancel in the Gram identity. A sparser M keeps the sparse
    Gram product. Every other distance is a direct difference, taken over
    blocks of bounded size.
    """
    sparse = sp.issparse(M)
    if all_pairs:
        d, n = M.shape
        if G is None:
            G = gram(M) if sparse and M.nnz < DENSE_GRAM_DENSITY * d * n else centered_gram(M)[0]
        g = np.diag(G).copy()
        scale = g[i] + g[j]
        sq = scale - 2.0 * G[i, j]
        direct = np.flatnonzero(sq <= GRAM_RECOMPUTE_RTOL * scale)
    else:
        sq, direct = np.empty(len(i)), np.arange(len(i))
    # entries of one pair's difference: d, or for a sparse M at most the
    # nonzeros of two columns
    width = 2.0 * M.nnz / M.shape[1] if sparse else M.shape[0]
    step = max(1, int(_BLOCK_ENTRIES // max(1.0, width)))
    for start in range(0, len(direct), step):
        t = direct[start : start + step]
        diff = M[:, i[t]] - M[:, j[t]]
        # elementwise for a dense and a sparse array alike
        sq[t] = np.asarray((diff * diff).sum(axis=0)).ravel()
    return np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)


def _pair_sets(
    A: DataMatrix, projectors, pair_policy: PairPolicy, G: Optional[np.ndarray] = None
) -> Iterator[PairSet]:
    """The policy's pairs under each projector, original distances computed once.

    G, when given, is the Gram matrix the exact original distances read
    (see :func:`_pair_distances`).
    """
    i, j = _pair_indices(A.n, pair_policy)
    all_pairs = pair_policy == "exact"
    pre = _pair_distances(A.values, i, j, all_pairs, G)
    for P in projectors:
        post = _pair_distances(project_columns(P, A), i, j, all_pairs)
        if np.any(post > pre * (1.0 + _CONTRACTION_RTOL)):
            t = int(np.argmax(post - pre))
            raise NumericalError(
                f"projected distance {post[t]:g} exceeds original {pre[t]:g} "
                f"for pair ({i[t]}, {j[t]}); projection should contract"
            )
        yield PairSet(i, j, pre, np.minimum(post, pre, out=post), labels=A.labels)


def pair_compression(
    A: DataMatrix, P: Projector, pair_policy: PairPolicy = "exact", gram=None
) -> PairSet:
    """Distances and compression ratios for all (or sampled) column pairs.

    ``pair_policy`` is ``"exact"`` or ``("sampled", m, seed)`` for a
    uniform sample of m unordered pairs. Columns are projected once;
    projected distances are computed in k' dimensions. ``gram``, the
    centered Gram matrix of ``A.values`` from
    :func:`~pcacompress.linalg.centered_gram`, spares the exact policy
    forming it again.
    """
    if A.d != P.d:
        raise InputError(f"matrix has d={A.d}, projector wants {P.d}")
    return next(_pair_sets(A, [P], pair_policy, gram))


def _require_labels(pairs: PairSet, labels, what: str) -> np.ndarray:
    labels = pairs.labels if labels is None else labels
    if labels is None:
        raise InputError(f"{what} requires labels")
    return np.asarray(labels)


@dataclass
class GroupStats:
    """Averages over one pair group (one cluster's intra or inter set)."""

    pair_count: int
    pre_avg: float
    post_avg: float
    ratio_avg: Optional[float]
    ratio_of_averages: Optional[float]
    excluded: int  # pairs with absent ratio, left out of ratio_avg


class ClusterPairTable:
    """Counts, sums and extremes of a pair set over unordered cluster pairs.

    Built in one pass over the pairs. Arrays are k x k; cell (a, b),
    a <= b, holds the pairs between clusters a and b. ``sum`` is keyed
    by ``pre``, ``post`` and ``ratio``, and so are ``min`` and ``max``,
    which are built only with ``extremes`` (else None). Ratio sums run
    over the ``finite`` pairs; ratio extremes count a degenerate pair's
    ratio as +inf.
    """

    def __init__(
        self, pairs: PairSet, labels: Optional[np.ndarray] = None, extremes: bool = False
    ):
        labels = _require_labels(pairs, labels, "cluster-pair table")
        k = int(labels.max()) + 1
        count = np.zeros(k * k, dtype=np.int64)
        finite = np.zeros(k * k, dtype=np.int64)
        quantities = ("pre", "post", "ratio")
        sums = {q: np.zeros(k * k) for q in quantities}
        mins = {q: np.full(k * k, np.inf) for q in quantities}
        maxs = {q: np.full(k * k, -np.inf) for q in quantities}
        for start in range(0, len(pairs), _CHUNK_PAIRS):
            s = slice(start, start + _CHUNK_PAIRS)
            la, lb = labels[pairs.i[s]], labels[pairs.j[s]]
            cell = np.minimum(la, lb).astype(np.int64) * k + np.maximum(la, lb)
            fin = ~pairs.degenerate[s]
            count += np.bincount(cell, minlength=k * k)
            finite += np.bincount(cell[fin], minlength=k * k)
            for q in quantities:
                values = getattr(pairs, q)[s]
                keep = fin if q == "ratio" else slice(None)
                sums[q] += np.bincount(cell[keep], weights=values[keep], minlength=k * k)
                if extremes:
                    if q == "ratio":
                        values = np.where(fin, values, np.inf)
                    np.minimum.at(mins[q], cell, values)
                    np.maximum.at(maxs[q], cell, values)
        self.count, self.finite = count.reshape(k, k), finite.reshape(k, k)
        self.sum = {q: a.reshape(k, k) for q, a in sums.items()}
        self.min = {q: a.reshape(k, k) for q, a in mins.items()} if extremes else None
        self.max = {q: a.reshape(k, k) for q, a in maxs.items()} if extremes else None

    def group(self, cells) -> Optional[GroupStats]:
        """Averages over the pairs of the selected cells (any k x k index)."""
        count = int(self.count[cells].sum())
        if count == 0:
            return None
        finite = int(self.finite[cells].sum())
        pre_avg, post_avg = (float(self.sum[q][cells].sum() / count) for q in ("pre", "post"))
        ratio_avg = float(self.sum["ratio"][cells].sum() / finite) if finite else None
        roa = pre_avg / post_avg if post_avg > 0 else None
        return GroupStats(count, pre_avg, post_avg, ratio_avg, roa, count - finite)


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


def cluster_summary(pairs: PairSet, labels: Optional[np.ndarray] = None) -> ClusterSummary:
    """Per-cluster intra and inter averages, the report-table shape.

    ``ratio_avg`` is the mean of per-pair ratios; the ratio of the
    averaged distances is reported alongside it since the two differ.
    """
    labels = _require_labels(pairs, labels, "cluster summary")
    table = ClusterPairTable(pairs, labels)
    a, b = np.indices(table.count.shape)
    sizes = np.bincount(labels)
    rows = []
    for cluster in range(len(sizes)):
        touches = (a == cluster) | (b == cluster)
        inter = table.group(touches & (a != b))
        if inter is None:
            raise InputError("every cluster needs at least one cross pair")
        intra = table.group((cluster, cluster))
        rows.append(ClusterRow(cluster=cluster, size=int(sizes[cluster]), intra=intra, inter=inter))
    return ClusterSummary(rows)


@dataclass
class PointSummary:
    point: int
    intra_avg: Optional[float]
    inter_avg: Optional[float]


def pointwise_summary(pairs: PairSet, labels: Optional[np.ndarray] = None) -> List[PointSummary]:
    """Mean compression ratio of each point against its own and other clusters."""
    labels = _require_labels(pairs, labels, "pointwise summary")
    n = len(labels)
    # slot 2p holds point p's same-cluster pairs, slot 2p + 1 its cross pairs
    sums, counts = np.zeros(2 * n), np.zeros(2 * n, dtype=np.int64)
    for start in range(0, len(pairs), _CHUNK_PAIRS):
        s = slice(start, start + _CHUNK_PAIRS)
        fin = ~pairs.degenerate[s]
        i, j, ratio = pairs.i[s][fin], pairs.j[s][fin], pairs.ratio[s][fin]
        cross = labels[i] != labels[j]
        slot = np.concatenate((2 * i + cross, 2 * j + cross))
        sums += np.bincount(slot, weights=np.concatenate((ratio, ratio)), minlength=2 * n)
        counts += np.bincount(slot, minlength=2 * n)
    sums, counts = sums.reshape(n, 2), counts.reshape(n, 2)
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
    labels = _require_labels(pairs, labels, "curve")
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


def pcs_sweep(
    A: DataMatrix, P: Projector, grid: Sequence[int], pair_policy: PairPolicy = "exact"
) -> List[dict]:
    """Mean intra and inter ratios, and their gap, under P's leading k' for k' in grid."""
    if A.labels is None:
        raise InputError("sweep requires labels")
    leading = (
        replace(P, components=P.components[:k], singular_values=P.singular_values[:k])
        for k in grid
    )
    out = []
    for kprime, pairs in zip(grid, _pair_sets(A, leading, pair_policy)):
        table = ClusterPairTable(pairs)
        diagonal = np.eye(len(table.count), dtype=bool)
        intra = table.group(diagonal)
        inter = table.group(~diagonal)
        intra_mean = intra.ratio_avg if intra else None
        inter_mean = inter.ratio_avg if inter else None
        gap = (
            intra_mean / inter_mean
            if intra_mean is not None and inter_mean not in (None, 0.0)
            else None
        )
        out.append(
            {"pcs": kprime, "intra_ratio_avg": intra_mean, "inter_ratio_avg": inter_mean, "gap": gap}
        )
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
    table_unc, table_cen = (cluster_summary(p) for p in _pair_sets(A, [unc, cen], "exact"))
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
    i, j = _pair_indices(A.n, "exact")
    # Y has only k' rows, so direct differences are cheap and exact
    leading, trailing, post = (_pair_distances(Z, i, j, False) for Z in (Y[:k], Y[k:], Y))
    post_sq = post**2
    mismatch = np.abs(post_sq - (leading**2 + trailing**2))
    if np.any(mismatch > 1e-9 * np.maximum(post_sq, 1e-300)):
        raise NumericalError("projected distance parts fail the Pythagorean identity")
    same = None if A.labels is None else A.labels[i] == A.labels[j]
    return PairSplit(i=i, j=j, leading=leading, trailing=trailing, post=post, same=same)
