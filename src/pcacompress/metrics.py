"""Pairwise distances before and after projection, and their summaries.

The central quantity is a pair's compression ratio: its distance in the
original space divided by its distance after projection. Ratios are
aggregated three ways: per cluster (table rows), per point (plot data),
and as a ranking curve (what fraction of the most-compressed pairs are
same-cluster pairs).

Every consumer reads one pair engine. A pass (:class:`PairStream`)
computes the pairs chunk by chunk, in row-major pair order, and feeds
each chunk to sinks that reduce it: :class:`ClusterPairTable` over
cluster pairs, :class:`PointSums` per point, the curve's two passes
(:class:`CurveHistogram`, then the bins holding its cut points), and
the extra-component split's counts (:func:`extra_pc_split`). All
pairs are taken over tiles of rows of the strict upper triangle, each
with its block of the Gram matrix, so no per-pair array outlives its
chunk and memory grows with n times the tile, not with the pair count.
:func:`pair_compression` runs one pass into sinks, or keeps its chunks
as one :class:`PairSet`.

Pairs whose projected distance is negligible relative to the original
distance (below 1e-12 of it) are "maximally compressed": their ratio is
reported absent rather than as a huge or infinite number, and they rank
above every finite ratio in the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg.blas
import scipy.sparse as sp

from .errors import InputError, NumericalError
from .linalg import (
    DataMatrix, Projector, centered_row_blocks, fit_centered_pca, fit_uncentered_pca,
    project_columns, range_scale, row_sliceable,
)

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
# entries per block of direct differences, and pairs per chunk of a pass
_BLOCK_ENTRIES = 1 << 20
_CHUNK_PAIRS = 1 << 15
# rows of the strict upper triangle per Gram tile: enough for the tile's
# product to run at BLAS speed, few enough that n x tile stays small
_TILE_ROWS = 256

PairPolicy = Union[str, Tuple[str, int, int]]


class PairSet:
    """Pair distances, column-vectorized: a policy's pairs, or one chunk of a pass.

    Flat arrays ``i``, ``j``, ``pre``, ``post``, ``ratio`` (NaN for absent),
    the ``degenerate`` mask, and ``li``, ``lj``, ``same`` (labels at i and j,
    and their match) or None. ``recomputed`` counts the pairs whose original
    distance the Gram identity left to a direct difference.
    """

    def __init__(self, i, j, pre, post, labels=None, recomputed=0):
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
        self.li, self.lj = (None, None) if labels is None else (labels[i], labels[j])
        self.same = None if labels is None else self.li == self.lj
        self.recomputed = recomputed

    def gather(self, labels):
        """``(labels[i], labels[j], same)``: the chunk's own, when ``labels`` are its labels."""
        if labels is self.labels:
            return self.li, self.lj, self.same
        li, lj = labels[self.i], labels[self.j]
        return li, lj, li == lj

    def __len__(self) -> int:
        return len(self.pre)

    def chunks(self) -> Iterator["PairSet"]:
        """The pairs again, as slices of at most ``_CHUNK_PAIRS``."""
        for start in range(0, len(self), _CHUNK_PAIRS):
            s = slice(start, start + _CHUNK_PAIRS)
            yield PairSet(
                self.i[s], self.j[s], self.pre[s], self.post[s], self.labels,
                self.recomputed if start == 0 else 0,
            )


def _triangular_decode(index: np.ndarray, n: int):
    """Map linear indices over unordered pairs to (i, j), i < j, row-major."""
    index = np.asarray(index, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    # row i's pairs start at linear index i*(2n - i - 1)/2
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, index, side="right") - 1
    return i, index - starts[i] + i + 1


def _sampled_pairs(n: int, pair_policy: PairPolicy):
    """The policy's pairs (i, j), i < j: None for all of them, else a uniform sample."""
    if pair_policy == "exact":
        return None
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


def _direct_distances(M, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances between columns ``i[t]`` and ``j[t]`` of a dense or sparse M.

    Direct differences, taken over blocks of bounded size.
    """
    sq = np.empty(len(i))
    # entries of one pair's difference: d, or for a sparse M at most the
    # nonzeros of two columns
    width = 2.0 * M.nnz / M.shape[1] if sp.issparse(M) else M.shape[0]
    step = max(1, int(_BLOCK_ENTRIES // max(1.0, width)))
    for start in range(0, len(i), step):
        t = slice(start, start + step)
        diff = M[:, i[t]] - M[:, j[t]]
        # elementwise for a dense and a sparse array alike
        sq[t] = np.asarray((diff * diff).sum(axis=0)).ravel()
    return np.sqrt(sq, out=sq)


def _gram_distances(block, g, upper, i, j, M) -> Tuple[np.ndarray, int]:
    """Distances of pairs (i, j) of M's columns from Gram entries ``block[upper]``.

    ``g`` is the Gram matrix's diagonal. A pair whose squared distance
    is at or below ``GRAM_RECOMPUTE_RTOL * (g_i + g_j)`` is recomputed by
    direct difference; returns the distances and how many were.
    """
    scale = g[i] + g[j]
    sq = scale - 2.0 * block[upper]
    direct = np.flatnonzero(sq <= GRAM_RECOMPUTE_RTOL * scale)
    np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    sq[direct] = _direct_distances(M, i[direct], j[direct])
    return sq, len(direct)


def _gram_rows(M, G: Optional[np.ndarray] = None):
    """``(g, rows)``: the Gram matrix the exact original distances read, by row tiles.

    ``g`` is its diagonal and ``rows(a, b)`` its block of rows a:b and
    columns a:n. It is the caller's G (of the columns after any shift
    they all share), else that of the mean-centered columns for a dense
    M or a sparse one with at least ``DENSE_GRAM_DENSITY`` of its entries
    stored: distances ignore a shared shift, and such a shift would
    otherwise cancel in the Gram identity. A sparser M keeps the sparse
    product.
    """
    d, n = M.shape
    if G is not None:
        return np.diag(G).copy(), lambda a, b: G[a:b, a:]
    if sp.issparse(M) and M.nnz < DENSE_GRAM_DENSITY * d * n:
        g = np.asarray(M.multiply(M).sum(axis=0)).ravel()
        return g, lambda a, b: (M[:, a:b].T @ M[:, a:]).toarray()
    R, mean = row_sliceable(M)
    # row blocks as deep as a tile: the tile's product runs at BLAS speed,
    # and a block is no larger than the tile
    g = np.zeros(n)
    for block in centered_row_blocks(R, mean, 0, _TILE_ROWS):
        g += np.einsum("ij,ij->j", block, block)
        del block  # freed before the next block is formed

    def rows(a, b):
        out = np.zeros((b - a, n - a), order="F")
        for block in centered_row_blocks(R, mean, a, _TILE_ROWS):
            # out += block[:, :b-a]^T block, in place
            out = scipy.linalg.blas.dgemm(
                1.0, block[:, : b - a], block, beta=1.0, c=out, trans_a=1, overwrite_c=1
            )
            del block
        return out

    return g, rows


def _exact_parts(M, sides, G):
    """All pairs, chunk by chunk: ``(i, j, pre, posts, recomputed)``.

    One tile of rows of the strict upper triangle at a time; each chunk's
    projected Gram blocks are prefix sums over the components of each
    side's centered coordinates.
    """
    n = M.shape[1]
    g, gram_rows = _gram_rows(M, G)
    centered = []
    for Y, widths in sides:
        Yc = Y - Y.mean(axis=1, keepdims=True)
        norms = np.cumsum(Yc * Yc, axis=0)[np.asarray(widths) - 1]
        centered.append((Y, Yc, widths, norms))
    for a in range(0, n - 1, _TILE_ROWS):
        b = min(n - 1, a + _TILE_ROWS)
        tile = gram_rows(a, b)
        r0 = a
        while r0 < b:
            r1 = min(b, r0 + max(1, _CHUNK_PAIRS // (n - r0 - 1)))
            # the chunk's pairs in its rows' blocks, row-major: column above row
            upper = np.arange(n - r0) > np.arange(r1 - r0)[:, None]
            i, j = (index + r0 for index in np.nonzero(upper))
            pre, recomputed = _gram_distances(tile[r0 - a : r1 - a, r0 - a :], g, upper, i, j, M)
            posts = []
            for Y, Yc, widths, norms in centered:
                block, done = 0.0, 0
                for w, gw in zip(widths, norms):
                    block = block + Yc[done:w, r0:r1].T @ Yc[done:w, r0:]
                    done = w
                    posts.append(_gram_distances(block, gw, upper, i, j, Y[:w])[0])
            yield i, j, pre, posts, recomputed
            r0 = r1
        del tile  # freed before the next tile is formed


def _sampled_parts(M, sides, sample):
    """The sampled pairs, chunk by chunk, as :func:`_exact_parts` yields them: direct differences."""
    for start in range(0, len(sample[0]), _CHUNK_PAIRS):
        i, j = (index[start : start + _CHUNK_PAIRS] for index in sample)
        posts = [_direct_distances(Y[:w], i, j) for Y, widths in sides for w in widths]
        yield i, j, _direct_distances(M, i, j), posts, 0


def _pass(A: DataMatrix, sides, sample=None, G=None):
    """One pass over all pairs, or the ``sample``'s, under several projections.

    ``sides`` holds ``(Y, widths)``: projected coordinates (k' x n) and
    the leading-row counts, ascending, to measure in. Yields per chunk
    one :class:`PairSet` per side and width, in that order, all sharing
    the chunk's pairs and original distances. A matrix whose largest
    entry lies outside :func:`~pcacompress.linalg.range_scale`'s range
    is measured scaled by an exact power of two, sides alike, without
    the caller's G (whose entries have already left float64), and its
    distances scaled back.
    """
    M, scale = A.values, range_scale(A.values)
    if scale != 1.0:
        M, G = M * scale, None
        sides = [(Y * scale, widths) for Y, widths in sides]
    if sample is None:
        parts = _exact_parts(M, sides, G)
    else:
        parts = _sampled_parts(M, sides, sample)
    for i, j, pre, posts, recomputed in parts:
        if scale != 1.0:
            pre /= scale
            for post in posts:
                post /= scale
        out = []
        for post in posts:
            if np.any(post > pre * (1.0 + _CONTRACTION_RTOL)):
                t = int(np.argmax(post - pre))
                raise NumericalError(
                    f"projected distance {post[t]:g} exceeds original {pre[t]:g} "
                    f"for pair ({i[t]}, {j[t]}); projection should contract"
                )
            post = np.minimum(post, pre, out=post)
            out.append(PairSet(i, j, pre, post, A.labels, recomputed))
        yield out


class PairStream:
    """The policy's pairs under one projector, computed afresh on each pass.

    ``pair_policy`` is ``"exact"`` or ``("sampled", m, seed)`` for a
    uniform sample of m unordered pairs. Columns are projected once, here;
    :meth:`chunks` runs one pass and stores nothing per pair. ``gram``,
    the centered Gram matrix of ``A.values`` from
    :func:`~pcacompress.linalg.centered_gram`, spares the exact policy
    forming its tiles.
    """

    def __init__(self, A: DataMatrix, P: Projector, pair_policy: PairPolicy = "exact", gram=None):
        self.A, self.gram = A, gram
        self.sample = _sampled_pairs(A.n, pair_policy)
        self.labels = A.labels
        self.Y = project_columns(P, A)

    def __len__(self) -> int:
        n = self.A.n
        return n * (n - 1) // 2 if self.sample is None else len(self.sample[0])

    def chunks(self) -> Iterator[PairSet]:
        sides = [(self.Y, [self.Y.shape[0]])]
        for (chunk,) in _pass(self.A, sides, self.sample, self.gram):
            yield chunk


def pair_compression(
    A: DataMatrix, P: Projector, pair_policy: PairPolicy = "exact", gram=None, sinks=None
) -> Union[PairSet, PairStream]:
    """Distances and compression ratios for all (or sampled) column pairs: one pass.

    The pass is that of a :class:`PairStream` (see there for the other
    arguments). With ``sinks``, each chunk goes to every sink and none
    is kept; the stream is returned, for further passes. Without, the
    chunks are kept and returned as one :class:`PairSet`.
    """
    stream = PairStream(A, P, pair_policy, gram)
    if sinks is not None:
        reduce_pairs(stream, *sinks)
        return stream
    parts = list(stream.chunks())
    cat = lambda name: np.concatenate([getattr(p, name) for p in parts])  # noqa: E731
    return PairSet(
        cat("i"), cat("j"), cat("pre"), cat("post"), A.labels,
        recomputed=sum(p.recomputed for p in parts),
    )


def reduce_pairs(pairs, *sinks) -> None:
    """One pass over ``pairs`` (a :class:`PairSet` or :class:`PairStream`) into every sink."""
    for chunk in pairs.chunks():
        for sink in sinks:
            sink.update(chunk)


def _require_labels(pairs, what: str) -> np.ndarray:
    if pairs.labels is None:
        raise InputError(f"{what} requires labels")
    return pairs.labels


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
    """Counts, sums and extremes of pairs over unordered cluster pairs.

    A sink: :meth:`update` adds one chunk. Arrays are k x k; cell (a, b),
    a <= b, holds the pairs between clusters a and b. ``sum`` is keyed
    by ``pre``, ``post`` and ``ratio``, and so are ``min`` and ``max``,
    which are kept only with ``extremes`` (else None). Ratio sums run
    over the ``finite`` pairs; ratio extremes count a degenerate pair's
    ratio as +inf. ``recomputed`` totals the chunks' recomputed pairs.
    """

    _QUANTITIES = ("pre", "post", "ratio")

    def __init__(self, labels, extremes: bool = False):
        self.labels = np.asarray(labels)
        k = int(self.labels.max()) + 1
        self.count = np.zeros((k, k), dtype=np.int64)
        self.finite = np.zeros((k, k), dtype=np.int64)
        self.sum = {q: np.zeros((k, k)) for q in self._QUANTITIES}
        self.min = {q: np.full((k, k), np.inf) for q in self._QUANTITIES} if extremes else None
        self.max = {q: np.full((k, k), -np.inf) for q in self._QUANTITIES} if extremes else None
        self.recomputed = 0

    def update(self, pairs: PairSet) -> None:
        k = len(self.count)
        la, lb, _ = pairs.gather(self.labels)
        cell = np.minimum(la, lb).astype(np.int64) * k + np.maximum(la, lb)
        fin = ~pairs.degenerate
        self.count += np.bincount(cell, minlength=k * k).reshape(k, k)
        self.finite += np.bincount(cell[fin], minlength=k * k).reshape(k, k)
        self.recomputed += pairs.recomputed
        for q in self._QUANTITIES:
            values = getattr(pairs, q)
            keep = fin if q == "ratio" else slice(None)
            self.sum[q] += np.bincount(cell[keep], weights=values[keep], minlength=k * k).reshape(k, k)
            if self.min is not None:
                if q == "ratio":
                    values = np.where(fin, values, np.inf)
                np.minimum.at(self.min[q].reshape(-1), cell, values)
                np.maximum.at(self.max[q].reshape(-1), cell, values)

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


def cluster_summary(pairs) -> ClusterSummary:
    """Per-cluster intra and inter averages, the report-table shape.

    ``pairs`` is a :class:`PairSet` or :class:`PairStream`, reduced here
    in one pass, or a :class:`ClusterPairTable` already filled.
    ``ratio_avg`` is the mean of per-pair ratios; the ratio of the
    averaged distances is reported alongside it since the two differ.
    """
    if isinstance(pairs, ClusterPairTable):
        table = pairs
    else:
        table = ClusterPairTable(_require_labels(pairs, "cluster summary"))
        reduce_pairs(pairs, table)
    a, b = np.indices(table.count.shape)
    sizes = np.bincount(table.labels)
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


class PointSums:
    """Each point's sum and count of finite ratios, against its own and other clusters.

    A sink: :meth:`update` adds one chunk.
    """

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        # slot 2p holds point p's same-cluster pairs, slot 2p + 1 its cross pairs
        self.sums = np.zeros(2 * len(self.labels))
        self.counts = np.zeros(2 * len(self.labels), dtype=np.int64)

    def update(self, pairs: PairSet) -> None:
        fin = ~pairs.degenerate
        i, j, ratio = pairs.i[fin], pairs.j[fin], pairs.ratio[fin]
        cross = ~pairs.gather(self.labels)[2][fin]
        slot = np.concatenate((2 * i + cross, 2 * j + cross))
        size = len(self.sums)
        self.sums += np.bincount(slot, weights=np.concatenate((ratio, ratio)), minlength=size)
        self.counts += np.bincount(slot, minlength=size)


def pointwise_summary(pairs) -> List[PointSummary]:
    """Mean compression ratio of each point against its own and other clusters.

    ``pairs`` is a :class:`PairSet` or :class:`PairStream`, reduced here
    in one pass, or a :class:`PointSums` already filled.
    """
    if isinstance(pairs, PointSums):
        point_sums = pairs
    else:
        point_sums = PointSums(_require_labels(pairs, "pointwise summary"))
        reduce_pairs(pairs, point_sums)
    sums = point_sums.sums.reshape(-1, 2)
    counts = point_sums.counts.reshape(-1, 2)
    out = []
    for point in range(len(sums)):
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


# The curve ranks pairs by ratio, descending, with degenerate pairs first.
# Its rank key is the float64 pattern of the ratio (+inf when degenerate)
# read as an integer, which orders positive floats as their values. The
# first pass bins the keys on their high bits: 2**_CURVE_BITS bins per
# octave over ratios in [1, 2**_CURVE_OCTAVES), plus one bin below and one
# above (which holds the degenerate pairs), so no range pass is needed.
_CURVE_BITS = 12
_CURVE_OCTAVES = 32
_CURVE_TOP = _CURVE_OCTAVES << _CURVE_BITS
_ONE_KEY = int(np.float64(1.0).view(np.int64))


def _rank_keys(pairs: PairSet) -> np.ndarray:
    return np.where(pairs.degenerate, np.inf, pairs.ratio).view(np.int64)


def _curve_bins(keys: np.ndarray) -> np.ndarray:
    return np.clip((keys - _ONE_KEY) >> (52 - _CURVE_BITS), -1, _CURVE_TOP) + 1


class CurveHistogram:
    """The curve's first pass: pairs per rank-key bin, all and same-cluster.

    A sink: :meth:`update` adds one chunk.
    """

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        self.total = np.zeros(_CURVE_TOP + 2, dtype=np.int64)
        self.same = np.zeros(_CURVE_TOP + 2, dtype=np.int64)

    def update(self, pairs: PairSet) -> None:
        bins = _curve_bins(_rank_keys(pairs))
        same = pairs.gather(self.labels)[2]
        self.total += np.bincount(bins, minlength=len(self.total))
        self.same += np.bincount(bins[same], minlength=len(self.total))


class _CurveCuts:
    """The curve's second pass: the pairs of the bins that hold its cut ranks.

    A cut at rank ``top`` counts the same-cluster pairs of every bin
    above its own from the histogram, and those of its own bin's leading
    pairs from the kept ones, sorted by key descending; a stable sort
    keeps pass order, which is pair order, among equal keys.
    """

    def __init__(self, histogram: CurveHistogram, grid: np.ndarray):
        self.labels = histogram.labels
        total = int(histogram.total.sum())
        self.grid = grid
        self.tops = np.array([min(total, max(1, int(np.ceil(x * total - 1e-9)))) for x in grid])
        # cumulative counts from the highest bin down
        below = np.cumsum(histogram.total[::-1])
        pos = np.searchsorted(below, self.tops)
        self.bins = len(below) - 1 - pos
        self.above = below[pos] - histogram.total[self.bins]
        same_below = np.cumsum(histogram.same[::-1])
        self.above_same = same_below[pos] - histogram.same[self.bins]
        self.wanted = np.zeros(len(below), dtype=bool)
        self.wanted[self.bins] = True
        self.keys, self.same = [], []

    def update(self, pairs: PairSet) -> None:
        keys = _rank_keys(pairs)
        keep = self.wanted[_curve_bins(keys)]
        self.keys.append(keys[keep])
        self.same.append(pairs.gather(self.labels)[2][keep])

    def points(self) -> List[CurvePoint]:
        keys, same = np.concatenate(self.keys), np.concatenate(self.same)
        bins = _curve_bins(keys)
        leading = {}
        for b in np.unique(self.bins):
            members = np.flatnonzero(bins == b)
            order = np.argsort(-keys[members], kind="stable")
            leading[b] = np.concatenate(([0], np.cumsum(same[members[order]])))
        return [
            CurvePoint(float(x), float((above_same + leading[b][top - above]) / top))
            for x, top, b, above, above_same in zip(
                self.grid, self.tops, self.bins, self.above, self.above_same
            )
        ]


def intra_fraction_curve(
    pairs, grid: Optional[np.ndarray] = None, histogram: Optional[CurveHistogram] = None
) -> List[CurvePoint]:
    """Fraction of same-cluster pairs among the top-x most compressed.

    Pairs sort by ratio descending; absent ratios count as maximally
    compressed and come first; ties keep pair order. Two passes over
    ``pairs`` (a :class:`PairSet` or :class:`PairStream`): a histogram
    of rank keys, then the pairs of the bins that hold a cut. A
    ``histogram`` already filled from ``pairs`` replaces the first.
    """
    grid = default_curve_grid() if grid is None else np.asarray(grid)
    if histogram is None:
        histogram = CurveHistogram(_require_labels(pairs, "curve"))
        reduce_pairs(pairs, histogram)
    cuts = _CurveCuts(histogram, grid)
    reduce_pairs(pairs, cuts)
    return cuts.points()


def _multi_pass(A: DataMatrix, sides, sinks, pair_policy: PairPolicy = "exact") -> None:
    """One :func:`_pass` feeding each projection's chunks to its own sink."""
    for chunks in _pass(A, sides, _sampled_pairs(A.n, pair_policy)):
        for sink, chunk in zip(sinks, chunks):
            sink.update(chunk)


@dataclass
class PcsSweep:
    """Per-k' means and gaps, and the pass's pair and recomputed counts."""

    rows: List[dict]
    pair_count: int
    recomputed: int


def pcs_sweep(
    A: DataMatrix, P: Projector, grid: Sequence[int], pair_policy: PairPolicy = "exact"
) -> PcsSweep:
    """Mean intra and inter ratios, and their gap, under P's leading k' for k' in grid.

    One pass serves the whole grid: the columns are projected once at
    P's width, and each k' reads the leading rows.
    """
    if A.labels is None:
        raise InputError("sweep requires labels")
    grid = list(grid)
    if grid != sorted(set(grid)) or not 1 <= grid[0] <= grid[-1] <= P.k:
        raise InputError(f"sweep grid must ascend within [1, {P.k}], got {grid}")
    tables = [ClusterPairTable(A.labels) for _ in grid]
    _multi_pass(A, [(project_columns(P, A), grid)], tables, pair_policy)
    rows = []
    for kprime, table in zip(grid, tables):
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
        rows.append(
            {"pcs": kprime, "intra_ratio_avg": intra_mean, "inter_ratio_avg": inter_mean, "gap": gap}
        )
    return PcsSweep(rows, int(tables[0].count.sum()), tables[0].recomputed)


@dataclass
class CenteringReport:
    cosine: Optional[float]
    uncentered: Optional[ClusterSummary]
    centered: Optional[ClusterSummary]
    ratio_deltas: Optional[dict]


def centering_comparison(A: DataMatrix, k: int, seed: int = 0) -> CenteringReport:
    """How much centering changes the fit: mean alignment and table deltas.

    The cosine compares the top uncentered component with the mean
    vector; when labels are present, the uncentered and centered tables
    (both filled in one pass) and their relative per-cell differences
    are included.
    """
    unc = fit_uncentered_pca(A, k, seed)
    cen = fit_centered_pca(A, k, seed)
    mean = A.row_means()
    # the cosine does not change under scaling, and ‖mean‖ would leave
    # float64 at either end of its range
    mean *= range_scale(mean)
    norm = np.linalg.norm(mean)
    cosine = None if norm == 0 else float(abs(unc.components[0] @ mean) / norm)
    if A.labels is None:
        return CenteringReport(cosine, None, None, None)
    tables = [ClusterPairTable(A.labels) for _ in range(2)]
    _multi_pass(A, [(project_columns(P, A), [P.k]) for P in (unc, cen)], tables)
    table_unc, table_cen = (cluster_summary(t) for t in tables)
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


def extra_pc_split(A: DataMatrix, P: Projector, k: int, shift: float) -> Tuple[int, int, float]:
    """``(intra pairs, exceedances, worst trailing^2)`` of the split at component k.

    A same-cluster pair's trailing^2 is its squared projected distance
    over the components past k; it exceeds ``shift`` when above
    ``shift * (1 + 1e-12)``. One pass, with the projected columns
    standing in for the matrix, measures rows k: as its side. Their own
    Gram identity keeps a small trailing^2's digits, which
    post^2 - leading^2 would lose.
    """
    if A.labels is None:
        raise InputError("extra-component split requires labels")
    if not 1 <= k <= P.k:
        raise InputError(f"need 1 <= k <= k'={P.k}, got k={k}")
    if k == P.k:  # no component past k
        sizes = np.bincount(A.labels)
        return int((sizes * (sizes - 1) // 2).sum()), 0, 0.0
    Y = project_columns(P, A)
    intra = exceed = 0
    worst = 0.0
    for (chunk,) in _pass(DataMatrix(Y, A.labels), [(Y[k:], [P.k - k])]):
        trailing_sq = chunk.post[chunk.same] ** 2
        intra += len(trailing_sq)
        exceed += int(np.count_nonzero(trailing_sq > shift * (1.0 + 1e-12)))
        worst = max(worst, float(trailing_sq.max(initial=0.0)))
    return intra, exceed, worst
