"""Matrix storage, truncated SVD, and PCA projectors.

A data matrix is held in one of three storage kinds: a dense float64
ndarray, a CSC sparse array, or bits, a bool ndarray of 1 byte per 0/1
entry (an all-Bernoulli draw from :mod:`~pcacompress.models`; a float64
copy would take 8 bytes per entry). This is the one module that tells
the kinds apart. The rest of the library reads storage through its
primitives (:func:`checked_matrix`, :func:`stored`, :func:`as_dense`,
:func:`squared_norms`, :func:`product`, :func:`direct_distances`) and
its Gram products (the Gram matrix a :class:`DataMatrix` holds, the pair
engine's tiles from :func:`gram_rows`, and :func:`gram_block` of
projected coordinates), and scales a matrix whose squares would leave
float64 by :func:`range_scaled`, the one scaling. Every centering reads
one mean column, row sums divided by n (:meth:`DataMatrix.row_means`).
Bits are read in float64 blocks of at most ``_BLOCK_ENTRIES`` entries:
:func:`product` sums over n in row blocks and over d in column blocks,
:func:`centered_gram` and :func:`gram_rows` center row blocks,
:func:`direct_distances` differences blocks of column pairs, and
:func:`as_dense` (which the dense driver reads) and
:func:`spectral_norm` convert to float64, and a Gram fit's own blocks
center row or column blocks. Sums of 0/1 entries are exact integers, so
:func:`centered_gram`, :meth:`DataMatrix.row_means` and
:func:`squared_norms` give the same bits as on a float64 copy.

The library works on feature-by-sample matrices (columns are datapoints).
Projections here are always onto top left singular vectors; "uncentered"
fits use the raw matrix, "centered" fits subtract the column mean
implicitly so sparse inputs are never densified by centering.

Every fit follows one policy, with no caller-chosen driver, in three
size regimes of ``m = min(d, n)``:

- ``dense``, for m up to ``_DENSE_CUTOFF`` when the input is dense, or
  sparse with at most ``DENSIFY_BUDGET`` cells: an exact SVD by
  numpy's LAPACK;
- ``gram``, a certified Gram fit. When the matrix holds its Gram matrix
  (:meth:`DataMatrix.hold_gram`), for an uncentered fit, whatever m: the
  top k'+1 eigenpairs of the uncentered Gram matrix derived from it, by
  scipy's subset ``eigh``.
  Otherwise for m up to ``_GRAM_CUTOFF``: the Gram matrix of the smaller
  side, formed from dense centered blocks (scaled by :func:`range_scaled`),
  solved whole by numpy's ``eigh``. The eigenvectors are one side's
  singular vectors, and A applied to them over S gives the other's (Halko,
  Martinsson & Tropp 2011, section 5.1). The fit is kept only when each
  kept component's a-posteriori residual, ``||A^T u_i - s_i v_i|| / s_i``
  or ``||A v_i - s_i u_i|| / s_i`` for the side not read off G, is at
  most ``RESIDUAL_RTOL`` (ibid., sections 4.3-4.4), and the projector
  records the largest. Each component is held to its own s_i: a Gram
  matrix squares the condition number, so a component far below s_1
  loses digits there, and such a fit goes to Lanczos;
- otherwise, or when the Gram fit is not certified, ``lanczos``: an exact
  ARPACK solve (``scipy.sparse.linalg.svds``) on the implicit operator,
  or ``dense`` when ARPACK has no room for k'+1 triplets.

``_GRAM_CUTOFF`` is measured (README); a Gram fit holds about 4 m^2
doubles. scipy's linear algebra loads only inside Lanczos and the
routines of the bound commands (the ``dsyrk`` of :func:`centered_gram`,
the subset ``eigh`` of a held G, :func:`top_eigenvalue`): numpy has
no symmetric rank-k update and no subset eigensolver, and its full
``eigh`` there measured slower and larger. Every other fit maps numpy's
BLAS alone.

Lanczos is the one iterative driver: the cut k' a report asks about lies
past the spiked components, in the flat noise bulk, where a range
finder's sketch cannot reach ``RESIDUAL_RTOL`` (ibid.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import InputError

# Relative spectral-gap threshold under which the fitted subspace is
# flagged as ill-defined.
GAP_RTOL = 1e-10

# Largest relative residual ||A^T u_i - s_i v_i|| / s_i a kept component
# of a gram fit may have before Lanczos refits.
RESIDUAL_RTOL = 1e-8

# Largest min(d, n) that gets the exact dense driver.
_DENSE_CUTOFF = 500

# Largest min(d, n) whose fit forms its smaller side's Gram matrix
# before Lanczos is tried.
_GRAM_CUTOFF = 1000

# Budget (entry count) under which a sparse matrix may be densified for
# the exact dense driver; beyond it the certified drivers run instead.
DENSIFY_BUDGET = 50_000_000

# Entries per dense working block: a centered row block of
# :func:`_centered_row_blocks`, or a block of :func:`direct_distances`.
_BLOCK_ENTRIES = 1 << 20

# stored share of entries from which a sparse input's all-pairs Gram product
# runs through dense BLAS row blocks: the sparse product costs more from
# about 10 % nonzero on, whatever the shape
DENSE_GRAM_DENSITY = 0.1


def _is_bits(M) -> bool:
    return isinstance(M, np.ndarray) and M.dtype == np.bool_


def stored(M):
    """M's stored entries: ``M.data`` for a sparse M, M itself for a dense one or bits."""
    return M.data if sp.issparse(M) else M


def as_dense(M) -> np.ndarray:
    """M as a float64 ndarray, the form LAPACK reads (bits are not float64)."""
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=np.float64)


def checked_matrix(values, sparse_format: str, name: str, bits: bool = False):
    """values as a float64 2-D ndarray or ``sparse_format`` ("csc", "csr") array of finite entries.

    With ``bits``, a bool ndarray is kept as it is. Finiteness is read
    from the min and max of the stored entries (NaN propagates through
    both, and +-inf is an extreme), with no temporary the size of M.
    """
    if sp.issparse(values):
        M = {"csc": sp.csc_array, "csr": sp.csr_array}[sparse_format](values, dtype=np.float64)
    else:
        M = np.asarray(values)
        if not (bits and _is_bits(M)):
            M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2:
            raise InputError(f"{name} must be 2-dimensional")
    data = stored(M)
    if data.size and not np.isfinite([data.min(), data.max()]).all():
        raise InputError(f"{name} contains non-finite entries")
    return M


def squared_norms(M, axis: int) -> np.ndarray:
    """Squared Euclidean norms of M's columns (``axis`` 0) or rows (``axis`` 1)."""
    if sp.issparse(M):
        return M.multiply(M).sum(axis=axis)
    if _is_bits(M):
        # a bit is its own square; einsum would take the logical or of the ands
        return M.sum(axis=axis, dtype=np.float64)
    return np.einsum("ij,ij->j" if axis == 0 else "ij,ij->i", M, M)


def product(M, X: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``M X``, or ``M^T X`` with ``transpose``, as an ndarray.

    Bits are read in float64 blocks of at most ``_BLOCK_ENTRIES``
    entries: row blocks for ``M X``, whose sums run over n, and column
    blocks for ``M^T X``, whose sums run over d, so each sum lies within
    one block. The other kinds take one product.
    """
    if not _is_bits(M):
        return np.asarray((M.T if transpose else M) @ X)
    d, n = M.shape
    out = np.empty(((n if transpose else d),) + X.shape[1:])
    step = max(1, _BLOCK_ENTRIES // (d if transpose else n))
    for start in range(0, len(out), step):
        part = slice(start, start + step)
        if transpose:
            out[part] = M[:, part].astype(np.float64).T @ X
        else:
            out[part] = M[part].astype(np.float64) @ X
    return out


def direct_distances(M, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances between columns ``i[t]`` and ``j[t]`` of M, of any storage kind.

    Direct differences of the columns as float64, taken over blocks of
    pairs whose differences hold at most about ``_BLOCK_ENTRIES`` entries.
    """
    sq = np.empty(len(i))
    # entries of one pair's difference: at most d, and at most the stored
    # entries of two columns
    width = min(2.0 * stored(M).size / M.shape[1], M.shape[0])
    step = max(1, int(_BLOCK_ENTRIES // max(1.0, width)))
    for start in range(0, len(i), step):
        t = slice(start, start + step)
        diff = M[:, i[t]].astype(np.float64, copy=False) - M[:, j[t]]
        # elementwise for a dense and a sparse array alike
        sq[t] = np.asarray((diff * diff).sum(axis=0)).ravel()
    return np.sqrt(sq, out=sq)


def _row_means(M) -> np.ndarray:
    """M's mean column, the one every centering reads: row sums over n, as numpy's mean is."""
    # a float64 sum divided in place, as numpy's mean does, so no second d-vector is
    # held; a sparse array's own mean multiplies by 1/n, inexact on a constant row
    sums = M.sum(axis=1, dtype=np.float64)
    sums /= M.shape[1]
    return sums


class DataMatrix:
    """A d x n feature-by-sample matrix: dense float64, CSC sparse, or bits.

    A bool ndarray is held as bits (see the module docstring); any other
    dense input as float64. ``labels``, when given, assigns each column a
    cluster id in ``[0, k)``; every id must occur at least once.
    """

    def __init__(self, values, labels=None):
        self.values = checked_matrix(values, "csc", "data matrix", bits=True)
        self._gram = None
        d, n = self.values.shape
        if d < 1 or n < 2:
            raise InputError(f"need d >= 1 and n >= 2, got shape {d}x{n}")
        self.labels = None
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise InputError(
                    f"labels must have length n={n}, got shape {labels.shape}"
                )
            if not np.issubdtype(labels.dtype, np.integer):
                raise InputError("labels must be integers")
            labels = labels.astype(np.int32)
            k = int(labels.max()) + 1 if labels.size else 0
            if labels.min() < 0:
                raise InputError("cluster ids must be nonnegative")
            present = np.bincount(labels, minlength=k)
            if (present == 0).any():
                missing = int(np.flatnonzero(present == 0)[0])
                raise InputError(f"cluster id {missing} has no members")
            self.labels = labels

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.values)

    @property
    def nnz(self) -> int:
        """Stored entries of a sparse matrix, nonzero entries of a dense one or bits."""
        return self.values.nnz if self.is_sparse else int(np.count_nonzero(self.values))

    @property
    def k(self) -> Optional[int]:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1

    def row_means(self) -> np.ndarray:
        return _row_means(self.values)

    def hold_gram(self) -> None:
        """Hold the values' ``(G, mean)`` from :func:`centered_gram` as ``gram``, for its readers.

        The one rule for reading a held G: values whose :func:`_range_scale` is not 1 hold none,
        since G's entries would leave float64.
        """
        self._gram = centered_gram(self.values) if _range_scale(self.values) == 1.0 else None

    gram = property(lambda self: self._gram, doc="The ``(G, mean)`` :meth:`hold_gram` holds, or None.")


@dataclass
class Projector:
    """Top-k' left singular subspace of a fit, with fit metadata.

    ``components`` has orthonormal rows (one per singular vector);
    ``gap_warning`` is set when the spectral gap at the cut,
    ``s_k' - s_{k'+1}``, is at most ``GAP_RTOL * s_1``, in which case the
    subspace is numerically ill-defined and reports should say so.
    ``driver`` names the SVD driver that produced a fit (``dense``,
    ``gram`` or ``lanczos``); it is None on a hand-built projector.
    ``residual`` is the largest relative residual of a kept component
    that certified a ``gram`` fit, and None for the exact drivers.
    """

    components: np.ndarray
    singular_values: np.ndarray
    centered: bool = False
    mean_vector: Optional[np.ndarray] = None
    gap_warning: bool = False
    driver: Optional[str] = None
    residual: Optional[float] = None

    def __post_init__(self):
        self.components = np.ascontiguousarray(self.components, dtype=np.float64)
        self.singular_values = np.asarray(self.singular_values, dtype=np.float64)
        if self.components.ndim != 2:
            raise InputError("components must be a k' x d matrix")
        if len(self.singular_values) != self.components.shape[0]:
            raise InputError("one singular value per component required")
        if np.any(np.diff(self.singular_values) > 1e-12 * max(self.s1, 1.0)):
            raise InputError("singular values must be non-increasing")
        if self.centered and self.mean_vector is None:
            raise InputError("centered projector requires its mean vector")
        if not self.centered and self.mean_vector is not None:
            raise InputError("mean vector only belongs on a centered projector")

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def d(self) -> int:
        return self.components.shape[1]

    @property
    def s1(self) -> float:
        return float(self.singular_values[0]) if len(self.singular_values) else 0.0


class SymmetricEmbedding:
    """The (d+n) x (d+n) symmetric operator [[0, M], [M^T, 0]].

    Its eigenvalues are the plus/minus singular value pairs of M and its
    eigenvectors stack the left and right singular vectors as
    (1/sqrt 2)[l; +-r]. Kept in operator form; ``to_dense`` exists for
    small verification problems.
    """

    def __init__(self, matrix):
        if not sp.issparse(matrix):
            matrix = np.asarray(matrix, dtype=np.float64)
        self.matrix = matrix
        self.d, self.n = matrix.shape
        self.size = self.d + self.n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.size,):
            raise InputError(f"operand must have length {self.size}")
        top = self.matrix @ x[self.d:]
        bottom = self.matrix.T @ x[: self.d]
        return np.concatenate([np.asarray(top).ravel(), np.asarray(bottom).ravel()])

    def to_dense(self) -> np.ndarray:
        m = as_dense(self.matrix)
        out = np.zeros((self.size, self.size))
        out[: self.d, self.d:] = m
        out[self.d:, : self.d] = m.T
        return out


def build_symmetric_embedding(A) -> SymmetricEmbedding:
    return SymmetricEmbedding(A)


class _Operator:
    """Implicit d x n linear map with forward and adjoint block products."""

    def __init__(self, values, mean=None):
        self.values = values
        self.mean = mean
        self.shape = values.shape

    def matmat(self, X: np.ndarray) -> np.ndarray:
        out = product(self.values, X)
        if self.mean is not None:
            out = out - np.outer(self.mean, X.sum(axis=0))
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        out = product(self.values, Y, transpose=True)
        if self.mean is not None:
            out = out - np.outer(np.ones(self.shape[1]), self.mean @ Y)
        return out


def _apply_sign_convention(U: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (first index wins ties)."""
    for t in range(U.shape[1]):
        lead = np.argmax(np.abs(U[:, t]))
        if U[lead, t] < 0:
            U[:, t] = -U[:, t]
    return U


def _complete_orthonormal(U: np.ndarray, d: int, total: int, seed: int) -> np.ndarray:
    """Extend the orthonormal columns of U (d x r) to ``total`` columns."""
    have = U.shape[1]
    if have >= total:
        return U[:, :total]
    rng = np.random.Generator(np.random.Philox(seed))
    extra = rng.standard_normal((d, total - have))
    for _ in range(2):
        if have:
            extra -= U @ (U.T @ extra)
        extra, _ = np.linalg.qr(extra)
    return np.hstack([U, extra])


def _row_sliceable(M):
    """M as a dense or CSR array, whose row slices are cheap."""
    # row slices of CSR are cheap, of CSC they cost a pass over all entries
    return sp.csr_array(M) if sp.issparse(M) and M.format != "csr" else M


def _range_scale(M) -> float:
    """A power of two bringing M's largest |entry| into [1/2, 1), or 1 when none is needed.

    Squares of entries past 2^256 overflow float64 in sums over a
    column, and squares of entries below 2^-256 lose their digits; a
    largest |entry| between the two takes no scaling, so its results
    keep every bit. Reads the min and max (of a sparse M's stored
    entries), with no temporary the size of M.
    """
    data = stored(M)
    top = max(-float(data.min()), float(data.max())) if data.size else 0.0
    if top == 0.0 or 2.0**-256 <= top <= 2.0**256:
        return 1.0
    # 2^1023 is the largest power of two; a subnormal top stays below 1
    return math.ldexp(1.0, -max(math.frexp(top)[1], -1023))


def range_scaled(M):
    """``(M * scale, scale)``, ``scale`` the power of two of :func:`_range_scale`; M itself when 1.

    The one scaling of the library: squares of the scaled entries, and so
    Gram entries and squared distances, stay in float64, and a distance or
    singular value of the scaled M divided by ``scale`` is M's.
    """
    scale = _range_scale(M)
    return (M if scale == 1.0 else M * scale), scale


def _centered_row_blocks(R, mean, start: int = 0, rows: Optional[int] = None):
    """Columns ``start:`` of a dense or sparse R in centered, dense row blocks.

    Blocks are F-ordered, of ``rows`` rows (by default as many as keep a
    block within ``_BLOCK_ENTRIES`` entries), each centered by ``mean``
    (and, for a sparse R, densified) on its own, so no centered copy of R
    is held. Pass R through :func:`_row_sliceable` when it spans more
    than one block.
    """
    d, n = R.shape
    rows = max(1, _BLOCK_ENTRIES // (n - start)) if rows is None else rows
    for r in range(0, d, rows):
        part = R[r : r + rows, start:]
        # bits are centered straight into float64, with no float64 copy first
        part = part if _is_bits(part) else as_dense(part)
        yield np.subtract(part, mean[r : r + rows, None], order="F")


def centered_gram(M):
    """``(G, mean)``: the Gram matrix of M's mean-centered columns, and the mean column.

    ``G = (M - mean 1^T)^T (M - mean 1^T)`` is summed over the row blocks
    of :func:`_centered_row_blocks`. Centering first keeps a large shift
    shared by every column out of G, where it would cancel in any
    distance or noise identity read off G.
    """
    from scipy.linalg.blas import dsyrk

    n = M.shape[1]
    R, mean = _row_sliceable(M), _row_means(M)
    G = np.zeros((n, n), order="F")
    for block in _centered_row_blocks(R, mean):
        # G's upper triangle += block^T block, in place: no n x n temporary per block
        G = dsyrk(1.0, block, trans=1, beta=1.0, c=G, overwrite_c=True)
        del block  # freed before the next block is formed
    G += np.triu(G, 1).T
    return G, mean


def gram_rows(M, G: Optional[np.ndarray], depth: int):
    """``(g, rows)``: the Gram matrix exact pair distances read, by row tiles.

    ``g`` is its diagonal and ``rows(a, b)`` its block of rows a:b and
    columns a:n. It is the held G (:attr:`DataMatrix.gram`), else that of
    the mean-centered columns for a dense M or a sparse one with at least
    ``DENSE_GRAM_DENSITY`` of its entries stored, formed from centered row
    blocks ``depth`` rows deep: distances ignore a shared shift, and such a
    shift would otherwise cancel in the Gram identity. A sparser M keeps the
    sparse product.
    """
    d, n = M.shape
    if G is not None:
        return np.diag(G).copy(), lambda a, b: G[a:b, a:]
    if sp.issparse(M) and M.nnz < DENSE_GRAM_DENSITY * d * n:
        return squared_norms(M, 0), lambda a, b: (M[:, a:b].T @ M[:, a:]).toarray()
    R, mean = _row_sliceable(M), _row_means(M)
    # row blocks as deep as a tile: the tile's product runs at BLAS speed,
    # and a block is no larger than the tile
    g = np.zeros(n)
    for block in _centered_row_blocks(R, mean, 0, depth):
        g += squared_norms(block, 0)
        del block  # freed before the next block is formed

    def rows(a, b):
        out = np.zeros((b - a, n - a))
        for block in _centered_row_blocks(R, mean, a, depth):
            out += block[:, : b - a].T @ block
            del block
        return out

    return g, rows


def gram_block(Y: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows a:b and columns a: of ``Y^T Y`` for a dense Y, by one matrix product."""
    return Y[:, a:b].T @ Y[:, a:]


def _side_gram(op: _Operator) -> np.ndarray:
    """The Gram matrix of op's smaller side, summed from dense centered blocks.

    ``A^T A`` (n x n) over row blocks when n <= d, else ``A A^T`` (d x d)
    over column blocks, each block of at most ``_BLOCK_ENTRIES`` entries
    and centered by op's mean on its own, so no centered copy of A is held.
    An uncentered sparse A with fewer than ``DENSE_GRAM_DENSITY`` of its
    entries stored takes one sparse product instead.
    """
    M, (d, n) = op.values, op.shape
    if op.mean is None and sp.issparse(M) and M.nnz < DENSE_GRAM_DENSITY * d * n:
        # as in :func:`gram_rows`, a sparser M keeps the sparse product
        small = M if n <= d else M.T
        return as_dense(small.T @ small)
    mean = np.zeros(d) if op.mean is None else op.mean
    G = np.zeros((min(d, n),) * 2)
    if n <= d:
        for block in _centered_row_blocks(_row_sliceable(M), mean):
            G += block.T @ block
            del block  # freed before the next block is formed
        return G
    step = max(1, _BLOCK_ENTRIES // d)
    for start in range(0, n, step):
        part = M[:, start : start + step]
        block = np.subtract(part if _is_bits(part) else as_dense(part), mean[:, None])
        G += block @ block.T
        del block
    return G


def _gram_fit(op: _Operator, k: int, held=None):
    """``(U, s, residual)``: the top k'+1 singular triplets of op read off a Gram matrix.

    ``held`` is the ``(G, mean)`` an uncentered op's matrix holds; the top
    eigenpairs of ``A^T A = G + c 1^T + 1 c^T - ||mean||^2 1 1^T``, with
    ``c = A^T mean``, come from LAPACK's subset solver in scipy. Without
    it, op's smaller side forms its own (:func:`_side_gram`), and numpy's
    ``eigh`` solves it whole. The eigenvectors are one side's singular
    vectors, and the other side's are op applied to them over S, for every
    singular value above 1e-12 s_1, completed to orthonormal columns past
    those. Squares the condition number, so the result is exact only where
    the kept singular values are far from roundoff: ``residual`` is the
    largest relative residual of the other side's kept vectors, which
    :func:`_fit` certifies.
    """
    d, n = op.shape
    # the eigenvectors' side: V when they come from A^T A, else U
    columns = held is not None or n <= d
    forward, adjoint = (op.matmat, op.rmatmat) if columns else (op.rmatmat, op.matmat)
    if held is None:
        G = _side_gram(op)
        top = min(k + 1, len(G))
        w, E = np.linalg.eigh(G)
        w, E = w[-top:], E[:, -top:]
    else:
        from scipy.linalg import eigh

        G, mean = held
        cross = product(op.values, mean, transpose=True).ravel()
        G = G + cross[:, None] + (cross - float(mean @ mean))[None, :]
        top = min(k + 1, n)
        w, E = eigh(G, subset_by_index=[n - top, n - 1])
    del G
    order = np.argsort(w)[::-1]
    s = np.sqrt(np.clip(w[order], 0.0, None))
    E = E[:, order]
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    F = forward(E[:, :rank])
    F /= s[:rank]
    F = _complete_orthonormal(F, len(F), len(s), seed=17)
    residual = _residual(adjoint(F[:, :k]) - E[:, :k] * s[:k], s)
    return (F if columns else E), s, residual


def _dense_svd(op: _Operator):
    values = as_dense(op.values)
    if op.mean is not None:
        values = values - op.mean[:, None]
    U, s, _ = np.linalg.svd(values, full_matrices=False)
    return U, s


def _residual(block: np.ndarray, s: np.ndarray) -> float:
    """Largest column norm of a residual block, each relative to its own singular value.

    The block is ``A^T U - V S`` of a Gram fit over the kept triplets,
    with V the eigenvectors (or ``A V - U S`` with U the eigenvectors);
    the other product is zero by construction, so it certifies nothing.
    Dividing column i by s_i bounds each kept component's own relative
    error, so a component far below s_1, where squaring the condition
    number costs digits, is not certified by s_1's accuracy. A kept
    singular value of 0 below a nonzero s_1 certifies nothing (infinite
    residual). Only a Gram matrix of a zero matrix has s_1 = 0; its
    residual is 0, whatever roundoff an implicitly centered operator
    leaves in the block.
    """
    if not s[0]:
        return 0.0
    kept = s[: block.shape[1]]
    if not kept[-1]:
        return math.inf
    return float((np.linalg.norm(block, axis=0) / kept).max())


def _is_zero(op: _Operator) -> bool:
    """Whether op is exactly zero: A is, or every column of A equals the mean."""
    M, mean = op.values, op.mean
    if mean is None:
        return not stored(M).any()
    # a sparse M's min and max count its unstored zeros
    return bool(((as_dense(M.min(axis=1)) == mean) & (as_dense(M.max(axis=1)) == mean)).all())


def _lanczos_svd(op: _Operator, k: int, seed: int):
    """Top k+1 singular triplets by ARPACK on the implicit (scaled) operator.

    The extra triplet supplies ``s_{k'+1}`` for the gap check; ARPACK
    needs ``k + 1 < min(d, n)``. It cannot start on a zero operator,
    whose singular values are all 0 and any orthonormal U its left
    singular vectors.
    """
    import scipy.sparse.linalg

    if _is_zero(op):
        d = op.shape[0]
        return _complete_orthonormal(np.empty((d, 0)), d, k + 1, seed=17), np.zeros(k + 1)
    linear = scipy.sparse.linalg.LinearOperator(
        op.shape,
        matvec=lambda x: op.matmat(x.reshape(-1, 1)).ravel(),
        rmatvec=lambda y: op.rmatmat(y.reshape(-1, 1)).ravel(),
        matmat=op.matmat,
        rmatmat=op.rmatmat,
        dtype=np.float64,
    )
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    v0 = rng.standard_normal(min(op.shape))
    U, s, _ = scipy.sparse.linalg.svds(linear, k=k + 1, v0=v0)
    order = np.argsort(s)[::-1]
    return U[:, order], s[order]


def _fit(A: DataMatrix, k: int, seed: int, mean=None) -> Projector:
    d, n = A.d, A.n
    m = min(d, n)
    if not 1 <= k <= m:
        raise InputError(f"k'={k} out of range for a {d}x{n} matrix")
    op = _Operator(A.values, mean)
    driver, residual = "dense", None
    if m > _DENSE_CUTOFF or (A.is_sparse and d * n > DENSIFY_BUDGET):
        # one scaled operator for both drivers, since A^T A's entries leave
        # float64 at either end of its range; a held G is of uncentered values
        values, scale = range_scaled(A.values)
        scaled = _Operator(values, None if mean is None else mean * scale)
        held = A.gram if mean is None else None
        if held is not None or m <= _GRAM_CUTOFF:
            U, s, residual = _gram_fit(scaled, k, held)
            s = s / scale
        driver = "gram"
        if residual is None or residual > RESIDUAL_RTOL:
            # ARPACK cannot return min(d, n) triplets
            driver = "lanczos" if k + 1 < m else "dense"
            residual = None
    if driver == "dense":
        U, s = _dense_svd(op)
    elif driver == "lanczos":
        U, s = _lanczos_svd(scaled, k, seed)
        s = s / scale
    s_next = s[k] if k < len(s) else None
    warn = s_next is not None and (s[k - 1] - s_next) <= GAP_RTOL * s[0]
    U = _apply_sign_convention(U[:, :k].copy())
    return Projector(
        components=U.T,
        singular_values=s[:k].copy(),
        centered=mean is not None,
        mean_vector=mean,
        gap_warning=bool(warn),
        driver=driver,
        residual=residual,
    )


def fit_uncentered_pca(A: DataMatrix, k: int, seed: int = 0) -> Projector:
    """PCA without mean subtraction: the top-k left singular vectors and singular values of A.

    ``seed`` keys the Lanczos start vector; the module docstring gives the drivers.
    """
    return _fit(A, k, seed)


def fit_centered_pca(A: DataMatrix, k: int, seed: int = 0) -> Projector:
    """PCA of the column-centered matrix; centering is implicit.

    The mean vector is stored on the projector and re-applied at
    projection time, so distances between projected pairs are unaffected
    by it (the translation cancels).
    """
    return _fit(A, k, seed, mean=A.row_means())


def project_columns(P: Projector, A: DataMatrix) -> np.ndarray:
    """All columns of A in projected coordinates, as a k' x n array."""
    if A.d != P.d:
        raise InputError(f"matrix has d={A.d}, projector wants {P.d}")
    Y = product(A.values, P.components.T, transpose=True).T
    if P.centered:
        Y = Y - (P.components @ P.mean_vector)[:, None]
    return Y


def spectral_norm(M) -> float:
    """Largest singular value of a dense or sparse matrix.

    The square root of the top eigenvalue of the smaller-side Gram
    matrix. A :class:`SymmetricEmbedding` has the same operator norm as
    its block, so its block is used.
    """
    if isinstance(M, SymmetricEmbedding):
        M = M.matrix
    if not sp.issparse(M):
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2:
            raise InputError("spectral_norm expects a 2-dimensional matrix")
    small = M if M.shape[1] <= M.shape[0] else M.T
    G = as_dense(small.T @ small)
    return float(np.sqrt(max(top_eigenvalue(G), 0.0)))


def top_eigenvalue(G: np.ndarray) -> float:
    """Largest eigenvalue of a dense symmetric matrix."""
    from scipy.linalg import eigh

    m = G.shape[0]
    return float(eigh(G, subset_by_index=[m - 1, m - 1], eigvals_only=True)[0])


def principal_angle(P: Projector, Q: Projector) -> float:
    """Sine of the largest principal angle between two fitted subspaces.

    Equal to sqrt(1 - s_min(P Q^T)^2) but computed as the norm of P's
    basis projected onto Q's orthogonal complement, which keeps full
    precision for nearly identical subspaces.
    """
    if P.d != Q.d or P.k != Q.k:
        raise InputError("projectors must share d and k' for an angle")
    residual = P.components.T - Q.components.T @ (Q.components @ P.components.T)
    top = np.linalg.svd(residual, compute_uv=False)[0]
    return float(np.clip(top, 0.0, 1.0))
