"""Matrix storage, truncated SVD, and PCA projectors.

The library works on feature-by-sample matrices (columns are datapoints).
Projections here are always onto top left singular vectors; "uncentered"
fits use the raw matrix, "centered" fits subtract the column mean
implicitly so sparse inputs are never densified by centering.

Every fit follows one policy, with no caller-chosen driver. A problem
with ``min(d, n)`` up to ``_DENSE_CUTOFF`` whose input is dense, or
sparse with at most ``_DENSIFY_BUDGET`` cells, gets an exact dense
LAPACK factorization. Every other fit runs one of two drivers:

- ``gram``, when the caller holds the n x n centered Gram matrix of the
  columns (as :func:`centered_gram` returns it) and the fit is
  uncentered: the top k'+1 eigenpairs of the uncentered Gram matrix,
  derived from it, give V and S, and U = A V S^-1 (Halko, Martinsson &
  Tropp 2011, section 5.1). It is kept only when each kept component's
  a-posteriori residual ``||A^T u_i - s_i v_i|| / s_1`` is at most
  ``RESIDUAL_RTOL`` (ibid., sections 4.3-4.4), and the projector
  records that residual;
- otherwise ``lanczos``: an exact ARPACK solve
  (``scipy.sparse.linalg.svds``) on the implicit operator, or ``dense``
  when ARPACK has no room for k'+1 triplets.

Lanczos is the one iterative driver: the cut k' a report asks about lies
past the spiked components, in the flat noise bulk, where a range
finder's sketch cannot reach ``RESIDUAL_RTOL`` (ibid.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import InputError

# Relative spectral-gap threshold under which the fitted subspace is
# flagged as ill-defined.
GAP_RTOL = 1e-10

# Largest relative residual ||A^T u_i - s_i v_i|| / s_1 a kept component
# of a gram fit may have before Lanczos refits.
RESIDUAL_RTOL = 1e-8

# Largest min(d, n) that gets the exact dense driver.
_DENSE_CUTOFF = 500

# Budget (entry count) under which a sparse matrix may be densified for
# the exact dense driver; beyond it the certified drivers run instead.
_DENSIFY_BUDGET = 50_000_000

# Entries per densified row block of :func:`centered_row_blocks`.
_GRAM_BLOCK_ENTRIES = 1 << 20


class DataMatrix:
    """A d x n feature-by-sample matrix, dense or CSC sparse.

    ``labels``, when given, assigns each column a cluster id in
    ``[0, k)``; every id must occur at least once.
    """

    def __init__(self, values, labels=None):
        if sp.issparse(values):
            self.values = sp.csc_array(values, dtype=np.float64)
            finite = np.isfinite(self.values.data).all()
        else:
            self.values = np.asarray(values, dtype=np.float64)
            if self.values.ndim != 2:
                raise InputError("data matrix must be 2-dimensional")
            finite = np.isfinite(self.values).all()
        if not finite:
            raise InputError("data matrix contains non-finite entries")
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
    def k(self) -> Optional[int]:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1

    def toarray(self) -> np.ndarray:
        if self.is_sparse:
            return self.values.toarray()
        return self.values

    def row_means(self) -> np.ndarray:
        if self.is_sparse:
            return np.asarray(self.values.mean(axis=1)).ravel()
        return self.values.mean(axis=1)


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
        if isinstance(matrix, DataMatrix):
            matrix = matrix.values
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
        m = self.matrix.toarray() if sp.issparse(self.matrix) else self.matrix
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
        out = np.asarray(self.values @ X)
        if self.mean is not None:
            out = out - np.outer(self.mean, X.sum(axis=0))
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        out = np.asarray(self.values.T @ Y)
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


def row_sliceable(M):
    """``(R, mean)``: M as a dense or CSR array, whose row slices are cheap, and M's mean column."""
    sparse = sp.issparse(M)
    # row slices of CSR are cheap, of CSC they cost a pass over all entries
    R = sp.csr_array(M) if sparse and M.format != "csr" else M
    return R, np.asarray(M.mean(axis=1)).reshape(M.shape[0])


def range_scale(M) -> float:
    """A power of two bringing M's largest |entry| into [1/2, 1), or 1 when none is needed.

    Squares of entries past 2^256 overflow float64 in sums over a
    column, and squares of entries below 2^-256 lose their digits; a
    largest |entry| between the two takes no scaling, so its results
    keep every bit. Reads the min and max (of a sparse M's stored
    entries), with no temporary the size of M.
    """
    data = M.data if sp.issparse(M) else M
    top = max(-float(data.min()), float(data.max())) if data.size else 0.0
    if top == 0.0 or 2.0**-256 <= top <= 2.0**256:
        return 1.0
    # 2^1023 is the largest power of two; a subnormal top stays below 1
    return math.ldexp(1.0, -max(math.frexp(top)[1], -1023))


def centered_row_blocks(R, mean, start: int = 0, rows: Optional[int] = None):
    """Columns ``start:`` of a dense or sparse R in centered, dense row blocks.

    Blocks are F-ordered, of ``rows`` rows (by default as many as keep a
    block within ``_GRAM_BLOCK_ENTRIES`` entries), each centered by
    ``mean`` (and, for a sparse R, densified) on its own, so no centered
    copy of R is held. Pass R through :func:`row_sliceable` when it
    spans more than one block.
    """
    d, n = R.shape
    rows = max(1, _GRAM_BLOCK_ENTRIES // (n - start)) if rows is None else rows
    for r in range(0, d, rows):
        block = R[r : r + rows, start:]
        if sp.issparse(block):
            # C-ordered from CSR, F-ordered from CSC: neither converts formats
            block = block.toarray()
            if block.flags.f_contiguous:
                # centered in place: one dense copy per block
                block -= mean[r : r + rows, None]
                yield block
                continue
        yield np.subtract(block, mean[r : r + rows, None], order="F")


def centered_gram(M):
    """``(G, mean)``: the Gram matrix of M's mean-centered columns, and the mean column.

    ``G = (M - mean 1^T)^T (M - mean 1^T)`` is summed over the row blocks
    of :func:`centered_row_blocks`. Centering first keeps a large shift
    shared by every column out of G, where it would cancel in any
    distance or noise identity read off G.
    """
    n = M.shape[1]
    R, mean = row_sliceable(M)
    G = np.zeros((n, n), order="F")
    for block in centered_row_blocks(R, mean):
        # G's upper triangle += block^T block, in place: no n x n temporary per block
        G = scipy.linalg.blas.dsyrk(1.0, block, trans=1, beta=1.0, c=G, overwrite_c=True)
    G += np.triu(G, 1).T
    return G, mean


def _gram_factors(op: _Operator, G: np.ndarray, top: Optional[int] = None):
    """Singular triplets of op from its n x n Gram matrix G: all, or the ``top`` largest.

    V and S come from the eigenpairs of G, and U = A V S^-1 for every
    singular value above 1e-12 s_1; U is completed to orthonormal columns
    past those. Squares the condition number, so the result is exact only
    where the kept singular values are far from roundoff; :func:`_fit`
    certifies it.
    """
    m = G.shape[0]
    subset = None if top is None else [m - top, m - 1]
    w, V = scipy.linalg.eigh(G, subset_by_index=subset)
    order = np.argsort(w)[::-1]
    s = np.sqrt(np.clip(w[order], 0.0, None))
    V = V[:, order]
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    U = op.matmat(V[:, :rank])
    U /= s[:rank]
    return _complete_orthonormal(U, op.shape[0], len(s), seed=17), s, V


def _dense_svd(op: _Operator):
    values = op.values.toarray() if sp.issparse(op.values) else op.values
    if op.mean is not None:
        values = values - op.mean[:, None]
    U, s, _ = scipy.linalg.svd(values, full_matrices=False)
    return U, s


def _residual(block: np.ndarray, s: np.ndarray) -> float:
    """Largest column norm of a residual block, relative to s_1.

    The block is ``A^T U - V S`` of Gram output over the kept triplets;
    ``A V - U S`` is zero by construction, so it certifies nothing. Only
    a zero matrix has s_1 = 0, and its residual is 0.
    """
    top = float(np.linalg.norm(block, axis=0).max())
    return top / float(s[0]) if top else 0.0


def _is_zero(op: _Operator) -> bool:
    """Whether op is exactly zero: A is, or every column of A equals the mean."""
    M, mean = op.values, op.mean
    if mean is None:
        return not (M.data if sp.issparse(M) else M).any()
    if not sp.issparse(M):
        return bool(((M.min(axis=1) == mean) & (M.max(axis=1) == mean)).all())
    # CSC: every stored entry equals its row's mean, and a row with a
    # nonzero mean stores all n entries
    full = np.bincount(M.indices, minlength=M.shape[0]) == M.shape[1]
    return bool((M.data == mean[M.indices]).all() and (full | (mean == 0)).all())


def _lanczos_svd(op: _Operator, k: int, seed: int):
    """Top k+1 singular triplets by ARPACK on the implicit operator.

    The extra triplet supplies ``s_{k'+1}`` for the gap check; ARPACK
    needs ``k + 1 < min(d, n)``. It cannot start on a zero operator,
    whose singular values are all 0 and any orthonormal U its left
    singular vectors. ARPACK iterates on ``A^T A``, whose entries leave
    float64 at either end of its range, so an operator whose largest
    entry lies outside :func:`range_scale`'s range is scaled by an exact
    power of two, and its singular values scaled back.
    """
    if _is_zero(op):
        d = op.shape[0]
        return _complete_orthonormal(np.empty((d, 0)), d, k + 1, seed=17), np.zeros(k + 1)
    scale = range_scale(op.values)
    if scale != 1.0:
        op = _Operator(op.values * scale, None if op.mean is None else op.mean * scale)
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
    return U[:, order], s[order] / scale


def _uncentered_gram(M, G: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``M^T M`` from the centered Gram matrix G and mean column of :func:`centered_gram`.

    With ``c = M^T mean``, ``M^T M = G + c 1^T + 1 c^T - ||mean||^2 1 1^T``.
    """
    cross = np.asarray(M.T @ mean).ravel()
    return G + cross[:, None] + (cross - float(mean @ mean))[None, :]


def _fit(A: DataMatrix, k: int, seed: int, mean=None, gram=None) -> Projector:
    d, n = A.d, A.n
    if not 1 <= k <= min(d, n):
        raise InputError(f"k'={k} out of range for a {d}x{n} matrix")
    op = _Operator(A.values, mean)
    driver, residual = "dense", None
    if min(d, n) > _DENSE_CUTOFF or (A.is_sparse and d * n > _DENSIFY_BUDGET):
        if gram is not None:
            U, s, V = _gram_factors(op, _uncentered_gram(A.values, *gram), min(k + 1, n))
            driver, residual = "gram", _residual(op.rmatmat(U[:, :k]) - V[:, :k] * s[:k], s)
        if residual is None or residual > RESIDUAL_RTOL:
            # ARPACK cannot return min(d, n) triplets
            driver = "lanczos" if k + 1 < min(d, n) else "dense"
            residual = None
    if driver == "dense":
        U, s = _dense_svd(op)
    elif driver == "lanczos":
        U, s = _lanczos_svd(op, k, seed)
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


def truncated_svd(A: DataMatrix, k: int, seed: int = 0, gram=None) -> Projector:
    """Top-k left singular vectors and singular values of A.

    ``seed`` keys the Lanczos start vector. ``gram``, the ``(G, mean)``
    pair :func:`centered_gram` returns for ``A.values``, lets a fit past
    the dense driver try the Gram driver first; see the module docstring.
    """
    return _fit(A, k, seed, gram=gram)


def fit_uncentered_pca(A: DataMatrix, k: int, seed: int = 0, gram=None) -> Projector:
    """PCA without mean subtraction; identical to :func:`truncated_svd`."""
    return truncated_svd(A, k, seed, gram)


def fit_centered_pca(A: DataMatrix, k: int, seed: int = 0) -> Projector:
    """PCA of the column-centered matrix; centering is implicit.

    The mean vector is stored on the projector and re-applied at
    projection time, so distances between projected pairs are unaffected
    by it (the translation cancels).
    """
    return _fit(A, k, seed, mean=A.row_means())


def project(P: Projector, u: np.ndarray) -> np.ndarray:
    """Project one d-vector (or a d x m stack of them) to k' coordinates."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] != P.d:
        raise InputError(f"vector has length {u.shape[0]}, projector wants {P.d}")
    if P.centered:
        u = u - (P.mean_vector if u.ndim == 1 else P.mean_vector[:, None])
    return P.components @ u


def project_columns(P: Projector, A: DataMatrix) -> np.ndarray:
    """All columns of A in projected coordinates, as a k' x n array."""
    if A.d != P.d:
        raise InputError(f"matrix has d={A.d}, projector wants {P.d}")
    Y = np.asarray(P.components @ A.values)
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
    G = small.T @ small
    if sp.issparse(G):
        G = G.toarray()
    return float(np.sqrt(max(top_eigenvalue(G), 0.0)))


def top_eigenvalue(G: np.ndarray) -> float:
    """Largest eigenvalue of a dense symmetric matrix."""
    m = G.shape[0]
    return float(scipy.linalg.eigh(G, subset_by_index=[m - 1, m - 1], eigvals_only=True)[0])


def principal_angle(P: Projector, Q: Projector) -> float:
    """Sine of the largest principal angle between two fitted subspaces.

    Equal to sqrt(1 - s_min(P Q^T)^2) but computed as the norm of P's
    basis projected onto Q's orthogonal complement, which keeps full
    precision for nearly identical subspaces.
    """
    if P.d != Q.d or P.k != Q.k:
        raise InputError("projectors must share d and k' for an angle")
    residual = P.components.T - Q.components.T @ (Q.components @ P.components.T)
    top = scipy.linalg.svd(residual, compute_uv=False)[0]
    return float(np.clip(top, 0.0, 1.0))
