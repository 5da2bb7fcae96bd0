"""Matrix storage, truncated SVD, and PCA projectors.

The library works on feature-by-sample matrices (columns are datapoints).
Projections here are always onto top left singular vectors; "uncentered"
fits use the raw matrix, "centered" fits subtract the column mean
implicitly so sparse inputs are never densified by centering.

Two SVD drivers are provided. Small problems (``min(d, n)`` up to the
dense cutoff) use an exact dense factorization. Larger ones use a seeded
randomized range finder, which is accurate on the spiked spectra that
clustered data produces but not on gapless spectra. The default ``auto``
choice therefore certifies each randomized fit by its a-posteriori
residual ``||A v_i - s_i u_i|| / s_1`` (Halko, Martinsson & Tropp 2011,
sections 4.3-4.4) and, when a kept component misses ``RESIDUAL_RTOL``,
refits with an exact Lanczos solve (``scipy.sparse.linalg.svds``) on the
same implicit operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import InputError

# Relative spectral-gap threshold under which the fitted subspace is
# flagged as ill-defined.
GAP_RTOL = 1e-10

# Largest relative residual ||A v_i - s_i u_i|| / s_1 a kept component of a
# randomized fit may have before ``auto`` replaces the fit by an exact
# Lanczos solve.
RESIDUAL_RTOL = 1e-8

# Budget (entry count) under which a sparse matrix may be densified for
# the exact dense driver; beyond it the exact driver works on the smaller
# Gram matrix instead.
_DENSIFY_BUDGET = 50_000_000


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
class SvdOptions:
    """Knobs for :func:`truncated_svd`.

    ``driver`` is ``auto`` (dense when ``min(d, n) <= dense_cutoff``,
    otherwise randomized, certified by its residual and refit with exact
    Lanczos when a kept component misses ``RESIDUAL_RTOL``), ``dense``,
    or ``randomized`` (the range finder alone, unchecked). ``seed`` keys
    both the range finder's sketch and the Lanczos start vector.
    """

    driver: str = "auto"
    oversampling: int = 10
    power_iters: int = 4
    seed: int = 0
    dense_cutoff: int = 500

    def __post_init__(self):
        if self.driver not in ("auto", "dense", "randomized"):
            raise InputError(f"unknown SVD driver {self.driver!r}")


@dataclass
class Projector:
    """Top-k' left singular subspace of a fit, with fit metadata.

    ``components`` has orthonormal rows (one per singular vector);
    ``gap_warning`` is set when the spectral gap at the cut,
    ``s_k' - s_{k'+1}``, is at most ``GAP_RTOL * s_1``, in which case the
    subspace is numerically ill-defined and reports should say so.
    ``driver`` names the SVD driver that produced a fit (``dense``,
    ``randomized`` or ``lanczos``); it is None on a hand-built projector.
    """

    components: np.ndarray
    singular_values: np.ndarray
    centered: bool = False
    mean_vector: Optional[np.ndarray] = None
    gap_warning: bool = False
    driver: Optional[str] = None

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


def gram(M) -> np.ndarray:
    """``M^T M`` as a dense array, for a dense or sparse M.

    Pass ``M.T`` for the row Gram matrix ``M M^T``.
    """
    if sp.issparse(M):
        return (M.T @ M).toarray()
    return M.T @ M


def _gram_svd(op: _Operator):
    """Exact factors via the smaller Gram matrix; avoids densifying the input.

    Squares the condition number, so it is reserved for spectra where the
    retained singular values are far from roundoff, which holds for every
    count-like matrix this package ingests.
    """
    d, n = op.shape
    A, c = op.values, op.mean
    if n <= d:
        G = gram(A)
        if c is not None:
            cross = np.asarray(A.T @ c).ravel()
            G = G - cross[:, None] - cross[None, :] + float(c @ c)
        w, V = scipy.linalg.eigh(G)
        order = np.argsort(w)[::-1]
        s = np.sqrt(np.clip(w[order], 0.0, None))
        V = V[:, order]
        rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
        U = op.matmat(V[:, :rank])
        U /= s[:rank]
        U = _complete_orthonormal(U, d, len(s), seed=17)
        return U, s
    G = gram(A.T)
    if c is not None:
        # Row means make the centered cross terms collapse: the centered
        # outer product is A A^T - n c c^T.
        G = G - n * np.outer(c, c)
    w, U = scipy.linalg.eigh(G)
    order = np.argsort(w)[::-1]
    return U[:, order], np.sqrt(np.clip(w[order], 0.0, None))


def _dense_svd(op: _Operator):
    values = op.values
    if sp.issparse(values):
        if values.shape[0] * values.shape[1] > _DENSIFY_BUDGET:
            return _gram_svd(op)
        values = values.toarray()
    if op.mean is not None:
        values = values - op.mean[:, None]
    U, s, _ = scipy.linalg.svd(values, full_matrices=False)
    return U, s


def _randomized_svd(op: _Operator, k: int, opts: SvdOptions):
    d, n = op.shape
    ell = min(k + opts.oversampling, min(d, n))
    rng = np.random.Generator(np.random.Philox(opts.seed))
    sketch = rng.standard_normal((n, ell))
    Q, _ = np.linalg.qr(op.matmat(sketch))
    for _ in range(opts.power_iters):
        Z, _ = np.linalg.qr(op.rmatmat(Q))
        Q, _ = np.linalg.qr(op.matmat(Z))
    B = op.rmatmat(Q).T
    Ub, s, Vbt = scipy.linalg.svd(B, full_matrices=False)
    return Q @ Ub, s, Vbt.T


def _certified(op: _Operator, U: np.ndarray, s: np.ndarray, V: np.ndarray, k: int) -> bool:
    """Whether each of the first k triplets has ``||A v_i - s_i u_i|| <= RESIDUAL_RTOL * s_1``.

    The adjoint residual ``||A^T u_i - s_i v_i||`` is zero by construction
    for range-finder output, so only the forward one certifies anything.
    """
    R = op.matmat(V[:, :k]) - U[:, :k] * s[:k]
    return bool(np.linalg.norm(R, axis=0).max() <= RESIDUAL_RTOL * s[0])


def _lanczos_svd(op: _Operator, k: int, seed: int):
    """Top k+1 singular triplets by ARPACK on the implicit operator.

    The extra triplet supplies ``s_{k'+1}`` for the gap check; ARPACK
    needs ``k + 1 < min(d, n)``.
    """
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


def _fit(A: DataMatrix, k: int, opts: Optional[SvdOptions], mean=None) -> Projector:
    opts = opts or SvdOptions()
    d, n = A.d, A.n
    if not 1 <= k <= min(d, n):
        raise InputError(f"k'={k} out of range for a {d}x{n} matrix")
    op = _Operator(A.values, mean)
    driver = opts.driver
    if driver == "auto":
        driver = "dense" if min(d, n) <= opts.dense_cutoff else "randomized"
    if driver == "randomized":
        U, s, V = _randomized_svd(op, k, opts)
        if opts.driver == "auto" and not _certified(op, U, s, V, k):
            # ARPACK cannot return min(d, n) triplets; that case is
            # reachable only with zero oversampling, since otherwise the
            # sketch spans the whole range and is certified
            driver = "lanczos" if k + 1 < min(d, n) else "dense"
    if driver == "dense":
        U, s = _dense_svd(op)
    elif driver == "lanczos":
        U, s = _lanczos_svd(op, k, opts.seed)
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
    )


def truncated_svd(A: DataMatrix, k: int, opts: Optional[SvdOptions] = None) -> Projector:
    """Top-k left singular vectors and singular values of A."""
    return _fit(A, k, opts, mean=None)


def fit_uncentered_pca(A: DataMatrix, k: int, opts: Optional[SvdOptions] = None) -> Projector:
    """PCA without mean subtraction; identical to :func:`truncated_svd`."""
    return truncated_svd(A, k, opts)


def fit_centered_pca(A: DataMatrix, k: int, opts: Optional[SvdOptions] = None) -> Projector:
    """PCA of the column-centered matrix; centering is implicit.

    The mean vector is stored on the projector and re-applied at
    projection time, so distances between projected pairs are unaffected
    by it (the translation cancels).
    """
    return _fit(A, k, opts, mean=A.row_means())


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
    d, n = M.shape
    G = gram(M if n <= d else M.T)
    m = G.shape[0]
    top = scipy.linalg.eigh(G, subset_by_index=[m - 1, m - 1], eigvals_only=True)[0]
    return float(np.sqrt(max(top, 0.0)))


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
