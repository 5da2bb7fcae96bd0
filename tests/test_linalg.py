import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from pcacompress import linalg as la
from pcacompress.errors import InputError


def spiked_matrix(d, n, rank, noise, seed):
    """Random low-rank matrix plus small noise: a clean spectral gap."""
    rng = np.random.default_rng(seed)
    left = scipy.linalg.qr(rng.standard_normal((d, rank)), mode="economic")[0]
    right = scipy.linalg.qr(rng.standard_normal((n, rank)), mode="economic")[0]
    scales = np.linspace(2 * rank, rank, rank)
    return left @ (scales[:, None] * right.T) + noise * rng.standard_normal((d, n))


def ones_with_one_unstored(d, n):
    """A CSC matrix of ones but for one unstored entry: not constant along its rows."""
    M = np.ones((d, n))
    M[7, 9] = 0.0
    return sp.csc_array(M)


def _ast_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _storage_reads(tree):
    """Nodes of a module that tell storage kinds apart: a call to issparse, a read of
    ``is_sparse``, an isinstance against an ndarray or sparse class, or a read of an
    array's dtype, except ``np.dtype`` and an integer check ``np.issubdtype(x.dtype,
    np.integer)`` of labels."""
    integer_checks = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _ast_name(node.func) == "issubdtype"
        and len(node.args) == 2 and _ast_name(node.args[1]) == "integer"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _ast_name(node.func) == "issparse":
            yield node
        elif isinstance(node, ast.Call) and _ast_name(node.func) == "isinstance":
            kinds = ast.unparse(node.args[1]) if len(node.args) == 2 else ""
            if "ndarray" in kinds or "sp." in kinds or "sparse" in kinds:
                yield node
        elif isinstance(node, ast.Attribute) and node.attr == "is_sparse":
            yield node
        elif (
            isinstance(node, ast.Attribute) and node.attr == "dtype"
            and _ast_name(node.value) != "np" and id(node) not in integer_checks
        ):
            yield node


def test_only_linalg_tells_dense_from_sparse():
    """No module but linalg tells dense, sparse and bits apart; the others read its primitives."""
    readers = []
    for path in sorted(Path(la.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers += [f"{path.name}:{node.lineno}" for node in _storage_reads(tree)]
    assert readers and all(r.startswith("linalg.py:") for r in readers), readers


def test_storage_reads_are_caught():
    """The scan above finds each way of telling storage kinds apart, and passes a labels check."""
    flagged = [
        "sp.issparse(M)",
        "A.is_sparse",
        "isinstance(M, np.ndarray)",
        "isinstance(M, sp.csc_array)",
        "M.dtype == bool",
        "A.values.dtype",
    ]
    for source in flagged:
        assert list(_storage_reads(ast.parse(source))), source
    passed = ["np.issubdtype(labels.dtype, np.integer)", "np.dtype([('a', np.int64)])", "isinstance(x, dict)"]
    for source in passed:
        assert not list(_storage_reads(ast.parse(source))), source


class TestDataMatrix:
    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            la.DataMatrix(np.ones((3, 1)))
        with pytest.raises(InputError):
            la.DataMatrix(np.ones(4))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(InputError):
            la.DataMatrix(bad)
        with pytest.raises(InputError):
            la.DataMatrix(sp.csc_array(np.array([[np.inf, 0.0], [0.0, 1.0]])))

    def test_label_validation(self):
        values = np.ones((2, 4))
        A = la.DataMatrix(values, labels=[0, 1, 0, 1])
        assert A.k == 2
        with pytest.raises(InputError):
            la.DataMatrix(values, labels=[0, 1, 0])
        with pytest.raises(InputError):
            la.DataMatrix(values, labels=[0, 2, 0, 2])  # id 1 missing
        with pytest.raises(InputError):
            la.DataMatrix(values, labels=[0.0, 1.0, 0.0, 1.0])

    def test_sparse_and_dense_agree_downstream(self):
        S = sp.random(300, 60, density=0.1, random_state=5, format="csc")
        Ps = la.truncated_svd(la.DataMatrix(S), 8)
        Pd = la.truncated_svd(la.DataMatrix(S.toarray()), 8)
        np.testing.assert_allclose(Ps.singular_values, Pd.singular_values, rtol=1e-12)
        assert la.principal_angle(Ps, Pd) <= 1e-6


class TestTruncatedSvd:
    def test_diagonal(self):
        P = la.truncated_svd(la.DataMatrix(np.diag([3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(P.singular_values, [3.0, 2.0])
        np.testing.assert_allclose(P.components, np.eye(3)[:2], atol=1e-12)
        assert P.driver == "dense"

    def test_rank_one_duplicate_columns(self):
        u = np.array([1.0, 2.0, 2.0])
        A = la.DataMatrix(np.column_stack([u, u]))
        P = la.truncated_svd(A, 2)
        np.testing.assert_allclose(P.singular_values[0], np.linalg.norm(A.values, "fro"), rtol=1e-12)
        assert P.singular_values[1] <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_driver_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((50, 80))
        P = la.truncated_svd(la.DataMatrix(M), 10)
        # independent oracle: different LAPACK driver
        U, s, _ = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        np.testing.assert_allclose(P.singular_values, s[:10], rtol=1e-8)
        oracle = la.Projector(U[:, :10].T, s[:10])
        assert la.principal_angle(P, oracle) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lanczos_driver_on_spiked_input(self, monkeypatch, seed):
        monkeypatch.setattr(la, "_DENSE_CUTOFF", 100)
        monkeypatch.setattr(la, "_GRAM_CUTOFF", 100)
        M = spiked_matrix(150, 700, rank=6, noise=1e-4, seed=seed)
        A = la.DataMatrix(M)
        P = la.truncated_svd(A, 6, seed)
        assert P.driver == "lanczos" and P.residual is None
        U, s, _ = scipy.linalg.svd(M, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:6], rtol=1e-8)
        assert la.principal_angle(P, la.Projector(U[:, :6].T, s[:6])) <= 1e-6

    def test_auto_driver_exact_on_gapless_input(self):
        # Pure noise above the dense cutoff: a flat spectrum, which the
        # certified Gram fit resolves exactly.
        M = np.random.default_rng(7).standard_normal((600, 600))
        A = la.DataMatrix(M)
        P = la.truncated_svd(A, 20)
        U, s, _ = scipy.linalg.svd(M, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:20], rtol=1e-8)
        assert la.principal_angle(P, la.Projector(U[:, :20].T, s[:20])) <= 1e-6
        again = la.truncated_svd(A, 20)
        assert P.components.tobytes() == again.components.tobytes()
        assert P.singular_values.tobytes() == again.singular_values.tobytes()
        assert P.driver == "gram" and P.residual <= la.RESIDUAL_RTOL

    def test_auto_driver_exact_on_spiked_input(self):
        M = spiked_matrix(600, 600, rank=6, noise=1e-4, seed=3)
        P = la.truncated_svd(la.DataMatrix(M), 6)
        assert P.driver == "gram" and P.residual <= la.RESIDUAL_RTOL
        s = scipy.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(P.singular_values, s[:6], rtol=1e-8)

    def test_uncertified_fit_without_lanczos_room_goes_dense(self, monkeypatch):
        # ARPACK cannot return k'+1 = min(d, n) triplets
        monkeypatch.setattr(la, "_DENSE_CUTOFF", 5)
        monkeypatch.setattr(la, "_GRAM_CUTOFF", 5)
        M = np.random.default_rng(4).standard_normal((30, 20))
        P = la.truncated_svd(la.DataMatrix(M), 19)
        assert P.driver == "dense"
        s = scipy.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(P.singular_values, s[:19], rtol=1e-10)

    def test_sparse_past_densify_budget_without_lanczos_room_goes_dense(self, monkeypatch):
        monkeypatch.setattr(la, "_DENSIFY_BUDGET", 100)
        monkeypatch.setattr(la, "_GRAM_CUTOFF", 0)
        M = np.random.default_rng(4).standard_normal((30, 20))
        P = la.truncated_svd(la.DataMatrix(sp.csc_array(M)), 19)
        assert P.driver == "dense"
        s = scipy.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(P.singular_values, s[:19], rtol=1e-10)

    @pytest.mark.parametrize(
        "values, centered, zero",
        [
            (np.zeros((150, 120)), False, True),
            (sp.csc_array((150, 120)), False, True),
            (np.ones((150, 120)), True, True),
            # every other row unstored
            (sp.csc_array(np.outer(np.tile([0.0, 1.0], 75) * np.arange(150), np.ones(128))),
             True, True),
            (sp.csc_array(np.outer(np.arange(1.0, 151.0), np.ones(128))), True, True),
            (ones_with_one_unstored(150, 120), True, False),
            # 120 columns: a row mean taken as a sum times 1/n is inexact here
            (sp.csc_array(np.outer(np.tile([0.0, 1.0], 75) * np.arange(150), np.ones(120))),
             True, True),
        ],
        ids=[
            "zero-dense", "zero-sparse", "identical-columns-centered",
            "identical-columns-centered-csc", "constant-rows-stored-centered-csc",
            "one-unstored-entry-centered-csc", "identical-columns-centered-csc-120",
        ],
    )
    def test_zero_operator_never_reaches_arpack(self, monkeypatch, values, centered, zero):
        monkeypatch.setattr(la, "_DENSE_CUTOFF", 100)
        monkeypatch.setattr(la, "_GRAM_CUTOFF", 100)
        real_svds, calls = scipy.sparse.linalg.svds, []

        def arpack(*args, **kwargs):
            if zero:
                raise AssertionError("ARPACK ran on a zero operator")
            calls.append(1)
            return real_svds(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "svds", arpack)
        fit = la.fit_centered_pca if centered else la.fit_uncentered_pca
        P, again = (fit(la.DataMatrix(values), 3) for _ in range(2))
        assert P.driver == "lanczos" and P.residual is None
        if not zero:
            # one row off its mean: a rank-one centered operator
            assert calls == [1, 1] and P.s1 > 0
            return
        assert P.gap_warning
        np.testing.assert_array_equal(P.singular_values, np.zeros(3))
        np.testing.assert_allclose(P.components @ P.components.T, np.eye(3), atol=1e-12)
        assert P.components.tobytes() == again.components.tobytes()

    def test_k_out_of_range(self):
        A = la.DataMatrix(np.ones((3, 4)))
        for bad in (0, 4):
            with pytest.raises(InputError):
                la.truncated_svd(A, bad)

    def test_gap_warning_on_degenerate_cut(self):
        A = la.DataMatrix(np.diag([3.0, 2.0, 2.0, 1.0]))
        assert la.truncated_svd(A, 2).gap_warning
        assert not la.truncated_svd(A, 1).gap_warning
        assert not la.truncated_svd(A, 4).gap_warning  # no s_{k'+1} exists

    def test_sign_convention_is_deterministic(self):
        M = spiked_matrix(40, 50, rank=4, noise=1e-3, seed=9)
        P1 = la.truncated_svd(la.DataMatrix(M), 4)
        P2 = la.truncated_svd(la.DataMatrix(M.copy()), 4)
        np.testing.assert_array_equal(P1.components, P2.components)
        lead = np.abs(P1.components).argmax(axis=1)
        assert (P1.components[np.arange(4), lead] > 0).all()


class TestGramSvd:
    """A sparse input too large to densify takes the certified drivers: a Gram fit
    up to ``_GRAM_CUTOFF``, Lanczos past it or when the Gram fit is not certified."""

    def fit_oracle(self, monkeypatch, M, k, centered, driver):
        monkeypatch.setattr(la, "_DENSIFY_BUDGET", 100)
        fit = la.fit_centered_pca if centered else la.fit_uncentered_pca
        P = fit(la.DataMatrix(sp.csc_array(M)), k)
        assert P.driver == driver
        assert P.residual is None if driver == "lanczos" else P.residual <= la.RESIDUAL_RTOL
        if centered:
            M = M - M.mean(axis=1, keepdims=True)
        U, s, _ = scipy.linalg.svd(M, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:k], rtol=1e-10)
        assert la.principal_angle(P, la.Projector(U[:, :k].T, s[:k])) <= 1e-8
        return P

    @pytest.mark.parametrize("shape", [(80, 50), (50, 80)], ids=["n<=d", "n>d"])
    @pytest.mark.parametrize("centered", [False, True], ids=["uncentered", "centered"])
    def test_matches_dense_oracle(self, monkeypatch, shape, centered):
        d, n = shape
        M = spiked_matrix(d, n, rank=4, noise=1e-3, seed=5)
        M *= np.random.default_rng(6).random((d, n)) < 0.4
        self.fit_oracle(monkeypatch, M, 4, centered, "gram")
        monkeypatch.setattr(la, "_GRAM_CUTOFF", 0)
        self.fit_oracle(monkeypatch, M, 4, centered, "lanczos")

    @pytest.mark.parametrize("shape", [(400, 120), (120, 400)], ids=["tall", "wide"])
    def test_ill_conditioned_input_keeps_full_precision(self, monkeypatch, shape):
        # singular values 1e4 down to 0.1 over a 1e-3 floor: squaring the
        # condition number in a Gram product costs s_6 about 5e-8 of its
        # value, so the Gram fit is tried, fails its per-component
        # certificate, and Lanczos keeps every digit
        d, n = shape
        r = min(d, n)
        rng = np.random.default_rng(14)
        left = scipy.linalg.qr(rng.standard_normal((d, r)), mode="economic")[0]
        right = scipy.linalg.qr(rng.standard_normal((n, r)), mode="economic")[0]
        spectrum = np.full(r, 1e-3)
        spectrum[:6] = [1e4, 1e3, 1e2, 10.0, 1.0, 0.1]
        M = left @ (spectrum[:, None] * right.T)
        gram_fit, tried = la._gram_fit, []

        def spy(*args, **kwargs):
            result = gram_fit(*args, **kwargs)
            tried.append(result[2])  # the Gram fit's residual
            return result

        monkeypatch.setattr(la, "_gram_fit", spy)
        self.fit_oracle(monkeypatch, M, 6, centered=False, driver="lanczos")
        assert len(tried) == 1 and tried[0] > la.RESIDUAL_RTOL


class TestGramFit:
    """The uncentered ``auto`` fit read off a caller's centered Gram matrix."""

    def test_matches_dense_oracle_when_d_far_above_n(self, monkeypatch):
        monkeypatch.setattr(la, "_DENSE_CUTOFF", 100)
        M = spiked_matrix(1500, 120, rank=3, noise=1e-2, seed=8) + 5.0
        A = la.DataMatrix(M)
        P = la.fit_uncentered_pca(A, 3, gram=la.centered_gram(M))
        assert P.driver == "gram"
        U, s, _ = scipy.linalg.svd(M, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:3], rtol=1e-10)
        assert la.principal_angle(P, la.Projector(U[:, :3].T, s[:3])) <= 1e-8
        assert not P.gap_warning
        without = la.fit_uncentered_pca(A, 3)
        assert without.driver == "gram" and without.residual <= la.RESIDUAL_RTOL
        assert la.principal_angle(P, without) <= 1e-8

    def test_centered_gram_matches_explicit_centering(self):
        M = np.random.default_rng(9).random((700, 40)) + 100.0
        G, mean = la.centered_gram(M)
        C = M - M.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(mean, M.mean(axis=1), rtol=1e-15)
        np.testing.assert_allclose(G, C.T @ C, rtol=1e-12, atol=1e-12 * np.abs(C.T @ C).max())
        G_sparse, _ = la.centered_gram(sp.csc_array(M))
        np.testing.assert_allclose(G_sparse, G, rtol=1e-12, atol=1e-12 * np.abs(G).max())

    def test_uncertified_gram_fit_falls_back(self, monkeypatch):
        # a Gram matrix that is not A's own gives factors whose adjoint
        # residual is far off, so the fit refits without it
        monkeypatch.setattr(la, "_DENSE_CUTOFF", 10)
        M = spiked_matrix(400, 60, rank=2, noise=1e-3, seed=11)
        A = la.DataMatrix(M)
        G, mean = la.centered_gram(M)
        P = la.fit_uncentered_pca(A, 2, gram=(G * 1.01, mean))
        assert P.driver == "lanczos" and P.residual is None
        s = scipy.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(P.singular_values, s[:2], rtol=1e-8)


class TestFitResidual:
    """``Projector.residual`` records what certified a fit, and only such a fit."""

    def test_certified_fits_record_a_residual_within_tolerance(self, monkeypatch):
        monkeypatch.setattr(la, "_DENSE_CUTOFF", 100)
        M = spiked_matrix(400, 150, rank=3, noise=1e-3, seed=15)
        A = la.DataMatrix(M)
        S = la.DataMatrix(sp.csc_array(M))
        fits = [
            la.fit_uncentered_pca(A, 3, gram=la.centered_gram(M)),
            la.fit_uncentered_pca(A, 3),
            la.fit_centered_pca(A, 3),
            la.fit_uncentered_pca(S, 3),
        ]
        assert [P.driver for P in fits] == ["gram"] * 4
        assert all(0.0 < P.residual <= la.RESIDUAL_RTOL for P in fits)
        monkeypatch.setattr(la, "_GRAM_CUTOFF", 100)
        fits = [la.fit_uncentered_pca(A, 3), la.fit_centered_pca(A, 3), la.fit_uncentered_pca(S, 3)]
        assert [P.driver for P in fits] == ["lanczos"] * 3
        assert all(P.residual is None for P in fits)
        zero = np.zeros((150, 120))
        P = la.fit_uncentered_pca(la.DataMatrix(zero), 3, gram=la.centered_gram(zero))
        assert P.driver == "gram" and P.residual == 0.0

    def test_residual_is_relative_to_each_singular_value(self):
        block = np.array([[3e-9, 3e-9, 0.0], [4e-9, 4e-9, 0.0]])  # column norms 5e-9, 5e-9, 0
        assert la._residual(block[:, :2], np.array([1.0, 0.25, 0.1])) == pytest.approx(2e-8)
        # a kept singular value of 0 below a nonzero s_1 certifies nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert la._residual(block, np.array([1.0, 0.5, 0.0])) == math.inf
            assert la._residual(block, np.zeros(3)) == 0.0

    def test_exact_fits_record_none(self, monkeypatch):
        M = np.random.default_rng(16).standard_normal((200, 150))
        assert la.truncated_svd(la.DataMatrix(M), 10).residual is None
        monkeypatch.setattr(la, "_DENSE_CUTOFF", 100)
        monkeypatch.setattr(la, "_GRAM_CUTOFF", 100)
        P = la.truncated_svd(la.DataMatrix(M), 10)
        assert P.driver == "lanczos" and P.residual is None


class TestPcaFits:
    def test_uncentered_delegates_bit_for_bit(self):
        M = spiked_matrix(60, 45, rank=5, noise=1e-2, seed=3)
        A = la.DataMatrix(M)
        P = la.fit_uncentered_pca(A, 5)
        Q = la.truncated_svd(A, 5)
        np.testing.assert_array_equal(P.components, Q.components)
        np.testing.assert_array_equal(P.singular_values, Q.singular_values)
        assert not P.centered and P.mean_vector is None

    def test_full_rank_fit_is_isometric_on_columns(self):
        rng = np.random.default_rng(4)
        M = rng.random((6, 5))
        A = la.DataMatrix(M)
        P = la.fit_uncentered_pca(A, 5)
        Y = la.project_columns(P, A)
        for i in range(5):
            for j in range(i + 1, 5):
                pre = np.linalg.norm(M[:, i] - M[:, j])
                post = np.linalg.norm(Y[:, i] - Y[:, j])
                assert abs(pre - post) <= 1e-9 * pre

    def test_rank_k_mean_matrix_is_isometric(self):
        # Columns that already lie in a k-dimensional subspace lose nothing.
        rng = np.random.default_rng(11)
        centers = rng.random((30, 3))
        M = centers[:, rng.integers(0, 3, size=12)]
        A = la.DataMatrix(M)
        Y = la.project_columns(la.fit_uncentered_pca(A, 3), A)
        for i in range(12):
            for j in range(i + 1, 12):
                pre = np.linalg.norm(M[:, i] - M[:, j])
                post = np.linalg.norm(Y[:, i] - Y[:, j])
                assert abs(pre - post) <= 1e-9 * max(pre, 1e-30)

    def test_centered_constant_columns_are_null(self):
        u = np.array([0.3, 0.7, 0.1])
        A = la.DataMatrix(np.tile(u[:, None], (1, 6)))
        P = la.fit_centered_pca(A, 2)
        assert P.centered
        np.testing.assert_allclose(P.mean_vector, u, rtol=1e-14)
        assert (P.singular_values <= 1e-12).all()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_centered_matches_explicit_centering_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((20, 30))
        P = la.fit_centered_pca(la.DataMatrix(M), 5)
        Mc = M - M.mean(axis=1, keepdims=True)
        U, s, _ = scipy.linalg.svd(Mc, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:5], rtol=1e-10, atol=1e-12)
        assert la.principal_angle(P, la.Projector(U[:, :5].T, s[:5])) <= 1e-8

    def test_centered_sparse_never_densifies_but_matches(self):
        S = sp.random(400, 90, density=0.08, random_state=7, format="csc")
        A = la.DataMatrix(S)
        P = la.fit_centered_pca(A, 6)
        Mc = S.toarray() - S.toarray().mean(axis=1, keepdims=True)
        U, s, _ = scipy.linalg.svd(Mc, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:6], rtol=1e-9, atol=1e-10)
        assert la.principal_angle(P, la.Projector(U[:, :6].T, s[:6])) <= 1e-7

    def test_mean_colinear_with_top_pc_shifts_spectrum(self):
        # Mean direction orthogonal to the signal: centering removes
        # exactly the leading singular value.
        rng = np.random.default_rng(21)
        d, n = 30, 40
        Z = rng.standard_normal((d - 1, n))
        Z -= Z.mean(axis=1, keepdims=True)
        M = np.vstack([np.full((1, n), 5.0), 0.3 * Z])
        A = la.DataMatrix(M)
        unc = la.fit_uncentered_pca(A, 6)
        cen = la.fit_centered_pca(A, 5)
        np.testing.assert_allclose(
            cen.singular_values, unc.singular_values[1:6], rtol=1e-6
        )


class TestProject:
    def test_identity_rows_take_leading_coordinates(self):
        P = la.Projector(np.eye(5)[:2], np.array([2.0, 1.0]))
        u = np.arange(5.0)
        Y = la.project_columns(P, la.DataMatrix(np.column_stack([u, 2 * u])))
        np.testing.assert_allclose(Y, [[0.0, 0.0], [1.0, 2.0]])

    def test_zero_vector(self):
        P = la.Projector(np.eye(4)[:3], np.array([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(la.project_columns(P, la.DataMatrix(np.zeros((4, 2)))), np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_contraction_and_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Q = scipy.linalg.qr(rng.standard_normal((8, 3)), mode="economic")[0]
        P = la.Projector(Q.T, np.array([3.0, 2.0, 1.0]))
        M = rng.standard_normal((8, 2))
        out = la.project_columns(P, la.DataMatrix(M))
        np.testing.assert_allclose(out, Q.T @ M, rtol=1e-13)
        assert (np.linalg.norm(out, axis=0) <= np.linalg.norm(M, axis=0) + 1e-12).all()

    def test_dimension_mismatch(self):
        P = la.Projector(np.eye(4)[:2], np.array([2.0, 1.0]))
        with pytest.raises(InputError):
            la.project_columns(P, la.DataMatrix(np.zeros((5, 2))))

    def test_project_columns_matches_per_column(self):
        rng = np.random.default_rng(6)
        M = rng.random((15, 9))
        A = la.DataMatrix(M)
        for fit in (la.fit_uncentered_pca, la.fit_centered_pca):
            P = fit(A, 4)
            Y = la.project_columns(P, A)
            shift = P.mean_vector if P.centered else np.zeros(15)
            for i in range(9):
                np.testing.assert_allclose(Y[:, i], P.components @ (M[:, i] - shift), atol=1e-12)

    def test_monotone_in_k_within_one_fit(self):
        M = spiked_matrix(40, 35, rank=6, noise=0.05, seed=13)
        A = la.DataMatrix(M)
        P = la.fit_uncentered_pca(A, 8)
        rng = np.random.default_rng(0)
        u, v = rng.random(40), rng.random(40)
        diffs = [np.linalg.norm((P.components[:k] @ (u - v))) for k in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] <= np.linalg.norm(u - v) + 1e-12


class TestSymmetricEmbedding:
    def test_one_by_one(self):
        B = la.build_symmetric_embedding(np.array([[1.0]]))
        np.testing.assert_allclose(B.to_dense(), [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(np.linalg.eigvalsh(B.to_dense()), [-1.0, 1.0])

    def test_zero_matrix(self):
        B = la.build_symmetric_embedding(np.zeros((3, 2)))
        assert np.all(np.linalg.eigvalsh(B.to_dense()) == 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_operator_is_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        B = la.build_symmetric_embedding(rng.standard_normal((6, 9)))
        x, y = rng.standard_normal(15), rng.standard_normal(15)
        assert abs(B.matvec(x) @ y - x @ B.matvec(y)) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_eigenpairs_encode_singular_triplets(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((20, 30))
        B = la.build_symmetric_embedding(M)
        w, V = np.linalg.eigh(B.to_dense())
        U, s, Vt = scipy.linalg.svd(M, full_matrices=False)
        # top eigenvalues come in +-s_t pairs
        np.testing.assert_allclose(np.sort(w)[-20:][::-1], s, atol=1e-9)
        np.testing.assert_allclose(np.sort(w)[:20], -s, atol=1e-9)
        for t in range(3):
            expected = np.concatenate([U[:, t], Vt[t]]) / np.sqrt(2)
            vec = V[:, np.argmin(np.abs(w - s[t]))]
            cos = abs(vec @ expected)
            assert cos >= 1 - 1e-9


class TestSpectralNorm:
    def test_diagonal(self):
        assert la.spectral_norm(np.diag([5.0, -7.0, 2.0])) == pytest.approx(7.0, rel=1e-8)

    def test_zero(self):
        assert la.spectral_norm(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((100, 100))
        M = (M + M.T) / 2
        oracle = np.abs(np.linalg.eigvalsh(M)).max()
        assert la.spectral_norm(M) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("shape", [(300, 80), (80, 300)], ids=["tall", "wide"])
    def test_matches_two_norm_on_gapless_matrices(self, shape):
        M = np.random.default_rng(11).standard_normal(shape)
        oracle = np.linalg.norm(M, 2)
        assert abs(la.spectral_norm(M) - oracle) <= 1e-12 * oracle

    def test_sparse_matches_two_norm(self):
        normal = np.random.default_rng(12).standard_normal
        S = sp.random(400, 150, density=0.1, random_state=12, format="csc", data_rvs=normal)
        oracle = np.linalg.norm(S.toarray(), 2)
        assert abs(la.spectral_norm(S) - oracle) <= 1e-12 * oracle

    def test_embedding_norm_equals_top_singular_value(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((40, 25))
        B = la.build_symmetric_embedding(M)
        top = scipy.linalg.svd(M, compute_uv=False)[0]
        assert la.spectral_norm(B) == pytest.approx(top, rel=1e-8)


class TestPrincipalAngle:
    def test_identical(self):
        P = la.Projector(np.eye(4)[:2], np.array([2.0, 1.0]))
        assert la.principal_angle(P, P) == 0.0

    def test_orthogonal_subspaces(self):
        P = la.Projector(np.eye(4)[:2], np.array([2.0, 1.0]))
        Q = la.Projector(np.eye(4)[2:], np.array([2.0, 1.0]))
        assert la.principal_angle(P, Q) == pytest.approx(1.0)

    def test_perturbed_subspace_matches_cross_gram_oracle(self):
        rng = np.random.default_rng(3)
        base = scipy.linalg.qr(rng.standard_normal((10, 3)), mode="economic")[0]
        other = scipy.linalg.qr(base + 0.05 * rng.standard_normal((10, 3)), mode="economic")[0]
        P = la.Projector(base.T, np.array([3.0, 2.0, 1.0]))
        Q = la.Projector(other.T, np.array([3.0, 2.0, 1.0]))
        s = scipy.linalg.svd(base.T @ other, compute_uv=False)
        expected = np.sqrt(1 - s.min() ** 2)
        assert la.principal_angle(P, Q) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        P = la.Projector(np.eye(4)[:2], np.array([2.0, 1.0]))
        Q = la.Projector(np.eye(5)[:2], np.array([2.0, 1.0]))
        with pytest.raises(InputError):
            la.principal_angle(P, Q)


class TestSubspacePerturbation:
    @pytest.mark.parametrize("seed", range(5))
    def test_noise_rotates_subspace_at_most_two_noise_norms_over_gap(self, seed):
        # For a spiked matrix plus noise, the fitted subspace tilts by at
        # most 2 * ||E_B|| / s_k (checked as stated, via the symmetric
        # embedding of the noise).
        rng = np.random.default_rng(seed)
        d = n = 120
        k = 3
        centers = rng.random((d, k))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        A = 40.0 * centers[:, labels]
        E = rng.uniform(-1, 1, size=(d, n))
        exact = la.truncated_svd(la.DataMatrix(A), k)
        noisy = la.truncated_svd(la.DataMatrix(A + E), k)
        noise_norm = la.spectral_norm(la.build_symmetric_embedding(E))
        s_k = scipy.linalg.svd(A, compute_uv=False)[k - 1]
        assert la.principal_angle(exact, noisy) <= 2 * noise_norm / s_k


class TestBitsMatchFloat64:
    """An all-Bernoulli draw held as bits gives the results of its float64 copy.

    Blocks are made small, so that every blocked read of the bits spans many
    blocks. Sums of 0/1 entries are exact, so the Gram product, the row means
    and the squared norms are bit-identical; the other results sum floats
    in another order, and agree to 1e-12 relative.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(la, "_BLOCK_ENTRIES", 5000)

    @pytest.fixture(scope="class")
    def pair(self):
        from pcacompress.models import generate_dataset, sbm_rectangular

        bits = generate_dataset(sbm_rectangular(600, [260, 260], 0.6, 0.3), seed=3)
        assert bits.values.dtype == np.bool_
        return bits, la.DataMatrix(bits.values.astype(np.float64), bits.labels)

    @staticmethod
    def close(got, want, rtol=1e-12):
        got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    def test_exact_sums_are_bit_identical(self, pair):
        bits, floats = pair
        for got, want in zip(la.centered_gram(bits.values), la.centered_gram(floats.values)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(bits.row_means(), floats.row_means())
        for axis in (0, 1):
            np.testing.assert_array_equal(
                la.squared_norms(bits.values, axis), la.squared_norms(floats.values, axis)
            )

    def test_written_bytes_are_identical(self, pair, tmp_path):
        from pcacompress.io import write_matrix

        bits, floats = pair
        write_matrix(bits, tmp_path / "bits.mtx")
        write_matrix(floats, tmp_path / "floats.mtx")
        assert (tmp_path / "bits.mtx").read_bytes() == (tmp_path / "floats.mtx").read_bytes()

    @pytest.mark.parametrize("driver", ["dense", "gram", "lanczos"])
    def test_fits_and_projections_agree(self, pair, driver, monkeypatch):
        bits, floats = pair
        if driver == "dense":  # a shape the dense driver takes
            bits, floats = (la.DataMatrix(A.values[:, :300], A.labels[:300]) for A in pair)
        if driver == "lanczos":
            monkeypatch.setattr(la, "_GRAM_CUTOFF", 0)
        # the gram driver reads the caller's G, then forms its own
        for caller in (True, False) if driver == "gram" else (False,):
            fits = []
            for A in (bits, floats):
                gram = la.centered_gram(A.values) if caller else None
                fits.append(la.fit_uncentered_pca(A, 4, gram=gram))
            assert [P.driver for P in fits] == [driver, driver]
            self.close(fits[0].singular_values, fits[1].singular_values)
            self.close(fits[0].components, fits[1].components)
            self.close(la.project_columns(fits[0], bits), la.project_columns(fits[1], floats))

    def test_centered_fit_agrees(self, pair):
        fits = [la.fit_centered_pca(A, 4) for A in pair]
        self.close(fits[0].singular_values, fits[1].singular_values)
        self.close(fits[0].components, fits[1].components)

    def test_direct_pair_distances_agree(self, pair, monkeypatch):
        from pcacompress import metrics

        # every pair's original distance is recomputed by direct difference
        monkeypatch.setattr(metrics, "GRAM_RECOMPUTE_RTOL", 2.0)
        bits, floats = pair
        P = la.fit_uncentered_pca(floats, 4)
        tables = []
        for A in pair:
            table = metrics.ClusterPairTable(A.labels, extremes=True)
            metrics.pair_compression(A, P, (table,), gram=la.centered_gram(A.values)[0])
            tables.append(table)
        pairs = bits.n * (bits.n - 1) // 2
        assert tables[0].recomputed == tables[1].recomputed == pairs
        cells = np.triu_indices(len(tables[0].count))  # cell (a, b) holds pairs for a <= b
        for q in ("pre", "post", "ratio"):
            for stat in ("sum", "min", "max"):
                self.close(getattr(tables[0], stat)[q][cells], getattr(tables[1], stat)[q][cells])

    @pytest.mark.parametrize("source", ["gram", "direct"])
    def test_noise_norm_agrees(self, pair, source, monkeypatch):
        from pcacompress import bounds
        from pcacompress.models import sbm_rectangular

        if source == "direct":
            monkeypatch.setattr(bounds, "NOISE_GRAM_RTOL", 0.0)
        model = sbm_rectangular(600, [260, 260], 0.6, 0.3)
        norms = []
        for A in pair:
            got, used = bounds._noise_norm(model, A, *la.centered_gram(A.values))
            assert used == source
            norms.append(got)
        self.close(norms[0], norms[1])

    def test_kmeans_labels_are_identical(self, pair):
        from pcacompress.cluster import KMeansPoints, kmeans

        bits, floats = pair
        np.testing.assert_array_equal(
            kmeans(KMeansPoints(bits.values.T), 2, seed=0).labels,
            kmeans(KMeansPoints(floats.values.T), 2, seed=0).labels,
        )

    def test_mixed_families_draw_float64(self):
        from pcacompress.models import NoiseSpec, RandomVectorModel, generate_dataset

        centers = np.full((2, 30), 0.5)
        noise = [NoiseSpec("bernoulli-residual"), NoiseSpec("uniform-symmetric", 0.2)]
        A = generate_dataset(RandomVectorModel(centers, [5, 6], noise), seed=0)
        assert A.values.dtype == np.float64
        assert set(np.unique(A.values[:, :5])) <= {0.0, 1.0}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("sparse", [False, True])
def test_non_finite_entry_is_rejected_by_name(bad, sparse):
    values = np.ones((3, 4))
    values[2, 1] = bad
    with pytest.raises(InputError, match="^data matrix contains non-finite entries$"):
        la.DataMatrix(sp.csc_array(values) if sparse else values)
