import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from pcacompress import linalg as la
from pcacompress.errors import InputError


def spiked_matrix(d, n, rank, noise, seed):
    """Random low-rank matrix plus small noise: a clean spectral gap."""
    rng = np.random.default_rng(seed)
    left = scipy.linalg.qr(rng.standard_normal((d, rank)), mode="economic")[0]
    right = scipy.linalg.qr(rng.standard_normal((n, rank)), mode="economic")[0]
    scales = np.linspace(2 * rank, rank, rank)
    return left @ (scales[:, None] * right.T) + noise * rng.standard_normal((d, n))


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
    def test_randomized_driver_on_spiked_input(self, seed):
        M = spiked_matrix(150, 700, rank=6, noise=1e-4, seed=seed)
        A = la.DataMatrix(M)
        P = la.truncated_svd(A, 6, la.SvdOptions(driver="randomized", seed=seed))
        U, s, _ = scipy.linalg.svd(M, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:6], rtol=1e-8)
        assert la.principal_angle(P, la.Projector(U[:, :6].T, s[:6])) <= 1e-6

    def test_auto_driver_exact_on_gapless_input(self):
        # Pure noise above the dense cutoff: the range finder alone misses
        # the flat spectrum, so the default fit must certify and refit.
        M = np.random.default_rng(7).standard_normal((600, 600))
        A = la.DataMatrix(M)
        P = la.truncated_svd(A, 20)
        dense = la.truncated_svd(A, 20, la.SvdOptions(driver="dense"))
        np.testing.assert_allclose(P.singular_values, dense.singular_values, rtol=1e-8)
        assert la.principal_angle(P, dense) <= 1e-6
        again = la.truncated_svd(A, 20)
        assert P.components.tobytes() == again.components.tobytes()
        assert P.singular_values.tobytes() == again.singular_values.tobytes()
        assert P.driver == "lanczos"

    def test_auto_driver_keeps_certified_randomized_fit(self):
        M = spiked_matrix(600, 600, rank=6, noise=1e-4, seed=3)
        P = la.truncated_svd(la.DataMatrix(M), 6)
        assert P.driver == "randomized"
        s = scipy.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(P.singular_values, s[:6], rtol=1e-8)

    def test_uncertified_fit_without_lanczos_room_goes_dense(self):
        # with no oversampling the sketch misses the flat spectrum, and
        # ARPACK cannot return k'+1 = min(d, n) triplets
        M = np.random.default_rng(4).standard_normal((30, 20))
        opts = la.SvdOptions(oversampling=0, dense_cutoff=5)
        P = la.truncated_svd(la.DataMatrix(M), 19, opts)
        assert P.driver == "dense"
        s = scipy.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(P.singular_values, s[:19], rtol=1e-10)

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
    """The exact driver on a sparse input too large to densify."""

    @pytest.mark.parametrize("shape", [(80, 50), (50, 80)], ids=["n<=d", "n>d"])
    @pytest.mark.parametrize("centered", [False, True], ids=["uncentered", "centered"])
    def test_matches_dense_oracle(self, monkeypatch, shape, centered):
        d, n = shape
        M = spiked_matrix(d, n, rank=4, noise=1e-3, seed=5)
        M *= np.random.default_rng(6).random((d, n)) < 0.4
        A = la.DataMatrix(sp.csc_array(M))
        calls = []
        real = la._gram_svd
        monkeypatch.setattr(la, "_DENSIFY_BUDGET", 100)
        monkeypatch.setattr(la, "_gram_svd", lambda op: calls.append(op.shape) or real(op))
        fit = la.fit_centered_pca if centered else la.fit_uncentered_pca
        P = fit(A, 4)
        assert calls == [(d, n)]
        assert P.driver == "dense"
        if centered:
            M = M - M.mean(axis=1, keepdims=True)
        U, s, _ = scipy.linalg.svd(M, full_matrices=False)
        np.testing.assert_allclose(P.singular_values, s[:4], rtol=1e-10)
        assert la.principal_angle(P, la.Projector(U[:, :4].T, s[:4])) <= 1e-8


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
        np.testing.assert_allclose(la.project(P, u), [0.0, 1.0])

    def test_zero_vector(self):
        P = la.Projector(np.eye(4)[:3], np.array([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(la.project(P, np.zeros(4)), np.zeros(3))

    @pytest.mark.parametrize("seed", range(4))
    def test_contraction_and_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Q = scipy.linalg.qr(rng.standard_normal((8, 3)), mode="economic")[0]
        P = la.Projector(Q.T, np.array([3.0, 2.0, 1.0]))
        u = rng.standard_normal(8)
        out = la.project(P, u)
        np.testing.assert_allclose(out, Q.T @ u, rtol=1e-13)
        assert np.linalg.norm(out) <= np.linalg.norm(u) + 1e-12

    def test_dimension_mismatch(self):
        P = la.Projector(np.eye(4)[:2], np.array([2.0, 1.0]))
        with pytest.raises(InputError):
            la.project(P, np.zeros(5))

    def test_project_columns_matches_per_column(self):
        rng = np.random.default_rng(6)
        M = rng.random((15, 9))
        A = la.DataMatrix(M)
        for fit in (la.fit_uncentered_pca, la.fit_centered_pca):
            P = fit(A, 4)
            Y = la.project_columns(P, A)
            for i in range(9):
                np.testing.assert_allclose(Y[:, i], la.project(P, M[:, i]), atol=1e-12)

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
