import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats

from pcacompress.errors import InputError
from pcacompress.linalg import DataMatrix, fit_uncentered_pca
from pcacompress.metrics import (
    GRAM_RECOMPUTE_RTOL,
    CurvePoint,
    PairSet,
    centering_comparison,
    cluster_summary,
    default_curve_grid,
    extra_pc_split,
    intra_fraction_curve,
    pair_compression,
    pointwise_summary,
    _triangular_decode,
)
from pcacompress.models import NoiseSpec, RandomVectorModel, generate_dataset, sbm_rectangular


def small_labeled_matrix(seed=0, d=6, n=8, k=2):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(k, d))
    labels = np.arange(n) * k // n
    X = centers[labels].T + rng.uniform(-0.05, 0.05, size=(d, n))
    return DataMatrix(X, labels=labels)


class TestPairCompression:
    def test_matches_bruteforce_oracle(self):
        A = small_labeled_matrix()
        P = fit_uncentered_pca(A, 2)
        pairs = pair_compression(A, P)
        X = A.values
        proj = P.components.T @ P.components
        t = 0
        for a in range(A.n):
            for b in range(a + 1, A.n):
                assert pairs.i[t] == a and pairs.j[t] == b
                pre = np.linalg.norm(X[:, a] - X[:, b])
                post = np.linalg.norm(proj @ (X[:, a] - X[:, b]))
                np.testing.assert_allclose(pairs.pre[t], pre, rtol=1e-10)
                np.testing.assert_allclose(pairs.post[t], post, rtol=1e-10)
                np.testing.assert_allclose(pairs.ratio[t], pre / post, rtol=1e-9)
                t += 1
        assert t == len(pairs)

    def test_duplicate_columns_give_absent_ratio(self):
        X = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.5, 0.5, 3.0]])
        A = DataMatrix(X)
        P = fit_uncentered_pca(A, 2)
        stats = list(pair_compression(A, P))
        first = stats[0]
        assert first.pair == (0, 1)
        assert first.pre_dist == 0.0
        assert first.post_dist == 0.0
        assert first.ratio is None
        assert stats[1].ratio is not None

    def test_full_rank_projection_is_isometry(self):
        rng = np.random.default_rng(3)
        A = DataMatrix(rng.standard_normal((5, 9)))
        P = fit_uncentered_pca(A, 5)
        pairs = pair_compression(A, P)
        np.testing.assert_allclose(pairs.post, pairs.pre, rtol=1e-9)
        assert not np.any(pairs.degenerate)
        np.testing.assert_allclose(pairs.ratio, 1.0, rtol=1e-9)

    def test_projection_never_expands(self):
        A = small_labeled_matrix(seed=5, d=20, n=30)
        for k in (1, 3, 10):
            pairs = pair_compression(A, fit_uncentered_pca(A, k))
            assert np.all(pairs.post <= pairs.pre)

    def test_sampled_policy_matches_exact(self):
        A = small_labeled_matrix(seed=7, d=12, n=20)
        P = fit_uncentered_pca(A, 3)
        exact = pair_compression(A, P)
        table = {
            (a, b): (pre, post)
            for a, b, pre, post in zip(exact.i, exact.j, exact.pre, exact.post)
        }
        sampled = pair_compression(A, P, pair_policy=("sampled", 50, 11))
        assert len(sampled) == 50
        seen = set()
        for a, b, pre, post in zip(sampled.i, sampled.j, sampled.pre, sampled.post):
            assert (a, b) not in seen
            seen.add((a, b))
            want_pre, want_post = table[(a, b)]
            np.testing.assert_allclose(pre, want_pre, rtol=1e-9)
            np.testing.assert_allclose(post, want_post, rtol=1e-9)

    def test_sampled_policy_is_deterministic(self):
        A = small_labeled_matrix(seed=9, d=10, n=15)
        P = fit_uncentered_pca(A, 2)
        one = pair_compression(A, P, pair_policy=("sampled", 30, 4))
        two = pair_compression(A, P, pair_policy=("sampled", 30, 4))
        np.testing.assert_array_equal(one.i, two.i)
        np.testing.assert_array_equal(one.pre, two.pre)

    def test_sparse_input_works(self):
        rng = np.random.default_rng(2)
        dense = rng.uniform(size=(15, 10)) * (rng.uniform(size=(15, 10)) < 0.3)
        A_sparse = DataMatrix(sp.csc_array(dense))
        A_dense = DataMatrix(dense)
        P = fit_uncentered_pca(A_dense, 3)
        got = pair_compression(A_sparse, P)
        want = pair_compression(A_dense, P)
        np.testing.assert_allclose(got.pre, want.pre, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.post, want.post, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        A = small_labeled_matrix()
        P = fit_uncentered_pca(small_labeled_matrix(d=7), 2)
        with pytest.raises(InputError):
            pair_compression(A, P)

    def test_bad_policy_rejected(self):
        A = small_labeled_matrix()
        P = fit_uncentered_pca(A, 2)
        with pytest.raises(InputError):
            pair_compression(A, P, pair_policy="approximate")
        with pytest.raises(InputError):
            pair_compression(A, P, pair_policy=("sampled", 10**9, 0))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_exact_agrees_with_sampled_all_pairs(self, sparse):
        # columns 0-99 sit at offset 1000 with spread 1e-3, so the Gram
        # identity cancels for their pairs, with or without centering
        # (the mean column sits near 500); columns 100-199 and the cross
        # pairs keep their digits
        rng = np.random.default_rng(0)
        d = 300
        X = np.hstack(
            [1000.0 + 1e-3 * rng.standard_normal((d, 100)), rng.uniform(size=(d, 100))]
        )
        i, j = np.triu_indices(X.shape[1], k=1)
        for Z in (X, X - X.mean(axis=1, keepdims=True)):
            G = Z.T @ Z
            g = np.diag(G)
            below = g[i] + g[j] - 2.0 * G[i, j] <= GRAM_RECOMPUTE_RTOL * (g[i] + g[j])
            assert below.any() and not below.all()
        A = DataMatrix(sp.csc_array(X) if sparse else X)
        P = fit_uncentered_pca(A, 5)
        exact = pair_compression(A, P)
        sampled = pair_compression(A, P, pair_policy=("sampled", len(i), 0))
        np.testing.assert_array_equal(exact.i, sampled.i)
        np.testing.assert_array_equal(exact.j, sampled.j)
        np.testing.assert_allclose(exact.pre, sampled.pre, rtol=1e-9, atol=0)
        np.testing.assert_allclose(exact.post, sampled.post, rtol=1e-9, atol=0)
        np.testing.assert_array_equal(exact.degenerate, sampled.degenerate)
        np.testing.assert_allclose(exact.ratio, sampled.ratio, rtol=1e-9, atol=0)

    def test_sampled_memory_stays_bounded(self):
        # 20000 sampled pairs of a dense 2000 x 1000 matrix; a fresh process
        # so the high-water mark before the call is this setup's alone
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from pcacompress.linalg import DataMatrix, Projector
            from pcacompress.metrics import pair_compression

            rng = np.random.default_rng(0)
            A = DataMatrix(rng.uniform(size=(2000, 1000)))
            Q, _ = np.linalg.qr(rng.standard_normal((2000, 5)))
            P = Projector(Q.T, [5.0, 4.0, 3.0, 2.0, 1.0])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            pairs = pair_compression(A, P, ("sampled", 20000, 0))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert len(pairs) == 20000
            print((after - before) / 1024.0)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {"PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr
        growth_mb = float(done.stdout)
        assert growth_mb < 100.0

    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_triangular_decode_covers_all_pairs(self, n):
        total = n * (n - 1) // 2
        i, j = _triangular_decode(np.arange(total), n)
        want_i, want_j = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(i, want_i)
        np.testing.assert_array_equal(j, want_j)


class TestClusterSummary:
    def test_matches_bruteforce(self):
        A = small_labeled_matrix(seed=1, d=8, n=10, k=2)
        P = fit_uncentered_pca(A, 2)
        pairs = pair_compression(A, P)
        table = cluster_summary(pairs)
        X, lab = A.values, A.labels
        proj = P.components.T @ P.components
        for cluster in range(2):
            intra, inter = [], []
            for a in range(A.n):
                for b in range(a + 1, A.n):
                    if lab[a] != cluster and lab[b] != cluster:
                        continue
                    pre = np.linalg.norm(X[:, a] - X[:, b])
                    post = np.linalg.norm(proj @ (X[:, a] - X[:, b]))
                    (intra if lab[a] == lab[b] else inter).append((pre, post))
            row = table.row(cluster)
            assert row.size == 5
            for got, raw in ((row.intra, intra), (row.inter, inter)):
                pres = [p for p, _ in raw]
                posts = [q for _, q in raw]
                assert got.pair_count == len(raw)
                np.testing.assert_allclose(got.pre_avg, np.mean(pres), rtol=1e-10)
                np.testing.assert_allclose(got.post_avg, np.mean(posts), rtol=1e-10)
                np.testing.assert_allclose(
                    got.ratio_avg, np.mean([p / q for p, q in raw]), rtol=1e-9
                )
                np.testing.assert_allclose(
                    got.ratio_of_averages, np.mean(pres) / np.mean(posts), rtol=1e-10
                )
                assert got.excluded == 0

    def test_mean_of_ratios_differs_from_ratio_of_means(self):
        A = small_labeled_matrix(seed=4, d=10, n=12, k=2)
        pairs = pair_compression(A, fit_uncentered_pca(A, 1))
        row = cluster_summary(pairs).row(0)
        assert row.intra.ratio_avg != pytest.approx(row.intra.ratio_of_averages, rel=1e-6)

    def test_degenerate_pairs_counted_not_averaged(self):
        X = np.array(
            [[0.1, 0.1, 0.9, 0.8], [0.2, 0.2, 0.1, 0.15], [0.3, 0.3, 0.4, 0.5]]
        )
        A = DataMatrix(X, labels=np.array([0, 0, 1, 1]))
        pairs = pair_compression(A, fit_uncentered_pca(A, 2))
        row = cluster_summary(pairs).row(0)
        assert row.intra.pair_count == 1
        assert row.intra.excluded == 1
        assert row.intra.ratio_avg is None
        assert row.intra.pre_avg == 0.0

    def test_singleton_cluster_has_no_intra(self):
        X = np.random.default_rng(0).uniform(size=(4, 5))
        A = DataMatrix(X, labels=np.array([0, 0, 0, 0, 1]))
        table = cluster_summary(pair_compression(A, fit_uncentered_pca(A, 2)))
        assert table.row(1).intra is None
        assert table.row(1).inter.pair_count == 4

    def test_identical_clusters_indistinguishable(self):
        # two clusters sharing one center: intra-ratio samples of each
        # should look like draws from the same distribution
        center = np.full((1, 40), 0.5)
        model = RandomVectorModel(
            centers=np.vstack([center, center]),
            sizes=[40, 40],
            noise=[NoiseSpec("uniform-symmetric", 0.3)] * 2,
        )
        A = generate_dataset(model, seed=21)
        pairs = pair_compression(A, fit_uncentered_pca(A, 5))
        same = pairs.same
        first = pairs.labels[pairs.i] == 0
        r0 = pairs.ratio[same & first & ~pairs.degenerate]
        r1 = pairs.ratio[same & ~first & ~pairs.degenerate]
        stat = scipy.stats.ks_2samp(r0, r1)
        assert stat.pvalue > 0.05

    def test_labels_required(self):
        X = np.random.default_rng(1).uniform(size=(4, 6))
        A = DataMatrix(X)
        pairs = pair_compression(A, fit_uncentered_pca(A, 2))
        with pytest.raises(InputError):
            cluster_summary(pairs)


class TestPointwiseSummary:
    def test_matches_bruteforce(self):
        A = small_labeled_matrix(seed=6, d=9, n=10, k=2)
        pairs = pair_compression(A, fit_uncentered_pca(A, 2))
        points = pointwise_summary(pairs)
        assert len(points) == A.n
        ratio = {(a, b): r for a, b, r in zip(pairs.i, pairs.j, pairs.ratio)}
        for u in range(A.n):
            intra, inter = [], []
            for v in range(A.n):
                if v == u:
                    continue
                key = (min(u, v), max(u, v))
                bucket = intra if A.labels[u] == A.labels[v] else inter
                bucket.append(ratio[key])
            np.testing.assert_allclose(points[u].intra_avg, np.mean(intra), rtol=1e-10)
            np.testing.assert_allclose(points[u].inter_avg, np.mean(inter), rtol=1e-10)

    def test_singleton_point_has_no_intra(self):
        X = np.random.default_rng(3).uniform(size=(5, 4))
        A = DataMatrix(X, labels=np.array([0, 0, 0, 1]))
        points = pointwise_summary(pair_compression(A, fit_uncentered_pca(A, 2)))
        assert points[3].intra_avg is None
        assert points[3].inter_avg is not None


def handmade_pairs(pre, post, labels, i=None, j=None):
    pre = np.asarray(pre, dtype=float)
    n_pairs = len(pre)
    if i is None:
        i = np.zeros(n_pairs, dtype=np.int64)
        j = np.arange(1, n_pairs + 1, dtype=np.int64)
    return PairSet(
        np.asarray(i), np.asarray(j), pre, np.asarray(post, dtype=float),
        labels=np.asarray(labels),
    )


class TestIntraFractionCurve:
    def test_hand_ranked_sequence(self):
        # ratios: absent, 10, 5, 2 after sorting; same flags F T F T
        labels = np.array([0, 1, 0, 1, 0])
        pairs = PairSet(
            i=np.array([0, 0, 0, 0]),
            j=np.array([2, 1, 3, 4]),
            pre=np.array([10.0, 4.0, 5.0, 6.0]),
            post=np.array([1.0, 0.0, 1.0, 3.0]),
            labels=labels,
        )
        # pair 1 (0-1, inter) degenerate; 0-2 ratio 10 intra; 0-3 ratio 5 inter;
        # 0-4 ratio 2 intra
        curve = intra_fraction_curve(pairs, grid=np.array([0.25, 0.5, 0.75, 1.0]))
        ys = [p.y for p in curve]
        np.testing.assert_allclose(ys, [0.0, 0.5, 1 / 3, 0.5])

    def test_ties_break_by_pair_index(self):
        labels = np.array([0, 1, 0])
        pairs = PairSet(
            i=np.array([0, 0]),
            j=np.array([1, 2]),
            pre=np.array([6.0, 6.0]),
            post=np.array([2.0, 2.0]),
            labels=labels,
        )
        curve = intra_fraction_curve(pairs, grid=np.array([0.5, 1.0]))
        assert curve[0].y == 0.0  # inter pair (0,1) comes first on the tie
        assert curve[1].y == 0.5

    def test_default_grid_shape(self):
        grid = default_curve_grid()
        assert len(grid) == 100
        assert grid[0] == 0.01
        assert grid[-1] == 1.0
        A = small_labeled_matrix()
        curve = intra_fraction_curve(pair_compression(A, fit_uncentered_pca(A, 2)))
        assert len(curve) == 100
        assert all(isinstance(p, CurvePoint) for p in curve)
        assert all(0.0 <= p.y <= 1.0 for p in curve)

    def test_separated_clusters_rank_intra_first(self):
        model = sbm_rectangular(200, [50, 50], p=0.75, q=0.25)
        A = generate_dataset(model, seed=3)
        pairs = pair_compression(A, fit_uncentered_pca(A, 10))
        curve = intra_fraction_curve(pairs)
        assert curve[9].x == pytest.approx(0.10)
        assert curve[9].y > 0.9
        # final point is the overall intra fraction
        total_intra = np.mean(pairs.same)
        np.testing.assert_allclose(curve[-1].y, total_intra, rtol=1e-12)


class TestCenteringComparison:
    def test_large_mean_aligns_top_component(self):
        rng = np.random.default_rng(8)
        X = 0.8 + 0.01 * rng.standard_normal((30, 40))
        X = np.clip(X, 0.0, 1.0)
        report = centering_comparison(DataMatrix(X), 3)
        assert report.cosine > 0.999
        assert report.uncentered is None
        assert report.ratio_deltas is None

    def test_zero_mean_gives_absent_cosine(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((10, 20))
        X = X - X.mean(axis=1, keepdims=True)
        report = centering_comparison(DataMatrix(X), 2)
        assert report.cosine is None or report.cosine < 0.5

    def test_labeled_data_gets_tables_and_deltas(self):
        A = small_labeled_matrix(seed=13, d=12, n=12)
        report = centering_comparison(A, 2)
        assert report.uncentered is not None
        assert report.centered is not None
        assert set(report.ratio_deltas) == {0, 1}
        cells = report.ratio_deltas[0]
        assert "intra.ratio_avg" in cells
        got = report.centered.row(0).intra.ratio_avg
        base = report.uncentered.row(0).intra.ratio_avg
        np.testing.assert_allclose(cells["intra.ratio_avg"], (got - base) / base)


class TestExtraPcSplit:
    def test_parts_match_direct_computation(self):
        A = small_labeled_matrix(seed=2, d=10, n=8)
        P = fit_uncentered_pca(A, 4)
        split = extra_pc_split(A, P, 2)
        X = A.values
        C = P.components
        t = 0
        for a in range(A.n):
            for b in range(a + 1, A.n):
                y = C @ (X[:, a] - X[:, b])
                np.testing.assert_allclose(split.leading[t], np.linalg.norm(y[:2]), rtol=1e-10)
                np.testing.assert_allclose(split.trailing[t], np.linalg.norm(y[2:]), rtol=1e-10)
                t += 1

    def test_pythagorean_identity(self):
        A = small_labeled_matrix(seed=10, d=14, n=10)
        P = fit_uncentered_pca(A, 5)
        split = extra_pc_split(A, P, 3)
        np.testing.assert_allclose(
            split.post**2, split.leading**2 + split.trailing**2, rtol=1e-12
        )

    def test_post_agrees_with_pair_compression(self):
        A = small_labeled_matrix(seed=11, d=14, n=10)
        P = fit_uncentered_pca(A, 5)
        split = extra_pc_split(A, P, 3)
        pairs = pair_compression(A, P)
        np.testing.assert_allclose(split.post, pairs.post, rtol=1e-9)

    def test_split_at_full_width_has_zero_trailing(self):
        A = small_labeled_matrix(seed=14)
        P = fit_uncentered_pca(A, 3)
        split = extra_pc_split(A, P, 3)
        np.testing.assert_array_equal(split.trailing, 0.0)
        np.testing.assert_allclose(split.leading, split.post)

    def test_bad_split_point_rejected(self):
        A = small_labeled_matrix(seed=15)
        P = fit_uncentered_pca(A, 3)
        with pytest.raises(InputError):
            extra_pc_split(A, P, 0)
        with pytest.raises(InputError):
            extra_pc_split(A, P, 4)

    def test_same_cluster_mask_present_with_labels(self):
        A = small_labeled_matrix(seed=16)
        split = extra_pc_split(A, fit_uncentered_pca(A, 3), 1)
        assert split.same is not None
        assert split.same.sum() > 0
