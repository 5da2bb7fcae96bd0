import ast
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats

from pcacompress import metrics
from pcacompress.errors import InputError
from pcacompress.linalg import DENSE_GRAM_DENSITY, DataMatrix, Projector, fit_uncentered_pca
from pcacompress.metrics import (
    GRAM_RECOMPUTE_RTOL,
    ClusterPairTable,
    CurveHistogram,
    CurvePoint,
    PairSet,
    PairStream,
    PointSums,
    centering_comparison,
    cluster_summary,
    default_curve_grid,
    extra_pc_split,
    intra_fraction_curve,
    pair_compression,
    pcs_sweep,
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


def collect(A, P, pair_policy="exact"):
    """Every pair of one pass, concatenated from its chunks by a test-side sink."""
    chunks = []
    stream = pair_compression(A, P, [SimpleNamespace(update=chunks.append)], pair_policy)
    cat = lambda name: np.concatenate([getattr(c, name) for c in chunks])  # noqa: E731
    pairs = PairSet(
        cat("i"), cat("j"), cat("pre"), cat("post"), A.labels, sum(c.recomputed for c in chunks)
    )
    assert len(pairs.pre) == len(stream)
    return pairs


def summarize(A, P, pair_policy="exact"):
    table = ClusterPairTable(A.labels)
    pair_compression(A, P, (table,), pair_policy)
    return cluster_summary(table)


def curve_of(stream, labels, grid=None):
    """The curve of ``stream``: its histogram's pass, then the curve's own."""
    histogram = CurveHistogram(labels)
    stream.reduce(histogram)
    return intra_fraction_curve(stream, histogram, grid)


class OneChunk:
    """A stream of one hand-built chunk: each pass hands that chunk to every sink."""

    def __init__(self, pairs):
        self.pairs = pairs

    def reduce(self, *sinks):
        for sink in sinks:
            sink.update(self.pairs)


def test_one_driver_loop_calls_pass():
    """Every pair pass runs through one loop: _pass has one caller, in metrics."""
    callers = []
    for path in sorted(Path(metrics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "_pass":
                    callers.append(f"{path.name}:{node.lineno}")
    assert len(callers) == 1 and callers[0].startswith("metrics.py:"), callers


def _matrix_products(tree):
    """Nodes of a module that form a matrix product: ``@``, ``@=``, or a call to dot or matmul."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dot", "matmul"):
                yield node


def test_metrics_forms_no_matrix_product():
    """metrics reads every product through linalg's primitives (gram_rows, gram_block, product)."""
    tree = ast.parse(Path(metrics.__file__).read_text(), filename=metrics.__file__)
    assert [node.lineno for node in _matrix_products(tree)] == []


def test_matrix_products_are_caught():
    for source in ("a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)"):
        assert list(_matrix_products(ast.parse(source))), source
    for source in ("a * b", "np.multiply(a, b)", "a.sum()"):
        assert not list(_matrix_products(ast.parse(source))), source


class TestPairCompression:
    def test_matches_bruteforce_oracle(self):
        A = small_labeled_matrix()
        P = fit_uncentered_pca(A, 2)
        pairs = collect(A, P)
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
        assert t == len(pairs.pre)

    def test_duplicate_columns_give_absent_ratio(self):
        X = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.5, 0.5, 3.0]])
        A = DataMatrix(X)
        P = fit_uncentered_pca(A, 2)
        pairs = collect(A, P)
        assert (pairs.i[0], pairs.j[0]) == (0, 1)
        assert pairs.pre[0] == 0.0
        assert pairs.post[0] == 0.0
        assert pairs.degenerate[0] and np.isnan(pairs.ratio[0])
        assert not pairs.degenerate[1] and np.isfinite(pairs.ratio[1])

    def test_full_rank_projection_is_isometry(self):
        rng = np.random.default_rng(3)
        A = DataMatrix(rng.standard_normal((5, 9)))
        P = fit_uncentered_pca(A, 5)
        pairs = collect(A, P)
        np.testing.assert_allclose(pairs.post, pairs.pre, rtol=1e-9)
        assert not np.any(pairs.degenerate)
        np.testing.assert_allclose(pairs.ratio, 1.0, rtol=1e-9)

    def test_projection_never_expands(self):
        A = small_labeled_matrix(seed=5, d=20, n=30)
        for k in (1, 3, 10):
            pairs = collect(A, fit_uncentered_pca(A, k))
            assert np.all(pairs.post <= pairs.pre)

    def test_sampled_policy_matches_exact(self):
        A = small_labeled_matrix(seed=7, d=12, n=20)
        P = fit_uncentered_pca(A, 3)
        exact = collect(A, P)
        table = {
            (a, b): (pre, post)
            for a, b, pre, post in zip(exact.i, exact.j, exact.pre, exact.post)
        }
        sampled = collect(A, P, ("sampled", 50, 11))
        assert len(sampled.pre) == 50
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
        one = collect(A, P, ("sampled", 30, 4))
        two = collect(A, P, ("sampled", 30, 4))
        np.testing.assert_array_equal(one.i, two.i)
        np.testing.assert_array_equal(one.pre, two.pre)

    def test_sparse_input_works(self):
        rng = np.random.default_rng(2)
        dense = rng.uniform(size=(15, 10)) * (rng.uniform(size=(15, 10)) < 0.3)
        A_sparse = DataMatrix(sp.csc_array(dense))
        A_dense = DataMatrix(dense)
        P = fit_uncentered_pca(A_dense, 3)
        got = collect(A_sparse, P)
        want = collect(A_dense, P)
        np.testing.assert_allclose(got.pre, want.pre, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.post, want.post, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("density", [0.03, 0.3])
    def test_sparse_exact_matches_dense_either_side_of_gram_crossover(self, density):
        # below DENSE_GRAM_DENSITY the sparse Gram product runs, above it the
        # densified, centered row blocks
        rng = np.random.default_rng(4)
        dense = rng.uniform(size=(200, 60)) * (rng.uniform(size=(200, 60)) < density)
        values = sp.csc_array(dense)
        assert (values.nnz < DENSE_GRAM_DENSITY * dense.size) == (density < DENSE_GRAM_DENSITY)
        P = fit_uncentered_pca(DataMatrix(dense), 3)
        got = collect(DataMatrix(values), P)
        want = collect(DataMatrix(dense), P)
        np.testing.assert_allclose(got.pre, want.pre, rtol=1e-10, atol=0)
        np.testing.assert_allclose(got.post, want.post, rtol=1e-10, atol=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    @pytest.mark.parametrize("density", [1.0, 0.3, 0.05], ids=["dense", "sparse-above", "sparse-below"])
    def test_averages_scale_at_range_ends(self, scale, density):
        # squared distances of such entries underflow or overflow float64
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 70)) * (rng.uniform(size=(60, 70)) < density)
        labels = np.arange(70) % 3
        store = (lambda M: M) if density == 1.0 else sp.csc_array
        unit, scaled = (DataMatrix(store(M), labels=labels) for M in (X, scale * X))
        P = fit_uncentered_pca(unit, 5)
        for policy in ("exact", ("sampled", 500, 1)):
            want, got = (summarize(A, P, policy).rows for A in (unit, scaled))
            for w, g in zip(want, got):
                for group in ("intra", "inter"):
                    w_cell, g_cell = getattr(w, group), getattr(g, group)
                    assert (g_cell.pair_count, g_cell.excluded) == (w_cell.pair_count, w_cell.excluded)
                    for key, factor in (("pre_avg", scale), ("post_avg", scale), ("ratio_avg", 1.0)):
                        np.testing.assert_allclose(
                            getattr(g_cell, key), factor * getattr(w_cell, key), rtol=1e-12
                        )

    def test_dimension_mismatch_rejected(self):
        A = small_labeled_matrix()
        P = fit_uncentered_pca(small_labeled_matrix(d=7), 2)
        with pytest.raises(InputError):
            pair_compression(A, P, ())

    def test_bad_policy_rejected(self):
        A = small_labeled_matrix()
        P = fit_uncentered_pca(A, 2)
        with pytest.raises(InputError):
            pair_compression(A, P, (), "approximate")
        with pytest.raises(InputError):
            pair_compression(A, P, (), ("sampled", 10**9, 0))

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
        exact = collect(A, P)
        sampled = collect(A, P, ("sampled", len(i), 0))
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
            from pcacompress.metrics import ClusterPairTable, pair_compression

            rng = np.random.default_rng(0)
            A = DataMatrix(rng.uniform(size=(2000, 1000)))
            Q, _ = np.linalg.qr(rng.standard_normal((2000, 5)))
            P = Projector(Q.T, [5.0, 4.0, 3.0, 2.0, 1.0])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            table = ClusterPairTable(np.zeros(A.n, dtype=np.int64))
            pairs = pair_compression(A, P, (table,), ("sampled", 20000, 0))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert len(pairs) == table.count.sum() == 20000
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
        table = summarize(A, P)
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
        row = summarize(A, fit_uncentered_pca(A, 1)).row(0)
        assert row.intra.ratio_avg != pytest.approx(row.intra.ratio_of_averages, rel=1e-6)

    def test_degenerate_pairs_counted_not_averaged(self):
        X = np.array(
            [[0.1, 0.1, 0.9, 0.8], [0.2, 0.2, 0.1, 0.15], [0.3, 0.3, 0.4, 0.5]]
        )
        A = DataMatrix(X, labels=np.array([0, 0, 1, 1]))
        row = summarize(A, fit_uncentered_pca(A, 2)).row(0)
        assert row.intra.pair_count == 1
        assert row.intra.excluded == 1
        assert row.intra.ratio_avg is None
        assert row.intra.pre_avg == 0.0

    def test_singleton_cluster_has_no_intra(self):
        X = np.random.default_rng(0).uniform(size=(4, 5))
        A = DataMatrix(X, labels=np.array([0, 0, 0, 0, 1]))
        table = summarize(A, fit_uncentered_pca(A, 2))
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
        pairs = collect(A, fit_uncentered_pca(A, 5))
        same = pairs.same
        first = pairs.labels[pairs.i] == 0
        r0 = pairs.ratio[same & first & ~pairs.degenerate]
        r1 = pairs.ratio[same & ~first & ~pairs.degenerate]
        stat = scipy.stats.ks_2samp(r0, r1)
        assert stat.pvalue > 0.05

    def test_labels_required(self):
        # a summary sink is built from labels; the sweep, which builds its
        # own tables from the matrix, rejects a matrix without them
        X = np.random.default_rng(1).uniform(size=(4, 6))
        A = DataMatrix(X)
        with pytest.raises(InputError, match="sweep requires labels"):
            pcs_sweep(A, fit_uncentered_pca(A, 2), [1, 2])


class TestPointwiseSummary:
    def test_matches_bruteforce(self):
        A = small_labeled_matrix(seed=6, d=9, n=10, k=2)
        P = fit_uncentered_pca(A, 2)
        sums = PointSums(A.labels)
        pair_compression(A, P, (sums,))
        points = pointwise_summary(sums)
        assert len(points) == A.n
        pairs = collect(A, P)
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
        sums = PointSums(A.labels)
        pair_compression(A, fit_uncentered_pca(A, 2), (sums,))
        points = pointwise_summary(sums)
        assert points[3].intra_avg is None
        assert points[3].inter_avg is not None


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
        curve = curve_of(OneChunk(pairs), labels, np.array([0.25, 0.5, 0.75, 1.0]))
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
        curve = curve_of(OneChunk(pairs), labels, np.array([0.5, 1.0]))
        assert curve[0].y == 0.0  # inter pair (0,1) comes first on the tie
        assert curve[1].y == 0.5

    def test_default_grid_shape(self):
        grid = default_curve_grid()
        assert len(grid) == 100
        assert grid[0] == 0.01
        assert grid[-1] == 1.0
        A = small_labeled_matrix()
        curve = curve_of(PairStream(A, fit_uncentered_pca(A, 2)), A.labels)
        assert len(curve) == 100
        assert all(isinstance(p, CurvePoint) for p in curve)
        assert all(0.0 <= p.y <= 1.0 for p in curve)

    def test_separated_clusters_rank_intra_first(self):
        model = sbm_rectangular(200, [50, 50], p=0.75, q=0.25)
        A = generate_dataset(model, seed=3)
        P = fit_uncentered_pca(A, 10)
        curve = curve_of(PairStream(A, P), A.labels)
        assert curve[9].x == pytest.approx(0.10)
        assert curve[9].y > 0.9
        # final point is the overall intra fraction
        total_intra = np.mean(collect(A, P).same)
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


def _trailing_oracle(A, P, k):
    """Each same-cluster pair's trailing^2, by direct differences of projected rows k:."""
    X = A.values.toarray() if sp.issparse(A.values) else A.values
    Y = (P.components @ X)[k:]
    i, j = np.triu_indices(A.n, k=1)
    same = A.labels[i] == A.labels[j]
    diff = Y[:, i[same]] - Y[:, j[same]]
    return np.einsum("ij,ij->j", diff, diff)


def _assert_split_matches_oracle(A, P, k, quantiles=(0.0, 0.5, 0.9, 0.999)):
    oracle = _trailing_oracle(A, P, k)
    counts = []
    for q in quantiles:
        shift = float(np.quantile(oracle, q))
        intra, exceed, worst = extra_pc_split(A, P, k, shift)
        assert intra == len(oracle)
        assert exceed == np.count_nonzero(oracle > shift * (1.0 + 1e-12))
        np.testing.assert_allclose(worst, oracle.max(), rtol=1e-9)
        counts.append(exceed)
    return counts


class TestExtraPcSplit:
    def test_parts_match_direct_computation(self):
        # acceptance 07's model and split: at shifts on the oracle's 0, 50,
        # 90 and 99.9 % quantiles the counts match pair for pair
        model = sbm_rectangular(d=500, sizes=[125] * 4, p=0.7, q=0.3)
        for seed in (0, 3):
            A = generate_dataset(model, seed)
            P = fit_uncentered_pca(A, model.k + 3)
            counts = _assert_split_matches_oracle(A, P, model.k)
            assert counts == [30999, 15500, 3100, 31]

    def test_pythagorean_identity(self):
        # the worst trailing^2 is the worst post^2 - leading^2, by direct differences
        A = small_labeled_matrix(seed=10, d=14, n=10)
        P = fit_uncentered_pca(A, 5)
        Y = P.components @ A.values
        i, j = np.triu_indices(A.n, k=1)
        same = A.labels[i] == A.labels[j]
        diff = Y[:, i[same]] - Y[:, j[same]]
        want = np.einsum("ij,ij->j", diff, diff) - np.einsum("ij,ij->j", diff[:3], diff[:3])
        np.testing.assert_allclose(extra_pc_split(A, P, 3, 0.0)[2], want.max(), rtol=1e-9)
        _assert_split_matches_oracle(A, P, 3)

    def test_post_agrees_with_pair_compression(self):
        A = small_labeled_matrix(seed=11, d=14, n=10)
        P = fit_uncentered_pca(A, 5)
        leading = Projector(P.components[:3], P.singular_values[:3])
        full, lead = collect(A, P), collect(A, leading)
        want = full.post[full.same] ** 2 - lead.post[lead.same] ** 2
        intra, _, worst = extra_pc_split(A, P, 3, 0.0)
        assert intra == np.count_nonzero(full.same)
        np.testing.assert_allclose(worst, want.max(), rtol=1e-9)

    def test_tiny_tiles_match_oracle(self, monkeypatch):
        monkeypatch.setattr(metrics, "_TILE_ROWS", 3)
        monkeypatch.setattr(metrics, "_CHUNK_PAIRS", 5)
        A = small_labeled_matrix(seed=2, d=10, n=20, k=3)
        P = fit_uncentered_pca(A, 4)
        for k in (1, 2, 3):
            _assert_split_matches_oracle(A, P, k)

    def test_split_at_full_width_has_zero_trailing(self):
        A = small_labeled_matrix(seed=14)
        P = fit_uncentered_pca(A, 3)
        assert extra_pc_split(A, P, 3, 0.0) == (2 * (4 * 3 // 2), 0, 0.0)

    def test_bad_split_point_rejected(self):
        A = small_labeled_matrix(seed=15)
        P = fit_uncentered_pca(A, 3)
        with pytest.raises(InputError):
            extra_pc_split(A, P, 0, 1.0)
        with pytest.raises(InputError):
            extra_pc_split(A, P, 4, 1.0)

    def test_same_cluster_mask_present_with_labels(self):
        A = small_labeled_matrix(seed=16)
        P = fit_uncentered_pca(A, 3)
        assert extra_pc_split(A, P, 1, 1.0)[0] == 2 * (4 * 3 // 2)
        with pytest.raises(InputError):
            extra_pc_split(DataMatrix(A.values), P, 1, 1.0)


def _oracle(A, P, widths, grid):
    """Table cells, point means, curve and sweep from per-pair direct differences."""
    X = A.values.toarray() if sp.issparse(A.values) else A.values
    Y = P.components @ X
    labels = np.zeros(A.n, dtype=int) if A.labels is None else A.labels
    i, j = np.triu_indices(A.n, k=1)
    pre = np.array([np.linalg.norm(X[:, a] - X[:, b]) for a, b in zip(i, j)])
    posts = {}
    for w in widths:
        post = np.array([np.linalg.norm(Y[:w, a] - Y[:w, b]) for a, b in zip(i, j)])
        posts[w] = np.minimum(post, pre)
    post = posts[widths[-1]]
    degenerate = post <= 1e-12 * pre
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(degenerate, np.nan, pre / post)
    same = labels[i] == labels[j]

    def group(mask):
        if not mask.any():
            return None
        fin = mask & ~degenerate
        ratio_avg = ratio[fin].mean() if fin.any() else None
        return (int(mask.sum()), int((mask & degenerate).sum()), pre[mask].mean(),
                post[mask].mean(), ratio_avg)

    clusters = {}
    for c in range(labels.max() + 1):
        touches = (labels[i] == c) | (labels[j] == c)
        clusters[c] = (group(touches & same), group(touches & ~same))
    points = []
    for u in range(A.n):
        mine = ((i == u) | (j == u)) & ~degenerate
        points.append(tuple(ratio[mine & s].mean() if (mine & s).any() else None
                            for s in (same, ~same)))
    key = np.where(degenerate, np.inf, ratio)
    order = sorted(range(len(key)), key=lambda t: (-key[t], t))
    ranked = same[order]
    curve = []
    for x in grid:
        top = min(len(key), max(1, int(np.ceil(x * len(key) - 1e-9))))
        curve.append(ranked[:top].sum() / top)
    sweep = []
    for w in widths:
        fin = posts[w] > 1e-12 * pre
        r = pre[fin] / posts[w][fin]
        sweep.append(tuple(r[s].mean() if s.any() else None for s in (same[fin], ~same[fin])))
    return {"clusters": clusters, "points": points, "curve": curve, "sweep": sweep,
            "overall": group(np.ones(len(pre), dtype=bool))}


def _groups(summary):
    def cells(g):
        return None if g is None else (
            g.pair_count, g.excluded, g.pre_avg, g.post_avg, g.ratio_avg
        )
    return {row.cluster: (cells(row.intra), cells(row.inter)) for row in summary.rows}


def _assert_same(got, want, rtol=1e-12):
    """Equal structure; integers and None equal, floats to rtol."""
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w, rtol)
    elif isinstance(want, dict):
        assert set(got) == set(want)
        for k in want:
            _assert_same(got[k], want[k], rtol)
    elif want is None or isinstance(want, (int, np.integer)):
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def _tile_case(name):
    """(A, P) for one tile-boundary case; n = 32 keeps every column mean dyadic."""
    rng = np.random.default_rng(17)
    n = 32
    labels = (np.arange(n) * 7) % 3
    if name in ("ties", "unlabeled"):
        # 0/1 entries under a coordinate projector: exact Gram arithmetic and
        # many pairs with bitwise equal ratios, degenerate ones included
        X = rng.integers(0, 2, size=(6, n)).astype(float)
        A = DataMatrix(X, labels=None if name == "unlabeled" else labels)
        return A, Projector(np.eye(6)[:2], [2.0, 1.0])
    if name == "duplicates":
        X = rng.uniform(size=(8, n))
        X[:, 9] = X[:, 8]  # a pair across the edge between 3-row tiles
        X[:, 20] = X[:, 2]
    elif name == "offset":
        # a tight cluster far from the mean: its pairs take the recompute path
        X = np.hstack([1000.0 + 1e-3 * rng.standard_normal((30, 16)), rng.uniform(size=(30, 16))])
    elif name == "sparse-above":
        X = rng.uniform(size=(20, n)) * (rng.uniform(size=(20, n)) < 0.4)
    else:  # sparse-below
        X = rng.uniform(size=(80, n)) * (rng.uniform(size=(80, n)) < 0.05)
    P = fit_uncentered_pca(DataMatrix(X), 3)
    values = sp.csc_array(X) if name.startswith("sparse") else X
    return DataMatrix(values, labels=labels), P


class TestStreamingTiles:
    """Tiles of a few rows, and chunks cut inside them, change no reduction."""

    @pytest.mark.parametrize(
        "case", ["ties", "duplicates", "offset", "sparse-above", "sparse-below"]
    )
    def test_streamed_reductions_match_oracle_and_pair_set(self, monkeypatch, case):
        A, P = _tile_case(case)
        density = A.values.nnz / (A.d * A.n) if sp.issparse(A.values) else 1.0
        assert (density < DENSE_GRAM_DENSITY) == (case == "sparse-below")
        widths = [1, P.k]
        grid = default_curve_grid()
        oracle = _oracle(A, P, widths, grid)
        def reductions():
            table, points, histogram = (
                sink(A.labels) for sink in (ClusterPairTable, PointSums, CurveHistogram)
            )
            stream = pair_compression(A, P, (table, points, histogram))
            assert len(stream) == table.count.sum() == A.n * (A.n - 1) // 2
            return table, {
                "clusters": _groups(cluster_summary(table)),
                "points": [(p.intra_avg, p.inter_avg) for p in pointwise_summary(points)],
                "curve": [p.y for p in intra_fraction_curve(stream, histogram, grid)],
                "sweep": [(r["intra_ratio_avg"], r["inter_ratio_avg"])
                          for r in pcs_sweep(A, P, widths).rows],
            }

        # the whole pair set in one tile and one chunk; the sweep's
        # full-width row is that chunk's table
        whole, want = reductions()
        diagonal = np.eye(A.labels.max() + 1, dtype=bool)
        _assert_same(want["sweep"][-1], (whole.group(diagonal).ratio_avg,
                                         whole.group(~diagonal).ratio_avg))

        monkeypatch.setattr(metrics, "_TILE_ROWS", 3)
        monkeypatch.setattr(metrics, "_CHUNK_PAIRS", 5)
        # each tile sums centered row blocks of 3 rows
        table, got = reductions()
        assert table.recomputed == whole.recomputed
        if case == "offset":
            assert table.recomputed > 0
        _assert_same(got, want)
        assert got["curve"] == want["curve"]
        _assert_same(got["clusters"], oracle["clusters"], rtol=1e-9)
        _assert_same(got["points"], oracle["points"], rtol=1e-9)
        _assert_same(got["sweep"], oracle["sweep"], rtol=1e-9)
        assert got["curve"] == oracle["curve"]

    def test_ties_straddle_tile_edges(self):
        A, P = _tile_case("ties")
        pairs = collect(A, P)
        key = np.where(pairs.degenerate, np.inf, pairs.ratio)
        tile = pairs.i // 3
        tied = [(key == v) for v in np.unique(key)]
        assert any(len(np.unique(tile[t])) > 1 and len(np.unique(pairs.same[t])) > 1 for t in tied)
        assert pairs.degenerate.any() and (pairs.pre[pairs.degenerate] > 0).any()

    def test_unlabeled_overall(self, monkeypatch):
        A, P = _tile_case("unlabeled")
        oracle = _oracle(A, P, [P.k], default_curve_grid())["overall"]
        monkeypatch.setattr(metrics, "_TILE_ROWS", 3)
        monkeypatch.setattr(metrics, "_CHUNK_PAIRS", 5)
        table = ClusterPairTable(np.zeros(A.n, dtype=int))
        pair_compression(A, P, (table,))
        g = table.group(0)
        _assert_same((g.pair_count, g.excluded, g.pre_avg, g.post_avg, g.ratio_avg), oracle)

    def test_exact_pass_memory_stays_bounded(self):
        # every exact reduction over the 4.5 M pairs of a dense 1000 x 3000
        # matrix, the extra-component split's among them; a materialized
        # PairSet alone would take over 300 MB
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from pcacompress.linalg import DataMatrix, Projector
            from pcacompress.metrics import (
                ClusterPairTable, CurveHistogram, PointSums, extra_pc_split,
                intra_fraction_curve, pair_compression,
            )

            rng = np.random.default_rng(0)
            labels = np.arange(3000) % 3
            A = DataMatrix(rng.uniform(size=(1000, 3000)), labels=labels)
            Q, _ = np.linalg.qr(rng.standard_normal((1000, 5)))
            P = Projector(Q.T, [5.0, 4.0, 3.0, 2.0, 1.0])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            sinks = [sink(labels) for sink in (ClusterPairTable, PointSums, CurveHistogram)]
            pairs = pair_compression(A, P, sinks)
            curve = intra_fraction_curve(pairs, sinks[2])
            intra, _, _ = extra_pc_split(A, P, 3, 1.0)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert sinks[0].count.sum() == 3000 * 2999 // 2
            assert intra == 3 * (1000 * 999 // 2)
            assert len(curve) == 100
            print((after - before) / 1024.0)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {"PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600
        )
        assert done.returncode == 0, done.stderr
        growth_mb = float(done.stdout)
        assert growth_mb < 40.0
