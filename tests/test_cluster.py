import dataclasses
import itertools
import json

import numpy as np
import pytest
import scipy.sparse as sp

from pcacompress import cluster
from pcacompress.cluster import (
    ArmResult,
    Labeling,
    NeighborGraph,
    ari,
    best_match_accuracy,
    community_detect,
    KMeansPoints,
    kmeans,
    knn_graph,
    nmi,
    pipeline_compare,
)
from pcacompress.errors import InputError
from pcacompress.linalg import DataMatrix
from pcacompress.models import generate_dataset, sbm_rectangular


class TestLabeling:
    def test_valid(self):
        lab = Labeling(np.array([0, 1, 2, 1]), k=3)
        assert lab.n == 4

    def test_out_of_range_ids(self):
        with pytest.raises(InputError):
            Labeling(np.array([0, 3]), k=3)
        with pytest.raises(InputError):
            Labeling(np.array([-1, 0]), k=2)

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            Labeling(np.array([0.0, 1.0]), k=2)


def blob_points(rng, centers, per, spread):
    chunks = [c + spread * rng.standard_normal((per, len(c))) for c in centers]
    points = np.vstack(chunks)
    truth = np.repeat(np.arange(len(centers)), per)
    return points, truth


class TestKmeans:
    def test_separated_masses_recovered_exactly(self):
        rng = np.random.default_rng(0)
        points, truth = blob_points(rng, [(0, 0), (50, 0), (0, 50)], 10, 0.0)
        result = kmeans(KMeansPoints(points), 3, seed=1)
        assert ari(result, truth) == 1.0
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_single_cluster_inertia_is_total_scatter(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(size=(40, 3))
        result = kmeans(KMeansPoints(points), 1, seed=0)
        assert np.all(result.labels == 0)
        scatter = np.sum((points - points.mean(axis=0)) ** 2)
        np.testing.assert_allclose(result.inertia, scatter, rtol=1e-12)

    def test_reaches_bruteforce_optimum_on_12_points(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(size=(12, 2))
        result = kmeans(KMeansPoints(points), 3, seed=0)

        total = np.sum(points**2)
        best = np.inf
        assignments = np.arange(3**12)
        digits = np.stack(
            [(assignments // 3**i) % 3 for i in range(12)], axis=1
        )
        for start in range(0, len(digits), 50000):
            chunk = digits[start : start + 50000]
            onehot = np.eye(3)[chunk]  # (B, 12, 3)
            sums = np.einsum("bic,id->bcd", onehot, points)
            counts = onehot.sum(axis=1)  # (B, 3)
            safe = np.maximum(counts, 1.0)
            reduction = np.sum(
                np.einsum("bcd,bcd->bc", sums, sums) / safe, axis=1
            )
            best = min(best, float((total - reduction).min()))
        assert result.inertia <= best * (1.0 + 1e-9)

    def test_inertia_consistent_with_labels(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(size=(60, 4))
        result = kmeans(KMeansPoints(points), 5, seed=3)
        centers = np.stack(
            [points[result.labels == c].mean(axis=0) for c in range(5)]
        )
        direct = np.sum((points - centers[result.labels]) ** 2)
        np.testing.assert_allclose(result.inertia, direct, rtol=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(size=(50, 3))
        a = kmeans(KMeansPoints(points), 4, seed=11)
        b = kmeans(KMeansPoints(points), 4, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_fewer_distinct_points_than_clusters(self):
        # duplicates force empty clusters during iteration; the reseeding
        # policy must still terminate with zero inertia
        points = np.array([[0.0, 0.0]] * 6 + [[9.0, 9.0]] * 6)
        result = kmeans(KMeansPoints(points), 3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_fewer_distinct_points_than_clusters_gram_form(self, monkeypatch):
        # the case above with more coordinates than points: the Gram form
        # runs, and the spy checks that a cluster empties, so it reseeds
        emptied = []
        means = cluster._GramForm.means

        def spy(self, labels, k):
            centers, counts = means(self, labels, k)
            emptied.append((counts == 0).any())
            return centers, counts

        monkeypatch.setattr(cluster._GramForm, "means", spy)
        points = np.array([[0.0] * 16] * 6 + [[9.0] * 16] * 6)
        result = kmeans(KMeansPoints(points), 3, seed=0)
        assert any(emptied)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    @staticmethod
    def best_of_restarts(form, k, seed, restarts=10):
        best = (None, np.inf)
        for restart in range(restarts):
            rng = np.random.Generator(np.random.Philox(key=[seed, restart]))
            labels, inertia = cluster._lloyd(form, k, rng)
            if inertia < best[1]:
                best = (labels, inertia)
        return best

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("seed", range(3))
    def test_gram_form_matches_point_form(self, sparse, seed):
        # continuous blobs with d > n: no distance ties, so the two forms
        # must agree on every label; the point form is the reference
        rng = np.random.default_rng(seed)
        n, d = 300, 2000
        centers = rng.standard_normal((5, d))
        points = centers[rng.integers(0, 5, n)] + 1.5 * rng.standard_normal((n, d))
        if sparse:
            points = sp.csr_array(points * (rng.uniform(size=(n, d)) < 0.1))
        ref_labels, ref_inertia = self.best_of_restarts(cluster._PointForm(points), 5, seed)
        labels, inertia = self.best_of_restarts(cluster._GramForm(points), 5, seed)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_allclose(inertia, ref_inertia, rtol=1e-12)
        result = kmeans(KMeansPoints(points), 5, seed=seed)
        np.testing.assert_array_equal(result.labels, labels)
        assert result.inertia == inertia

    def test_sparse_points_match_dense(self):
        rng = np.random.default_rng(13)
        dense = rng.uniform(size=(30, 8)) * (rng.uniform(size=(30, 8)) < 0.4)
        a = kmeans(KMeansPoints(dense), 3, seed=2)
        b = kmeans(KMeansPoints(sp.csr_array(dense)), 3, seed=2)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.inertia, b.inertia, rtol=1e-9)

    def test_validation(self):
        points = np.zeros((4, 2))
        with pytest.raises(InputError):
            kmeans(KMeansPoints(points), 5)
        with pytest.raises(InputError):
            kmeans(KMeansPoints(points), 0)
        with pytest.raises(InputError):
            KMeansPoints(np.array([[np.nan, 0.0]]))


def graph_of(n, edges):
    """The graph on nodes 0 .. n-1 joined by each listed pair (u, v), built by the constructor."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    W = sp.csr_array((np.ones(len(u)), (u, v)), shape=(n, n))
    return NeighborGraph(W.maximum(W.T))


def edges_of(graph):
    """The graph's edges as pairs (u, v), u < v."""
    return {(u, int(v)) for u in range(graph.n) for v in graph.neighbors(u) if u < v}


class TestKnnGraph:
    def test_three_collinear_points(self):
        points = np.array([[0.0], [1.0], [3.0]])
        graph = knn_graph(points, m=1)
        # (1, 2) is forced by 2 choosing its nearest
        assert edges_of(graph) == {(0, 1), (1, 2)}

    def test_matches_quadratic_oracle(self, monkeypatch):
        # blocks of 17 points, so the last block is a partial one
        monkeypatch.setattr(cluster, "_KNN_BLOCK", 17)
        rng = np.random.default_rng(3)
        points = rng.uniform(size=(100, 5))
        m = 7
        adj = [set() for _ in range(100)]
        for u in range(100):
            dists = [
                (np.linalg.norm(points[u] - points[v]), v)
                for v in range(100)
                if v != u
            ]
            dists.sort()
            for _, v in dists[:m]:
                adj[u].add(v)
                adj[v].add(u)
        for storage in (np.asarray, sp.csr_array):
            graph = knn_graph(storage(points), m=m)
            for u in range(100):
                assert set(graph.neighbors(u).tolist()) == adj[u]

    def test_full_m_gives_complete_graph(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(size=(12, 3))
        graph = knn_graph(points, m=11)
        assert len(edges_of(graph)) == 12 * 11 // 2

    def test_duplicate_points_tie_to_lower_index(self):
        points = np.array([[0.0], [0.0], [5.0]])
        graph = knn_graph(points, m=1)
        # node 2 ties between 0 and 1, picks 0
        assert edges_of(graph) == {(0, 1), (0, 2)}

    def test_validation(self):
        points = np.zeros((5, 2))
        with pytest.raises(InputError):
            knn_graph(points, m=5)
        with pytest.raises(InputError):
            knn_graph(points, m=0)


def adjacency(rows):
    """The n x n CSR matrix storing row u's listed neighbors as given, unchecked."""
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return sp.csr_array((np.ones(len(indices)), indices, indptr), shape=(len(rows), len(rows)))


class TestNeighborGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            NeighborGraph(adjacency([[0, 1], [0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            NeighborGraph(adjacency([[1], []]))

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(InputError, match="twice"):
            NeighborGraph(adjacency([[1, 1], [0]]))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(InputError, match="out-of-range"):
            NeighborGraph(adjacency([[1, 2], [0]]))


def planted_graph(sizes, p, q, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    truth = np.repeat(np.arange(len(sizes)), sizes)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            prob = p if truth[u] == truth[v] else q
            if rng.random() < prob:
                edges.append((u, v))
    return graph_of(n, edges), truth


class TestCommunityDetect:
    def test_two_cliques_with_bridge(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
        edges.append((0, 5))
        graph = graph_of(10, edges)
        result = community_detect(graph)
        assert result.k == 2
        assert ari(result, np.repeat([0, 1], 5)) == 1.0

    def test_complete_graph_single_community(self):
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        result = community_detect(graph_of(8, edges))
        assert result.k == 1

    def test_edgeless_graph_all_singletons(self):
        result = community_detect(graph_of(4, []))
        assert result.k == 4
        np.testing.assert_array_equal(result.labels, np.arange(4))

    def test_equal_gain_goes_to_lower_community(self):
        # node 0 bridges two mirror-image triangles, so joining the
        # community of node 1 or of node 4 gains exactly the same
        edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (0, 1), (0, 4)]
        result = community_detect(graph_of(7, edges))
        np.testing.assert_array_equal(result.labels, [0, 0, 0, 0, 1, 1, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_three_blocks_recovered(self, seed):
        graph, truth = planted_graph([10, 10, 10], p=0.9, q=0.05, seed=seed)
        result = community_detect(graph)
        assert ari(result, truth) == 1.0

    def test_deterministic(self):
        graph, _ = planted_graph([8, 8], p=0.8, q=0.1, seed=1)
        a = community_detect(graph)
        b = community_detect(graph)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestAgreementMetrics:
    def test_identical_labelings_score_one(self):
        labels = np.array([0, 1, 1, 2, 0])
        assert ari(labels, labels) == 1.0
        assert nmi(labels, labels) == pytest.approx(1.0)
        assert best_match_accuracy(labels, labels) == 1.0

    def test_ari_hand_oracle(self):
        # contingency table [[2,0,0],[0,1,1]]: index 1, expected 3/7 of
        # max 2 -> (1 - 3/7) / (2 - 3/7)... worked out by hand: 4/7
        value = ari(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 2]))
        np.testing.assert_allclose(value, 4.0 / 7.0, rtol=1e-12)

    def test_ari_constant_vs_balanced_is_zero(self):
        value = ari(np.array([0, 0, 0, 0]), np.array([0, 0, 1, 1]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_nmi_trivial_conventions(self):
        constant = np.zeros(6, dtype=np.int64)
        split = np.array([0, 0, 0, 1, 1, 1])
        assert nmi(constant, constant) == 1.0
        assert nmi(constant, split) == 0.0
        assert nmi(split, constant) == 0.0

    def test_nmi_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 3, size=200)
        b = rng.integers(0, 4, size=200)
        table = np.zeros((3, 4))
        for x, y in zip(a, b):
            table[x, y] += 1
        joint = table / 200
        pa, pb = joint.sum(axis=1), joint.sum(axis=0)
        mi = sum(
            joint[i, j] * np.log(joint[i, j] / (pa[i] * pb[j]))
            for i in range(3)
            for j in range(4)
            if joint[i, j] > 0
        )
        ha = -sum(p * np.log(p) for p in pa if p > 0)
        hb = -sum(p * np.log(p) for p in pb if p > 0)
        np.testing.assert_allclose(nmi(a, b), mi / ((ha + hb) / 2), rtol=1e-12)

    def test_accuracy_under_label_swap(self):
        assert best_match_accuracy(
            np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])
        ) == 1.0
        value = best_match_accuracy(np.array([0, 1, 2, 2]), np.array([0, 0, 2, 2]))
        assert value == pytest.approx(0.75)

    @pytest.mark.parametrize("seed", range(6))
    def test_accuracy_matches_bruteforce_matching(self, seed):
        # every one-to-one matching of the smaller side into the larger,
        # on tables with empty rows or columns and of either orientation
        rng = np.random.default_rng(seed)
        ka, kb = rng.integers(1, 6, size=2)
        a = rng.integers(0, ka, size=40)
        b = rng.integers(0, kb, size=40)
        a[a == 0] = ka  # label 0 is empty: a zero row
        b[:3] = kb + 1  # label kb is empty: a zero column
        table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
        np.add.at(table, (a, b), 1)
        small = table if table.shape[0] <= table.shape[1] else table.T
        best = max(
            sum(small[r, c] for r, c in enumerate(cols))
            for cols in itertools.permutations(range(small.shape[1]), small.shape[0])
        )
        assert best_match_accuracy(a, b) == best / 40
        assert best_match_accuracy(b, a) == best / 40

    def test_matching_matches_csgraph_oracle(self):
        # random rectangular tables with ties (few distinct counts) and empty rows
        from scipy.sparse.csgraph import min_weight_full_bipartite_matching

        rng = np.random.default_rng(8)
        for _ in range(300):
            rows, cols = rng.integers(1, 9, size=2)
            table = rng.integers(0, rng.integers(1, 5), size=(rows, cols))
            table[rng.random(rows) < 0.3] = 0
            r, c = cluster._max_matching(table)
            assert len(r) == len(set(r.tolist())) == min(rows, cols) == len(set(c.tolist()))
            # adding 1 stores every cell, so csgraph finds a full matching
            want_r, want_c = min_weight_full_bipartite_matching(sp.csr_array(table + 1), maximize=True)
            assert table[r, c].sum() == table[want_r, want_c].sum()

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=80)
        b = rng.integers(0, 3, size=80)
        for metric in (ari, nmi, best_match_accuracy):
            np.testing.assert_allclose(metric(a, b), metric(b, a), rtol=1e-12)
        perm = rng.permutation(4)
        np.testing.assert_allclose(ari(perm[a], b), ari(a, b), rtol=1e-12)
        np.testing.assert_allclose(nmi(perm[a], b), nmi(a, b), rtol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            ari(np.array([0, 1]), np.array([0, 1, 1]))


class TestPipelineCompare:
    def test_noiseless_model_all_arms_perfect(self):
        model = sbm_rectangular(60, [15, 15, 15], p=1.0, q=0.0)
        A = generate_dataset(model, seed=0)
        report = pipeline_compare(A, k=3, kprime=3, seeds=2, neighbors=5)
        for arm, results in report.arms.items():
            for r in results:
                assert r.ari == 1.0, arm
                assert r.accuracy == 1.0, arm

    def test_raw_gram_matrix_formed_once_per_call(self, monkeypatch):
        model = sbm_rectangular(80, [20, 20], p=0.9, q=0.1)
        A = generate_dataset(model, seed=1)
        formed, real = [], cluster._GramForm.__init__

        def spy(self, X):
            formed.append(X.shape)
            real(self, X)

        monkeypatch.setattr(cluster._GramForm, "__init__", spy)
        pipeline_compare(A, k=2, kprime=2, seeds=3, neighbors=6)
        assert formed == [(40, 80)]  # the raw arm's 40 points, for all three seeds

    def test_labels_required(self):
        X = np.random.default_rng(0).uniform(size=(10, 12))
        with pytest.raises(InputError):
            pipeline_compare(DataMatrix(X), k=2, kprime=2, seeds=1)

    def test_report_shape_and_serialization(self):
        model = sbm_rectangular(80, [20, 20], p=0.9, q=0.1)
        A = generate_dataset(model, seed=1)
        report = pipeline_compare(A, k=2, kprime=2, seeds=[4, 9], neighbors=6)
        assert set(report.arms) == {"kmeans-raw", "kmeans-pca", "graph-pca"}
        for results in report.arms.values():
            assert [r.seed for r in results] == [4, 9]
            assert all(isinstance(r, ArmResult) for r in results)
        payload = json.loads(json.dumps({**dataclasses.asdict(report), "medians": report.medians()}))
        assert payload["medians"]["kmeans-pca"]["ari"] >= 0.0
        assert payload["kprime"] == 2

    def test_extra_components_change_little_when_separated(self):
        model = sbm_rectangular(300, [80, 80, 80], p=0.75, q=0.25)
        A = generate_dataset(model, seed=2)
        tight = pipeline_compare(A, k=3, kprime=3, seeds=3, neighbors=10)
        loose = pipeline_compare(A, k=3, kprime=8, seeds=3, neighbors=10)
        diff = abs(tight.median("kmeans-pca") - loose.median("kmeans-pca"))
        assert diff <= 0.05

    def test_sparse_matrix_supported(self):
        model = sbm_rectangular(40, [10, 10], p=1.0, q=0.0)
        A = generate_dataset(model, seed=0)
        sparse = DataMatrix(sp.csc_array(A.values), labels=A.labels)
        report = pipeline_compare(sparse, k=2, kprime=2, seeds=1, neighbors=4)
        assert report.median("kmeans-raw") == 1.0
