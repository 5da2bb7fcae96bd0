"""Acceptance gate: thirteen numbered criteria, one printed line each.

Each test prints ``acceptance NN name: PASS|FAIL | measured values`` and
then asserts, so the measured numbers survive into the report either
way. Criterion 13 needs reference data files and skips when the
``PCACOMPRESS_DATASET2`` environment variable does not point at them.

These are end-to-end checks at stated tolerances, deliberately heavier
than the unit suites; the whole file runs in minutes, not seconds.
"""

import os
import resource
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import pdist

from pcacompress.bounds import (
    BoundParams,
    calibrate_c0,
    extra_pc_check,
    pre_pca_inter_upper,
    pre_pca_intra_lower,
    random_projection_check,
    verify_bounds,
)
from pcacompress.cluster import pipeline_compare
from pcacompress.linalg import (
    DataMatrix,
    Projector,
    as_dense,
    build_symmetric_embedding,
    fit_uncentered_pca,
    principal_angle,
    project_columns,
)
from pcacompress.metrics import (
    ClusterPairTable,
    CurveHistogram,
    centering_comparison,
    cluster_summary,
    intra_fraction_curve,
    pair_compression,
)
from pcacompress.models import generate_dataset, sbm_rectangular

# Two well-separated blocks, large d so the closed-form slack terms are
# small relative to the signal; also the substrate for criteria 4 and 5.
RATIO_BOUND_MODEL = dict(d=40000, sizes=[750, 750], p=0.65, q=0.35)
# Moderate contrast, the regime where compression is visible but not
# trivial; substrate for criteria 3, 8, and 11.
GAP_MODEL = dict(d=800, sizes=[200] * 4, p=0.7, q=0.3)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    assert ok, line


def finite_ratios(A, P):
    """Finite intra and inter compression ratios of every pair, in pair order."""
    intra, inter = [], []

    def update(chunk):
        finite = ~chunk.degenerate
        intra.append(chunk.ratio[finite & chunk.same])
        inter.append(chunk.ratio[finite & ~chunk.same])

    pair_compression(A, P, [SimpleNamespace(update=update)])
    return np.concatenate(intra), np.concatenate(inter)


def ratio_split(A, kprime: int, seed: int):
    """Finite intra and inter compression ratios of one dataset."""
    return finite_ratios(A, fit_uncentered_pca(A, kprime, seed=seed))


def summarize(A, P):
    table = ClusterPairTable(A.labels)
    pair_compression(A, P, (table,))
    return cluster_summary(table)


def exact_gap(A, kprime: int) -> float:
    """Mean intra over mean inter ratio under an exact dense PCA fit.

    Independent of the library's SVD drivers and pair engine: a full
    LAPACK SVD and direct pair differences. ``pdist`` returns condensed
    distances in ``np.triu_indices`` order, one double per pair, so no
    all-pairs difference array is ever built.
    """
    X = as_dense(A.values)  # float64: scipy's SVD would take bits as float32
    U = scipy.linalg.svd(X, full_matrices=False)[0][:, :kprime]
    ratio = pdist(X.T) / pdist((U.T @ X).T)
    i, j = np.triu_indices(A.n, k=1)
    same = A.labels[i] == A.labels[j]
    return float(ratio[same].mean() / ratio[~same].mean())


def test_01_truncated_svd_matches_dense_oracle():
    # process CPU time, which load from other processes does not inflate
    # as it does wall time; with two BLAS threads an unloaded run's CPU
    # time is about its wall time or more
    started = time.process_time()
    rng = np.random.default_rng(0)
    worst_sv = 0.0
    worst_angle = 0.0
    for _ in range(50):
        d = int(rng.integers(12, 201))
        n = int(rng.integers(12, 301))
        A = DataMatrix(rng.normal(size=(d, n)))
        P = fit_uncentered_pca(A, 10)
        U, s, _ = np.linalg.svd(A.values, full_matrices=False)
        oracle = Projector(U[:, :10].T, s[:10])
        rel = np.abs(P.singular_values - s[:10]) / s[:10]
        worst_sv = max(worst_sv, float(rel.max()))
        worst_angle = max(worst_angle, principal_angle(P, oracle))
    cpu = time.process_time() - started
    ok = worst_sv <= 1e-8 and worst_angle <= 1e-6 and cpu < 30.0
    report(
        1,
        "svd-oracle",
        ok,
        f"50 matrices, sv rel err {worst_sv:.2e} (<=1e-8), "
        f"angle {worst_angle:.2e} (<=1e-6), {cpu:.1f}s CPU (<30s)",
    )


def test_02_symmetric_embedding_eigenstructure():
    rng = np.random.default_rng(1)
    worst_eig = 0.0
    worst_cos = 1.0
    for _ in range(20):
        d = int(rng.integers(5, 17))
        n = int(rng.integers(5, 17))
        M = rng.normal(size=(d, n))
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        w, V = np.linalg.eigh(build_symmetric_embedding(M).to_dense())
        for t in range(min(d, n)):
            plus = np.concatenate([U[:, t], Vt[t]]) / np.sqrt(2.0)
            minus = np.concatenate([U[:, t], -Vt[t]]) / np.sqrt(2.0)
            worst_eig = max(
                worst_eig,
                abs(w[-(t + 1)] - s[t]),
                abs(w[t] + s[t]),
            )
            worst_cos = min(
                worst_cos,
                abs(float(V[:, -(t + 1)] @ plus)),
                abs(float(V[:, t] @ minus)),
            )
    ok = worst_eig <= 1e-9 and worst_cos >= 1.0 - 1e-9
    report(
        2,
        "symmetric-embedding",
        ok,
        f"20 matrices, eigenvalue abs err {worst_eig:.2e} (<=1e-9), "
        f"eigenvector cosine {worst_cos:.12f} (>=1-1e-9)",
    )


def test_03_compression_gap_regime():
    # Exact PCA reaches a gap of only about 1.6 on this model at k'=25: the
    # cut lies inside the noise bulk, whose kept directions floor the
    # same-cluster projected distances. So the library's gap is held to
    # an exact oracle, and the oracle to criterion 11's floor of 1.5.
    started = time.monotonic()
    model = sbm_rectangular(**GAP_MODEL)
    gaps = []
    oracle_gaps = []
    separated = 0
    for seed in range(10):
        A = generate_dataset(model, seed=seed)
        intra, inter = ratio_split(A, kprime=25, seed=seed)
        gaps.append(intra.mean() / inter.mean())
        oracle_gaps.append(exact_gap(A, kprime=25))
        if np.percentile(inter, 99) < np.percentile(intra, 1):
            separated += 1
    elapsed = time.monotonic() - started
    deviation = max(abs(g - o) / o for g, o in zip(gaps, oracle_gaps))
    oracle_ok = deviation <= 0.01
    floor_ok = min(oracle_gaps) >= 1.5
    percentile_ok = separated >= 8
    ok = oracle_ok and floor_ok and percentile_ok and elapsed < 300.0
    report(
        3,
        "compression-gap",
        ok,
        f"mean-ratio gap per seed min {min(gaps):.3f} max {max(gaps):.3f}, exact "
        f"oracle min {min(oracle_gaps):.3f} max {max(oracle_gaps):.3f}; max rel "
        f"deviation {deviation:.1e} (<=0.01: {'yes' if oracle_ok else 'NO'}), oracle "
        f"gap >=1.5: {'yes' if floor_ok else 'NO'}, percentile separation "
        f"{separated}/10 (>=8: {'yes' if percentile_ok else 'NO'}), {elapsed:.0f}s (<300s)",
    )


def test_04_ratio_bounds_with_calibrated_constant():
    model = sbm_rectangular(**RATIO_BOUND_MODEL)
    calibration = calibrate_c0(model, seeds=10)
    reportable = verify_bounds(model, seeds=20, C0=calibration.value)
    counted = [
        r
        for r in reportable.records
        if r.bound in ("intra-ratio-lower", "inter-ratio-upper")
    ]
    violations = sum(r.violations for r in counted)
    trials = sum(r.trials for r in counted)
    vacuous = sum(1 for r in counted if r.vacuous)
    expected = model.k + model.k * (model.k - 1) // 2  # per cluster + per pair
    ok = violations == 0 and vacuous == 0 and len(counted) == expected
    report(
        4,
        "ratio-bounds",
        ok,
        f"C0={calibration.value:.4f}, ratio-bound violations {violations}/{trials} "
        f"over 20 seeds (=0), vacuous records {vacuous}/{len(counted)} (=0)",
    )


def test_05_pre_pca_concentration():
    model = sbm_rectangular(**RATIO_BOUND_MODEL)
    params = BoundParams.from_model(model)
    labels = model.labels()
    lower = [pre_pca_intra_lower(params, j) for j in range(model.k)]
    upper = {
        (j, jp): pre_pca_inter_upper(params, j, jp)
        for j in range(model.k)
        for jp in range(model.k)
        if j != jp
    }
    intra_bad = 0
    inter_bad = 0
    per_kind = 1000
    for seed in range(10):
        A = generate_dataset(model, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        u = rng.integers(0, model.n, 8000)
        v = rng.integers(0, model.n, 8000)
        keep = u < v
        u, v = u[keep], v[keep]
        same = labels[u] == labels[v]
        iu, iv = u[same][:per_kind], v[same][:per_kind]
        xu, xv = u[~same][:per_kind], v[~same][:per_kind]
        assert len(iu) == per_kind and len(xu) == per_kind
        for (a, b), kind in (((iu, iv), "intra"), ((xu, xv), "inter")):
            for start in range(0, per_kind, 250):
                sl = slice(start, start + 250)
                dist = np.linalg.norm(
                    as_dense(A.values[:, a[sl]]) - as_dense(A.values[:, b[sl]]), axis=0
                )
                if kind == "intra":
                    bounds = np.array([lower[labels[c]] for c in a[sl]])
                    intra_bad += int((dist < bounds).sum())
                else:
                    bounds = np.array(
                        [upper[(labels[c], labels[e])] for c, e in zip(a[sl], b[sl])]
                    )
                    inter_bad += int((dist > bounds).sum())
    total = 10 * per_kind
    ok = intra_bad / total <= 0.01 and inter_bad / total <= 0.01
    report(
        5,
        "pre-pca-concentration",
        ok,
        f"lower-bound violations {intra_bad}/{total}, upper-bound violations "
        f"{inter_bad}/{total} (each fraction <=0.01)",
    )


def test_06_random_projection_tail():
    check = random_projection_check(
        d=200, kprime=5, n=2, sigma=0.5, c0=4.0, trials=10_000, seed=0
    )
    # n * k' = 10 makes the predicted tail exactly 10^-3 = 10 trials,
    # the smallest scale where the comparison is informative.
    predicted = check.predicted_rate
    ok = predicted >= 10 / 10_000 and check.rate <= predicted
    report(
        6,
        "random-projection",
        ok,
        f"violations {check.violations}/10000 (rate {check.rate:.1e}), "
        f"predicted {predicted:.1e}",
    )


def test_07_extra_pc_budget():
    model = sbm_rectangular(d=500, sizes=[125] * 4, p=0.7, q=0.3)
    checks = [extra_pc_check(model, c=3, f=0.2, seed=seed) for seed in range(10)]
    worst = max(check.exceedances for check in checks)
    budget = checks[0].budget
    # seed 0's worst trailing^2 against direct differences of projected rows k:
    A = generate_dataset(model, seed=0)
    P = fit_uncentered_pca(A, model.k + 3, seed=0)
    Y = project_columns(P, A)[model.k :]
    i, j = np.triu_indices(A.n, k=1)
    same = A.labels[i] == A.labels[j]
    diff = Y[:, i[same]] - Y[:, j[same]]
    direct = float(np.einsum("ij,ij->j", diff, diff).max())
    streamed = checks[0].worst_trailing_sq
    rel_err = abs(streamed - direct) / direct
    ok = worst <= budget and rel_err <= 1e-9
    report(
        7,
        "extra-pc-budget",
        ok,
        f"max exceedances over 10 seeds {worst} (<= budget {budget:.0f}), "
        f"seed 0 worst trailing^2 {streamed:.2f} rel err {rel_err:.1e} (<=1e-9), "
        f"slack shift/worst {checks[0].threshold_shift / streamed:.2f}",
    )


def test_08_top_decile_curve():
    model = sbm_rectangular(**GAP_MODEL)
    hits = 0
    values = []
    for seed in range(10):
        A = generate_dataset(model, seed=seed)
        P = fit_uncentered_pca(A, model.k, seed=seed)
        histogram = CurveHistogram(A.labels)
        stream = pair_compression(A, P, (histogram,))
        y = intra_fraction_curve(stream, histogram, np.array([0.10]))[0].y
        values.append(y)
        if y >= 0.95:
            hits += 1
    ok = hits >= 9
    report(
        8,
        "top-decile-curve",
        ok,
        f"y(0.10) min {min(values):.4f} max {max(values):.4f}, "
        f">=0.95 in {hits}/10 seeds (>=9 required)",
    )


def test_09_centering_agreement():
    # 25 components, well above k: at k' = k the centered fit swaps the
    # mean direction for one extra noise direction and the tables drift
    # by ~20%; the documented comparison regime uses a deep cut where
    # that one-direction difference is diluted.
    model = sbm_rectangular(d=800, sizes=[200] * 4, p=0.8, q=0.5)
    A = generate_dataset(model, seed=0)
    comparison = centering_comparison(A, 25)
    worst_delta = max(
        abs(cells[key])
        for cells in comparison.ratio_deltas.values()
        for key in ("intra.ratio_avg", "inter.ratio_avg")
    )
    ok = comparison.cosine >= 0.99 and worst_delta <= 0.10
    report(
        9,
        "centering",
        ok,
        f"cosine(top PC, mean) {comparison.cosine:.4f} (>=0.99), max ratio "
        f"delta {worst_delta:.3f} (<=0.10)",
    )


def test_10_clustering_pipeline_gain():
    model = sbm_rectangular(d=1250, sizes=[200] * 5, p=0.55, q=0.45)
    scores = {"kmeans-raw": [], "kmeans-pca": [], "graph-pca": []}
    for seed in range(10):
        A = generate_dataset(model, seed=seed)
        result = pipeline_compare(A, k=5, kprime=5, seeds=[seed], neighbors=60)
        for arm in scores:
            scores[arm].append(result.arms[arm][0].ari)
    medians = {arm: float(np.median(vals)) for arm, vals in scores.items()}
    pca_gain = medians["kmeans-pca"] - medians["kmeans-raw"]
    graph_slack = medians["graph-pca"] - medians["kmeans-pca"]
    ok = pca_gain >= 0.1 and graph_slack >= -0.05
    report(
        10,
        "pipeline-gain",
        ok,
        f"median ARI raw {medians['kmeans-raw']:.3f} pca {medians['kmeans-pca']:.3f} "
        f"graph {medians['graph-pca']:.3f}; pca-raw {pca_gain:.3f} (>=0.1), "
        f"graph-pca {graph_slack:.3f} (>=-0.05)",
    )


def test_11_pc_count_robustness():
    model = sbm_rectangular(**GAP_MODEL)
    A = generate_dataset(model, seed=0)
    grid = (model.k, model.k + 5, model.k + 15)
    full = fit_uncentered_pca(A, grid[-1], seed=0)
    gaps = {}
    for kprime in grid:
        P = Projector(full.components[:kprime], full.singular_values[:kprime])
        intra, inter = finite_ratios(A, P)
        gaps[kprime] = float(intra.mean() / inter.mean())
    ok = all(gap >= 1.5 for gap in gaps.values())
    report(
        11,
        "pc-count-robustness",
        ok,
        "gap " + ", ".join(f"k'={k}: {g:.2f}" for k, g in gaps.items()) + " (each >=1.5)",
    )


def test_12_sparse_performance(tmp_path):
    from pcacompress.io import IngestSpec, load_matrix, log_normalize

    d, n, nnz = 24_000, 2_500, 3_000_000
    rng = np.random.default_rng(5)
    cells = rng.choice(d * n, size=nnz, replace=False)
    rows = cells % d + 1
    cols = cells // d + 1
    values = rng.integers(1, 60, size=nnz)
    mpath = tmp_path / "big.mtx"
    with open(mpath, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{d} {n} {nnz}\n")
        np.savetxt(fh, np.column_stack([rows, cols, values]), fmt="%d %d %d")
    lpath = tmp_path / "big.labels.txt"
    lpath.write_text("\n".join(str(c) for c in rng.integers(0, 10, size=n)) + "\n")

    started = time.monotonic()
    A, _ = load_matrix(IngestSpec(mpath, labels=lpath))
    A = log_normalize(A)
    P = fit_uncentered_pca(A, 25, seed=0)
    summary = summarize(A, P)
    elapsed = time.monotonic() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    ok = elapsed < 300.0 and peak_gb < 8.0 and len(summary.rows) == 10
    report(
        12,
        "sparse-performance",
        ok,
        f"24000x2500 at 5%: ingest+log1p+25 PCs+exact summary in {elapsed:.0f}s "
        f"(<300s), process peak {peak_gb:.2f} GB (<8)",
    )


def test_13_reference_table_row():
    root = os.environ.get("PCACOMPRESS_DATASET2")
    if not root:
        pytest.skip("reference dataset not supplied; set PCACOMPRESS_DATASET2")
    from pcacompress.io import IngestSpec, load_matrix

    matrix = None
    for name in ("matrix.mtx.gz", "matrix.mtx", "dataset2.mtx"):
        candidate = os.path.join(root, name)
        if os.path.exists(candidate):
            matrix = candidate
            break
    labels = None
    for name in ("labels.txt", "labels.csv"):
        candidate = os.path.join(root, name)
        if os.path.exists(candidate):
            labels = candidate
            break
    assert matrix and labels, f"no matrix/labels files under {root}"
    A, _ = load_matrix(IngestSpec(matrix, labels=labels, normalization="log1p"))
    P = fit_uncentered_pca(A, 25, seed=0)
    summary = summarize(A, P)
    row = next(r for r in summary.rows if r.size == 43)
    got = (
        row.inter.pre_avg,
        row.inter.post_avg,
        row.inter.ratio_avg,
        row.intra.pre_avg,
        row.intra.post_avg,
        row.intra.ratio_avg,
    )
    want = (566.672, 361.345, 1.622, 432.565, 82.812, 6.398)
    rel = [abs(g - w) / w for g, w in zip(got, want)]
    ok = max(rel) <= 0.005
    report(
        13,
        "reference-table-row",
        ok,
        "size-43 cluster "
        + ", ".join(f"{g:.3f}" for g in got)
        + f"; worst rel dev {max(rel):.4f} (<=0.005)",
    )
