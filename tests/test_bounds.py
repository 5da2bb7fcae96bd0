import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import scipy.linalg

from pcacompress import bounds, linalg, metrics
from pcacompress.bounds import (
    NOISE_GRAM_RTOL,
    BoundParams,
    C0Calibration,
    calibrate_c0,
    extra_pc_check,
    extra_pc_pair_bound,
    inter_ratio_upper,
    intra_ratio_lower,
    noise_norm_check,
    post_pca_intra_upper,
    post_pca_inter_lower,
    pre_pca_intra_lower,
    pre_pca_inter_upper,
    random_projection_check,
    random_projection_ub,
    verify_bounds,
)
from pcacompress.errors import InputError
from pcacompress.linalg import fit_uncentered_pca
from pcacompress.models import (
    NoiseSpec,
    RandomVectorModel,
    generate_dataset,
    model_stats,
    sbm_rectangular,
)

# frozen values from a 40-digit arbitrary-precision evaluation of the
# closed forms, rounded to float64


def two_cluster_params(d, sep, s_k, sigma_sq=0.2275, n=1500, C0=1.0):
    s = math.sqrt(sigma_sq)
    return BoundParams(
        d=d,
        n=n,
        k=2,
        sigma=s,
        sigma_j=np.array([s, s]),
        separations=np.array([[0.0, sep], [sep, 0.0]]),
        s_k=s_k,
        C0=C0,
    )


def four_cluster_params(sigma=0.5, sigma_j_sq=0.21, sep=50.0, s_k=500.0):
    sj = math.sqrt(sigma_j_sq)
    separations = np.full((4, 4), sep)
    np.fill_diagonal(separations, 0.0)
    return BoundParams(
        d=10**4,
        n=10**3,
        k=4,
        sigma=sigma,
        sigma_j=np.full(4, sj),
        separations=separations,
        s_k=s_k,
    )


class TestBoundParams:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            BoundParams(d=10, n=5, k=2, sigma=0.1, sigma_j=np.zeros(3),
                        separations=np.zeros((2, 2)), s_k=1.0)
        with pytest.raises(InputError):
            BoundParams(d=10, n=5, k=2, sigma=0.1, sigma_j=np.zeros(2),
                        separations=np.zeros((3, 3)), s_k=1.0)
        with pytest.raises(InputError):
            BoundParams(d=10, n=1, k=1, sigma=0.1, sigma_j=np.zeros(1),
                        separations=np.zeros((1, 1)), s_k=1.0)

    def test_negative_quantities_rejected(self):
        with pytest.raises(InputError):
            BoundParams(d=10, n=5, k=1, sigma=-0.1, sigma_j=np.zeros(1),
                        separations=np.zeros((1, 1)), s_k=1.0)
        with pytest.raises(InputError):
            BoundParams(d=10, n=5, k=1, sigma=0.1, sigma_j=np.zeros(1),
                        separations=np.zeros((1, 1)), s_k=1.0, C0=0.0)

    def test_sigma_floor_flag(self):
        ok = two_cluster_params(40000, 60.0, 1161.8950038622251)
        assert ok.sigma_condition_met
        quiet = dataclasses.replace(ok, sigma=1e-5, n=10)
        assert not quiet.sigma_condition_met  # log(10)/10 = 0.23 > sigma

    def test_from_model_matches_model_stats(self):
        model = sbm_rectangular(100, [20, 30], p=0.7, q=0.3)
        params = BoundParams.from_model(model, C0=2.0)
        stats = model_stats(model)
        np.testing.assert_allclose(params.sigma, math.sqrt(0.21), rtol=1e-12)
        np.testing.assert_allclose(params.sigma_j, np.sqrt(stats.sigma_j_sq), rtol=1e-12)
        np.testing.assert_allclose(params.separations[0, 1], 4.0, rtol=1e-12)
        assert params.s_k == stats.s_k
        assert params.C0 == 2.0
        override = BoundParams.from_model(model, s_k=7.5)
        assert override.s_k == 7.5

    def test_evaluators_are_pure(self):
        params = four_cluster_params()
        assert post_pca_intra_upper(params, 1) == post_pca_intra_upper(params, 1)
        assert intra_ratio_lower(params, 0) == intra_ratio_lower(params, 0)


class TestPreProjectionBounds:
    def test_negative_radicand_gives_vacuous_zero(self):
        params = four_cluster_params(sigma_j_sq=0.21)  # d=1e4: slack wins
        assert pre_pca_intra_lower(params, 0) == 0.0

    def test_zero_noise_cluster_is_vacuous(self):
        params = four_cluster_params(sigma_j_sq=0.0)
        assert pre_pca_intra_lower(params, 2) == 0.0

    def test_intra_matches_high_precision_value(self):
        params = dataclasses.replace(four_cluster_params(sigma_j_sq=0.21), d=10**5)
        np.testing.assert_allclose(
            pre_pca_intra_lower(params, 0), 125.64597788722692, rtol=1e-12
        )

    def test_intra_noise_term_dominates_for_large_d(self):
        params = dataclasses.replace(four_cluster_params(sigma_j_sq=0.21), d=10**10)
        value = pre_pca_intra_lower(params, 0)
        asymptote = math.sqrt(0.21) * math.sqrt(2 * 10**10)
        np.testing.assert_allclose(value, asymptote, rtol=1e-3)

    def test_inter_zero_noise_zero_separation_is_pure_slack(self):
        params = four_cluster_params(sigma_j_sq=0.0, sep=0.0)
        want = math.sqrt(12.0 * math.sqrt(params.d) * math.log(params.n))
        np.testing.assert_allclose(pre_pca_inter_upper(params, 0, 1), want, rtol=1e-12)

    def test_inter_zero_noise_keeps_separation_and_slack(self):
        params = four_cluster_params(sigma_j_sq=0.0, sep=50.0)
        want = math.sqrt(50.0**2 + 12.0 * math.sqrt(params.d) * math.log(params.n))
        np.testing.assert_allclose(pre_pca_inter_upper(params, 0, 3), want, rtol=1e-12)

    def test_inter_matches_high_precision_value(self):
        params = four_cluster_params(sigma_j_sq=0.21, sep=50.0)
        np.testing.assert_allclose(
            pre_pca_inter_upper(params, 0, 1), 122.43082265009316, rtol=1e-12
        )

    def test_cluster_index_validation(self):
        params = four_cluster_params()
        with pytest.raises(InputError):
            pre_pca_intra_lower(params, 4)
        with pytest.raises(InputError):
            pre_pca_inter_upper(params, 1, 1)


class TestPostProjectionBounds:
    def test_intra_matches_high_precision_value(self):
        params = four_cluster_params()
        np.testing.assert_allclose(
            post_pca_intra_upper(params, 0), 81.588128095071805, rtol=1e-12
        )

    def test_intra_keeps_projection_term_at_zero_noise(self):
        # the additive sqrt(16 log nk) term does not scale with noise, so
        # the bound stays positive (loose but valid) even when the
        # distances themselves collapse to zero
        params = four_cluster_params(sigma=0.0, sigma_j_sq=0.0)
        want = 2.0 * math.sqrt(2.0) * math.sqrt(4) * math.sqrt(16 * math.log(4000))
        np.testing.assert_allclose(post_pca_intra_upper(params, 0), want, rtol=1e-12)

    def test_intra_limit_for_huge_spectrum(self):
        params = four_cluster_params(s_k=1e15)
        want = 2.0 * math.sqrt(2.0) * 2.0 * (0.5 + math.sqrt(16 * math.log(4000)))
        np.testing.assert_allclose(post_pca_intra_upper(params, 0), want, rtol=1e-6)

    def test_inter_zero_noise_leaves_projection_term(self):
        params = four_cluster_params(sigma=0.0, sigma_j_sq=0.0, sep=50.0)
        want = 50.0 - 2.0 * 2.0 * math.sqrt(16 * math.log(4000))
        np.testing.assert_allclose(post_pca_inter_lower(params, 0, 1), want, rtol=1e-12)

    def test_inter_matches_high_precision_value(self):
        params = four_cluster_params(s_k=2000.0)
        np.testing.assert_allclose(
            post_pca_inter_lower(params, 0, 1), -1.1142368099388547, rtol=1e-12
        )

    def test_inter_can_come_out_negative(self):
        params = four_cluster_params(s_k=2000.0)
        assert post_pca_inter_lower(params, 0, 1) < 0.0

    def test_zero_spectrum_rejected(self):
        params = four_cluster_params(s_k=0.0)
        with pytest.raises(InputError):
            post_pca_intra_upper(params, 0)
        with pytest.raises(InputError):
            post_pca_inter_lower(params, 0, 1)


class TestRatioBounds:
    def test_intra_matches_high_precision_value(self):
        params = two_cluster_params(40000, 60.0, 1161.8950038622251)
        np.testing.assert_allclose(
            intra_ratio_lower(params, 0), 0.36506299511918063, rtol=1e-12
        )

    def test_inter_matches_high_precision_value(self):
        params = two_cluster_params(40000, 60.0, 1161.8950038622251)
        np.testing.assert_allclose(
            inter_ratio_upper(params, 0, 1), 3.2398242081018524, rtol=1e-12
        )

    def test_deep_regime_orders_the_two_bounds(self):
        params = two_cluster_params(400000, 189.73665961010276, 3674.2346141747671)
        lower = intra_ratio_lower(params, 0)
        upper = inter_ratio_upper(params, 0, 1)
        np.testing.assert_allclose(lower, 3.0304371648564518, rtol=1e-12)
        np.testing.assert_allclose(upper, 1.7762866610886640, rtol=1e-12)
        assert lower > upper

    def test_zero_noise_intra_is_vacuous_zero(self):
        params = four_cluster_params(sigma_j_sq=0.0)
        assert intra_ratio_lower(params, 0) == 0.0

    def test_tiny_separation_inter_is_absent(self):
        params = four_cluster_params(sep=1.0, s_k=1e12)
        assert inter_ratio_upper(params, 0, 1) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_intra_numerator_and_denominator_structure(self, seed):
        # the ratio bound reuses the pre-projection lower bound as its
        # numerator, and its denominator is the post-projection intra
        # bound with sigma_j replaced by sigma
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        params = BoundParams(
            d=int(rng.integers(10**4, 10**6)),
            n=int(rng.integers(100, 2000)),
            k=k,
            sigma=float(rng.uniform(0.1, 0.6)),
            sigma_j=rng.uniform(0.05, 0.5, size=k),
            separations=np.zeros((k, k)),
            s_k=float(rng.uniform(50, 5000)),
        )
        j = int(rng.integers(k))
        substituted = dataclasses.replace(
            params, sigma_j=np.where(np.arange(k) == j, params.sigma, params.sigma_j)
        )
        np.testing.assert_allclose(
            intra_ratio_lower(params, j),
            pre_pca_intra_lower(params, j) / post_pca_intra_upper(substituted, j),
            rtol=1e-12,
        )

    def test_inter_denominator_sign_raises_it(self):
        # the spectral correction is subtracted inside the subtracted
        # parenthesis, so it enlarges the denominator and shrinks the
        # bound relative to dropping the correction
        params = two_cluster_params(40000, 60.0, 1161.8950038622251)
        with_term = inter_ratio_upper(params, 0, 1)
        huge_spectrum = dataclasses.replace(params, s_k=1e15)
        without_term = inter_ratio_upper(huge_spectrum, 0, 1)
        assert with_term < without_term

    def test_monotone_in_sigma(self):
        base = two_cluster_params(400000, 189.73665961010276, 3674.2346141747671)
        values = [
            intra_ratio_lower(dataclasses.replace(base, sigma=s), 0)
            for s in np.linspace(0.1, 1.5, 12)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_separation_when_denominator_dominates(self):
        base = four_cluster_params(sigma=0.3, sigma_j_sq=0.09, s_k=1e9)
        noise = 2.0 * (math.sqrt(4) * (0.3 + math.sqrt(16 * math.log(4000))))
        values = []
        for sep in np.linspace(5 * noise, 100 * noise, 15):
            separations = np.full((4, 4), sep)
            np.fill_diagonal(separations, 0.0)
            params = dataclasses.replace(base, separations=separations)
            values.append(inter_ratio_upper(params, 0, 1))
        assert all(v is not None for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestRandomProjection:
    def test_matches_high_precision_value(self):
        np.testing.assert_allclose(
            random_projection_ub(25, 0.5, 2500, c0=4.0), 68.961784013745803, rtol=1e-12
        )

    def test_bound_positive_for_trivial_inputs(self):
        assert random_projection_ub(1, 0.0, 2) > 0.0

    def test_no_violations_in_slack_regime(self):
        check = random_projection_check(50, 3, 2, sigma=0.5, trials=2000, seed=1)
        assert check.violations == 0
        assert check.trials == 2000
        assert check.predicted_rate == pytest.approx(6 ** -3.0)

    def test_counting_path_in_tight_regime(self):
        # n = k' = 1 makes the log term vanish, leaving bound = sigma,
        # which a projected noise coordinate exceeds often
        check = random_projection_check(200, 1, 1, sigma=1.0, trials=500, seed=3)
        assert check.violations > 0
        assert check.rate <= check.predicted_rate == 1.0

    def test_deterministic_across_runs(self):
        a = random_projection_check(30, 2, 5, sigma=0.4, trials=200, seed=9)
        b = random_projection_check(30, 2, 5, sigma=0.4, trials=200, seed=9)
        assert a.violations == b.violations

    def test_validation(self):
        with pytest.raises(InputError):
            random_projection_ub(0, 0.5, 10)
        with pytest.raises(InputError):
            random_projection_ub(5, 0.5, 10, c0=1.0)
        with pytest.raises(InputError):
            random_projection_check(10, 2, 5, sigma=0.1, trials=0)


class TestExtraComponents:
    def test_budget_formula_matches_worked_example(self):
        params = four_cluster_params()
        n = 100
        f = 1.0 / math.log(n)
        _, budget = extra_pc_pair_bound(params, 2, f)
        np.testing.assert_allclose(budget, 4.0 * math.log(n) ** 4, rtol=1e-12)

    def test_zero_surplus_means_unchanged_threshold(self):
        params = four_cluster_params()
        shift, budget = extra_pc_pair_bound(params, 0, 0.5)
        assert shift == 0.0
        assert budget == 0.0

    def test_shift_scales_with_model_size(self):
        params = four_cluster_params()
        shift, _ = extra_pc_pair_bound(params, 3, 0.2)
        want = (params.C0 * params.sigma * 0.2 * 3) ** 2 * (params.d + params.n)
        np.testing.assert_allclose(shift, want, rtol=1e-12)

    def test_parameter_validation(self):
        params = four_cluster_params()
        for f in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(InputError):
                extra_pc_pair_bound(params, 2, f)
        with pytest.raises(InputError):
            extra_pc_pair_bound(params, -1, 0.5)

    def test_exceedances_within_budget_on_synthetic_run(self):
        model = sbm_rectangular(200, [50, 50, 50, 50], p=0.7, q=0.3)
        check = extra_pc_check(model, c=2, f=0.2, seed=0)
        assert check.intra_pairs == 4 * (50 * 49 // 2)
        assert check.exceedances <= check.budget
        np.testing.assert_allclose(check.budget, 4.0 / 0.2**4, rtol=1e-12)


class TestNoiseNorm:
    def test_zero_noise_norm_is_zero(self):
        model = sbm_rectangular(60, [20, 20], p=1.0, q=0.0)
        check = noise_norm_check(model, seed=0)
        assert check.estimate <= 1e-8
        assert check.passed

    def test_bernoulli_block_model_passes_with_three(self):
        model = sbm_rectangular(400, [200, 200], p=0.7, q=0.3)
        for seed in range(20):
            check = noise_norm_check(model, seed, C0=3.0)
            assert check.passed, f"seed {seed}: {check.estimate} > {check.bound}"

    def test_matches_dense_two_norm_of_noise_block(self):
        model = sbm_rectangular(300, [40, 60], p=0.7, q=0.3)
        A = generate_dataset(model, seed=4)
        oracle = np.linalg.norm(A.values - model.mean_matrix(), 2)
        estimate = noise_norm_check(model, seed=4).estimate
        assert abs(estimate - oracle) <= 1e-12 * oracle

    def test_doubling_sigma_roughly_doubles_norm(self):
        def flat_model(scale):
            return RandomVectorModel(
                centers=np.full((1, 150), 0.5),
                sizes=[150],
                noise=[NoiseSpec("uniform-symmetric", scale)],
            )

        for seed in range(20):
            small = noise_norm_check(flat_model(0.2), seed)
            large = noise_norm_check(flat_model(0.4), seed)
            ratio = large.estimate / small.estimate
            assert 1.6 <= ratio <= 2.4, f"seed {seed}: ratio {ratio}"


def three_cluster_model(family, scale):
    """Three unequal clusters with continuous noise, so no sum is exact in floating point."""
    centers = 0.3 + 0.4 * np.random.default_rng(5).random((3, 300))
    return RandomVectorModel(centers, [20, 35, 50], [NoiseSpec(family, scale)] * 3)


class TestDerivedNoiseGram:
    """The noise norm read off the centered Gram matrix, and its direct fallback."""

    # the middle two scales of each family put the estimated relative
    # error eps * max diag(G) / lambda_top within a factor 2.5 to 5 of
    # NOISE_GRAM_RTOL, one on each side
    @pytest.mark.parametrize(
        "family, scale, source",
        [
            ("uniform-symmetric", 0.2, "gram"),
            ("uniform-symmetric", 0.03, "gram"),
            ("uniform-symmetric", 0.01, "direct"),
            ("uniform-symmetric", 1e-7, "direct"),
            ("truncated-gaussian", 0.2, "gram"),
            ("truncated-gaussian", 0.02, "gram"),
            ("truncated-gaussian", 0.005, "direct"),
            ("truncated-gaussian", 1e-7, "direct"),
        ],
    )
    def test_matches_two_norm_of_noise_block(self, family, scale, source):
        model = three_cluster_model(family, scale)
        A = generate_dataset(model, seed=2)
        oracle = np.linalg.norm(A.values - model.mean_matrix(), 2)
        check = noise_norm_check(model, seed=2)
        assert check.source == source
        assert abs(check.estimate - oracle) <= 1e-12 * oracle
        G, _ = linalg.centered_gram(A.values)
        estimated_error = np.finfo(float).eps * np.diag(G).max() / oracle**2
        assert (estimated_error <= NOISE_GRAM_RTOL) == (source == "gram")

    def test_noiseless_model_gives_exactly_zero(self):
        model = sbm_rectangular(60, [20, 30, 10], p=1.0, q=0.0)
        check = noise_norm_check(model, seed=0)
        assert check.estimate == 0.0
        assert check.source == "direct"


class TestCalibration:
    def test_fits_smallest_passing_constant(self):
        model = sbm_rectangular(150, [75, 75], p=0.7, q=0.3)
        calib = calibrate_c0(model, seeds=15)
        assert isinstance(calib, C0Calibration)
        assert calib.ratios.shape == (15,)
        np.testing.assert_allclose(
            calib.value, calib.ratios.max() * (1 + 1e-9), rtol=1e-12
        )
        for seed in range(15):
            assert noise_norm_check(model, seed, C0=calib.value).passed
        shaved = calib.value / 1.05
        assert not all(
            noise_norm_check(model, seed, C0=shaved).passed for seed in range(15)
        )

    def test_explicit_seed_list(self):
        model = sbm_rectangular(100, [50, 50], p=0.6, q=0.4)
        calib = calibrate_c0(model, seeds=[3, 7])
        assert calib.ratios.shape == (2,)

    def test_noiseless_model_rejected(self):
        model = sbm_rectangular(50, [25, 25], p=1.0, q=0.0)
        with pytest.raises(InputError):
            calibrate_c0(model)


class TestVerifyBounds:
    def test_zero_noise_inter_distances_are_exact(self):
        model = sbm_rectangular(60, [20, 20], p=1.0, q=0.0)
        report = verify_bounds(model, seeds=2)
        rec = report.record("pre-inter-upper", 0, 1)
        np.testing.assert_allclose(rec.empirical, math.sqrt(60), rtol=1e-12)
        assert rec.violations == 0
        assert not rec.vacuous
        # zero noise makes the intra lower bounds vacuous, not violated
        assert report.record("pre-intra-lower", 0).vacuous
        assert report.record("intra-ratio-lower", 0).violations == 0
        assert report.record("noise-norm").empirical <= 1e-8
        assert sum(r.violations for r in report.records) == 0

    def test_mid_size_block_model_structure(self):
        # C0 = 1 undershoots the true spectral constant (about 1.23 at
        # this aspect ratio), so run with a comfortably calibrated value
        model = sbm_rectangular(4000, [150, 150], p=0.65, q=0.35)
        report = verify_bounds(model, seeds=3, C0=1.3)
        assert report.trials == 3
        names = {(r.bound, r.clusters) for r in report.records}
        assert ("post-intra-upper", (0,)) in names
        assert ("inter-ratio-upper", (0, 1)) in names
        # at this width the concentration slack swamps the intra radicand
        assert report.record("pre-intra-lower", 0).vacuous
        assert report.record("intra-ratio-lower", 1).vacuous
        assert report.record("post-inter-lower", 0, 1).vacuous
        for name in ("pre-inter-upper", "post-intra-upper", "noise-norm"):
            rec = report.record(name, 0, 1) if name == "pre-inter-upper" else (
                report.record(name, 0) if name == "post-intra-upper" else report.record(name)
            )
            assert not rec.vacuous
            assert rec.violations == 0
        assert report.record("inter-ratio-upper", 0, 1).violations == 0
        assert report.sigma_condition_met

    def test_empirical_extremes_match_bruteforce_oracle(self):
        # three clusters, so three off-diagonal cluster pairs; k' above k
        model = sbm_rectangular(300, [12, 15, 18], p=0.7, q=0.3)
        seeds, kprime = [3, 4], 4
        report = verify_bounds(model, seeds=seeds, kprime=kprime)
        worst = {}
        for seed in seeds:
            A = generate_dataset(model, seed)
            P = fit_uncentered_pca(A, kprime)
            pre = pdist(A.values.T)
            post = pdist((P.components @ A.values).T)
            cells = {}
            for t, (a, b) in enumerate(zip(*np.triu_indices(A.n, k=1))):
                cell = tuple(sorted({int(A.labels[a]), int(A.labels[b])}))
                cells.setdefault(cell, []).append((pre[t], post[t]))
            for cell, values in cells.items():
                pres, posts = np.array(values).T
                assert np.all(posts > 1e-12 * pres)
                ratios = pres / posts
                if len(cell) == 1:
                    found = {
                        "pre-intra-lower": pres.min(),
                        "post-intra-upper": posts.max(),
                        "intra-ratio-lower": ratios.min(),
                    }
                else:
                    found = {
                        "pre-inter-upper": pres.max(),
                        "post-inter-lower": posts.min(),
                        "inter-ratio-upper": ratios.max(),
                    }
                for name, value in found.items():
                    pick = min if name.endswith("lower") else max
                    key = (name, cell)
                    worst[key] = value if key not in worst else pick(worst[key], value)
            noise = np.linalg.norm(A.values - model.mean_matrix(), 2)
            worst[("noise-norm", ())] = max(worst.get(("noise-norm", ()), 0.0), noise)
        assert len(report.records) == len(worst) == 3 * 3 + 3 * 3 + 1
        for rec in report.records:
            np.testing.assert_allclose(rec.empirical, worst[(rec.bound, rec.clusters)], rtol=1e-12)

    def test_empirical_spectrum_option(self):
        model = sbm_rectangular(500, [60, 60], p=0.7, q=0.3)
        fixed = verify_bounds(model, seeds=2)
        empirical = verify_bounds(model, seeds=2, use_empirical_sk=True)
        assert fixed.s_k_analytic == empirical.s_k_analytic
        assert empirical.s_k_empirical > 0
        assert empirical.s_k_empirical != empirical.s_k_analytic
        a = fixed.record("post-intra-upper", 0).analytic
        b = empirical.record("post-intra-upper", 0).analytic
        assert a != b

    def test_noise_norm_record_checks_the_drawn_dataset(self):
        model = sbm_rectangular(120, [30, 30], p=0.7, q=0.3)
        report = verify_bounds(model, seeds=[6], C0=1.4)
        check = noise_norm_check(model, 6, C0=1.4)
        rec = report.record("noise-norm")
        assert rec.empirical == check.estimate
        assert rec.analytic == check.bound

    def test_violations_count_the_seeds_past_each_bound(self):
        # min(d, n) = 60, so every fit runs the exact dense driver
        model = sbm_rectangular(150, [30, 30], p=0.7, q=0.3)
        seeds = list(range(6))
        ratios = np.sort(calibrate_c0(model, seeds).ratios)
        C0 = float(ratios[1] + ratios[2]) / 2.0  # two seeds pass, four fail
        report = verify_bounds(model, seeds, C0=C0, use_empirical_sk=True)
        failed = sum(not noise_norm_check(model, seed, C0).passed for seed in seeds)
        rec = report.record("noise-norm")
        assert rec.violations == failed == 4
        assert rec.trials == len(seeds)
        # every pair bound reports the last seed's analytic value
        last = fit_uncentered_pca(generate_dataset(model, seeds[-1]), model.k)
        assert last.driver == "dense"
        params = BoundParams.from_model(model, C0=C0, s_k=last.singular_values[-1])
        bound_of = {
            "pre-intra-lower": pre_pca_intra_lower,
            "post-intra-upper": post_pca_intra_upper,
            "intra-ratio-lower": intra_ratio_lower,
            "pre-inter-upper": pre_pca_inter_upper,
            "post-inter-lower": post_pca_inter_lower,
            "inter-ratio-upper": inter_ratio_upper,
        }
        for rec in report.records[:-1]:
            assert rec.analytic == bound_of[rec.bound](params, *rec.clusters)

    def test_report_serializes_to_json(self):
        model = sbm_rectangular(80, [20, 20], p=0.8, q=0.2)
        report = verify_bounds(model, seeds=[5])
        text = json.dumps(report.to_dict())
        parsed = json.loads(text)
        assert parsed["trials"] == 1
        assert len(parsed["records"]) == len(report.records)

    def test_input_validation(self):
        model = sbm_rectangular(40, [10, 10], p=0.7, q=0.3)
        with pytest.raises(InputError):
            verify_bounds(model, seeds=2, kprime=1)
        with pytest.raises(InputError):
            verify_bounds(model, seeds=[])


class TestOneGramPerSeed:
    """verify_bounds forms one centered Gram matrix per seed and reads everything off it."""

    # n = 45 lies above a dense cutoff of 20, where the fit would
    # otherwise run the Lanczos driver
    MODEL = dict(d=600, sizes=[12, 15, 18], p=0.7, q=0.3)

    @pytest.fixture(autouse=True)
    def low_dense_cutoff(self, monkeypatch):
        monkeypatch.setattr(linalg, "_DENSE_CUTOFF", 20)

    def count_calls(self, monkeypatch):
        """Counts Gram products of a d-row draw (not of the projection) and Lanczos fits."""
        calls = {"gram": 0, "lanczos": 0}
        real_gram, real_lanczos = linalg.centered_gram, linalg._lanczos_svd
        real_rows = metrics.gram_rows

        def gram(M):
            calls["gram"] += M.shape[0] == self.MODEL["d"]
            return real_gram(M)

        def rows(M, G, depth):
            # the pair engine's own Gram tiles, formed only without a caller's G
            calls["gram"] += G is None and M.shape[0] == self.MODEL["d"]
            return real_rows(M, G, depth)

        def lanczos(*args):
            calls["lanczos"] += 1
            return real_lanczos(*args)

        for module in (linalg, bounds):
            monkeypatch.setattr(module, "centered_gram", gram)
        # the pass reads its tile source by the name metrics imported
        monkeypatch.setattr(metrics, "gram_rows", rows)
        monkeypatch.setattr(linalg, "_lanczos_svd", lanczos)
        return calls

    def test_one_gram_product_and_no_lanczos_fit_per_seed(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        model = sbm_rectangular(**self.MODEL)
        report = verify_bounds(model, seeds=[3, 4], kprime=4)
        assert calls == {"gram": 2, "lanczos": 0}
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["fit_drivers"] == ["gram", "gram"]
        assert all(0.0 <= r <= linalg.RESIDUAL_RTOL for r in doc["fit_residuals"])
        assert doc["noise_norm_sources"] == ["gram", "gram"]

    def test_empirical_extremes_match_dense_svd_oracle(self):
        model = sbm_rectangular(**self.MODEL)
        seeds, kprime = [3, 4], 4
        report = verify_bounds(model, seeds=seeds, kprime=kprime)
        assert report.fit_drivers == ["gram", "gram"]
        worst = {}

        def merge(key, value, pick):
            worst[key] = value if key not in worst else pick(worst[key], value)

        for seed in seeds:
            A = generate_dataset(model, seed)
            U = scipy.linalg.svd(linalg.as_dense(A.values), full_matrices=False)[0][:, :kprime]
            pre, post = pdist(A.values.T), pdist((U.T @ A.values).T)
            i, j = np.triu_indices(A.n, k=1)
            a = np.minimum(A.labels[i], A.labels[j])
            b = np.maximum(A.labels[i], A.labels[j])
            for cell in set(zip(a.tolist(), b.tolist())):
                mask = (a == cell[0]) & (b == cell[1])
                p, q = pre[mask], post[mask]
                if cell[0] == cell[1]:
                    clusters = cell[:1]
                    merge(("pre-intra-lower", clusters), p.min(), min)
                    merge(("post-intra-upper", clusters), q.max(), max)
                    merge(("intra-ratio-lower", clusters), (p / q).min(), min)
                else:
                    merge(("pre-inter-upper", cell), p.max(), max)
                    merge(("post-inter-lower", cell), q.min(), min)
                    merge(("inter-ratio-upper", cell), (p / q).max(), max)
            noise = np.linalg.norm(A.values - model.mean_matrix(), 2)
            merge(("noise-norm", ()), noise, max)
        assert len(report.records) == len(worst)
        for rec in report.records:
            np.testing.assert_allclose(rec.empirical, worst[(rec.bound, rec.clusters)], rtol=1e-10)
