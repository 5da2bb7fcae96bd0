import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pcacompress import models as mo
from pcacompress.errors import InputError


class TestNoiseSpec:
    def test_family_validation(self):
        with pytest.raises(InputError):
            mo.NoiseSpec("gaussian")
        with pytest.raises(InputError):
            mo.NoiseSpec("bernoulli-residual", scale=0.1)
        with pytest.raises(InputError):
            mo.NoiseSpec("uniform-symmetric")

    def test_uniform_support_constraint(self):
        center = np.array([0.5, 0.1])
        mo.NoiseSpec("uniform-symmetric", 0.1).validate_support(center)
        with pytest.raises(InputError):
            mo.NoiseSpec("uniform-symmetric", 0.2).validate_support(center)

    def test_variances_match_closed_forms(self):
        center = np.array([0.3, 0.5, 0.9])
        bern = mo.NoiseSpec("bernoulli-residual").coordinate_variances(center)
        np.testing.assert_allclose(bern, center * (1 - center), rtol=1e-14)
        unif = mo.NoiseSpec("uniform-symmetric", 0.1).coordinate_variances(center)
        np.testing.assert_allclose(unif, 0.01 / 3, rtol=1e-14)

    def test_truncated_gaussian_variance_against_scipy(self):
        from scipy.stats import truncnorm

        center = np.array([0.4])
        spec = mo.NoiseSpec("truncated-gaussian", 0.25)
        var = spec.coordinate_variances(center)[0]
        m = 0.4
        oracle = truncnorm.var(-m / 0.25, m / 0.25, loc=0, scale=0.25)
        assert var == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "spec,center",
        [
            (mo.NoiseSpec("bernoulli-residual"), 0.35),
            (mo.NoiseSpec("uniform-symmetric", 0.2), 0.45),
            (mo.NoiseSpec("truncated-gaussian", 0.3), 0.6),
        ],
    )
    def test_empirical_moments(self, spec, center):
        # mean within 4 standard errors of the center, variance within 5
        rng = np.random.Generator(np.random.Philox(key=[7, 0]))
        center_vec = np.full(100_000, center)
        draws = spec.sample(center_vec, rng)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        var = spec.coordinate_variances(center_vec)[0]
        stderr = np.sqrt(var / len(draws))
        assert abs(draws.mean() - center) <= 4 * stderr
        sample_var = draws.var()
        var_stderr = var * np.sqrt(2.0 / len(draws))  # normal-ish approximation
        assert abs(sample_var - var) <= 5 * max(var_stderr, 1e-12)


class TestModelValidation:
    def test_centers_must_be_in_unit_interval(self):
        with pytest.raises(InputError):
            mo.RandomVectorModel(
                np.array([[0.5, 1.2]]), [3], [mo.NoiseSpec("bernoulli-residual")]
            )

    def test_one_noise_spec_per_cluster(self):
        with pytest.raises(InputError):
            mo.RandomVectorModel(
                np.array([[0.5], [0.4]]), [2, 2], [mo.NoiseSpec("bernoulli-residual")]
            )

    def test_support_checked_at_construction(self):
        with pytest.raises(InputError):
            mo.RandomVectorModel(
                np.array([[0.9, 0.9]]), [4], [mo.NoiseSpec("uniform-symmetric", 0.3)]
            )


class TestGenerateDataset:
    def test_zero_noise_reproduces_centers(self):
        centers = np.array([[0.2, 0.8, 0.5], [0.6, 0.1, 0.9]])
        model = mo.RandomVectorModel(
            centers, [2, 3], [mo.NoiseSpec("uniform-symmetric", 0.0)] * 2
        )
        A = mo.generate_dataset(model, seed=0)
        np.testing.assert_array_equal(A.values, model.mean_matrix())
        np.testing.assert_array_equal(A.labels, [0, 0, 1, 1, 1])

    def test_bernoulli_entries_are_binary_with_matching_means(self):
        model = mo.sbm_rectangular(60, [400, 400], p=0.7, q=0.3)
        A = mo.generate_dataset(model, seed=1)
        assert set(np.unique(A.values)) <= {0.0, 1.0}
        # per-coordinate empirical mean close to the center probability
        first_block = A.values[:30, :400]
        stderr = np.sqrt(0.7 * 0.3 / 400)
        assert np.all(np.abs(first_block.mean(axis=1) - 0.7) <= 4 * stderr + 1e-12)

    def test_uniform_support_window(self):
        model = mo.RandomVectorModel(
            np.array([[0.5]]), [50], [mo.NoiseSpec("uniform-symmetric", 0.1)]
        )
        A = mo.generate_dataset(model, seed=3)
        assert A.values.min() >= 0.4 and A.values.max() <= 0.6

    def test_bit_identical_across_runs(self):
        model = mo.sbm_rectangular(40, [30, 30, 30], p=0.6, q=0.2)
        A = mo.generate_dataset(model, seed=9)
        B = mo.generate_dataset(model, seed=9)
        np.testing.assert_array_equal(A.values, B.values)
        assert A.values.tobytes() == B.values.tobytes()
        C = mo.generate_dataset(model, seed=10)
        assert not np.array_equal(A.values, C.values)

    def test_every_entry_in_unit_interval(self):
        specs = [
            mo.NoiseSpec("bernoulli-residual"),
            mo.NoiseSpec("uniform-symmetric", 0.15),
            mo.NoiseSpec("truncated-gaussian", 0.4),
        ]
        rng = np.random.default_rng(0)
        centers = rng.uniform(0.2, 0.8, size=(3, 50))
        model = mo.RandomVectorModel(centers, [40, 40, 40], specs)
        A = mo.generate_dataset(model, seed=5)
        assert A.values.min() >= 0.0 and A.values.max() <= 1.0


class TestSbmRectangular:
    def test_parameter_validation(self):
        with pytest.raises(InputError):
            mo.sbm_rectangular(10, [5, 5], p=0.3, q=0.3)
        with pytest.raises(InputError):
            mo.sbm_rectangular(10, [5, 5], p=0.2, q=0.4)

    def test_noiseless_block_indicator(self):
        model = mo.sbm_rectangular(8, [3, 3], p=1.0, q=0.0)
        A = mo.generate_dataset(model, seed=0)
        stats = mo.model_stats(model)
        assert stats.sigma_sq == 0.0
        # each block contributes singular value sqrt(d_j n_j)
        np.testing.assert_allclose(
            sorted(stats.mean_singular_values), sorted([np.sqrt(4 * 3), np.sqrt(4 * 3)])
        )
        np.testing.assert_array_equal(A.values, model.mean_matrix())

    def test_two_equal_blocks_separation(self):
        d = 50
        model = mo.sbm_rectangular(d, [10, 10], p=0.7, q=0.3)
        stats = mo.model_stats(model)
        assert stats.separations[0, 1] == pytest.approx(0.4 * np.sqrt(d), rel=1e-12)

    def test_mean_matrix_singular_values_against_dense_oracle(self):
        model = mo.sbm_rectangular(400, [100, 100, 100, 100], p=0.6, q=0.2)
        stats = mo.model_stats(model)
        oracle = scipy.linalg.svd(model.mean_matrix(), compute_uv=False)[:4]
        np.testing.assert_allclose(stats.mean_singular_values, oracle, rtol=1e-10)

    def test_blocks_partition_proportionally(self):
        model = mo.sbm_rectangular(100, [30, 10], p=0.9, q=0.1)
        own_0 = np.sum(model.centers[0] == 0.9)
        own_1 = np.sum(model.centers[1] == 0.9)
        assert own_0 + own_1 == 100
        assert own_0 == 75 and own_1 == 25


class TestModelStats:
    def test_zero_noise(self):
        model = mo.RandomVectorModel(
            np.array([[0.2, 0.4]]), [3], [mo.NoiseSpec("uniform-symmetric", 0.0)]
        )
        stats = mo.model_stats(model)
        assert stats.sigma_sq == 0.0
        np.testing.assert_array_equal(stats.sigma_j_sq, [0.0])

    def test_bernoulli_average_variance(self):
        centers = np.array([[0.1, 0.5, 0.9, 0.3]])
        model = mo.RandomVectorModel(centers, [2], [mo.NoiseSpec("bernoulli-residual")])
        stats = mo.model_stats(model)
        expected = np.mean(centers[0] * (1 - centers[0]))
        assert stats.sigma_j_sq[0] == pytest.approx(expected, rel=1e-14)

    def test_sbm_sigma_is_worst_coordinate(self):
        model = mo.sbm_rectangular(40, [10, 10], p=0.7, q=0.3)
        stats = mo.model_stats(model)
        assert stats.sigma_sq == pytest.approx(0.21, rel=1e-14)
        assert np.all(stats.sigma_j_sq <= stats.sigma_sq + 1e-15)


class TestRegimeCheck:
    def test_noiseless_block_model_ratios(self):
        # closed forms: min separation sqrt(2 d_j) = sqrt(200), s_k = sqrt(d_j n_j) = 100
        model = mo.sbm_rectangular(400, [100] * 4, p=1.0, q=0.0)
        stats = mo.model_stats(model)
        report = mo.regime_check(stats, d=400, n=400, k=4)
        assert report.separation_ratio == pytest.approx(np.sqrt(200) / 2, rel=1e-12)
        assert report.spectrum_ratio == pytest.approx(100 / np.sqrt(800), rel=1e-12)
        assert report.separation_ok and not report.spectrum_ok
        relaxed = mo.regime_check(stats, d=400, n=400, k=4, threshold=3.0)
        assert relaxed.separation_ok and relaxed.spectrum_ok

    def test_single_cluster_has_no_separation_ratio(self):
        model = mo.RandomVectorModel(
            np.array([[0.5, 0.5]]), [4], [mo.NoiseSpec("bernoulli-residual")]
        )
        report = mo.regime_check(mo.model_stats(model), d=2, n=4, k=1)
        assert report.separation_ratio is None and report.separation_ok is None

    def test_tiny_separation_fails_threshold(self):
        model = mo.sbm_rectangular(100, [50, 50], p=0.505, q=0.495)
        stats = mo.model_stats(model)
        report = mo.regime_check(stats, d=100, n=100, k=2)
        assert report.separation_ratio == pytest.approx(0.01 * 10 / np.sqrt(2), rel=1e-9)
        assert not report.separation_ok


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = mo.RandomVectorModel(
            np.array([[0.2, 0.6], [0.5, 0.5]]),
            [3, 4],
            [mo.NoiseSpec("uniform-symmetric", 0.1), mo.NoiseSpec("truncated-gaussian", 0.2)],
        )
        path = tmp_path / "model.json"
        mo.save_model(model, path)
        loaded = mo.load_model(path)
        np.testing.assert_array_equal(loaded.centers, model.centers)
        assert loaded.sizes == model.sizes
        assert [s.family for s in loaded.noise] == [s.family for s in model.noise]
        A = mo.generate_dataset(model, seed=2)
        B = mo.generate_dataset(loaded, seed=2)
        np.testing.assert_array_equal(A.values, B.values)

    def test_sbm_shorthand(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"sbm": {"d": 20, "sizes": [5, 5], "p": 0.7, "q": 0.3}}))
        model = mo.load_model(path)
        assert model.d == 20 and model.k == 2
        assert model.noise[0].family == "bernoulli-residual"

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            mo.load_model(path)
        path.write_text(json.dumps({"centers": [[0.5]]}))
        with pytest.raises(InputError):
            mo.load_model(path)

    def test_readme_model_examples_build(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) >= 2
        for block in blocks:
            model = mo.RandomVectorModel.from_dict(json.loads(block))
            mo.generate_dataset(model, seed=0)
