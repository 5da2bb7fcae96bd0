"""Command-line behavior: exit codes, manifests, file layouts, round trips."""

import json
import os
import re

import numpy as np
import pytest

from pcacompress import cli
from pcacompress.errors import NumericalError

MODEL = {"sbm": {"d": 48, "sizes": [10, 14], "p": 0.7, "q": 0.3}}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return path


@pytest.fixture
def dataset(tmp_path, model_path):
    out = tmp_path / "sim"
    code = cli.main(
        ["simulate", "--model", str(model_path), "--seed", "11", "--out-dir", str(out)]
    )
    assert code == 0
    return out / "dataset.mtx", out / "dataset.labels.txt"


class TestExitCodes:
    def test_zero_pcs_is_input_error(self, dataset, tmp_path):
        matrix, labels = dataset
        code = cli.main(
            [
                "analyze",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--pcs", "0",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        code = cli.main(
            [
                "analyze",
                "--matrix", str(tmp_path / "absent.mtx"),
                "--pcs", "2",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze", "--no-such-flag"])
        assert info.value.code == 2

    def test_numerical_failure_maps_to_three(self, monkeypatch, model_path, tmp_path):
        def explode(args):
            raise NumericalError("did not converge")

        monkeypatch.setitem(cli.COMMANDS, "simulate", explode)
        code = cli.main(
            ["simulate", "--model", str(model_path), "--out-dir", str(tmp_path)]
        )
        assert code == 3

    def test_success_is_zero(self, dataset):
        pass  # the fixture asserts it

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "model document must be a JSON object"),
            ("model", "model document must be a JSON object"),
            ({"sbm": [1]}, "sbm shorthand must be a JSON object"),
            ({"centers": [[0.5]], "sizes": [2], "noise": {"family": "bernoulli-residual"}},
             "noise must be a list of JSON objects"),
            ({"centers": [[0.5]], "sizes": [2], "noise": ["bernoulli-residual"]},
             "noise must be a list of JSON objects"),
            ({"sbm": {"d": "x", "sizes": [2, 2], "p": 0.7, "q": 0.3}},
             "malformed model field"),
            ({"sbm": {"d": 4, "sizes": 5, "p": 0.7, "q": 0.3}}, "malformed model field"),
            ({"centers": [[0.5]], "sizes": 5, "noise": [{"family": "bernoulli-residual"}]},
             "malformed model field"),
            ({"centers": [[0.5]], "sizes": [2],
              "noise": [{"family": "uniform-symmetric", "scale": "big"}]},
             "malformed model field"),
        ],
    )
    def test_malformed_model_document(self, doc, message, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["simulate", "--model", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err


class TestManifest:
    def test_records_inputs_seed_versions_normalization(self, dataset, tmp_path):
        matrix, labels = dataset
        out = tmp_path / "out"
        code = cli.main(
            [
                "analyze",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--pcs", "3",
                "--seed", "7",
                "--normalize", "log1p",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "analyze"
        assert doc["inputs"]["matrix"] == str(matrix)
        assert doc["seed"] == 7
        assert doc["normalization"] == "log1p"
        for lib in ("pcacompress", "numpy", "scipy", "python"):
            assert lib in doc["versions"]

    def test_every_subcommand_writes_one(self, model_path, tmp_path):
        out = tmp_path / "cal"
        code = cli.main(
            ["calibrate-c0", "--model", str(model_path), "--seeds", "3", "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "c0.json").exists()


class TestThreads:
    def test_flag_pins_blas_environment(self, monkeypatch, dataset, tmp_path):
        matrix, _ = dataset
        for var in cli.THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        code = cli.main(
            [
                "analyze",
                "--matrix", str(matrix),
                "--pcs", "2",
                "--threads", "3",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        for var in cli.THREAD_VARS:
            assert os.environ[var] == "3"

    def test_zero_threads_rejected(self, model_path, tmp_path):
        code = cli.main(
            ["simulate", "--model", str(model_path), "--threads", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 2


class TestAnalyzeOutputs:
    def test_table_layout_inter_then_intra_three_decimals(self, dataset, tmp_path):
        matrix, labels = dataset
        out = tmp_path / "out"
        code = cli.main(
            [
                "analyze",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--pcs", "2",
                "--format", "tsv",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "compression.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "cluster",
            "size",
            "inter_pre_avg",
            "inter_post_avg",
            "inter_ratio",
            "intra_pre_avg",
            "intra_post_avg",
            "intra_ratio",
        ]
        assert len(lines) == 3  # header plus one row per cluster
        for line in lines[1:]:
            cells = line.split("\t")
            assert cells[1] in ("10", "14")
            for cell in cells[2:]:
                assert re.fullmatch(r"-?\d+\.\d{3}", cell), cell

    def test_curve_is_two_column_csv(self, dataset, tmp_path):
        matrix, labels = dataset
        out = tmp_path / "out"
        cli.main(
            [
                "analyze",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--pcs", "2",
                "--out-dir", str(out),
            ]
        )
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "fraction,intra_share"
        assert len(lines) == 101
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert 0.0 <= float(last[1]) <= 1.0

    def test_unlabeled_run_reports_overall_stats(self, dataset, tmp_path):
        matrix, _ = dataset
        out = tmp_path / "out"
        code = cli.main(
            ["analyze", "--matrix", str(matrix), "--pcs", "2", "--out-dir", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["overall"]["pre_avg"] > doc["overall"]["post_avg"]
        assert "clusters" not in doc

    def test_sampled_pairs_subset_of_exact(self, dataset, tmp_path):
        matrix, labels = dataset
        outs = {}
        for name, extra in (("exact", []), ("sampled", ["--sample-pairs", "50"])):
            out = tmp_path / name
            code = cli.main(
                [
                    "analyze",
                    "--matrix", str(matrix),
                    "--labels", str(labels),
                    "--pcs", "2",
                    "--out-dir", str(out),
                ]
                + extra
            )
            assert code == 0
            outs[name] = json.loads((out / "analysis.json").read_text())
        assert outs["exact"]["pair_count"] == 24 * 23 // 2
        assert outs["sampled"]["pair_count"] == 50
        assert outs["exact"]["svd_driver"] == "dense"


class TestRoundTripOracle:
    def test_simulated_files_reproduce_in_memory_summary(self, dataset, tmp_path):
        import scipy.sparse as sp

        from pcacompress.linalg import DataMatrix, SvdOptions, fit_uncentered_pca
        from pcacompress.metrics import cluster_summary, pair_compression
        from pcacompress.models import RandomVectorModel, generate_dataset

        matrix, labels = dataset
        out = tmp_path / "out"
        code = cli.main(
            [
                "analyze",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--pcs", "3",
                "--seed", "0",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        from_files = json.loads((out / "analysis.json").read_text())

        # The mtx loads back as CSC; use the same container here so the
        # arithmetic is bit-for-bit comparable (values round-trip exactly,
        # but dense and sparse matmuls sum in different orders).
        dense = generate_dataset(RandomVectorModel.from_dict(MODEL), seed=11)
        A = DataMatrix(sp.csc_array(dense.values), labels=dense.labels)
        P = fit_uncentered_pca(A, 3, SvdOptions(seed=0))
        summary = cluster_summary(pair_compression(A, P))
        for row in summary.rows:
            got = from_files["clusters"][row.cluster]
            assert got["size"] == row.size
            assert got["intra"]["pre_avg"] == row.intra.pre_avg
            assert got["intra"]["post_avg"] == row.intra.post_avg
            assert got["intra"]["ratio_avg"] == row.intra.ratio_avg
            assert got["inter"]["pre_avg"] == row.inter.pre_avg
            assert got["inter"]["ratio_avg"] == row.inter.ratio_avg


class TestOtherCommands:
    def test_verify_bounds_reports_records(self, model_path, tmp_path):
        out = tmp_path / "vb"
        code = cli.main(
            [
                "verify-bounds",
                "--model", str(model_path),
                "--seeds", "2",
                "--c0", "2.0",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "bounds.json").read_text())
        names = {record["bound"] for record in doc["records"]}
        assert "pre-inter-upper" in names
        assert "noise-norm" in names
        assert doc["trials"] == 2

    def test_compare_centering_reports_cosine_and_deltas(self, dataset, tmp_path):
        matrix, labels = dataset
        out = tmp_path / "cen"
        code = cli.main(
            [
                "compare-centering",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--pcs", "2",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "centering.json").read_text())
        assert 0.0 <= doc["cosine"] <= 1.0
        assert "intra.ratio_avg" in doc["ratio_deltas"]["0"]

    def test_cluster_compare_emits_all_arms(self, dataset, tmp_path):
        matrix, labels = dataset
        out = tmp_path / "cc"
        code = cli.main(
            [
                "cluster-compare",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--runs", "2",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert set(doc["arms"]) == {"kmeans-raw", "kmeans-pca", "graph-pca"}
        assert len(doc["arms"]["kmeans-raw"]) == 2

    def test_sweep_pcs_covers_grid_in_order(self, dataset, tmp_path):
        matrix, labels = dataset
        out = tmp_path / "sw"
        code = cli.main(
            [
                "sweep-pcs",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--grid", "5,2",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert [r["pcs"] for r in doc["grid"]] == [2, 5]
        for r in doc["grid"]:
            assert r["gap"] == r["intra_ratio_avg"] / r["inter_ratio_avg"]

    def test_sweep_pcs_bad_grid_is_input_error(self, dataset, tmp_path):
        matrix, labels = dataset
        code = cli.main(
            [
                "sweep-pcs",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--grid", "2,five",
                "--out-dir", str(tmp_path / "sw"),
            ]
        )
        assert code == 2

    def test_calibrate_prints_and_writes_same_value(self, model_path, tmp_path, capsys):
        out = tmp_path / "cal"
        code = cli.main(
            ["calibrate-c0", "--model", str(model_path), "--seeds", "4", "--out-dir", str(out)]
        )
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        doc = json.loads((out / "c0.json").read_text())
        assert printed == doc["c0"]
        assert len(doc["ratios"]) == 4
        np.testing.assert_array_less(doc["ratios"], doc["c0"])
