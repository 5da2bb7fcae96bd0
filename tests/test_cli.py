"""Command-line behavior: exit codes, manifests, file layouts, round trips."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture
def expand(dataset, model_path, tmp_path):
    """Replace the path placeholders in an argument list."""
    matrix, labels = dataset
    paths = {
        "{matrix}": [str(matrix)],
        "{absent}": [str(tmp_path / "absent.mtx")],
        "{model}": [str(model_path)],
        "{ingest}": ["--matrix", str(matrix), "--labels", str(labels)],
    }
    return lambda argv: [arg for token in argv for arg in paths.get(token, [token])]


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

    def test_zero_clusters_names_the_flag(self, dataset, tmp_path, capsys):
        matrix, labels = dataset
        code = cli.main(
            [
                "cluster-compare",
                "--matrix", str(matrix),
                "--labels", str(labels),
                "--clusters", "0",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "--clusters must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-pcs", "--matrix", "{matrix}", "--grid", "2"], "sweep-pcs requires --labels"),
            (["sweep-pcs", "{ingest}", "--grid", "0,3"], "--grid values must be positive"),
            (["cluster-compare", "--matrix", "{matrix}"], "cluster-compare requires --labels"),
            # --runs is checked before the matrix is read
            (["cluster-compare", "--matrix", "{absent}", "--runs", "0"],
             "--runs must be at least 1"),
            (["cluster-compare", "{ingest}", "--neighbors", "0"],
             "--neighbors must be at least 1 and below n=24, got 0"),
            (["cluster-compare", "{ingest}", "--neighbors", "24"],
             "--neighbors must be at least 1 and below n=24, got 24"),
            (["cluster-compare", "{ingest}", "--clusters", "25"],
             "--clusters must be at most n=24, got 25"),
        ],
        ids=["sweep-unlabeled", "sweep-zero-grid", "cluster-unlabeled", "runs-zero",
             "neighbors-zero", "neighbors-n", "clusters-above-n"],
    )
    def test_unusable_run_exits_two_before_the_fit(self, argv, message, expand, tmp_path,
                                                   monkeypatch, capsys):
        from pcacompress import cluster, metrics

        def fit(*args, **kwargs):
            raise AssertionError("reached the fit")

        monkeypatch.setattr(cluster, "pipeline_compare", fit)
        monkeypatch.setattr(metrics, "pcs_sweep", fit)
        assert cli.main([*expand(argv), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "{model}", "--pcs", "3"],
            ["simulate", "--model", "{model}", "--format", "tsv"],
            ["sweep-pcs", "{ingest}", "--grid", "2", "--pcs", "3"],
            ["calibrate-c0", "--model", "{model}", "--pcs", "3"],
        ],
        ids=["simulate-pcs", "simulate-format", "sweep-pcs-pcs", "calibrate-c0-pcs"],
    )
    def test_option_the_command_does_not_read_is_rejected(self, argv, expand, tmp_path, capsys):
        argv = expand(argv)
        with pytest.raises(SystemExit) as info:
            cli.main([argv[0], "--out-dir", str(tmp_path), *argv[1:]])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

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
            ({"centers": [[0.5, float("nan")]], "sizes": [2],
              "noise": [{"family": "bernoulli-residual"}]},
             "center entries must lie in [0, 1]"),
            ({"centers": [[0.5]], "sizes": [2],
              "noise": [{"family": "truncated-gaussian", "scale": float("nan")}]},
             "noise scale must be finite and nonnegative"),
            ({"centers": [[0.5]], "sizes": [2],
              "noise": [{"family": "truncated-gaussian", "scale": float("inf")}]},
             "noise scale must be finite and nonnegative"),
        ],
    )
    def test_malformed_model_document(self, doc, message, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["simulate", "--model", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-dir-is-a-file"])
    def test_unusable_path_is_input_error(self, case, model_path, tmp_path, capsys):
        model, out = model_path, tmp_path / "out"
        if case == "missing":
            model = tmp_path / "absent.json"
        elif case == "directory":
            model = tmp_path
        elif case == "not-utf8":
            model = tmp_path / "latin1.json"
            model.write_bytes(json.dumps(MODEL).encode() + b" \xff")
        else:
            out.write_text("")
        code = cli.main(["simulate", "--model", str(model), "--out-dir", str(out)])
        assert code == 2
        assert str(out if case == "out-dir-is-a-file" else model) in capsys.readouterr().err

    @pytest.mark.parametrize("c0", ["nan", "inf", "0"])
    def test_unusable_c0_is_input_error(self, c0, model_path, tmp_path, capsys):
        # NaN bounds are neither vacuous nor violated, so they would read as passing
        out = tmp_path / "out"
        code = cli.main(
            ["verify-bounds", "--model", str(model_path), "--seeds", "1", "--c0", c0,
             "--out-dir", str(out)]
        )
        assert code == 2
        assert "need a finite C0 > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("prefix", ["a/b", "/abs", ".", ""])
    def test_prefix_must_be_a_file_name(self, prefix, model_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--model", str(model_path), "--prefix", prefix, "--out-dir", str(out)]
        )
        assert code == 2
        assert "--prefix must be a plain file name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["name-too-long", "path-is-a-directory"])
    def test_unwritable_output_names_its_path(self, case, model_path, tmp_path, capsys):
        out = tmp_path / "out"
        prefix = "x" * 300 if case == "name-too-long" else "dataset"
        if case == "path-is-a-directory":
            (out / "dataset.mtx").mkdir(parents=True)
        code = cli.main(
            ["simulate", "--model", str(model_path), "--prefix", prefix, "--out-dir", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert str(out / f"{prefix}.mtx") in err


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
        analysis = json.loads((out / "analysis.json").read_text())
        assert doc["fit"] == {
            "driver": analysis["svd_driver"],
            "residual": analysis["svd_residual"],
            "gap_warning": analysis["gap_warning"],
        }
        # a tsv run writes a sweep.json identical to the json run's, and the fit
        sweep = tmp_path / "sweep"
        args = ["--matrix", str(matrix), "--labels", str(labels), "--grid", "2,3"]
        assert cli.main(["sweep-pcs", *args, "--format", "tsv", "--out-dir", str(sweep)]) == 0
        json_run = tmp_path / "json"
        assert cli.main(["sweep-pcs", *args, "--out-dir", str(json_run)]) == 0
        assert (sweep / "sweep.json").read_bytes() == (json_run / "sweep.json").read_bytes()
        fit = json.loads((sweep / "manifest.json").read_text())["fit"]
        assert fit == {"driver": "dense", "residual": None, "gap_warning": False}

    def test_records_thread_variables_and_input_digests(self, monkeypatch, dataset, tmp_path):
        matrix, labels = dataset
        for var in cli.THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        out = tmp_path / "out"
        args = ["--matrix", str(matrix), "--labels", str(labels), "--pcs", "2"]
        assert cli.main(["analyze", *args, "--out-dir", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["threads"] == {var: "1" if var == "OMP_NUM_THREADS" else None
                                  for var in cli.THREAD_VARS}
        assert doc["input_sha256"] == {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in (("matrix", matrix), ("labels", labels))
        }

    def test_every_subcommand_writes_one(self, model_path, tmp_path):
        out = tmp_path / "cal"
        code = cli.main(
            ["calibrate-c0", "--model", str(model_path), "--seeds", "3", "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "c0.json").exists()


INGEST = ["--matrix", "--matrix-format", "--labels", "--normalize", "--transpose"]
COMMON = ["-h", "--help", "--seed", "--threads", "--out-dir"]


class TestReportWriter:
    """Every run writes its JSON report; ``--format tsv`` adds its tables beside it."""

    # each case: argv, the JSON report and a field it must hold, and the
    # sha256 of every table on the fixture dataset, which pins the table bytes
    CASES = {
        "analyze": (
            ["analyze", "{ingest}", "--pcs", "2"], "analysis.json", "clusters",
            {"compression.tsv": "d12912d7f895ec185751c3c5dfa9c0f59f8aef784eb56a5dfaede8fda4a9060b",
             "points.tsv": "b6286d65c958a6112b6b92890fb26d3e117dfbdc00028cc83e9b2c6c8a3fd3ac"},
        ),
        "analyze-unlabeled": (
            ["analyze", "--matrix", "{matrix}", "--pcs", "2"], "analysis.json", "overall", {},
        ),
        "compare-centering": (
            ["compare-centering", "{ingest}", "--pcs", "2"], "centering.json", "cosine",
            {"centering.tsv": "f591caaa4bcd353dbec695d6ff83efef4ed11ee362db9ef1fe9c988401823659"},
        ),
        # its table would have no rows, so it is not written
        "compare-centering-unlabeled": (
            ["compare-centering", "--matrix", "{matrix}", "--pcs", "2"], "centering.json", "cosine", {},
        ),
        "cluster-compare": (
            ["cluster-compare", "{ingest}", "--runs", "2"], "comparison.json", "medians",
            {"comparison.tsv": "904fe0d7e3abc3b08afaac44f8728c08b43a62af577108e3a41c00bbfdff1178"},
        ),
        "sweep-pcs": (
            ["sweep-pcs", "{ingest}", "--grid", "2,3"], "sweep.json", "pair_count",
            {"sweep.tsv": "8059a222bccbd7c6395ed02710195b3dec3c00147148b173db6f9a8591007eb2"},
        ),
        "verify-bounds": (
            ["verify-bounds", "--model", "{model}", "--seeds", "2", "--c0", "2.0"], "bounds.json",
            "noise_norm_sources",
            {"bounds.tsv": "55bb825d60f6aed46b6d39311dc63f2c707945055d1176b4db091ea8584a8e68"},
        ),
        "calibrate-c0": (
            ["calibrate-c0", "--model", "{model}", "--seeds", "3"], "c0.json", "ratios",
            {"c0.tsv": "39b399a2897bbca0b273ca73457da049b4ee6cc89611b4e76d1eae9bf266c22d"},
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_tsv_run_writes_the_json_report_and_its_tables(self, case, expand, tmp_path):
        argv, report, field, tables = self.CASES[case]
        for fmt in ("json", "tsv"):
            assert cli.main([*expand(argv), "--format", fmt, "--out-dir", str(tmp_path / fmt)]) == 0
        json_run, tsv_run = tmp_path / "json", tmp_path / "tsv"
        assert (tsv_run / report).read_bytes() == (json_run / report).read_bytes()
        assert field in json.loads((tsv_run / report).read_text())
        written = {path.name for path in tsv_run.iterdir()} - {"manifest.json", "curve.csv"}
        assert written == {report, *tables}
        assert {name: hashlib.sha256((tsv_run / name).read_bytes()).hexdigest()
                for name in tables} == tables
        assert not list(json_run.glob("*.tsv"))

    def test_each_subcommand_accepts_only_the_options_it_reads(self):
        report = COMMON + ["--format"]
        expected = {
            "analyze": report + INGEST + ["--pcs", "--centered", "--sample-pairs"],
            "simulate": COMMON + ["--model", "--prefix"],
            "verify-bounds": report + ["--model", "--pcs", "--c0", "--seeds", "--empirical-sk"],
            "compare-centering": report + INGEST + ["--pcs"],
            "cluster-compare": report + INGEST + ["--pcs", "--clusters", "--neighbors", "--runs"],
            "sweep-pcs": report + INGEST + ["--grid", "--sample-pairs"],
            "calibrate-c0": report + ["--model", "--seeds"],
        }
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {
            name: sorted(option for action in command._actions for option in action.option_strings)
            for name, command in sub.choices.items()
        }
        assert accepted == {name: sorted(options) for name, options in expected.items()}


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
        assert doc["pair_count"] == 24 * 23 // 2
        assert doc["pair_policy"] == "exact"

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
        assert outs["exact"]["svd_residual"] is None
        assert outs["exact"]["pair_policy"] == "exact"
        assert outs["sampled"]["pair_policy"] == {"sampled": 50, "seed": 0}
        # sampled pairs are all direct differences: none is a recompute
        assert outs["exact"]["recomputed_pairs"] == 0
        assert outs["sampled"]["recomputed_pairs"] == 0

    def test_recomputed_pairs_counts_gram_cancellation(self, tmp_path):
        # columns 0-3 sit at offset 1000 with spread 1e-6, columns 4-9 in
        # [0, 1]; the mean column lies some 400 from either group, so the
        # centered Gram identity cancels for the 6 + 15 pairs inside a group
        # and only the 24 cross pairs keep it
        rng = np.random.default_rng(2)
        X = np.hstack([1000.0 + 1e-6 * rng.standard_normal((5, 4)), rng.uniform(size=(5, 6))])
        matrix = tmp_path / "offset.csv"
        np.savetxt(matrix, X, delimiter=",")
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{'ab'[c >= 4]}\n" for c in range(10)))
        out = tmp_path / "out"
        args = ["--matrix", str(matrix), "--labels", str(labels), "--out-dir", str(out)]
        assert cli.main(["analyze", *args, "--pcs", "2"]) == 0
        assert cli.main(["sweep-pcs", *args, "--grid", "1,2"]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        sweep = json.loads((out / "sweep.json").read_text())
        for doc in (analysis, sweep):
            assert doc["pair_policy"] == "exact"
            assert doc["pair_count"] == 45
            assert doc["recomputed_pairs"] == 21

    @pytest.mark.parametrize(
        "name, centered",
        [("zeros.mtx", False), ("zeros.csv", False), ("ones.csv", True)],
        ids=["zero-sparse", "zero-dense", "identical-columns-centered"],
    )
    def test_zero_operator_past_dense_cutoff_exits_zero(self, tmp_path, name, centered, monkeypatch):
        # a 600 x 700 input takes the Gram fit, or Lanczos past a lowered
        # Gram cutoff, whose operator is zero here
        from pcacompress import linalg

        matrix = tmp_path / name
        if name.endswith(".mtx"):
            matrix.write_text("%%MatrixMarket matrix coordinate real general\n600 700 0\n")
        else:
            np.savetxt(matrix, np.full((600, 700), float(name == "ones.csv")), fmt="%g", delimiter=",")
        out = tmp_path / "out"
        args = ["analyze", "--matrix", str(matrix), "--pcs", "3", "--out-dir", str(out)]
        for driver in ("gram", "lanczos"):
            if driver == "lanczos":
                monkeypatch.setattr(linalg, "_GRAM_CUTOFF", 500)
            assert cli.main(args + ["--centered"] * centered) == 0
            doc = json.loads((out / "analysis.json").read_text())
            assert doc["svd_driver"] == driver and doc["gap_warning"]
            assert doc["svd_residual"] == (0.0 if driver == "gram" else None)
            assert doc["singular_values"] == [0.0, 0.0, 0.0]
            assert doc["pair_count"] == 700 * 699 // 2 == 244650
            assert doc["overall"]["excluded"] == doc["pair_count"]


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_lanczos_fit_at_range_ends_exits_zero(self, tmp_path, scale, monkeypatch):
        # a 600 x 700 input takes the Gram fit, or Lanczos past a lowered
        # Gram cutoff, and A^T A leaves float64 here
        from pcacompress import linalg
        from pcacompress.linalg import DataMatrix, fit_uncentered_pca

        X = np.random.default_rng(3).standard_normal((600, 700))
        matrix = tmp_path / "scaled.csv"
        np.savetxt(matrix, scale * X, fmt="%.17g", delimiter=",")
        out = tmp_path / "out"
        for driver in ("gram", "lanczos"):
            if driver == "lanczos":
                monkeypatch.setattr(linalg, "_GRAM_CUTOFF", 500)
            assert cli.main(["analyze", "--matrix", str(matrix), "--pcs", "5", "--out-dir", str(out)]) == 0
            doc = json.loads((out / "analysis.json").read_text())
            assert doc["svd_driver"] == driver and doc["overall"]["excluded"] == 0
            want = fit_uncentered_pca(DataMatrix(X), 5).singular_values
            np.testing.assert_allclose(doc["singular_values"], scale * want, rtol=1e-12)


class TestRangeEnds:
    """Unit, 1e200 and 1e-300 copies of one labeled input give the same results."""

    SCALES = ("1", "1e200", "1e-300")

    def copies(self, tmp_path, d):
        # three clusters of 70 points, close enough that no arm scores 1
        rng = np.random.default_rng(4)
        labels = np.arange(70) % 3
        X = 0.45 * rng.standard_normal((d, 3))[:, labels] + rng.standard_normal((d, 70))
        label_path = tmp_path / "labels.txt"
        label_path.write_text("".join(f"c{c}\n" for c in labels))
        for scale in self.SCALES:
            np.savetxt(tmp_path / f"m{scale}.csv", float(scale) * X, fmt="%.17g", delimiter=",")
        return label_path

    def run(self, tmp_path, command, out_file, d):
        labels = self.copies(tmp_path, d)
        docs = []
        for scale in self.SCALES:
            out = tmp_path / f"out{scale}"
            args = ["--matrix", str(tmp_path / f"m{scale}.csv"), "--labels", str(labels)]
            assert cli.main([command, *args, "--pcs", "3", "--out-dir", str(out)]) == 0
            docs.append(json.loads((out / out_file).read_text()))
        return docs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [60, 80], ids=["raw-point-form", "raw-gram-form"])
    def test_cluster_compare_arms_match(self, tmp_path, d):
        unit, big, small = self.run(tmp_path, "cluster-compare", "comparison.json", d)
        assert unit["medians"]["kmeans-raw"]["ari"] < 1.0
        assert big["arms"] == unit["arms"] and small["arms"] == unit["arms"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_centering_cosine_matches(self, tmp_path):
        unit, big, small = self.run(tmp_path, "compare-centering", "centering.json", 60)
        np.testing.assert_allclose(big["cosine"], unit["cosine"], rtol=1e-12)
        np.testing.assert_allclose(small["cosine"], unit["cosine"], rtol=1e-12)


class TestMemory:
    def test_verify_bounds_holds_a_bernoulli_draw_as_bits(self, tmp_path):
        # the 40000 x 600 draw takes 192 MB as float64 and 24 MB as bits
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"sbm": {"d": 40000, "sizes": [300, 300], "p": 0.66, "q": 0.34}}))
        # a child's peak counts its parent's resident set at the fork, so the
        # command is started from a small launcher, not from this process
        launcher = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(child.pid, 0)\n"
            "print(status, usage.ru_maxrss / 1024.0)"  # KiB on Linux
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-m", "pcacompress.cli",
             "verify-bounds", "--model", str(model), "--seeds", "1", "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        status, peak_mb = done.stdout.split()
        assert int(status) == 0
        assert float(peak_mb) < 170.0


class TestLazyImports:
    def test_no_optimize_or_special_on_import(self):
        script = (
            "import sys, pcacompress.cluster, pcacompress.models, pcacompress.bounds\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestOneBlas:
    """The matrix commands load neither scipy.linalg nor the scipy modules that import it."""

    PROBE = (
        "import sys\n"
        "from pcacompress.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg', "
        "'scipy.sparse.csgraph') if m in sys.modules))\n"
    )

    def run(self, *args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, *map(str, args), "--threads", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    @pytest.mark.parametrize(
        "model, driver",
        [(MODEL, "dense"), ({"sbm": {"d": 520, "sizes": [140] * 4, "p": 0.7, "q": 0.3}}, "gram")],
        ids=["dense-driver", "gram-fit"],
    )
    def test_matrix_commands_load_no_scipy_linalg(self, tmp_path, model, driver):
        from pcacompress import linalg

        # the second model's min(d, n) = 520 lies between the two cutoffs
        shape = (model["sbm"]["d"], sum(model["sbm"]["sizes"]))
        assert (driver == "gram") == (linalg._DENSE_CUTOFF < min(shape) <= linalg._GRAM_CUTOFF)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        data = tmp_path / "data"
        assert self.run("simulate", "--model", path, "--out-dir", data) == "0 []"
        ingest = ["--matrix", data / "dataset.mtx", "--labels", data / "dataset.labels.txt"]
        commands = {
            "analyze": ["--pcs", 5],
            "sweep-pcs": ["--grid", "2,5"],
            "compare-centering": ["--pcs", 5],
            "cluster-compare": ["--runs", 1],
        }
        for command, options in commands.items():
            out = tmp_path / command
            assert self.run(command, *ingest, *options, "--out-dir", out) == "0 []", command
        assert json.loads((tmp_path / "analyze" / "analysis.json").read_text())["svd_driver"] == driver


class TestRoundTripOracle:
    def test_simulated_files_reproduce_in_memory_summary(self, dataset, tmp_path):
        import scipy.sparse as sp

        from pcacompress.linalg import DataMatrix, fit_uncentered_pca
        from pcacompress.metrics import ClusterPairTable, cluster_summary, pair_compression
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
        P = fit_uncentered_pca(A, 3, seed=0)
        table = ClusterPairTable(A.labels)
        pair_compression(A, P, (table,))
        summary = cluster_summary(table)
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
        assert doc["fit_drivers"] == ["dense", "dense"]
        assert doc["fit_residuals"] == [None, None]

    def test_seed_offsets_bound_and_calibration_draws(self, model_path, tmp_path):
        from pcacompress.bounds import calibrate_c0, verify_bounds
        from pcacompress.models import load_model

        model = load_model(str(model_path))
        docs = {}
        for seed in ("0", "5"):
            out = tmp_path / seed
            common = ["--model", str(model_path), "--seeds", "2", "--seed", seed]
            assert cli.main(["verify-bounds", *common, "--out-dir", str(out)]) == 0
            assert cli.main(["calibrate-c0", *common, "--out-dir", str(out)]) == 0
            assert cli.main(["calibrate-c0", *common, "--format", "tsv", "--out-dir", str(out)]) == 0
            docs[seed] = [json.loads((out / name).read_text()) for name in ("bounds.json", "c0.json")]
        assert docs["0"] != docs["5"]
        bounds_doc, c0_doc = docs["5"]
        assert bounds_doc == json.loads(json.dumps(verify_bounds(model, seeds=[5, 6]).to_dict()))
        assert c0_doc["ratios"] == calibrate_c0(model, seeds=[5, 6]).ratios.tolist()
        rows = (tmp_path / "5" / "c0.tsv").read_text().splitlines()
        assert [row.split("\t")[0] for row in rows] == ["seed", "5", "6", "c0"]

    @pytest.mark.parametrize("command", ["verify-bounds", "calibrate-c0"])
    def test_zero_seeds_is_input_error(self, command, model_path, tmp_path, capsys):
        args = [command, "--model", str(model_path), "--seeds", "0", "--out-dir", str(tmp_path)]
        assert cli.main(args) == 2
        assert "need at least one seed" in capsys.readouterr().err

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
        assert doc["pair_policy"] == "exact"
        assert doc["pair_count"] == 24 * 23 // 2
        assert doc["recomputed_pairs"] == 0
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


class TestReadmeRoundTrip:
    def test_typical_round_trip_runs_as_written(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"A typical round trip:\n\n```\n(.*?)```", readme, flags=re.S).group(1)
        model, script = re.fullmatch(
            r"cat > model\.json <<'EOF'\n(.*?)EOF\n(.*)", block, flags=re.S
        ).groups()
        commands = [shlex.split(line) for line in script.replace("\\\n", " ").splitlines()]
        assert [c[:2] for c in commands] == [
            ["pcacompress", "simulate"],
            ["pcacompress", "analyze"],
        ]
        monkeypatch.chdir(tmp_path)
        Path("model.json").write_text(model, encoding="utf-8")
        for command in commands:
            assert cli.main(command[1:]) == 0, command
        # one header line, then one row per cluster and one per curve point
        assert len(Path("results/compression.tsv").read_text().splitlines()) == 1 + 4
        assert len(Path("results/curve.csv").read_text().splitlines()) == 1 + 100
