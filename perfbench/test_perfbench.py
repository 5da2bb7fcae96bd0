"""Self-tests of the benchmark: the small mode end to end, and every check against perturbed output.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_mode_runs_and_checks(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--size", "small"))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sbm-compress", "sparse-cluster"])
def test_traced_small_mode_reports_every_layer(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--size", "small"))
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    for name in ("io.load_matrix_s", "linalg.fit_s", "metrics.pair_compression_s",
                 "metrics.pair_compression_peak_mb", "io.write_matrix_s", "cli.other_s"):
        assert metrics[name] > 0, name
    if workload == "sparse-cluster":
        for name in ("cluster.kmeans_raw_s", "cluster.kmeans_pca_s", "cluster.knn_graph_s",
                     "cluster.community_detect_s", "io.log_normalize_s"):
            assert metrics[name] > 0, name
    else:
        assert metrics["cluster.kmeans_raw_s"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sbm-compress", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# ------------------------------------------------- checks against perturbed output


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Small-size outputs of every workload, with their references."""
    out = {}
    for name, cls in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        (work / "logs").mkdir()
        workload = cls("small")
        workload.write_inputs(work, 0)
        runner, tally = run.Runner(ROOT, work), run.Tally()
        _, _, ref = run.set_up(workload, runner, tally, 1)
        for args in workload.measured_commands(work):
            assert runner.run(args)[0] == 0
        assert tally.failed == 0
        assert all(not problems for _, problems in workload.check_outputs(work, ref))
        out[name] = (work, ref)
    return out


def _load(work, name):
    path = work / name
    if name.endswith(".csv"):
        return checks.read_curve(path)
    return json.loads(path.read_text())


def _scale(path, factor):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] *= factor
    return mutate


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _add(path, delta):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
    return mutate


ANALYSIS = "out/analyze/analysis.json"
PERTURBATIONS = {
    "singular value off by 1e-7": (
        "sbm-compress", ANALYSIS, checks.check_singular_values,
        _scale(["singular_values", 2], 1 + 1e-7)),
    "wrong intra pair count": (
        "sbm-compress", ANALYSIS, checks.check_pair_counts,
        _add(["clusters", 1, "intra", "pair_count"], 1)),
    "wrong inter pair count": (
        "sparse-cluster", ANALYSIS, checks.check_pair_counts,
        _add(["clusters", 3, "inter", "pair_count"], -1)),
    "curve end off by 1e-9": (
        "sbm-compress", "out/analyze/curve.csv", checks.check_curve_end, _add([1.0], 1e-9)),
    "intra ratio_avg nudged 1%": (
        "sbm-compress", ANALYSIS, checks.check_sampled_means,
        _scale(["clusters", 0, "intra", "ratio_avg"], 1.01)),
    "inter post_avg nudged 1%": (
        "sparse-cluster", ANALYSIS, checks.check_sampled_means,
        _scale(["clusters", 2, "inter", "post_avg"], 1.01)),
    "pre_avg nudged 1%": (
        "sbm-compress", ANALYSIS, checks.check_sampled_means,
        _scale(["clusters", 3, "inter", "pre_avg"], 0.99)),
    "intra ratio below inter": (
        "sbm-compress", ANALYSIS, lambda doc, ref: checks.check_intra_above_inter(doc),
        _set(["clusters", 2, "intra", "ratio_avg"], 1.0)),
    "c0 ratio off by 1e-6": (
        "bounds-verify", "out/c0/c0.json", checks.check_c0, _add(["ratios", 0], 1e-6)),
    "a bound violation": (
        "bounds-verify", "out/bounds/bounds.json", lambda doc, ref: checks.check_bound_report(doc),
        _set(["records", 2, "violations"], 1)),
    "a vacuous ratio bound": (
        "bounds-verify", "out/bounds/bounds.json", lambda doc, ref: checks.check_bound_report(doc),
        _set(["records", 2, "vacuous"], True)),
    "s_k off by 1e-8": (
        "bounds-verify", "out/bounds/bounds.json", checks.check_s_k,
        _scale(["s_k_analytic"], 1 + 1e-8)),
    "ARI out of range": (
        "sparse-cluster", "out/cluster/comparison.json",
        lambda doc, ref: checks.check_scores(doc, 2),
        _set(["arms", "kmeans-pca", 0, "ari"], 1.5)),
    "raw k-means as good as PCA": (
        "sparse-cluster", "out/cluster/comparison.json",
        lambda doc, ref: checks.check_pca_beats_raw(doc),
        _set(["medians", "kmeans-raw", "ari"], 1.0)),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_check_rejects_perturbed_output(produced, case):
    workload, name, check, mutate = PERTURBATIONS[case]
    work, ref = produced[workload]
    doc = _load(work, name)
    assert check(doc, ref) == []
    bad = copy.deepcopy(doc)
    mutate(bad)
    assert check(bad, ref), case


@pytest.mark.parametrize("mutate", [
    _scale(["grid", 1, "intra_ratio_avg"], 1 + 1e-8),
    _scale(["grid", 1, "inter_ratio_avg"], 1 - 1e-8),
    _set(["grid", 1, "gap"], 1e9),
], ids=["intra-mean", "inter-mean", "gap-rises"])
def test_sweep_check_rejects_perturbed_output(produced, mutate):
    work, _ = produced["sbm-compress"]
    analysis = _load(work, ANALYSIS)
    sweep = _load(work, "out/sweep/sweep.json")
    assert checks.check_sweep(sweep, analysis) == []
    mutate(sweep)
    assert checks.check_sweep(sweep, analysis)
