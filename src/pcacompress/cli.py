"""Command-line surface.

Heavy imports (numpy, scipy, the numerical submodules) happen inside the
command handlers, after ``--threads`` has pinned the BLAS pool sizes via
environment variables. That only works when this process has not
imported numpy yet, which is true for the console entry point.

Every run writes ``manifest.json`` into the output directory recording
the command, its inputs, the seed, the normalization applied, and
library versions. Exit codes: 0 success, 2 bad input, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import InputError, NumericalError

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def set_thread_count(threads: int) -> None:
    if threads < 1:
        raise InputError(f"--threads must be at least 1, got {threads}")
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--pcs", type=int, default=None, help="number of components k'")
    common.add_argument("--threads", type=int, default=None, help="BLAS thread count")
    common.add_argument("--out-dir", default=".", help="directory for all outputs")
    common.add_argument("--format", choices=("json", "tsv"), default="json")

    ingest = argparse.ArgumentParser(add_help=False)
    ingest.add_argument("--matrix", required=True, help="matrix file (.mtx/.csv, optionally .gz)")
    ingest.add_argument(
        "--matrix-format", choices=("auto", "matrix-market", "csv"), default="auto"
    )
    ingest.add_argument("--labels", default=None, help="labels file")
    ingest.add_argument("--normalize", choices=("none", "log1p"), default="none")
    ingest.add_argument(
        "--transpose", action="store_true", help="input has samples as rows"
    )

    parser = argparse.ArgumentParser(
        prog="pcacompress",
        description="Relative compression of truncated PCA on clustered data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze",
        parents=[common, ingest],
        help="per-cluster compression tables, point summaries, and the curve",
    )
    p.add_argument("--centered", action="store_true", help="subtract the mean before the fit")
    p.add_argument(
        "--sample-pairs",
        type=int,
        default=None,
        help="sample this many pairs instead of enumerating all",
    )

    p = sub.add_parser("simulate", parents=[common], help="draw a dataset from a model file")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--prefix", default="dataset", help="basename for the emitted files")

    p = sub.add_parser(
        "verify-bounds",
        parents=[common],
        help="Monte-Carlo check of every closed-form bound on a model",
    )
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--c0", type=float, default=1.0, help="spectral constant C0")
    p.add_argument("--seeds", type=int, default=5, help="number of datasets to draw")
    p.add_argument(
        "--empirical-sk",
        action="store_true",
        help="use the measured s_k instead of the mean-matrix value",
    )

    sub.add_parser(
        "compare-centering",
        parents=[common, ingest],
        help="uncentered versus centered fit on one dataset",
    )

    p = sub.add_parser(
        "cluster-compare",
        parents=[common, ingest],
        help="k-means on raw data versus PCA versus graph communities",
    )
    p.add_argument("--clusters", type=int, default=None, help="k (default: label count)")
    p.add_argument("--neighbors", type=int, default=20, help="kNN graph degree")
    p.add_argument("--runs", type=int, default=5, help="number of k-means seeds")

    p = sub.add_parser(
        "sweep-pcs",
        parents=[common, ingest],
        help="intra/inter ratio gap across a grid of component counts",
    )
    p.add_argument("--grid", required=True, help="comma-separated k' values, e.g. 4,9,19")
    p.add_argument("--sample-pairs", type=int, default=None)

    p = sub.add_parser(
        "calibrate-c0",
        parents=[common],
        help="smallest C0 whose noise-norm bound holds over sampled seeds",
    )
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--seeds", type=int, default=100)

    return parser


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _write_tsv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_cell(v) for v in row) + "\n")


def _write_curve_csv(path: Path, points) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fraction,intra_share\n")
        for pt in points:
            fh.write(f"{pt.x:g},{pt.y!r}\n")


def write_manifest(args, inputs: dict, extra: dict = None) -> None:
    import numpy
    import scipy

    from . import __version__

    doc = {
        "command": args.command,
        "inputs": inputs,
        "seed": args.seed,
        "pcs": args.pcs,
        "format": args.format,
        "normalization": getattr(args, "normalize", "none"),
        "versions": {
            "pcacompress": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    if extra:
        doc.update(extra)
    _write_json(_out_dir(args) / "manifest.json", doc)


def _ingest(args):
    from .io import IngestSpec, load_matrix

    spec = IngestSpec(
        args.matrix,
        fmt=args.matrix_format,
        labels=args.labels,
        normalization=args.normalize,
        transpose=args.transpose,
    )
    return load_matrix(spec)


def _require_pcs(args) -> int:
    if args.pcs is None:
        raise InputError(f"{args.command} requires --pcs")
    return args.pcs


def _pair_policy(args):
    sample = getattr(args, "sample_pairs", None)
    if sample is None:
        return "exact"
    return ("sampled", sample, args.seed)


def _cluster_name(names, cluster: int) -> str:
    return names[cluster] if cluster < len(names) else f"C{cluster + 1}"


def _summary_doc(summary, names) -> list:
    return [
        {
            "cluster": row.cluster,
            "name": _cluster_name(names, row.cluster),
            "size": row.size,
            "intra": None if row.intra is None else dataclasses.asdict(row.intra),
            "inter": dataclasses.asdict(row.inter),
        }
        for row in summary.rows
    ]


SUMMARY_HEADER = (
    "cluster",
    "size",
    "inter_pre_avg",
    "inter_post_avg",
    "inter_ratio",
    "intra_pre_avg",
    "intra_post_avg",
    "intra_ratio",
)


def _summary_rows(summary, names) -> list:
    averages = ("pre_avg", "post_avg", "ratio_avg")
    return [
        [_cluster_name(names, row.cluster), row.size]
        + [getattr(row.inter, key) for key in averages]
        + [getattr(row.intra, key) if row.intra else None for key in averages]
        for row in summary.rows
    ]


def cmd_analyze(args) -> None:
    from .linalg import SvdOptions, fit_centered_pca, fit_uncentered_pca
    from .metrics import (
        ClusterPairTable,
        cluster_summary,
        intra_fraction_curve,
        pair_compression,
        pointwise_summary,
    )

    kprime = _require_pcs(args)
    A, names = _ingest(args)
    fit = fit_centered_pca if args.centered else fit_uncentered_pca
    P = fit(A, kprime, SvdOptions(seed=args.seed))
    pairs = pair_compression(A, P, _pair_policy(args))
    out = _out_dir(args)

    doc = {
        "pcs": kprime,
        "centered": args.centered,
        "singular_values": P.singular_values.tolist(),
        "gap_warning": P.gap_warning,
        "svd_driver": P.driver,
        "pair_count": len(pairs),
    }
    if A.labels is not None:
        summary = cluster_summary(pairs)
        points = pointwise_summary(pairs)
        curve = intra_fraction_curve(pairs)
        doc["clusters"] = _summary_doc(summary, names)
        doc["points"] = [dataclasses.asdict(p) for p in points]
        _write_curve_csv(out / "curve.csv", curve)
        if args.format == "tsv":
            _write_tsv(out / "compression.tsv", SUMMARY_HEADER, _summary_rows(summary, names))
            _write_tsv(
                out / "points.tsv",
                ("point", "label", "intra_ratio_avg", "inter_ratio_avg"),
                [
                    [p.point, _cluster_name(names, int(A.labels[p.point])), p.intra_avg, p.inter_avg]
                    for p in points
                ],
            )
    else:
        # one cluster holding every point: its single cell is every pair
        overall = ClusterPairTable(pairs, [0] * A.n).group(0)
        keys = ("pre_avg", "post_avg", "ratio_avg", "excluded")
        doc["overall"] = {key: getattr(overall, key) for key in keys}
    if args.format == "json":
        _write_json(out / "analysis.json", doc)
    write_manifest(args, {"matrix": args.matrix, "labels": args.labels})


def cmd_simulate(args) -> None:
    from .io import write_labels, write_matrix
    from .models import generate_dataset, load_model

    model = load_model(args.model)
    A = generate_dataset(model, seed=args.seed)
    out = _out_dir(args)
    matrix_path = out / f"{args.prefix}.mtx"
    labels_path = out / f"{args.prefix}.labels.txt"
    write_matrix(A, matrix_path)
    write_labels(A.labels, labels_path)
    write_manifest(
        args,
        {"model": args.model},
        {"outputs": {"matrix": matrix_path.name, "labels": labels_path.name}},
    )


def cmd_verify_bounds(args) -> None:
    from .bounds import verify_bounds
    from .models import load_model

    model = load_model(args.model)
    report = verify_bounds(
        model,
        seeds=args.seeds,
        kprime=args.pcs,
        C0=args.c0,
        use_empirical_sk=args.empirical_sk,
    )
    out = _out_dir(args)
    if args.format == "json":
        _write_json(out / "bounds.json", report.to_dict())
    else:
        header = ("bound", "clusters", "analytic", "empirical", "violations", "trials", "vacuous")
        rows = []
        for record in report.records:
            doc = dict(record.to_dict(), clusters=",".join(str(c) for c in record.clusters))
            rows.append([doc[key] for key in header])
        _write_tsv(out / "bounds.tsv", header, rows)
    write_manifest(args, {"model": args.model}, {"c0": args.c0, "seeds": args.seeds})


def cmd_compare_centering(args) -> None:
    from .linalg import SvdOptions
    from .metrics import centering_comparison

    kprime = _require_pcs(args)
    A, names = _ingest(args)
    report = centering_comparison(A, kprime, SvdOptions(seed=args.seed))
    out = _out_dir(args)
    doc = {"cosine": report.cosine, "pcs": kprime}
    if report.uncentered is not None:
        doc["uncentered"] = _summary_doc(report.uncentered, names)
        doc["centered"] = _summary_doc(report.centered, names)
        doc["ratio_deltas"] = report.ratio_deltas
    if args.format == "json":
        _write_json(out / "centering.json", doc)
    else:
        rows = []
        if report.uncentered is not None:
            for fit_name, summary in (
                ("uncentered", report.uncentered),
                ("centered", report.centered),
            ):
                for row in _summary_rows(summary, names):
                    rows.append([fit_name] + row)
        _write_tsv(out / "centering.tsv", ("fit",) + SUMMARY_HEADER, rows)
    write_manifest(args, {"matrix": args.matrix, "labels": args.labels})


def cmd_cluster_compare(args) -> None:
    from .cluster import pipeline_compare

    A, names = _ingest(args)
    if A.labels is None:
        raise InputError("cluster-compare requires --labels")
    k = args.clusters if args.clusters is not None else len(names)
    kprime = args.pcs if args.pcs is not None else k
    seeds = [args.seed + t for t in range(args.runs)]
    report = pipeline_compare(A, k, kprime, seeds, neighbors=args.neighbors)
    out = _out_dir(args)
    if args.format == "json":
        _write_json(out / "comparison.json", report.to_dict())
    else:
        rows = [
            [arm, r.seed, r.ari, r.nmi, r.accuracy]
            for arm, results in report.arms.items()
            for r in results
        ]
        rows += [
            [arm, "median", report.median(arm, "ari"), report.median(arm, "nmi"),
             report.median(arm, "accuracy")]
            for arm in report.arms
        ]
        _write_tsv(out / "comparison.tsv", ("arm", "seed", "ari", "nmi", "accuracy"), rows)
    write_manifest(
        args,
        {"matrix": args.matrix, "labels": args.labels},
        {"clusters": k, "neighbors": args.neighbors, "runs": args.runs},
    )


def cmd_sweep_pcs(args) -> None:
    from .linalg import SvdOptions, fit_uncentered_pca
    from .metrics import pcs_sweep

    A, _ = _ingest(args)
    if A.labels is None:
        raise InputError("sweep-pcs requires --labels")
    try:
        grid = sorted({int(tok) for tok in args.grid.split(",")})
    except ValueError:
        raise InputError(f"--grid must be comma-separated integers, got {args.grid!r}")
    if not grid or grid[0] < 1:
        raise InputError("--grid values must be positive")

    full = fit_uncentered_pca(A, grid[-1], SvdOptions(seed=args.seed))
    results = pcs_sweep(A, full, grid, _pair_policy(args))
    out = _out_dir(args)
    if args.format == "json":
        _write_json(out / "sweep.json", {"grid": results})
    else:
        _write_tsv(
            out / "sweep.tsv",
            ("pcs", "intra_ratio_avg", "inter_ratio_avg", "gap"),
            [[r["pcs"], r["intra_ratio_avg"], r["inter_ratio_avg"], r["gap"]] for r in results],
        )
    write_manifest(args, {"matrix": args.matrix, "labels": args.labels}, {"grid": grid})


def cmd_calibrate_c0(args) -> None:
    from .bounds import calibrate_c0
    from .models import load_model

    model = load_model(args.model)
    calibration = calibrate_c0(model, seeds=args.seeds)
    out = _out_dir(args)
    doc = {"c0": calibration.value, "ratios": list(calibration.ratios)}
    if args.format == "json":
        _write_json(out / "c0.json", doc)
    else:
        _write_tsv(
            out / "c0.tsv",
            ("seed", "ratio"),
            [[s, r] for s, r in enumerate(calibration.ratios)] + [["c0", calibration.value]],
        )
    print(f"{calibration.value!r}")
    write_manifest(args, {"model": args.model}, {"seeds": args.seeds})


COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "verify-bounds": cmd_verify_bounds,
    "compare-centering": cmd_compare_centering,
    "cluster-compare": cmd_cluster_compare,
    "sweep-pcs": cmd_sweep_pcs,
    "calibrate-c0": cmd_calibrate_c0,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads is not None:
            set_thread_count(args.threads)
        if args.pcs is not None and args.pcs < 1:
            raise InputError(f"--pcs must be at least 1, got {args.pcs}")
        COMMANDS[args.command](args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
