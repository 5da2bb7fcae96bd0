"""Command-line surface.

Heavy imports (numpy, scipy, the numerical submodules) happen inside the
command handlers, after ``--threads`` has pinned the BLAS pool sizes via
environment variables. That only works when this process has not
imported numpy yet, which is true for the console entry point.

Each handler returns a ``Report`` of every file it writes, and
``write_report`` writes them: the command's own files (``simulate``'s
dataset, ``analyze``'s ``curve.csv``) and the JSON report on every run,
the TSV tables that have rows beside them under ``--format tsv``, then
``manifest.json`` recording the command, its inputs and
their sha256 digests, the seed, the normalization applied, the BLAS
thread variables in effect, library versions, and for a command that
fits (``analyze``, ``sweep-pcs``) the fit's SVD driver, certifying
residual and gap warning. A subcommand accepts only the options it
reads. Exit codes: 0 success, 2 bad input or an output that cannot be
written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
    common.add_argument("--threads", type=int, default=None, help="BLAS thread count")
    common.add_argument("--out-dir", default=".", help="directory for all outputs")

    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument(
        "--format", choices=("json", "tsv"), default="json", help="tsv adds tables beside the JSON"
    )

    ingest = argparse.ArgumentParser(add_help=False, parents=[report])
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
        parents=[ingest],
        help="per-cluster compression tables, point summaries, and the curve",
    )
    p.add_argument("--pcs", type=int, required=True, help="number of components k'")
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
        parents=[report],
        help="Monte-Carlo check of every closed-form bound on a model",
    )
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--pcs", type=int, default=None, help="number of components k' (default: k)")
    p.add_argument("--c0", type=float, default=1.0, help="spectral constant C0")
    p.add_argument("--seeds", type=int, default=5, help="number of datasets to draw")
    p.add_argument(
        "--empirical-sk",
        action="store_true",
        help="use the measured s_k instead of the mean-matrix value",
    )

    p = sub.add_parser(
        "compare-centering",
        parents=[ingest],
        help="uncentered versus centered fit on one dataset",
    )
    p.add_argument("--pcs", type=int, required=True, help="number of components k'")

    p = sub.add_parser(
        "cluster-compare",
        parents=[ingest],
        help="k-means on raw data versus PCA versus graph communities",
    )
    p.add_argument("--pcs", type=int, default=None, help="number of components k' (default: k)")
    p.add_argument("--clusters", type=int, default=None, help="k (default: label count)")
    p.add_argument("--neighbors", type=int, default=20, help="kNN graph degree")
    p.add_argument("--runs", type=int, default=5, help="number of k-means seeds")

    p = sub.add_parser(
        "sweep-pcs",
        parents=[ingest],
        help="intra/inter ratio gap across a grid of component counts",
    )
    p.add_argument("--grid", required=True, help="comma-separated k' values, e.g. 4,9,19")
    p.add_argument("--sample-pairs", type=int, default=None)

    p = sub.add_parser(
        "calibrate-c0",
        parents=[report],
        help="smallest C0 whose noise-norm bound holds over sampled seeds",
    )
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--seeds", type=int, default=100)

    return parser


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InputError(f"cannot use --out-dir {out}: {err}")
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


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclasses.dataclass
class Report:
    """Every file a command writes, handed to :func:`write_report`.

    ``doc`` is the JSON report, written to ``name`` on every run, and
    ``files`` maps a file name to a function that writes it to a path,
    also on every run. ``tables`` maps a file name to a header and rows,
    written beside them under ``--format tsv`` when there are rows.
    ``extra`` adds fields to the manifest.
    """

    name: str = None
    doc: dict = None
    tables: dict = dataclasses.field(default_factory=dict)
    files: dict = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)


def write_report(args, report: Report) -> None:
    """Write a command's files, its JSON report, its tables under ``--format tsv``, then the manifest."""
    import numpy
    import scipy

    from . import __version__

    if hasattr(args, "matrix"):
        inputs = {"matrix": args.matrix, "labels": args.labels}
    else:
        inputs = {"model": args.model}
    out = _out_dir(args)
    for name, write in report.files.items():
        write(out / name)
    if report.doc is not None:
        _write_json(out / report.name, report.doc)
    fmt = getattr(args, "format", None)
    if fmt == "tsv":
        for name, (header, rows) in report.tables.items():
            if rows:
                _write_tsv(out / name, header, rows)
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "input_sha256": {name: _sha256(path) for name, path in inputs.items() if path},
        "seed": args.seed,
        "pcs": getattr(args, "pcs", None),
        "format": fmt,
        "normalization": getattr(args, "normalize", "none"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "versions": {
            "pcacompress": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        **report.extra,
    }
    _write_json(out / "manifest.json", manifest)


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


def _pair_policy(args):
    sample = getattr(args, "sample_pairs", None)
    if sample is None:
        return "exact"
    return ("sampled", sample, args.seed)


def _pair_fields(args, pair_count, recomputed) -> dict:
    """The pair policy and what a pass under it counted, for a report."""
    policy = _pair_policy(args)
    return {
        "pair_policy": policy if policy == "exact" else {"sampled": policy[1], "seed": policy[2]},
        "pair_count": int(pair_count),
        "recomputed_pairs": int(recomputed),
    }


def _fit_record(P) -> dict:
    """The fit's SVD driver, certifying residual and gap warning, for the manifest."""
    return {"driver": P.driver, "residual": P.residual, "gap_warning": P.gap_warning}


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


def cmd_analyze(args) -> Report:
    import numpy as np

    from .linalg import fit_centered_pca, fit_uncentered_pca
    from .metrics import (
        ClusterPairTable,
        CurveHistogram,
        PointSums,
        cluster_summary,
        intra_fraction_curve,
        pair_compression,
        pointwise_summary,
    )

    A, names = _ingest(args)
    fit = fit_centered_pca if args.centered else fit_uncentered_pca
    P = fit(A, args.pcs, args.seed)
    # one pass fills every sink; only the curve's cut bins take a second
    if A.labels is None:
        # one cluster holding every point: its single cell is every pair
        sinks = [ClusterPairTable(np.zeros(A.n, dtype=np.int64))]
    else:
        sinks = [sink(A.labels) for sink in (ClusterPairTable, PointSums, CurveHistogram)]
    pairs = pair_compression(A, P, sinks, _pair_policy(args))
    table = sinks[0]

    doc = {
        "pcs": args.pcs,
        "centered": args.centered,
        "singular_values": P.singular_values.tolist(),
        "gap_warning": P.gap_warning,
        "svd_driver": P.driver,
        "svd_residual": P.residual,
        **_pair_fields(args, table.count.sum(), table.recomputed),
    }
    tables, files = {}, {}
    if A.labels is not None:
        summary = cluster_summary(table)
        points = pointwise_summary(sinks[1])
        curve = intra_fraction_curve(pairs, sinks[2])
        doc["clusters"] = _summary_doc(summary, names)
        doc["points"] = [dataclasses.asdict(p) for p in points]
        files["curve.csv"] = lambda path: _write_curve_csv(path, curve)
        tables["compression.tsv"] = (SUMMARY_HEADER, _summary_rows(summary, names))
        tables["points.tsv"] = (
            ("point", "label", "intra_ratio_avg", "inter_ratio_avg"),
            [
                [p.point, _cluster_name(names, int(A.labels[p.point])), p.intra_avg, p.inter_avg]
                for p in points
            ],
        )
    else:
        overall = table.group(0)
        keys = ("pre_avg", "post_avg", "ratio_avg", "excluded")
        doc["overall"] = {key: getattr(overall, key) for key in keys}
    return Report("analysis.json", doc, tables, files, {"fit": _fit_record(P)})


def cmd_simulate(args) -> Report:
    from .io import write_labels, write_matrix
    from .models import generate_dataset, load_model

    if not args.prefix or Path(args.prefix).name != args.prefix:
        raise InputError(f"--prefix must be a plain file name, got {args.prefix!r}")
    model = load_model(args.model)
    A = generate_dataset(model, seed=args.seed)
    outputs = {"matrix": f"{args.prefix}.mtx", "labels": f"{args.prefix}.labels.txt"}
    files = {
        outputs["matrix"]: lambda path: write_matrix(A, path),
        outputs["labels"]: lambda path: write_labels(A.labels, path),
    }
    return Report(files=files, extra={"outputs": outputs})


def cmd_verify_bounds(args) -> Report:
    from .bounds import verify_bounds
    from .models import load_model

    model = load_model(args.model)
    report = verify_bounds(
        model,
        seeds=range(args.seed, args.seed + args.seeds),
        kprime=args.pcs,
        C0=args.c0,
        use_empirical_sk=args.empirical_sk,
    )
    doc = report.to_dict()
    header = ("bound", "clusters", "analytic", "empirical", "violations", "trials", "vacuous")
    rows = []
    for record in doc["records"]:
        record = dict(record, clusters=",".join(str(c) for c in record["clusters"]))
        rows.append([record[key] for key in header])
    extra = {"c0": args.c0, "seeds": args.seeds}
    return Report("bounds.json", doc, {"bounds.tsv": (header, rows)}, extra=extra)


def cmd_compare_centering(args) -> Report:
    from .metrics import centering_comparison

    A, names = _ingest(args)
    report = centering_comparison(A, args.pcs, args.seed)
    doc = {"cosine": report.cosine, "pcs": args.pcs}
    rows = []
    if report.uncentered is not None:
        doc["uncentered"] = _summary_doc(report.uncentered, names)
        doc["centered"] = _summary_doc(report.centered, names)
        doc["ratio_deltas"] = report.ratio_deltas
        for fit_name, summary in (("uncentered", report.uncentered), ("centered", report.centered)):
            rows += [[fit_name] + row for row in _summary_rows(summary, names)]
    return Report("centering.json", doc, {"centering.tsv": (("fit",) + SUMMARY_HEADER, rows)})


def cmd_cluster_compare(args) -> Report:
    from .cluster import pipeline_compare

    if args.clusters is not None and args.clusters < 1:
        raise InputError("--clusters must be at least 1")
    if args.runs < 1:
        raise InputError("--runs must be at least 1")
    A, names = _ingest(args)
    if A.labels is None:
        raise InputError("cluster-compare requires --labels")
    k = args.clusters if args.clusters is not None else len(names)
    if k > A.n:
        raise InputError(f"--clusters must be at most n={A.n}, got {k}")
    if not 1 <= args.neighbors < A.n:
        raise InputError(f"--neighbors must be at least 1 and below n={A.n}, got {args.neighbors}")
    kprime = args.pcs if args.pcs is not None else k
    seeds = [args.seed + t for t in range(args.runs)]
    report = pipeline_compare(A, k, kprime, seeds, neighbors=args.neighbors)
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
    tables = {"comparison.tsv": (("arm", "seed", "ari", "nmi", "accuracy"), rows)}
    extra = {"clusters": k, "neighbors": args.neighbors, "runs": args.runs}
    return Report("comparison.json", report.to_dict(), tables, extra=extra)


def cmd_sweep_pcs(args) -> Report:
    from .linalg import fit_uncentered_pca
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

    full = fit_uncentered_pca(A, grid[-1], args.seed)
    sweep = pcs_sweep(A, full, grid, _pair_policy(args))
    doc = {"grid": sweep.rows, **_pair_fields(args, sweep.pair_count, sweep.recomputed)}
    header = ("pcs", "intra_ratio_avg", "inter_ratio_avg", "gap")
    tables = {"sweep.tsv": (header, [[r[key] for key in header] for r in sweep.rows])}
    return Report("sweep.json", doc, tables, extra={"grid": grid, "fit": _fit_record(full)})


def cmd_calibrate_c0(args) -> Report:
    from .bounds import calibrate_c0
    from .models import load_model

    model = load_model(args.model)
    seeds = range(args.seed, args.seed + args.seeds)
    calibration = calibrate_c0(model, seeds=seeds)
    print(f"{calibration.value!r}")
    rows = [[s, r] for s, r in zip(seeds, calibration.ratios)] + [["c0", calibration.value]]
    doc = {"c0": calibration.value, "ratios": list(calibration.ratios)}
    return Report("c0.json", doc, {"c0.tsv": (("seed", "ratio"), rows)}, extra={"seeds": args.seeds})


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
        pcs = getattr(args, "pcs", None)
        if pcs is not None and pcs < 1:
            raise InputError(f"--pcs must be at least 1, got {pcs}")
        write_report(args, COMMANDS[args.command](args))
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        # every input is read through a reader that raises InputError, so
        # this is an output that cannot be written
        print(f"error: cannot write {err.filename or 'an output'}: {err.strerror or err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
