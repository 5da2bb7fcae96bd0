"""Benchmark of the pcacompress command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sbm-compress --seed 1 --seconds 20 --trace 0

Each run makes the workload's inputs from ``--seed``, runs the set-up
command several times, then repeats whole rounds of the measured
commands until ``--seconds`` have passed. Every command is a fresh child
process, so its wall time and peak memory are what a user of the command
pays; both come from ``launch.py``, which starts the command and reads
its resource use with ``os.wait4``. Every output is checked against a
computation made apart from the program (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (medians over set-up runs and rounds). With
``--trace 1`` each round instead runs every command of the workload once
untraced and once under ``tracer.py``, and the object holds the
per-layer metrics (medians over rounds). Generated inputs and outputs
live in ``.bench_work/`` under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer  # imports no numpy, so the thread variables below still take effect

# One BLAS thread: the measured commands then need one core each, which
# keeps their times steady on a shared machine, and the same setting
# holds wherever nproc >= 1. Set before numpy loads here, passed to each
# command with the CLI's own --threads, and set by tracer.py before the
# traced command loads numpy.
THREADS = 1
for _var in tracer.THREAD_VARS:
    os.environ[_var] = str(THREADS)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
}

PER_LAYER = {
    "io.load_matrix_s": "s",
    "io.entries_per_s": "1/s",
    "io.load_matrix_peak_mb": "MB",
    "io.log_normalize_s": "s",
    "io.write_matrix_s": "s",
    "models.generate_dataset_s": "s",
    "linalg.fit_s": "s",
    "linalg.fit_cpu_s": "s",
    "linalg.project_columns_s": "s",
    "metrics.pair_compression_s": "s",
    "metrics.pair_compression_cpu_s": "s",
    "metrics.pairs_per_s": "1/s",
    "metrics.pair_compression_peak_mb": "MB",
    "metrics.cluster_summary_s": "s",
    "metrics.pointwise_summary_s": "s",
    "metrics.intra_fraction_curve_s": "s",
    "metrics.intra_fraction_curve_peak_mb": "MB",
    "bounds.noise_norm_check_s": "s",
    "bounds.noise_norm_check_cpu_s": "s",
    "bounds.noise_norm_check_peak_mb": "MB",
    "bounds.verify_bounds_s": "s",
    "bounds.calibrate_c0_s": "s",
    "cluster.kmeans_raw_s": "s",
    "cluster.kmeans_pca_s": "s",
    "cluster.knn_graph_s": "s",
    "cluster.community_detect_s": "s",
    "cli.other_s": "s",
    "io.self_s": "s",
    "models.self_s": "s",
    "linalg.self_s": "s",
    "metrics.self_s": "s",
    "bounds.self_s": "s",
    "cluster.self_s": "s",
    "trace.overhead_s": "s",
}


class Runner:
    """Launches pcacompress commands, through ``launch.py``, from the checkout's source."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.count = 0

    def run(self, args, spans=None):
        """Run one command; returns (exit code, wall seconds, peak RSS in MB, CPU seconds)."""
        args = list(args) + ["--threads", str(THREADS)]
        if spans is None:
            argv = [sys.executable, "-m", "pcacompress.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans),
                    "--threads", str(THREADS), "--", *args]
        self.count += 1
        log = self.work / "logs" / f"{self.count:04d}.txt"
        result = self.work / "logs" / f"{self.count:04d}.json"
        launcher = [sys.executable, str(HERE / "launch.py"), str(result), str(log), *argv]
        subprocess.run(launcher, cwd=self.work, env=self.env, check=True)
        with open(result, encoding="utf-8") as fh:
            usage = json.load(fh)
        if usage["code"] != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"command failed ({usage['code']}): {' '.join(args)}\n{tail}", file=sys.stderr)
        return usage["code"], usage["wall_s"], usage["maxrss_kib"] / MB, usage["cpu_s"]


class Tally:
    """Operations attempted and failed: each command and each output check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def command(self, code):
        self.attempted += 1
        self.failed += code != 0
        return code == 0

    def checks(self, make_results):
        """Count the checks ``make_results()`` returns; unreadable output fails one."""
        try:
            results = make_results()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            results = [("outputs-readable", [f"{type(err).__name__}: {err}"])]
        for name, problems in results:
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"check {name} failed: " + "; ".join(problems[:5]), file=sys.stderr)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def set_up(workload, runner, tally, repeats):
    """Run the set-up command ``repeats`` times; returns (wall list, peak list) and the reference."""
    walls, peaks = [], []
    for _ in range(repeats):
        code, wall, peak, cpu = runner.run(workload.setup_command(runner.work))
        print(f"set-up: wall {wall:.3f} s, cpu {cpu:.3f} s, peak {peak:.1f} MB", file=sys.stderr)
        if tally.command(code):
            walls.append(wall)
            peaks.append(peak)
    if not walls:
        raise RuntimeError("set-up command failed on every attempt")
    ref = workload.reference(runner.work)
    tally.checks(lambda: workload.check_setup(runner.work))
    return walls, peaks, ref


def measure(workload, runner, tally, seconds, repeats):
    setup_walls, setup_peaks, ref = set_up(workload, runner, tally, repeats)
    deadline = time.perf_counter() + seconds
    walls, peaks = [], []
    while not walls or time.perf_counter() < deadline:
        round_wall, round_cpu, round_peak, ok = 0.0, 0.0, 0.0, True
        for args in workload.measured_commands(runner.work):
            code, wall, peak, cpu = runner.run(args)
            ok = tally.command(code) and ok
            round_wall += wall
            round_cpu += cpu
            round_peak = max(round_peak, peak)
        print(f"round {len(walls) + 1}: wall {round_wall:.3f} s, cpu {round_cpu:.3f} s, "
              f"peak {round_peak:.1f} MB", file=sys.stderr)
        if ok:
            tally.checks(lambda: workload.check_outputs(runner.work, ref))
            walls.append(round_wall)
            peaks.append(round_peak)
        elif not walls and time.perf_counter() >= deadline:
            break
    return {
        "wall_s": _median(walls),
        "peak_rss_mb": _median(peaks),
        "setup_s": _median(setup_walls),
        "setup_peak_rss_mb": _median(setup_peaks),
    }


def trace(workload, runner, tally, seconds):
    _, _, ref = set_up(workload, runner, tally, 1)
    spans_path = runner.work / "spans.json"
    deadline = time.perf_counter() + seconds
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        commands, ok = [], True
        plan = [(workload.setup_command(runner.work), False)]
        plan += [(args, True) for args in workload.measured_commands(runner.work)]
        for args, measured in plan:
            code, untraced, _, _ = runner.run(args)
            ok = tally.command(code) and ok
            code, traced, _, _ = runner.run(args, spans=spans_path)
            ok = tally.command(code) and ok
            if code == 0:
                commands.append({
                    "spans": tracer.load_spans(spans_path),
                    "measured": measured,
                    "untraced_s": untraced,
                    "traced_s": traced,
                })
            if not measured:
                tally.checks(lambda: workload.check_setup(runner.work))
        if ok:
            tally.checks(lambda: workload.check_outputs(runner.work, ref))
            rounds.append(tracer.layer_metrics(commands, workload.raw_dim, workload.bound_seeds))
        elif not rounds and time.perf_counter() >= deadline:
            break
    return {name: _median([r[name] for r in rounds]) for name in PER_LAYER}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Benchmark of the pcacompress command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small inputs and one set-up run, for the self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pcacompress" / "cli.py").is_file():
        print(f"error: {root} holds no src/pcacompress; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.size)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "logs").mkdir(parents=True)
    runner = Runner(root, work)
    tally = Tally()
    try:
        workload.write_inputs(work, args.seed)
        if args.trace:
            values = trace(workload, runner, tally, args.seconds)
            units = PER_LAYER
        else:
            repeats = 1 if args.size == "small" else SETUP_REPEATS
            values = measure(workload, runner, tally, args.seconds, repeats)
            units = END_TO_END
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
