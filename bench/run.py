"""Benchmark of spectral-transfer's certification runs.

Run from the repository root::

    python3 bench/run.py --workload graph-perturb --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all           # every workload, one table

One process, one client, closed loop: each run calls ``cli.main`` in-process
on a config generated from the workload seed, waits for the report files,
checks them, then starts the next run.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable table goes to standard error.

``--trace 0`` reports the end-to-end metrics (workloads.py explains the
workloads):

* ``run_s.p50``   median wall time of one run, config to report files;
* ``wall_s``      all timed runs back to back, so slow runs also count;
* ``peak_rss_mb`` peak resident memory of this process (MB = 2^20 bytes);
* ``setup_s``     import of the package plus config parsing, the median of
  several fresh interpreters.

Every time is in seconds at the reference host speed: a fixed calibration
mix (hostspeed.py) is timed before and after each run and each set-up
probe, and the measured wall time is divided by how much slower than the
reference the host ran the mix.  The table on standard error also shows
the times as measured and the host factor.

``--trace 1`` runs each seed untraced and then traced (tracer.py) and
reports per-run calls, self time and counters of each traced function,
plus ``trace.overhead_frac``.

Failed runs (non-zero exit, ``certified: false`` or a failed output check,
see check.py) are counted in ``failed``; the table also shows them as
``failed_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from check import check_run
from tracer import Tracer
from workloads import REFERENCE_SEED, WORKLOADS, run_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# BLAS threads of the benchmark process; at most nproc.  One thread keeps
# runs steady on a shared box, and the closed loop has one client.
BLAS_THREADS = 1
SETUP_PROBES = 3
MIN_RUNS = 2

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spectral_transfer.cli
from spectral_transfer.experiments import ExperimentConfig
ExperimentConfig.from_file(sys.argv[2])
print(time.perf_counter() - t0)
"""


def summarize(samples) -> dict:
    """Median of the samples with the sample count beside it."""
    return {"p50": statistics.median(samples), "samples": len(samples)}


def pin_environment():
    """Fix BLAS threads before numpy loads; keep the program's own knobs unset.

    The process, and the set-up probes it starts, stay on one core, so the
    calibration mix and the run it calibrates share that core's load.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SPECTRAL_TRANSFER_THREADS", None)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def measure_setup(workload, work_dir: Path, speed) -> list:
    """Import plus config parsing in fresh interpreters, one after another.

    Each probe's own timing is divided by the host factor around it.
    """
    config = work_dir / "setup.txt"
    config.write_text(workload.config_text(1))
    probe = [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(config)]
    times = []
    for _ in range(SETUP_PROBES):
        done, _, factor = speed.timed(lambda: subprocess.run(
            probe, capture_output=True, text=True, timeout=120, check=True,
        ))
        times.append(float(done.stdout.strip().splitlines()[-1]) / factor)
    return times


class Runner:
    """Runs one workload through ``cli.main`` and checks every output."""

    def __init__(self, workload, work_dir: Path, speed=None):
        from hostspeed import HostSpeed
        from spectral_transfer import cli

        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.speed = speed or HostSpeed()
        self.attempted = 0
        self.failures = []
        self.raw_times = []  # as measured, with the host factor of each
        self.factors = []

    def run(self, seed: int, reference_dir=None, **overrides) -> float:
        """One run; returns its normalised wall time and records a failure if any."""
        config = self.work_dir / f"config-{seed}.txt"
        out = self.work_dir / f"out-{seed}"
        config.write_text(self.workload.config_text(seed, **overrides))
        argv = [self.workload.experiment, "--config", str(config), "--out", str(out)]
        stderr = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code, raw, factor = self.speed.timed(lambda: self._main(argv))
        self.raw_times.append(raw)
        self.factors.append(factor)
        problems = check_run(code, str(out), reference_dir)
        if code != 0:
            problems.append(stderr.getvalue().strip()[-300:])
        if problems:
            self.failures.append((seed, problems))
        shutil.rmtree(out, ignore_errors=True)
        return raw / factor

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a dead benchmark
            return f"exception {exc!r}"


def end_to_end(runner, seeds, setup_times) -> tuple:
    times = [runner.run(s) for s in seeds]
    run_s = summarize(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s.p50": (run_s["p50"], "s"),
        "wall_s": (sum(times), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }, run_s["samples"]


def per_layer(runner, seeds, spans_path: Path) -> dict:
    # Alternate untraced and traced runs of each seed, so drift in the
    # machine's speed does not land on one side of the overhead.
    tracer = Tracer()
    untraced = traced = 0.0
    for index, seed in enumerate(seeds):
        untraced += runner.run(seed)
        tracer.run = index
        with tracer.installed():
            traced += runner.run(seed)
    tracer.write_spans(spans_path)
    metrics = tracer.per_layer(len(seeds))
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir()
    try:
        from hostspeed import HostSpeed

        speed = HostSpeed()
        setup_times = [] if args.trace else measure_setup(workload, work_dir, speed)
        env = environment_record()
        runner = Runner(workload, work_dir, speed)
        # Warm-up at the reference seed, checked against the recorded outputs.
        runner.run(REFERENCE_SEED, BENCH_DIR / "reference" / workload.name)
        if args.trace:
            seeds = run_seeds(args.seed, workload.run_count(args.seconds / 2, 1))
            metrics = per_layer(runner, seeds, WORK / f"spans-{workload.name}.jsonl")
            samples = len(seeds)
        else:
            seeds = run_seeds(args.seed, workload.run_count(args.seconds, MIN_RUNS))
            metrics, samples = end_to_end(runner, seeds, setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"# {workload.name}  seed={args.seed}  env={json.dumps(env)}", file=sys.stderr)
    for seed, problems in runner.failures:
        for problem in problems[:10]:
            print(f"# FAILED run seed={seed}: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = f"  (samples={samples})" if name == "run_s.p50" else ""
        print(f"{workload.name:14s} {name:48s} {value:14.6g} {unit}{note}", file=sys.stderr)
    # Every run of the invocation, the warm-up at the reference seed too.
    raw = statistics.median(runner.raw_times)
    factor = statistics.median(runner.factors)
    print(f"{workload.name:14s} {'run_s.p50 as measured, all runs':48s} {raw:14.6g} s",
          file=sys.stderr)
    print(f"{workload.name:14s} {'host factor p50':48s} {factor:14.6g} x reference",
          file=sys.stderr)
    print(f"{workload.name:14s} {'failed_frac':48s} {failed / runner.attempted:14.6g} "
          f"share of {runner.attempted} runs", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="graph-perturb, mc-large-n, mc-verify, convnet-probe or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spectral_transfer" / "__init__.py").is_file():
        print(f"bench: no spectral_transfer package under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
