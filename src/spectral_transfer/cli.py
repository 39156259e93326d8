"""Command-line entry point.

``spectral-transfer <experiment> --config <path> [--seed N] [--out DIR]
[--svg]`` runs one experiment and writes its report files.  Exit status 0
means every certified inequality held, 1 flags a certification failure,
and 2 covers usage errors, every library error (one type for configs,
inputs and numerical domains), IO problems and a failed allocation, each
reported on one ``spectral-transfer: error:`` line.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SpectralTransferError
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .reports import emit_reports

EXIT_CERTIFIED = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-transfer",
        description="Certified transferability experiments for spectral "
                    "graph filters and ConvNets.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", required=True,
                        help="flat key = value experiment description")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config)")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--svg", action="store_true", default=None,
                        help="also emit scatter plots")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        config = ExperimentConfig.from_file(
            args.config, experiment=args.experiment, seed=args.seed,
            out_dir=args.out, svg=args.svg,
        )
        bundle = run_experiment(config)
        written = emit_reports(bundle, config.out_dir, svg=config.svg)
    except (SpectralTransferError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate
        print(f"spectral-transfer: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    for path in written:
        print(path)
    if bundle.all_certified:
        print("certified: every checked inequality holds")
        return EXIT_CERTIFIED
    print("CERTIFICATION FAILED: see summary.txt", file=sys.stderr)
    return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
