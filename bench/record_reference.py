"""Record the reference outputs that check.py compares runs against.

    python3 bench/record_reference.py [workload ...]

Writes ``bench/reference/<workload>/`` from one run of each workload at the
reference seed, in the benchmark's pinned environment.  Re-record only when
a change is meant to alter the reports, and say so where the change is
described.
"""

import contextlib
import io
import shutil
import sys

from run import BENCH_DIR, SRC, pin_environment
from workloads import REFERENCE_SEED, WORKLOADS


def main(names) -> int:
    pin_environment()
    sys.path.insert(0, str(SRC))
    from spectral_transfer import cli

    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        out = BENCH_DIR / "reference" / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = out / "config.txt"
        config.write_text(workload.config_text(REFERENCE_SEED))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([workload.experiment, "--config", str(config), "--out", str(out)])
        config.unlink()
        print(f"{name}: exit {code}, wrote {out}")
        if code != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
