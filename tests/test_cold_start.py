"""scipy.linalg loads only for the runs that call it.

Each case runs in a fresh interpreter, because the test process may
already hold scipy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import spectral_transfer

_ROOT = Path(__file__).resolve().parents[1]
_DIRECTED = "perturb_directed.txt"

# argv: package parent, experiment, config, output directory
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from spectral_transfer import cli
code = cli.main([sys.argv[2], "--config", sys.argv[3], "--out", sys.argv[4]])
print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
sys.exit(code)
"""


def _run_shipped(config: Path, out_dir: Path) -> subprocess.CompletedProcess:
    experiment = next(
        line.split("=", 1)[1].strip()
        for line in config.read_text().splitlines()
        if line.startswith("experiment")
    )
    package_parent = str(Path(spectral_transfer.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", _CHILD, package_parent, experiment,
         str(config.relative_to(_ROOT)), str(out_dir)],
        cwd=_ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(
    p.name for p in (_ROOT / "configs").glob("*.txt") if p.name != _DIRECTED
))
def test_undirected_shipped_config_never_loads_scipy_linalg(name, tmp_path):
    done = _run_shipped(_ROOT / "configs" / name, tmp_path / "out")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "scipy.linalg loaded: False"


def test_directed_shipped_config_loads_scipy_linalg_and_certifies(tmp_path):
    done = _run_shipped(_ROOT / "configs" / _DIRECTED, tmp_path / "out")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "scipy.linalg loaded: True"
