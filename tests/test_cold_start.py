"""No run loads scipy: the package's only runtime dependency is numpy.

Each run goes through a fresh interpreter, because the test process may
already hold scipy; a static check covers every import the package writes.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_transfer

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = Path(spectral_transfer.__file__).resolve().parent

# argv: package parent, experiment, config, output directory
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from spectral_transfer import cli
code = cli.main([sys.argv[2], "--config", sys.argv[3], "--out", sys.argv[4]])
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(code)
"""


def _run(experiment: str, config: Path, out_dir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _CHILD, str(_PACKAGE.parent), experiment, str(config),
         str(out_dir)],
        cwd=_ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(p.name for p in (_ROOT / "configs").glob("*.txt")))
def test_undirected_shipped_config_never_loads_scipy_linalg(name, tmp_path):
    # every shipped config is undirected; none loads any scipy module
    config = _ROOT / "configs" / name
    experiment = next(
        line.split("=", 1)[1].strip()
        for line in config.read_text().splitlines()
        if line.startswith("experiment")
    )
    done = _run(experiment, config.relative_to(_ROOT), tmp_path / "out")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "scipy modules: []"


def test_undirected_run_above_order_256_never_loads_scipy_linalg(tmp_path):
    # operators, Gram matrices and band spectra of order 300, all solved by
    # numpy's eigh and eigvalsh
    config = tmp_path / "order300.txt"
    config.write_text("graph = random-geometric(300,0.1)\nfilters = heat(1.0)\n"
                      "perturbations = remove_edges(0.05)\nseed = 3\n")
    done = _run("perturb-stability", config, tmp_path / "out")
    assert "Traceback" not in done.stderr, done.stderr
    assert done.stdout.splitlines()[-1] == "scipy modules: []"


def _imported_modules(path: Path) -> set:
    """Top-level names of every module that ``path`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_of_the_package_imports_scipy():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert sources
    assert [p.name for p in sources if "scipy" in _imported_modules(p)] == []
