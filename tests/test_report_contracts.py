"""The layouts of the per-filter ``summary.txt`` entries and of
``hypothesis.csv``, as the command line writes them."""

import csv
import json
from pathlib import Path

import pytest

from spectral_transfer import cli

_REFERENCE_NET = Path(__file__).resolve().parents[1] / "configs" / "reference_net.ini"
# summary.txt sorts its keys
_FILTER_KEYS = ["consistency_error", "filter_error", "grouped_spectrum", "interpolation_norm",
                "laplacian_error", "lipschitz_constant"]


def run(tmp_path, experiment, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text + "seed = 3\n")
    out_dir = tmp_path / "out"
    assert cli.main([experiment, "--config", str(path), "--out", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("experiment", ["coarsen-transfer", "perturb-stability"])
def test_each_filter_summary_entry_holds_its_errors_norm_d_and_grouping(experiment, tmp_path):
    out_dir = run(tmp_path, experiment, "graph = path(8)\nfilters = lowpass(1.0), heat(1.0)\n")
    summary = json.loads((out_dir / "summary.txt").read_text())
    if experiment == "coarsen-transfer":
        per_setting = [summary["filters"]]
    else:
        per_setting = list(summary["perturbations"].values())
        assert len(per_setting) == 5
    for entries in per_setting:
        assert list(entries) == ["heat(1)", "lowpass(1)"]
        for entry in entries.values():
            assert list(entry) == _FILTER_KEYS
            assert {key: type(value) for key, value in entry.items()} == {
                key: bool if key == "grouped_spectrum" else float for key in _FILTER_KEYS}


@pytest.mark.parametrize("layers", [1, 2])
def test_hypothesis_rows_run_laplacian_consistency_activation_pooling(layers, tmp_path):
    # one layer without pooling, or the reference net: two layers, max
    # pooling after the first
    net = _REFERENCE_NET
    if layers == 1:
        net = tmp_path / "net.ini"
        net.write_text("[net]\nbands = 0.3, 0.6\n\n[layer 1]\nfilters = lowpass(2.0)\n"
                       "mix = 1.0\n")
    out_dir = run(tmp_path, "convnet-transfer", f"graph = path(16)\nnet = {net}\n")
    with open(out_dir / "hypothesis.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_graph = ([("laplacian", l) for l in range(layers)] + [("consistency", layers)]
                 + [("activation", l) for l in range(1, layers + 1)]
                 + [("pooling", l) for l in range(1, layers + 1)])
    assert [(row["graph"], row["term"], int(row["layer"])) for row in rows] == [
        (graph, term, layer) for graph in ("1", "2") for term, layer in per_graph]
    if layers == 1:
        assert float(rows[3]["value"]) == 0.0  # no pooling, no pooling term

    # delta, the hypothesis tolerance of the network bound, is the largest term
    summary = json.loads((out_dir / "summary.txt").read_text())
    assert summary["layers"] == layers
    assert summary["delta"] == max(float(row["value"]) for row in rows)
