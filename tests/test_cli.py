"""Command-line behaviour: exit codes, overrides, verdict soundness."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectral_transfer import cli, experiments
from spectral_transfer.graphs import path_graph
from spectral_transfer.reports import ReportBundle
from spectral_transfer.spaces import GraphSpace
from spectral_transfer.transfer import certified


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(8)\nfilters = lowpass(2.0)\nseed = 4\n")
    return path


def test_certified_run_exits_zero(config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = cli.main([
        "coarsen-transfer", "--config", str(config_file), "--out", str(out_dir)
    ])
    assert code == 0
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "modes.csv").exists()
    assert not (out_dir / "scatter.svg").exists()
    assert "certified" in capsys.readouterr().out


def test_svg_flag(config_file, tmp_path):
    out_dir = tmp_path / "out"
    code = cli.main([
        "coarsen-transfer", "--config", str(config_file), "--out", str(out_dir),
        "--svg",
    ])
    assert code == 0
    assert (out_dir / "scatter.svg").exists()


def test_seed_override_enables_run(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(8)\nfilters = lowpass(2.0)\n")  # no seed
    out_dir = tmp_path / "out"
    assert cli.main(["coarsen-transfer", "--config", str(path)]) == 2
    assert cli.main([
        "coarsen-transfer", "--config", str(path), "--seed", "9",
        "--out", str(out_dir),
    ]) == 0


def test_missing_config_exits_two(tmp_path, capsys):
    code = cli.main(["coarsen-transfer", "--config", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_experiment_exits_two(config_file, capsys):
    code = cli.main(["teleport", "--config", str(config_file)])
    assert code == 2


def test_certification_failure_exits_one(config_file, tmp_path, monkeypatch, capsys):
    # Verdict soundness: the exit status must mirror the bundle verdict.
    def fake_run(config):
        return ReportBundle("coarsen-transfer", {"seed": 0}, all_certified=False)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    code = cli.main([
        "coarsen-transfer", "--config", str(config_file),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "CERTIFICATION FAILED" in capsys.readouterr().err


def test_unknown_laplacian_kind_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(8)\nlaplacian = bogus\nfilters = lowpass(2.0)\nseed = 4\n")
    code = cli.main([
        "coarsen-transfer", "--config", str(path), "--out", str(tmp_path / "out")
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"spectral-transfer: error: {path}: line 2: laplacian must be one of unnormalized, "
        "normalized, adjacency, got 'bogus'"
    ]


@pytest.mark.parametrize("probes", ["0", "-1"])
def test_nonpositive_probe_count_exits_two(tmp_path, capsys, probes):
    path = tmp_path / "cfg.txt"
    path.write_text(
        f"graph = grid(12,12)\nlaplacian = normalized\nprobes = {probes}\nseed = 4\n"
    )
    code = cli.main([
        "convnet-transfer", "--config", str(path), "--out", str(tmp_path / "out")
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"spectral-transfer: error: {path}: line 3: probes must be at least 1, got {probes}"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tail, message", [
    ("seed = 4\nseed = 5\n", "line 4: duplicate key 'seed'"),
    ("seed = 4\n[extra]\nfilters = heat(-1)\n",
     "line 4: no [section] headers in a flat config, got '[extra]'"),
    ("[experiment]\nseed = 4\n",
     "line 3: no [section] headers in a flat config, got '[experiment]'"),
    ("seed: 4\n", "line 3: expected 'key = value', got 'seed: 4'"),
    ("seed = 4\nfilters = lowpass(1.0),\n  heat(1.0)\n",
     "line 5: no indented or continuation lines in a flat config, got 'heat(1.0)'"),
    ("seed = 4\nfilters =\n", "line 4: expected 'key = value', got 'filters ='"),
    ("seed = 4\nbogus = 3\n", "line 4: unknown key, got 'bogus = 3'"),
    ("svg = yes\nseed = 4\n",
     "line 3: bad value for svg: expected true or false, got 'yes'"),
    ("seed = 4\nband = inf\n", "line 4: bad value for band: 'inf' is not a finite number"),
], ids=["duplicate-key", "section-header", "experiment-header", "colon-delimiter",
        "continuation-line", "empty-value", "unknown-key", "svg-not-a-boolean",
        "infinite-band"])
def test_malformed_flat_config_names_its_line(tmp_path, capsys, tail, message):
    path = tmp_path / "d.txt"
    path.write_text("experiment = coarsen-transfer\ngraph = path(8)\n" + tail)
    code = cli.main([
        "coarsen-transfer", "--config", str(path), "--out", str(tmp_path / "out")
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"spectral-transfer: error: {path}: {message}"]
    assert not (tmp_path / "out").exists()


_NET_HEAD = "[net]\nactivation = relu\nbands = 0.1, 0.2\n"
_LAYER_ONE = "[layer 1]\nfilters = lowpass(2.0)\nmix = 1.0\n"


@pytest.mark.parametrize("keys, net_text", [
    ("filters = lowpass(0)", None),
    ("filters = highpass(0)", None),
    ("filters = midpass(1,0)", None),
    ("filters = lowpass()", None),
    ("filters = lowpass(1,2)", None),
    ("filters = poly()", None),
    ("band = -1", None),
    ("filters = heat(-1)", None),
    ("filters = heat(inf)", None),
    ("filters = lowpass(inf)", None),
    ("filters = midpass(inf,1)", None),
    ("filters = poly(1,nan)", None),
    ("filters = lowpass(1e-320)", None),
    ("filters = highpass(1e-310)", None),
    ("filters = midpass(0,1e-320)", None),
    ("filters = ,", None),
    ("garbage line", None),
    ("", "filters = lowpass(2.0)\nmix = 1.0\n"),
    ("", _NET_HEAD + "[layer 1]\nmix = 1.0\n"),
    ("", _NET_HEAD + "[layer 1]\nfilters = lowpass(2.0)\nmix = one\n"),
    ("", _NET_HEAD + _LAYER_ONE + "biases = zero\n"),
    ("", _NET_HEAD + _LAYER_ONE.replace("layer 1", "layer one")),
    ("", _NET_HEAD + _LAYER_ONE + "poolng = max\n"),
    ("", _NET_HEAD + "activaton = abs\n" + _LAYER_ONE),
    ("", _NET_HEAD + _LAYER_ONE + "[pooling]\nkind = max\n"),
    ("", _NET_HEAD.replace("0.1, 0.2", "-1, -1") + _LAYER_ONE),
    ("graph = random-geometric(10,nan)", None),
    ("graph = random-geometric(30,-0.5)", None),
    ("graph = grid(-2,-3)", None),
], ids=[
    "lowpass-zero", "highpass-zero", "midpass-zero-width", "lowpass-no-argument",
    "lowpass-two-arguments", "poly-empty", "negative-band", "heat-negative-time",
    "heat-infinite-time", "lowpass-infinite-cutoff", "midpass-infinite-centre",
    "poly-nan-coefficient", "lowpass-overflowing-constant",
    "highpass-overflowing-constant", "midpass-overflowing-constant", "no-filters",
    "line-without-equals", "net-no-section-header",
    "net-layer-without-filters", "net-non-numeric-mix", "net-non-numeric-biases",
    "net-layer-name-not-a-number", "net-misspelt-layer-key", "net-misspelt-net-key",
    "net-unknown-section", "net-negative-bands", "graph-nan-radius",
    "graph-negative-radius", "graph-negative-grid",
])
def test_bad_filter_band_and_net_inputs_exit_two(tmp_path, capsys, keys, net_text):
    if net_text is None:
        graph = "" if keys.startswith("graph") else "graph = path(8)\n"
        text = f"experiment = coarsen-transfer\n{graph}{keys}\nseed = 4\n"
    else:
        net = tmp_path / "net.ini"
        net.write_text(net_text)
        text = (
            "experiment = convnet-transfer\ngraph = path(16)\n"
            f"laplacian = normalized\nnet = {net}\nseed = 4\n"
        )
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    experiment = text.split("\n", 1)[0].split(" = ")[1]
    code = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("spectral-transfer: error: ")
    if net_text is not None:
        assert str(tmp_path / "net.ini") in err
    for misspelt, section in (("poolng", "layer 1"), ("activaton", "net")):
        if misspelt in keys + (net_text or ""):
            assert f"[{section}]: unknown key '{misspelt}'" in err
    if keys.startswith("filters = heat"):
        assert "heat" in err
    for family, argument in (("lowpass", "cutoff"), ("highpass", "cutoff"),
                             ("midpass", "width")):
        if keys.startswith(f"filters = {family}(") and "e-3" in keys:
            assert f"{family} {argument}" in err and "Lipschitz constant overflows" in err
    if net_text is not None and "bands = -1" in net_text:
        assert "[net]: bands must be nonnegative, got -1" in err
    if keys == "garbage line":
        assert "line 3" in err
    if keys.startswith("graph"):
        assert keys.split(" = ")[1] in err
    assert not (tmp_path / "out").exists()


def test_percent_signs_in_values_are_literal(tmp_path, capsys):
    out_dir = tmp_path / "res%1"
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph = path(8)\nfilters = lowpass(2.0)\nseed = 4\nout = {out_dir}\n")
    assert cli.main(["coarsen-transfer", "--config", str(path)]) == 0
    assert (out_dir / "summary.txt").exists()


def test_bad_filter_exits_before_any_graph_work(tmp_path, monkeypatch, capsys):
    def no_graph_work(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(experiments, "synthetic_graph", no_graph_work)
    path = tmp_path / "cfg.txt"
    path.write_text("graph = grid(40,40)\nfilters = lowpass(1), bogus(2)\nseed = 4\n")
    code = cli.main([
        "coarsen-transfer", "--config", str(path), "--out", str(tmp_path / "out")
    ])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {path}: line 2: unknown filter family 'bogus'"
    ]


def run_perturb_stability_on_path8(tmp_path, filters):
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph = path(8)\nfilters = {filters}\nseed = 1\n")
    out_dir = tmp_path / "out"
    code = cli.main(["perturb-stability", "--config", str(path), "--out", str(out_dir)])
    return code, out_dir


def test_filters_that_g_would_round_alike_keep_their_own_summaries(tmp_path):
    code, out_dir = run_perturb_stability_on_path8(
        tmp_path, "heat(1.0000001), heat(1.0000002)")
    assert code == 0
    for entries in json.loads((out_dir / "summary.txt").read_text())["perturbations"].values():
        assert sorted(entries) == ["heat(1.0000001)", "heat(1.0000002)"]


def test_table_filters_keep_their_own_summaries(tmp_path):
    tables = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for table, slope in zip(tables, (0.1, 0.3)):
        table.write_text(f"0 0\n4 {4 * slope}\n")
    code, out_dir = run_perturb_stability_on_path8(
        tmp_path, f"table({tables[0]}), table({tables[1]})")
    assert code == 0
    summary = json.loads((out_dir / "summary.txt").read_text())
    for entries in summary["perturbations"].values():
        assert sorted(entries) == [f"table({tables[0]})", f"table({tables[1]})"]
        lipschitz = [entries[f"table({t})"]["lipschitz_constant"] for t in tables]
        assert lipschitz == pytest.approx([0.1, 0.3])


def test_band_zero_coarsen_transfer_writes_one_mode_row_per_filter(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(5)\nband = 0\nfilters = lowpass(1.0), heat(1.0)\nseed = 2\n")
    out_dir = tmp_path / "out"
    assert cli.main(["coarsen-transfer", "--config", str(path), "--out", str(out_dir)]) == 0
    with open(out_dir / "modes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["filter"], row["mode"]) for row in rows] == [("lowpass(1)", "0"), ("heat(1)", "0")]


def test_repeated_perturbations_exit_two_naming_both(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(8)\nperturbations = remove_edges(0.1), add_edges(0.1), "
                    "remove_edges(0.1)\nseed = 1\n")
    out_dir = tmp_path / "out"
    assert cli.main(["perturb-stability", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {path}: line 2: perturbations 1 and 3 are both "
        "'remove_edges(0.1)': each needs its own setting name"
    ]
    assert not out_dir.exists()
    # distinct descriptors still run, each under its own setting name
    path.write_text("graph = path(8)\nperturbations = remove_edges(0.1), add_edges(0.1), "
                    "remove_edges(0.2)\nseed = 1\n")
    assert cli.main(["perturb-stability", "--config", str(path), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.txt").read_text())
    assert sorted(summary["perturbations"]) == [
        "add_edges(0.1)", "remove_edges(0.1)", "remove_edges(0.2)"]


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 53.6 GiB for an array"),
     "Unable to allocate 53.6 GiB for an array"),
    (MemoryError(), "out of memory"),
], ids=["numpy-message", "no-message"])
def test_a_failed_allocation_exits_two_with_one_line(config_file, tmp_path, capsys,
                                                     monkeypatch, error, line):
    def run_experiment(config):
        raise error
    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    out_dir = tmp_path / "out"
    assert cli.main(["coarsen-transfer", "--config", str(config_file),
                     "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"spectral-transfer: error: {line}"]
    assert not out_dir.exists()


def test_filters_with_one_report_name_exit_two_naming_both(tmp_path, capsys):
    code, out_dir = run_perturb_stability_on_path8(tmp_path, "heat(1), lowpass(2), heat(1.0)")
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {tmp_path / 'cfg.txt'}: line 2: filters 'heat(1)' and "
        "'heat(1.0)' share the report name 'heat(1)'"
    ]
    assert not out_dir.exists()


@pytest.mark.parametrize("experiment, keys, message", [
    ("perturb-stability", "perturbations = remove_edges(0.05), bogus(2)",
     "bogus(2): unknown perturbation mode 'bogus'"),
    ("convnet-transfer", "net_perturbation = remove_vertices(0.1)",
     "the network comparison needs equal-size graphs; use edge perturbations"),
])
def test_bad_perturbation_exits_before_any_graph_work(
    experiment, keys, message, tmp_path, monkeypatch, capsys
):
    def no_graph_work(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(experiments, "synthetic_graph", no_graph_work)
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph = grid(40,40)\n{keys}\nseed = 4\n")
    code = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {path}: line 2: {message}"
    ]


@pytest.mark.parametrize("experiment, keys, message", [
    ("coarsen-transfer", "graph = grid(40,40)\nlaplacian = bogus",
     "laplacian must be one of unnormalized, normalized, adjacency, got 'bogus'"),
    ("convnet-transfer", "graph = grid(40,40)\nlaplacian = Normalized",
     "laplacian must be one of unnormalized, normalized, adjacency, got 'Normalized'"),
    ("perturb-stability", "graph_file = {file}\ngraph_format = bogus",
     "graph_format must be one of edge_list, matrix_market, off, got 'bogus'"),
], ids=["laplacian", "laplacian-case", "graph-format"])
def test_bad_laplacian_or_graph_format_exits_before_any_graph_work(
    experiment, keys, message, tmp_path, monkeypatch, capsys
):
    def no_graph_work(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(experiments, "synthetic_graph", no_graph_work)
    monkeypatch.setattr(experiments, "parse_graph", no_graph_work)
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 1.0\n")
    path = tmp_path / "cfg.txt"
    path.write_text(keys.format(file=edges) + "\nseed = 4\n")
    code = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {path}: line 2: {message}"
    ]
    assert not (tmp_path / "out").exists()


_DEGREE_INF = "vertex 1 has degree inf; its edge weights sum beyond the float range"
_TWICE_BEYOND = ("vertex 0 has absolute degree 1e+308; twice it, which bounds the spectrum, "
                 "is beyond the float range")


@pytest.mark.parametrize("warnings_env", [None, "error"])
@pytest.mark.parametrize("edges, kind, experiment, message", [
    pytest.param("0 1 1e308\n1 2 1e308\n2 3 1\n", kind, "coarsen-transfer", _DEGREE_INF,
                 id=kind)
    for kind in ("unnormalized", "normalized")
] + [
    # a finite degree whose spectrum leaves the float range: the top
    # eigenvalue of the unnormalized Laplacian of one edge of 1e308 is 2e308
    pytest.param(edges, kind, experiment, _TWICE_BEYOND, id=f"{name}-{kind}-{experiment}")
    for name, edges in (("one-edge", "0 1 1e308\n"), ("path", "0 1 1e308\n1 2 1\n2 3 1\n"),
                        ("two-heavy", "0 1 1e308\n1 2 1e308\n2 3 1\n"))
    for kind in ("unnormalized", "adjacency")
    for experiment in ("coarsen-transfer", "perturb-stability")
    if not (name == "two-heavy" and kind == "unnormalized")
])
def test_a_degree_beyond_the_float_range_exits_two_with_one_line(edges, kind, experiment,
                                                                 message, warnings_env,
                                                                 tmp_path):
    # a fresh interpreter, so that PYTHONWARNINGS takes effect, and stderr
    # must hold no warning
    (tmp_path / "edges.txt").write_text(edges)
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph_file = {tmp_path / 'edges.txt'}\nlaplacian = {kind}\nseed = 1\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    if warnings_env is not None:
        env["PYTHONWARNINGS"] = warnings_env
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(experiments.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "spectral_transfer.cli", experiment, "--config",
         str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"spectral-transfer: error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edges, kind", [
    ("0 1 8e307\n1 2 1\n2 3 1\n", "unnormalized"),  # twice 8e307 is in range
    ("0 1 1e308\n", "normalized"),  # the rule leaves the normalized kind alone
], ids=["heavy-path-unnormalized", "one-edge-normalized"])
@pytest.mark.parametrize("experiment", ["coarsen-transfer", "perturb-stability"])
def test_a_spectrum_inside_the_float_range_still_certifies(edges, kind, experiment, tmp_path):
    (tmp_path / "edges.txt").write_text(edges)
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph_file = {tmp_path / 'edges.txt'}\nlaplacian = {kind}\nseed = 1\n")
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("experiment", ["coarsen-transfer", "perturb-stability"])
def test_a_band_that_keeps_no_source_mode_exits_two(experiment, tmp_path, capsys):
    # the adjacency spectrum of path(4) is +-0.618 and +-1.618, so band 0
    # keeps nothing and every row would read 0.0 against 0.0
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(4)\nlaplacian = adjacency\nfilters = lowpass(1)\n"
                    "band = 0\nseed = 1\n")
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "spectral-transfer: error: band 0 keeps no mode of the source spectrum, so no bound "
        "would be checked"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, keys, message", [
    ("coarsen-transfer", "graph = path(8)\nband = -1\nseed = 4",
     "line 2: band must be nonnegative, got -1"),
    ("coarsen-transfer", "graph = path(8)\nseed = 4\nfilters = ,",
     "line 3: filters needs at least one entry"),
    ("coarsen-transfer", "graph = path(8)\nseed = -4", "line 2: seed must be nonnegative, got -4"),
    ("perturb-stability", "seed = 4\ngraph = path(8)\ngraph_file = {tmp}/none.txt",
     "line 3: exactly one graph source is required: 'graph' or 'graph_file'"),
    ("perturb-stability", "seed = 4\ngraph_file = {tmp}/none.txt",
     "line 2: referenced file does not exist: {tmp}/none.txt (relative paths are taken "
     "from the working directory)"),
    ("convnet-transfer", "graph = path(8)\nseed = 4\nnet = {tmp}/none.ini",
     "line 3: referenced file does not exist: {tmp}/none.ini (relative paths are taken "
     "from the working directory)"),
    ("convnet-transfer", "graph = path(8)\nseed = 4\nnet_perturbation = add_edges(2)",
     "line 3: add_edges(2): fraction 2.0 outside [0, 1]"),
    ("mc-verify", "seed = 1\nweights = cosine\ncircle_band = -1",
     "line 3: band must be nonnegative, got -1"),
    ("mc-verify", "seed = 1\ncircle_band = -1", "line 2: band must be nonnegative, got -1"),
    ("circle-sampling", "circle_band = 1\nkernel_band = -1\nseed = 1",
     "line 2: kernel band must be nonnegative, got -1"),
], ids=["band", "empty-filters", "seed", "two-graph-sources", "graph-file", "net-file",
        "net-perturbation-fraction", "circle-band", "circle-band-default-weights",
        "kernel-band"])
def test_a_bad_value_names_the_line_of_its_key(experiment, keys, message, tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(keys.format(tmp=tmp_path) + "\n")
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {path}: {message.format(tmp=tmp_path)}"
    ]


@pytest.mark.parametrize("experiment", ["circle-sampling", "mc-verify"])
@pytest.mark.parametrize("kernel_band, shown", [
    ("1e100", "1e+100"), ("1e308", "1e+308"),
    ("1.7976931348623157e308", "1.79769313486e+308"),  # the largest float
])
def test_a_huge_kernel_band_exits_two_at_once(experiment, kernel_band, shown, tmp_path):
    # a fresh interpreter under PYTHONWARNINGS=error; the timeout stops a
    # frequency search that never ends
    path = tmp_path / "cfg.txt"
    path.write_text(f"seed = 1\nkernel_band = {kernel_band}\n")
    env = {**os.environ, "PYTHONWARNINGS": "error", "PYTHONPATH": os.pathsep.join(
        [str(Path(experiments.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "spectral_transfer.cli", experiment, "--config",
         str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"spectral-transfer: error: {path}: line 2: kernel band {shown} must be below "
        "4194304: the 4096-point activation grid resolves frequencies below 2048"
    ]
    assert not (tmp_path / "out").exists()


def test_a_bad_value_from_the_command_line_names_no_line(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(8)\nseed = 4\n")
    assert cli.main(["coarsen-transfer", "--config", str(path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "spectral-transfer: error: seed must be nonnegative, got -1"
    ]


@pytest.mark.parametrize("experiment, keys, message", [
    ("mc-verify", "sizes = 4096\nweights = cosine, bogus", "line 2: unknown weight 'bogus'"),
    ("mc-verify", "sizes = 64\ntrials = 99", "line 2: failure rates need at least 100 trials"),
    ("circle-sampling", "sizes = 4096, 16384",
     "line 1: slope fit needs at least 3 sample sizes"),
    ("circle-sampling", "sizes = 64, 128, 64",
     "line 1: slope fit needs at least 3 distinct sample sizes"),
    ("circle-sampling", "sizes = 64, 128, 256\ntrials = 29",
     "line 2: slope fit needs at least 30 trials per size"),
    ("circle-sampling", "weights = uniform, bogus", "line 1: unknown weight 'bogus'"),
    # both entries would draw one campaign from one seed substream
    ("mc-verify", "sizes = 256\ntrials = 100\nweights = cosine, cosine",
     "line 3: weights 1 and 2 are both 'cosine': each needs its own campaign"),
    ("circle-sampling", "weights = uniform, cosine, uniform",
     "line 1: weights 1 and 3 are both 'uniform': each needs its own campaign"),
    ("mc-verify", "kernel_band = 1e12",
     "line 1: kernel band 1e+12 must be below 4194304: the 4096-point activation grid "
     "resolves frequencies below 2048"),
    # a TrialConfig field named otherwise than its config key
    ("mc-verify", "kernel_band = 4\ncircle_band = 4",
     "line 2: band must be below the kernel band"),
    ("circle-sampling", "delta = 1", "line 1: delta 1.0 outside (0, 1)"),
    ("mc-verify", "trials = 100\nsizes = 2", "line 2: every sample size must be at least "
     "dim PW = 3"),
])
def test_bad_campaign_exits_before_any_trial(
    experiment, keys, message, tmp_path, monkeypatch, capsys
):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trials", no_trials)
    path = tmp_path / "cfg.txt"
    path.write_text(f"{keys}\nseed = 4\n")
    code = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"spectral-transfer: error: {path}: {message}"]
    assert not (tmp_path / "out").exists()


def test_kernel_band_just_below_the_grid_limit_is_accepted(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(f"kernel_band = {2047**2}\nseed = 4\n")
    config = experiments.ExperimentConfig.from_file(path, "mc-verify")
    assert [t.kernel_band for t in config.trial_configs] == [2047.0**2] * 2


def test_convnet_transfer_runs_an_explicit_unnormalized_laplacian(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(16)\nlaplacian = unnormalized\nseed = 7\n")
    out_dir = tmp_path / "out"
    assert cli.main(["convnet-transfer", "--config", str(path), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.txt").read_text())
    assert summary["laplacian"] == "unnormalized"


def test_convnet_transfer_default_bands_hold_modes_of_a_signed_spectrum(tmp_path, capsys):
    # the adjacency spectrum of a path is symmetric about 0; bands taken
    # from signed eigenvalues left band 0 negative and its probes empty
    space = GraphSpace.from_graph(path_graph(16), "adjacency")
    bands = experiments.default_convnet_spec(space).bands
    assert all(band > 0 for band in bands)
    assert [space.dim_pw(band) for band in bands] == [4, 6, 8]
    # heat(0.5) declares its constant for x >= 0 only; on the negative
    # eigenvalues the network's D is checked and refused, as
    # coarsen-transfer refuses it
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(16)\nlaplacian = adjacency\nseed = 1\n")
    out_dir = tmp_path / "out"
    assert cli.main(["convnet-transfer", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "spectral-transfer: error: heat(0.5): declared Lipschitz constant 0.187098 is violated "
        "on the spectra (observed quotient 0.358106)"
    ]


def test_net_file_filter_without_a_declared_constant_certifies_with_its_quotient(tmp_path):
    # g(x) = 1 + x, normalized by its sup 3 on the spectra (a path's
    # normalized Laplacian tops out at 2), has every quotient 1/3
    net = tmp_path / "net.ini"
    net.write_text("[net]\nbands = 0.3, 0.6\n\n[layer 1]\nfilters = poly(1,1)\nmix = 1.0\n")
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph = path(16)\nlaplacian = normalized\nnet = {net}\nseed = 7\n")
    out_dir = tmp_path / "out"
    assert cli.main(["convnet-transfer", "--config", str(path), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.txt").read_text())
    assert summary["lipschitz"] == pytest.approx(1.0 / 3.0, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_lipschitz_constant_near_the_float_limit_gives_an_infinite_worstcase_rhs(tmp_path):
    # D sqrt(dim PW) ||L-error|| overflows; the rhs is a vacuous inf, with
    # no overflow warning on the way.  g vanishes on the spectra but for
    # g(0) = 1, so the worst-case lhs are norms of zero matrices: 0.0, not -0.0
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(6)\nfilters = heat(1e308)\nseed = 1\n")
    out_dir = tmp_path / "out"
    assert cli.main(["coarsen-transfer", "--config", str(path), "--out", str(out_dir)]) == 0
    rows = (out_dir / "bounds.csv").read_text().splitlines()
    cells = [row.split(",")[-3:-1] for row in rows if ",worstcase_in_" in row]
    assert cells == [["0.0", "inf"], ["0.0", "inf"]]


@pytest.mark.filterwarnings("error")
def test_frobenius_stability_of_a_filter_near_1e160_is_finite(tmp_path):
    # squared, the filter matrices' Frobenius norms overflow; the exit code
    # is left open, as a per-mode row of this run fails on roundoff alone
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(6)\nfilters = poly(0,1e160)\nseed = 1\n"
                    "perturbations = remove_edges(0.2), remove_vertices(0.2)\n")
    out_dir = tmp_path / "out"
    cli.main(["perturb-stability", "--config", str(path), "--out", str(out_dir)])
    with open(out_dir / "stability.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["perturbation"] for row in rows] == ["remove_edges(0.2)", "remove_vertices(0.2)"]
    for row in rows:
        assert row["pass"] == "true"
        assert float(row["filter_frobenius"]) == pytest.approx(
            1e160 * float(row["laplacian_frobenius"]), rel=1e-12)
        assert float(row["filter_relative"]) == pytest.approx(
            float(row["laplacian_relative"]), rel=1e-12)
    assert float(rows[0]["filter_frobenius"]) == pytest.approx(2e160, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_filter_relative_of_a_filter_near_the_float_limit_equals_laplacian_relative(tmp_path):
    # ||g||_F of this linear filter exceeds the float range while the ratio
    # of its norms does not; the exit code is left open, as the mode-0 row
    # of this run fails on roundoff alone
    path = tmp_path / "cfg.txt"
    path.write_text("graph = path(6)\nfilters = poly(0,4e307)\nseed = 1\n"
                    "perturbations = remove_edges(0.2)\n")
    out_dir = tmp_path / "out"
    cli.main(["perturb-stability", "--config", str(path), "--out", str(out_dir)])
    with open(out_dir / "stability.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert abs(float(row["filter_relative"]) - float(row["laplacian_relative"])) <= 1e-12


@pytest.mark.parametrize("config", [
    "configs/coarsen_transfer.txt",
    "configs/perturb_stability.txt",
    # its remove_edges(0.2) mode-0 row fails on roundoff alone
    "experiment = perturb-stability\ngraph = path(6)\nfilters = poly(0,1e160)\n"
    "perturbations = remove_edges(0.2)\nseed = 1\n",
], ids=["coarsen_transfer", "perturb_stability", "path6-poly1e160"])
def test_every_pass_cell_is_certified_of_its_lhs_and_rhs(config, tmp_path):
    # the per-mode verdicts come from one vectorised certified() call; each
    # must equal the scalar call on the numbers the row prints
    if config.startswith("configs/"):
        path = Path(__file__).resolve().parents[1] / config
    else:
        path = tmp_path / "cfg.txt"
        path.write_text(config)
    experiment = experiments.ExperimentConfig.from_file(path).experiment
    out_dir = tmp_path / "out"
    code = cli.main([experiment, "--config", str(path), "--out", str(out_dir)])
    verdicts = []
    for table in ("modes.csv", "bounds.csv"):
        with open(out_dir / table, newline="") as fh:
            for row in csv.DictReader(fh):
                passed = certified(float(row["lhs"]), float(row["rhs"]))
                assert row["pass"] == ("true" if passed else "false"), (table, row)
                verdicts.append(passed)
    assert code == (0 if all(verdicts) else 1)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: mode 0's computed eigenvalue 4.1e-16 is roundoff, which the "
    "filter's slope of 1e4 turns into an lhs of 3.6e-12 against an rhs of 1.3e-15",
)
@pytest.mark.parametrize("experiment, key", [
    ("coarsen-transfer", "band = 0.5"),
    ("perturb-stability", "perturbations = remove_vertices(0.5)"),
], ids=["coarsen-transfer", "perturb-stability"])
def test_a_steep_lowpass_on_grid3x4_certifies(experiment, key, tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("graph = grid(3,4)\nlaplacian = unnormalized\n"
                    f"filters = lowpass(0.0001)\n{key}\nseed = 3\n")
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="pointwise_in_M's rhs takes sup|g| ||c - RSc|| where the identity "
    "g(L)c - R g(D) S c = (I - RS) g(L)c + R (S g(L) - g(D) S) c needs "
    "||(I - RS) g(L)c||",
)
def test_pointwise_in_m_certifies_when_half_of_path2_is_removed(tmp_path):
    for seed in (1, 4, 5):
        path = tmp_path / f"cfg{seed}.txt"
        path.write_text(
            f"graph = path(2)\nperturbations = remove_vertices(0.5)\nseed = {seed}\n"
        )
        out_dir = tmp_path / f"out{seed}"
        code = cli.main(["perturb-stability", "--config", str(path), "--out", str(out_dir)])
        lowpass = [row for row in (out_dir / "bounds.csv").read_text().splitlines()
                   if row.startswith("lowpass(1),") and ",pointwise_in_M," in row]
        assert len(lowpass) == 1 and lowpass[0].endswith(",true"), seed
        assert code == 0, seed


@pytest.mark.parametrize("graph_format", ["edge_list", "matrix_market", "off"])
def test_undecodable_graph_file_exits_two_naming_it(graph_format, tmp_path, capsys):
    graph_file = tmp_path / "noise.bin"
    graph_file.write_bytes(np.random.default_rng(0).bytes(200))
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph_file = {graph_file}\ngraph_format = {graph_format}\nseed = 1\n")
    code = cli.main(["coarsen-transfer", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"cannot read graph file {graph_file}" in err[0]


@pytest.mark.parametrize("experiment",
                         ["perturb-stability", "coarsen-transfer", "convnet-transfer"])
def test_a_directed_graph_exits_two_with_one_message(experiment, tmp_path, capsys):
    # a directed 4-cycle, written with the header of a directed graph
    ring = tmp_path / "ring.mtx"
    ring.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "4 4 4\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 1 1.0\n")
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph_file = {ring}\ngraph_format = matrix_market\nseed = 3\n")
    code = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {ring}: line 1: a 'general' Matrix Market header "
        "declares a directed graph, and only undirected graphs are supported; write "
        "the file with a 'symmetric' header"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_a_vertex_whose_weights_cancel_exits_two_before_matching(tmp_path, capsys):
    # vertex 1 has edges of weight 1 and -1: degree 0, which the heavy-edge
    # score divides by
    edges = tmp_path / "signed.txt"
    edges.write_text("0 1 1.0\n1 2 -1.0\n2 3 2.0\n")
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph_file = {edges}\nlaplacian = unnormalized\nseed = 1\n")
    code = cli.main(["coarsen-transfer", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "spectral-transfer: error: vertex 1 has edges but degree 0; heavy-edge "
        "matching scores an edge by the inverse degrees of its ends"
    ]
    assert not (tmp_path / "out").exists()


_REFERENCE_NET = (Path(__file__).resolve().parents[1] / "configs" / "reference_net.ini").read_text()


@pytest.mark.parametrize("old, new, line, section, message", [
    ("bands = 0.3, 0.6, 1.0", "bands = 0.3, nan, 1.0", 5, "net",
     "bad value for bands: 'nan' is not a finite number"),
    ("bands = 0.3, 0.6, 1.0", "bands = 0.3, 0.6, inf", 5, "net",
     "bad value for bands: 'inf' is not a finite number"),
    ("mix = 1.0 ; 1.0", "mix = nan ; 1.0", 9, "layer 1",
     "bad value for mix: 'nan' is not a finite number"),
    ("biases = 0.0, 0.0\npooling = max", "biases = inf, 0.0\npooling = max", 10, "layer 1",
     "bad value for biases: 'inf' is not a finite number"),
    ("activation = relu", "activation: relu", 4, "net",
     "expected 'key = value', got 'activation: relu'"),
    ("mix = 1.0 ; 1.0", "mix = 1.0 ;\n  1.0", 10, "layer 1",
     "no indented or continuation lines in a sectioned config, got '1.0'"),
    ("biases = 0.0, 0.0\npooling = max", "biases =\npooling = max", 10, "layer 1",
     "expected 'key = value', got 'biases ='"),
    ("[layer 2]", "[layer 7]", 13, "layer 7", "layers must be numbered 1 to 2"),
    ("[layer 2]", "[layer 01]", 13, "layer 01", "expected [net] or [layer k], k = 1, 2, ..."),
    ("[layer 2]", "[layer 1]", 13, "layer 1", "duplicate section"),
    ("pooling = none", "pooling = none\nmix = 1.0", 18, "layer 2", "duplicate key 'mix'"),
    ("activation = relu", "activation = relu%", 4, "net",
     "bad value for activation: unknown activation 'relu%'"),
], ids=["bands-nan", "bands-inf", "mix-nan", "biases-inf", "colon-delimiter",
        "continuation-line", "empty-value", "layer-number-gap", "layer-number-zero-padded",
        "repeated-section", "repeated-key", "percent-is-literal"])
def test_net_file_follows_the_config_grammar(tmp_path, capsys, old, new, line, section,
                                             message):
    assert old in _REFERENCE_NET
    net = tmp_path / "net.ini"
    net.write_text(_REFERENCE_NET.replace(old, new, 1))
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph = path(16)\nlaplacian = normalized\nnet = {net}\nseed = 7\n")
    code = cli.main(["convnet-transfer", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {net}: line {line}: [{section}]: {message}"
    ]


@pytest.mark.parametrize("graph_format, text", [
    ("edge_list", "0 100000000 1\n"),
    ("edge_list", "0 100000000000000000000 1\n"),
    ("matrix_market",
     "%%MatrixMarket matrix coordinate real symmetric\n100000000 100000000 1\n2 1 1\n"),
], ids=["edge-list-index", "edge-list-index-beyond-int64", "matrix-market-rows"])
def test_graph_too_large_for_a_dense_matrix_exits_two(graph_format, text, tmp_path, capsys):
    # 10^8 vertices ask for 71 PiB, which no allocator grants; a smaller
    # count could really be allocated.  numpy refuses a dimension of 10^20
    # outright, with a ValueError rather than a MemoryError.
    graph_file = tmp_path / "huge.txt"
    graph_file.write_text(text)
    path = tmp_path / "cfg.txt"
    path.write_text(f"graph_file = {graph_file}\ngraph_format = {graph_format}\nseed = 1\n")
    code = cli.main(["coarsen-transfer", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spectral-transfer: error: graph of 1000000")
    assert "dense" in err[0] and "GiB" in err[0]


_MM = "%%MatrixMarket matrix coordinate real symmetric\n"
_NET_LAYER = "[layer 1]\nfilters = lowpass(2.0)\nmix = 1.0\n"


@pytest.mark.parametrize("experiment, keys, text, message", [
    ("coarsen-transfer", "graph_file = {file}", "0 1\n",
     "{file}: line 1: expected 'u v w', got 2 tokens"),
    ("coarsen-transfer", "graph_file = {file}", "0 -1 1.0\n",
     "{file}: line 1: negative vertex index (0, -1)"),
    ("coarsen-transfer", "graph_file = {file}", "# no edges\n", "{file}: no edges found"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = bogus", "0 1 1.0\n",
     "{cfg}: line 2: graph_format must be one of edge_list, matrix_market, off, got 'bogus'"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = matrix_market", _MM + "3 3\n",
     "{file}: line 2: expected 'rows cols nnz'"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = matrix_market", _MM + "3 4 1\n",
     "{file}: line 2: adjacency must be square, got 3x4"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = matrix_market",
     _MM + "3 3 1\n2 1 nan\n", "{file}: line 3: non-finite value nan"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = matrix_market",
     _MM + "% no size line\n", "{file}: missing size line"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = off", "OFF\n",
     "{file}: expected 'n_vertices n_faces n_edges' after header"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = off",
     "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "{file}: declared 2 faces, found 1"),
    ("coarsen-transfer", "graph_file = {file}\ngraph_format = off",
     "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
     "{file}: line 6: face lists 3 vertices but has 2"),
    ("convnet-transfer", "graph = path(16)\nnet = {file}",
     "[net]\nbands = 0.1, 0.2\n[layer 1]\nfilters = lowpass(2.0), heat(0.5) ; heat(0.5)\n"
     "mix = 1.0 ; 1.0\n",
     "{file}: line 3: [layer 1]: filter grid must be rectangular and nonempty"),
    ("convnet-transfer", "graph = path(16)\nnet = {file}",
     "[net]\nbands = 0.1, 0.2\n" + _NET_LAYER + "biases = 0.0, 0.0\n",
     "{file}: line 3: [layer 1]: need 1 biases, got (2,)"),
    ("convnet-transfer", "graph = path(16)\nnet = {file}", "[net]\nbands = 0.1\n",
     "{file}: line 1: [net]: network needs at least one layer"),
    ("convnet-transfer", "graph = path(16)\nnet = {file}", _NET_LAYER,
     "{file}: missing [net] section"),
    ("convnet-transfer", "graph = path(16)\nnet = {file}",
     "[net]\nbands = 0.1, 0.2, 0.3\n" + _NET_LAYER,
     "{file}: line 1: [net]: need 2 bands for 1 layers"),
    ("coarsen-transfer", "graph = path(8)\nfilters = table({file})", "# no knots\n",
     "{cfg}: line 2: {file}: empty filter table"),
    ("coarsen-transfer", "graph = path(8)", None,
     "cannot write {out}/summary.txt: [Errno 21] Is a directory: '{out}/summary.txt'"),
], ids=["edge-list-two-tokens", "edge-list-negative-index", "edge-list-empty",
        "unknown-graph-format", "matrix-market-short-size-line", "matrix-market-not-square",
        "matrix-market-nan", "matrix-market-no-size-line", "off-no-counts",
        "off-missing-face", "off-short-face", "net-ragged-filter-grid", "net-extra-bias",
        "net-no-layer", "net-no-net-section", "net-band-count", "empty-filter-table",
        "summary-path-is-a-directory"])
def test_an_input_or_output_error_exits_two_with_one_line(tmp_path, capsys, experiment, keys,
                                                          text, message):
    file, out = tmp_path / "input.txt", tmp_path / "out"
    if text is None:
        (out / "summary.txt").mkdir(parents=True)
    else:
        file.write_text(text)
    path = tmp_path / "cfg.txt"
    path.write_text(keys.format(file=file) + "\nseed = 4\n")
    assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "spectral-transfer: error: " + message.format(file=file, out=out, cfg=path)
    ]


# the keys each experiment's runner reads besides experiment, seed, out and
# svg, which every experiment reads
_GRAPH_KEYS = {"graph", "graph_file", "graph_format", "laplacian"}
_CAMPAIGN_KEYS = {"sizes", "trials", "delta", "kernel_band", "circle_band", "weights"}
_READ_BY = {
    "coarsen-transfer": _GRAPH_KEYS | {"filters", "band"},
    "perturb-stability": _GRAPH_KEYS | {"filters", "band", "perturbations"},
    "circle-sampling": _CAMPAIGN_KEYS,
    "mc-verify": _CAMPAIGN_KEYS,
    "convnet-transfer": _GRAPH_KEYS | {"net", "net_perturbation", "probes"},
}
# a small config of each experiment that certifies, and a value for every
# key that some experiment does not read
_BASE_CONFIGS = {
    "coarsen-transfer": "graph = path(8)\nfilters = lowpass(2.0)\n",
    "perturb-stability": "graph = path(8)\nfilters = lowpass(2.0)\n"
                         "perturbations = remove_edges(0.1)\n",
    "circle-sampling": "sizes = 32, 64, 128\ntrials = 30\n",
    "mc-verify": "sizes = 32\ntrials = 100\n",
    "convnet-transfer": "graph = path(16)\nprobes = 2\n",
}
_REFERENCE_NET_PATH = Path(__file__).resolve().parents[1] / "configs" / "reference_net.ini"
_KEY_VALUES = {
    "graph": "path(8)", "graph_file": "{edges}", "graph_format": "edge_list",
    "laplacian": "normalized", "filters": "heat(1)", "band": "0.5",
    "perturbations": "remove_edges(0.5)", "sizes": "64", "trials": "50", "delta": "0.25",
    "kernel_band": "4.0", "circle_band": "1.0", "weights": "uniform",
    "net": str(_REFERENCE_NET_PATH), "net_perturbation": "remove_edges(0.1)", "probes": "3",
}


def _run_config(tmp_path, experiment, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text + "seed = 4\n")
    return path, cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("experiment, key", [
    (experiment, key) for experiment, read in _READ_BY.items()
    for key in _KEY_VALUES if key not in read
])
def test_a_key_the_experiment_does_not_read_exits_two_naming_its_readers(
        tmp_path, capsys, experiment, key):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 1.0\n")
    value = _KEY_VALUES[key].format(edges=edges)
    path, code = _run_config(tmp_path, experiment, f"{_BASE_CONFIGS[experiment]}{key} = {value}\n")
    line = _BASE_CONFIGS[experiment].count("\n") + 1
    readers = ", ".join(e for e in experiments.EXPERIMENTS if key in _READ_BY[e])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {path}: line {line}: key {key!r} is not read by "
        f"{experiment} (read by {readers})"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, text, line, key", [
    ("circle-sampling", "filters = heat(1)\nband = 0.5\nnet = {net}\n"
                        "perturbations = remove_edges(0.5)\n", 1, "filters"),
    ("convnet-transfer", "graph = path(16)\nfilters = heat(1)\nband = 0.5\n", 2, "filters"),
    ("coarsen-transfer", "graph = path(8)\nprobes = 3\ngraph_format = off\n", 2, "probes"),
], ids=["circle-sampling", "convnet-transfer", "coarsen-transfer"])
def test_configs_that_set_keys_their_experiment_ignores_exit_two(tmp_path, capsys, experiment,
                                                                 text, line, key):
    path, code = _run_config(tmp_path, experiment, text.format(net=_REFERENCE_NET_PATH))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"spectral-transfer: error: {path}: line {line}: key {key!r} "
                             f"is not read by {experiment} (read by ")


@pytest.mark.parametrize("experiment", ["coarsen-transfer", "perturb-stability",
                                        "convnet-transfer"])
def test_graph_format_without_graph_file_exits_two(tmp_path, capsys, experiment):
    path, code = _run_config(tmp_path, experiment, "graph = path(16)\ngraph_format = off\n")
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"spectral-transfer: error: {path}: line 2: key 'graph_format' is read only with "
        "graph_file"
    ]
