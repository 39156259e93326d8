"""Command-line behaviour: exit codes, overrides, verdict soundness."""

import pytest

from spectral_transfer import cli
from spectral_transfer.reports import ReportBundle


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
    assert err.splitlines() == ["spectral-transfer: error: unknown laplacian kind 'bogus'"]


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
    assert err.splitlines() == [f"spectral-transfer: error: probes must be at least 1, got {probes}"]
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
    ("", "filters = lowpass(2.0)\nmix = 1.0\n"),
    ("", _NET_HEAD + "[layer 1]\nmix = 1.0\n"),
    ("", _NET_HEAD + "[layer 1]\nfilters = lowpass(2.0)\nmix = one\n"),
    ("", _NET_HEAD + _LAYER_ONE + "biases = zero\n"),
    ("", _NET_HEAD + _LAYER_ONE.replace("layer 1", "layer one")),
], ids=[
    "lowpass-zero", "highpass-zero", "midpass-zero-width", "lowpass-no-argument",
    "lowpass-two-arguments", "poly-empty", "negative-band", "net-no-section-header",
    "net-layer-without-filters", "net-non-numeric-mix", "net-non-numeric-biases",
    "net-layer-name-not-a-number",
])
def test_bad_filter_band_and_net_inputs_exit_two(tmp_path, capsys, keys, net_text):
    if net_text is None:
        text = f"experiment = coarsen-transfer\ngraph = path(8)\n{keys}\nseed = 4\n"
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
    assert not (tmp_path / "out").exists()
