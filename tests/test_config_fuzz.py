"""Config fuzzing: no config text, and no filter, band or Laplacian value,
ends in anything but a library error or one of the CLI's exit codes."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer import cli
from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.experiments import EXPERIMENTS, ExperimentConfig

_KEYS = (
    "experiment", "seed", "out", "svg", "graph", "graph_file", "graph_format",
    "laplacian", "filters", "band", "perturbations", "sizes", "trials",
    "delta", "kernel_band", "circle_band", "weights", "net",
    "net_perturbation", "probes",
)
_BAD_VALUES = ("inf", "-inf", "nan", "%", "%(seed)s", "", "-1", "0", "1e400", ",")
_GOOD_VALUES = EXPERIMENTS + (
    "7", "2.5", "true", "false", "path(8)", "grid(3,3)", "edge_list",
    "unnormalized", "normalized", "lowpass(1.0), heat(0.5)", "remove_edges(0.1)",
    "64, 256", "uniform, cosine",
)
_ODD_LINES = (
    "# comment", "; comment", "", "   ", "[x]", "[experiment]", "no equals here",
    "seed: 4", "  seed = 4", "    heat(1.0)", "= 3",
)

_key_value_lines = st.builds(
    "{} = {}".format,
    st.sampled_from(_KEYS + ("bogus", "SEED")),
    st.sampled_from(_BAD_VALUES + _GOOD_VALUES),
)


def _write(directory, text):
    path = os.path.join(directory, "cfg.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return path


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_key_value_lines, st.sampled_from(_ODD_LINES)), max_size=12),
    st.sampled_from((None,) + EXPERIMENTS),
    st.sampled_from((None, 0, 5)),
)
def test_any_config_text_loads_or_raises_a_library_error(lines, experiment, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "\n".join(lines) + "\n")
        try:
            config = ExperimentConfig.from_file(path, experiment=experiment, seed=seed)
        except SpectralTransferError:
            return
    assert config.experiment in EXPERIMENTS


_numbers = st.one_of(
    st.sampled_from(("inf", "-inf", "nan", "0", "-1", "1e-300", "1e300", "x")),
    st.floats(min_value=-10.0, max_value=10.0).map(repr),
)
_filters = st.one_of(
    st.builds("{}({})".format,
              st.sampled_from(("heat", "lowpass", "highpass", "poly", "bogus")),
              _numbers),
    st.builds("midpass({},{})".format, _numbers, _numbers),
    st.builds("poly({},{})".format, _numbers, _numbers),
    st.sampled_from(("identity", "lowpass()", "heat", "table(nowhere.txt)", "%")),
)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(_filters, min_size=0, max_size=3).map(", ".join),
    st.one_of(st.none(), _numbers),
    st.sampled_from((None, "unnormalized", "normalized", "adjacency", "bogus", "%(seed)s")),
)
def test_coarsen_transfer_on_a_path_exits_zero_one_or_two(n, filters, band, laplacian):
    keys = {"graph": f"path({n})", "filters": filters, "band": band,
            "laplacian": laplacian, "seed": "3"}
    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)
        path = _write(tmp, text)
        code = cli.main([
            "coarsen-transfer", "--config", path, "--out", os.path.join(tmp, "out"),
        ])
    assert code in (0, 1, 2)


def _mostly(good, bad):
    """Values of which about four in five are ``good``."""
    return st.sampled_from(good * (4 * len(bad)) + bad * len(good))


_sizes = st.lists(
    _mostly(("8", "16", "32"), ("-1", "0", "1", "3", "8.5", "x")), min_size=1, max_size=4,
).map(", ".join)
_weights = st.lists(_mostly(("uniform", "cosine"), ("bogus",)), min_size=1,
                    max_size=2).map(", ".join)
_band_bad = ("-1", "nan", "inf", "x")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(("circle-sampling", "mc-verify")),
    _sizes,
    _mostly(("30", "34", "100"), ("-1", "0", "1", "29", "1.5", "x")),
    _mostly(("0.25", "0.9", "1e-300"), ("0", "1", "nan", "inf", "x")),
    _mostly(("0", "0.5", "1", "2.5"), _band_bad + ("4", "1e300")),
    # kernel bands stay small: the kernel-band basis has 2 sqrt(band) + 1 columns
    _mostly(("4", "9"), _band_bad + ("0", "1")),
    _weights,
)
def test_monte_carlo_keys_exit_zero_one_or_two(
    experiment, sizes, trials, delta, circle_band, kernel_band, weights
):
    keys = {"sizes": sizes, "trials": trials, "delta": delta,
            "circle_band": circle_band, "kernel_band": kernel_band,
            "weights": weights, "seed": "3"}
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "".join(f"{k} = {v}\n" for k, v in keys.items()))
        code = cli.main([experiment, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)
