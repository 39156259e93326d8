"""Config fuzzing: no config text, and no filter, band or Laplacian value,
ends in anything but a library error or one of the CLI's exit codes."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
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


def _write(directory, text, name="cfg.txt"):
    path = os.path.join(directory, name)
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


_fractions = st.one_of(
    st.sampled_from(("0", "0.5", "1", "-1", "nan", "x")),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
)
_perturbations = st.lists(
    st.builds("{}({})".format,
              st.sampled_from(("remove_edges", "add_edges", "remove_vertices", "bogus")),
              _fractions),
    min_size=1, max_size=3,
).map(", ".join)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(("path(2)", "path(6)", "grid(3,3)", "random-geometric(9,0.6)")),
    st.lists(_filters, min_size=0, max_size=3).map(", ".join),
    _perturbations,
    st.sampled_from(("unnormalized", "normalized", "adjacency")),
    st.one_of(st.none(), _numbers),
)
# squared, the filter's Frobenius norms overflow
@example("path(6)", "poly(0,1e300)", "remove_edges(0.2)", "unnormalized", None)
def test_perturb_stability_exits_zero_one_or_two(graph, filters, perturbations,
                                                 laplacian, band):
    keys = {"graph": graph, "filters": filters, "perturbations": perturbations,
            "laplacian": laplacian, "band": band, "seed": "3"}
    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)
        path = _write(tmp, text)
        code = cli.main([
            "perturb-stability", "--config", path, "--out", os.path.join(tmp, "out"),
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


_NET_LINES = (Path(__file__).resolve().parents[1] / "configs" / "reference_net.ini"
              ).read_text().split("\n")
_NET_KEY_LINES = tuple(i for i, line in enumerate(_NET_LINES)
                       if " = " in line and not line.startswith("#"))
_NET_HEADERS = ("[net]", "[layer 1]", "[layer 01]", "[layer 2]", "[Layer 1]", "[pooling]")
# per key: values that fit the shipped network, then the same shapes with a
# non-finite number
_NET_VALUES = {
    "activation": (("relu", "abs"), ()),
    "bands": (("0.3, 0.6, 1.0", "0.2, 0.6, 0.6"), ("0.3, nan, 1.0", "0.3, 0.6, inf")),
    "filters": (("lowpass(2.0) ; heat(0.5)", "midpass(1.0,0.5) ; heat(0.5)",
                 "lowpass(2.0), heat(0.5) ; heat(0.5), lowpass(2.0)"), ("heat(nan) ; heat(0.5)",)),
    "mix": (("1.0 ; 1.0", "0.5, 0.5 ; 0.5, -0.5"), ("nan ; 1.0", "0.5, 0.5 ; -inf, -0.5")),
    "biases": (("0.0, 0.0", "0.1, -0.1"), ("inf, 0.0",)),
    "pooling": (("max", "none", "l2avg"), ()),
}
_NET_BAD = ("nan", "%", "relu%", "")
_net_forms = _mostly(("{} = {}",), ("{}: {}", "  {} = {}"))


def _net_line(key):
    good, non_finite = _NET_VALUES[key]
    values = st.one_of(st.sampled_from(good), st.sampled_from(non_finite + _NET_BAD))
    return st.builds(lambda value, form: form.format(key, value), values, _net_forms)


# a key line of the shipped file with a new value or form
_net_rewrites = st.sampled_from(_NET_KEY_LINES).flatmap(
    lambda i: st.tuples(st.just(i), _net_line(_NET_LINES[i].split(" = ")[0]))
)
# a header or key line inserted before a line of the shipped file
_net_inserts = st.tuples(
    st.integers(min_value=0, max_value=len(_NET_LINES)),
    st.one_of(st.sampled_from(_NET_HEADERS),
              st.sampled_from(tuple(_NET_VALUES)).flatmap(_net_line)),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(_net_rewrites, max_size=2), st.lists(_net_inserts, max_size=2))
def test_net_file_text_exits_zero_one_or_two(rewrites, inserts):
    lines = list(_NET_LINES)
    for index, line in rewrites:
        lines[index] = line
    for index, line in inserts:
        lines.insert(index, line)
    text = "\n".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        net = _write(tmp, text, "net.ini")
        path = _write(tmp, f"graph = path(16)\nlaplacian = normalized\nnet = {net}\nseed = 7\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["convnet-transfer", "--config", path,
                             "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if any(word in text for word in ("nan", "inf")):
        assert code == 2, err.getvalue()


_args = st.lists(
    st.one_of(st.sampled_from(("1", "2", "3", "8", "0.5", "0.1")),
              st.sampled_from(("nan", "inf", "-inf")),
              st.sampled_from(("0", "-1", "x", "", "(1)", "1)", "(1"))),
    min_size=1, max_size=3,
).map(",".join)


def _descriptors(*names):
    return st.builds(
        lambda name, args, shape: shape.format(name, args),
        _mostly(names, ("bogus", "", names[0].title(), names[0].upper())),
        _args,
        _mostly(("{}({})",), ("{}", "{}({}", "{}{})", "{}(({}))", "{} ({})", "{}({}))")),
    )


_graph_descriptors = _descriptors("random-geometric", "path", "grid")
_filter_descriptors = _descriptors("heat", "lowpass", "midpass", "poly", "identity")
_perturbation_descriptors = _descriptors("remove_edges", "add_edges", "remove_vertices")


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(st.just("graph"), _graph_descriptors),
    st.tuples(st.just("filters"),
              st.lists(_filter_descriptors, min_size=1, max_size=2).map(", ".join)),
    st.tuples(st.just("perturbations"),
              st.lists(_perturbation_descriptors, min_size=1, max_size=2).map(", ".join)),
    st.tuples(st.just("net_perturbation"), _perturbation_descriptors),
), st.sampled_from(("coarsen-transfer", "perturb-stability", "convnet-transfer")))
@example(("graph", "random-geometric(10,nan)"), "coarsen-transfer")
@example(("graph", "random-geometric(10,-inf)"), "convnet-transfer")
@example(("net_perturbation", "add_edges(nan)"), "convnet-transfer")
def test_descriptors_load_or_raise_a_library_error(key_and_value, experiment):
    key, value = key_and_value
    keys = {"experiment": experiment, "graph": "path(8)", "seed": "3", key: value}
    used = {"coarsen-transfer": ("graph", "filters"),
            "perturb-stability": ("graph", "filters", "perturbations"),
            "convnet-transfer": ("graph", "net_perturbation")}[experiment]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "".join(f"{k} = {v}\n" for k, v in keys.items() if v))
        try:
            ExperimentConfig.from_file(path).load_graph()
        except SpectralTransferError:
            return
    # a descriptor that the experiment reads takes finite numbers only
    assert key not in used or not any(word in value for word in ("nan", "inf"))
