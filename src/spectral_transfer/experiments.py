"""Experiment configuration and orchestration.

Configs are flat ``key = value`` text files (grammar in the README);
loading one resolves every default and parses the filters before any
graph work.  Every run is a pure function of (config, seed): all
randomness derives from the master seed through named substreams, so
reruns produce byte-identical reports.

Five experiments cover the certification surface:

* ``coarsen-transfer``    -- heavy-edge coarsening with the collapsed
  operator; per-mode and aggregate filter bounds.
* ``perturb-stability``   -- edge/vertex perturbations; the same bounds
  plus Frobenius-norm filter stability against the Lipschitz line.
* ``circle-sampling``     -- Monte-Carlo convergence slopes of the sampled
  Laplacian and Gram errors.
* ``mc-verify``           -- empirical failure rates of the three explicit
  bounds against their probability budget.
* ``convnet-transfer``    -- two-graph network certification from measured
  hypothesis terms, plus the contraction property.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .convnet import (
    Activation,
    ConvNetGraphSetting,
    ConvNetSpec,
    LayerSpec,
    convnet_transfer_bound,
    forward_graph,
    hypothesis_errors,
    load_convnet_spec,
    network_lipschitz,
    output_errors,
)
from .errors import SpectralTransferError
from .filters import Filter, make_filter
from .graphs import (
    LAPLACIAN_KINDS,
    OperatorWithInnerProduct,
    WeightedGraph,
    build_laplacian,
    frobenius_norm,
    unit_scale,
)
from .graphs import eigendecompose  # noqa: F401  (uncalled; bench/test_bench.py reads it)
from .graph_io import GRAPH_FORMATS, parse_graph, synthetic_graph
from .montecarlo import (
    QUANTITIES,
    TrialConfig,
    bound_constants,
    check_failure_rate_inputs,
    check_slope_fit_inputs,
    failure_rate,
    run_trials,
    slope_fit,
)
from .reports import ReportBundle, ScatterData
from .sampling import (
    PerturbationSpec,
    coarsen_matching,
    perturb_graph_detailed,
    unit_probes,
)
from .spaces import GraphSpace
from .textio import TextFile, config_entries, finite_float, parse_descriptor, split_top_level
from .transfer import (
    certified,
    coarsening_setting,
    evaluate_transfer,
    perturbation_setting,
)

EXPERIMENTS = (
    "coarsen-transfer",
    "perturb-stability",
    "circle-sampling",
    "convnet-transfer",
    "mc-verify",
)

_MODES_HEADER = (
    "filter", "setting", "mode", "eigenvalue", "lhs", "rhs", "quotient",
    "laplacian_mode_error", "pass",
)
_BOUNDS_HEADER = ("filter", "setting", "bound", "lhs", "rhs", "pass")


def _parse_perturbation(descriptor: str, seed: int) -> PerturbationSpec:
    mode, args = parse_descriptor(descriptor)
    try:
        if len(args) != 1:
            raise ValueError(f"takes 1 argument, got {len(args)}")
        return PerturbationSpec(mode, finite_float(args[0]), seed=seed)
    except (ValueError, SpectralTransferError) as exc:
        raise SpectralTransferError(f"{descriptor.strip()}: {exc}") from None


def _substream(master_seed: int, *key) -> int:
    """Derive a deterministic child seed from the master and a name.

    Uses crc32, not hash(): Python string hashing is randomized per
    process and would break byte-identical reruns.
    """
    mixed = np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=tuple(zlib.crc32(str(k).encode()) for k in key),
    )
    return int(mixed.generate_state(1, dtype=np.uint64)[0])


def _reject_repeats(key: str, entries: tuple, each_needs: str) -> None:
    """Raise naming the first two positions of an entry repeated in ``key``."""
    for index, entry in enumerate(entries):
        if entry in entries[:index]:
            raise SpectralTransferError(f"{key} {entries.index(entry) + 1} and {index + 1} "
                                        f"are both {entry!r}: each needs its own {each_needs}",
                                        key)


# TrialConfig field -> the config key that sets it, where the two differ
_TRIAL_KEYS = {"band": "circle_band", "weight": "weights"}


@contextmanager
def _reading(key: str):
    """Blame config key ``key`` for an error from the block that names no
    input; one that names a TrialConfig field blames that field's key."""
    try:
        yield
    except SpectralTransferError as exc:
        exc.key = key if exc.key is None else _TRIAL_KEYS.get(exc.key, exc.key)
        raise


def _tuple_of(cast):
    return lambda text: tuple(cast(part) for part in split_top_level(text))


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _key(read_by, default=None, parse=str, key=None):
    """A config key's field, None until given or defaulted: the experiments
    that read it (a dict gives each its own default), its parser, and its
    config name where that is not the field's."""
    defaults = read_by if isinstance(read_by, dict) else dict.fromkeys(read_by, default)
    return field(default=None, metadata={"read_by": defaults, "parse": parse, "key": key})


_GRAPHS = ("coarsen-transfer", "perturb-stability", "convnet-transfer")
_FILTERS = ("coarsen-transfer", "perturb-stability")
_CAMPAIGNS = ("circle-sampling", "mc-verify")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description: one field per config
    key, whose ``_key`` names the experiments that read it and its default
    there.  Giving a key the experiment does not read is an error, as is
    ``graph_format`` without ``graph_file``; an unread key's field stays
    None.  What the experiment runs is parsed with the config, before any
    graph work or trial: ``parsed_filters`` holds the ``Filter``s of
    ``filters``, ``parsed_perturbations`` the ``PerturbationSpec``s of
    ``perturbations`` or of ``net_perturbation``, and ``trial_configs``
    one ``TrialConfig`` per weight."""

    experiment: str = _key(EXPERIMENTS)
    seed: int | None = _key(EXPERIMENTS, parse=int)
    out_dir: str | None = _key(EXPERIMENTS, "spectral_transfer_out", key="out")
    svg: bool | None = _key(EXPERIMENTS, False, _true_or_false)
    graph: str | None = _key(_GRAPHS)
    graph_file: str | None = _key(_GRAPHS)
    graph_format: str | None = _key(_GRAPHS, "edge_list")
    laplacian: str | None = _key({**dict.fromkeys(_FILTERS, "unnormalized"),
                                  "convnet-transfer": "normalized"})
    filters: tuple | None = _key(_FILTERS, ("lowpass(1.0)", "highpass(1.0)", "heat(1.0)"),
                                 _tuple_of(str))
    band: float | None = _key(_FILTERS, parse=finite_float)
    perturbations: tuple | None = _key(
        ("perturb-stability",), ("remove_edges(0.05)", "remove_edges(0.1)", "add_edges(0.05)",
                                 "add_edges(0.1)", "remove_vertices(0.05)"), _tuple_of(str))
    sizes: tuple | None = _key(_CAMPAIGNS, (64, 256, 1024), _tuple_of(int))
    trials: int | None = _key(_CAMPAIGNS, 50, int)
    delta: float | None = _key(_CAMPAIGNS, 0.25, finite_float)
    kernel_band: float | None = _key(_CAMPAIGNS, 4.0, finite_float)
    circle_band: float | None = _key(_CAMPAIGNS, 1.0, finite_float)
    weights: tuple | None = _key(_CAMPAIGNS, ("uniform", "cosine"), _tuple_of(str))
    net_file: str | None = _key(("convnet-transfer",), key="net")
    net_perturbation: str | None = _key(("convnet-transfer",), "remove_edges(0.1)")
    probes: int | None = _key(("convnet-transfer",), 10, int)
    parsed_filters: tuple = field(default=(), init=False, repr=False, compare=False)
    parsed_perturbations: tuple = field(default=(), init=False, repr=False, compare=False)
    trial_configs: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise SpectralTransferError(f"unknown experiment {self.experiment!r}; "
                                        f"pick one of {', '.join(EXPERIMENTS)}", "experiment")
        given = [key for key, f in CONFIG_KEYS.items() if getattr(self, f.name) is not None]
        for _, message in _unread(self.experiment, given):
            raise SpectralTransferError(message)
        for f in CONFIG_KEYS.values():
            if getattr(self, f.name) is None:
                object.__setattr__(self, f.name, f.metadata["read_by"].get(self.experiment))
        if self.seed is None:
            raise SpectralTransferError("a seed is mandatory (config 'seed' or --seed)")
        if self.seed < 0:
            raise SpectralTransferError(f"seed must be nonnegative, got {self.seed}", "seed")
        if self.experiment in _GRAPHS and (self.graph is None) == (self.graph_file is None):
            raise SpectralTransferError("exactly one graph source is required: "
                                        "'graph' or 'graph_file'", "graph_file")
        for key, path in (("graph_file", self.graph_file), ("net", self.net_file)):
            if path is not None and not os.path.exists(path):
                raise SpectralTransferError(f"referenced file does not exist: {path} (relative "
                                            "paths are taken from the working directory)", key)
        for key, kinds in (("laplacian", LAPLACIAN_KINDS), ("graph_format", GRAPH_FORMATS)):
            if getattr(self, key) not in (None, *kinds):
                raise SpectralTransferError(f"{key} must be one of {', '.join(kinds)}, "
                                            f"got {getattr(self, key)!r}", key)
        if self.probes is not None and self.probes < 1:
            raise SpectralTransferError(f"probes must be at least 1, got {self.probes}", "probes")
        if self.band is not None and not self.band >= 0:
            raise SpectralTransferError(f"band must be nonnegative, got {self.band:g}", "band")
        for name in ("filters", "perturbations", "sizes", "weights"):
            if getattr(self, name) == ():
                raise SpectralTransferError(f"{name} needs at least one entry", name)
        if self.filters is not None:
            with _reading("filters"):
                parsed = tuple(make_filter(desc) for desc in self.filters)
            named = {}  # report name -> descriptor; the summary is keyed by name
            for desc, filt in zip(self.filters, parsed):
                if filt.name in named:
                    raise SpectralTransferError(f"filters {named[filt.name]!r} and {desc!r} "
                                                f"share the report name {filt.name!r}", "filters")
                named[filt.name] = desc
            object.__setattr__(self, "parsed_filters", parsed)
        if self.perturbations is not None:
            # each draw is a setting named, and summarised, by its descriptor
            _reject_repeats("perturbations", self.perturbations, "setting name")
            with _reading("perturbations"):
                object.__setattr__(self, "parsed_perturbations", tuple(
                    _parse_perturbation(desc, _substream(self.seed, "perturb", index))
                    for index, desc in enumerate(self.perturbations)
                ))
        if self.net_perturbation is not None:
            with _reading("net_perturbation"):
                spec = _parse_perturbation(self.net_perturbation,
                                           _substream(self.seed, "net-perturb"))
            if spec.mode == "remove_vertices":
                raise SpectralTransferError("the network comparison needs equal-size "
                                            "graphs; use edge perturbations", "net_perturbation")
            object.__setattr__(self, "parsed_perturbations", (spec,))
        if self.weights is not None:
            sampling = self.experiment == "circle-sampling"
            with _reading("weights"):
                trial_configs = tuple(
                    TrialConfig(
                        band=self.circle_band, kernel_band=self.kernel_band,
                        sizes=self.sizes, trials=self.trials, delta=self.delta,
                        master_seed=_substream(self.seed, "circle" if sampling else "verify",
                                               weight),
                        weight=weight, **({"activation_probes": 0} if sampling else {}),
                    )
                    for weight in self.weights
                )
                # each weight's campaign is drawn from, and summarised by, its name
                _reject_repeats("weights", self.weights, "campaign")
                (check_slope_fit_inputs if sampling else check_failure_rate_inputs)(
                    trial_configs[0])
            object.__setattr__(self, "trial_configs", trial_configs)

    @classmethod
    def from_file(cls, path, experiment: str | None = None,
                  seed: int | None = None, out_dir: str | None = None,
                  svg: bool | None = None) -> "ExperimentConfig":
        """Read a flat ``key = value`` file; CLI arguments override file keys.

        Lines are blank, ``#``/``;`` comments or unindented ``key = value``
        with a known, unrepeated key (any case) and a literal nonempty value.
        A key the experiment does not read, and a key whose value fails a
        check, is named with its line.
        """
        source = TextFile(path, "config")
        values, lines = {}, {}
        for lineno, _, key, value in config_entries(source):
            if key not in CONFIG_KEYS:
                raise source.fail(lineno, f"unknown key, got {source.lines[lineno - 1].strip()!r}")
            with source.at(lineno, prefix=f"bad value for {key}: "):
                values[CONFIG_KEYS[key].name] = CONFIG_KEYS[key].metadata["parse"](value)
            lines[key] = lineno
        file_experiment = values.get("experiment")
        if None not in (experiment, file_experiment) and experiment != file_experiment:
            raise SpectralTransferError(f"config says experiment = {file_experiment}, "
                                        f"command line says {experiment}")
        overrides = {"experiment": experiment, "seed": seed, "out": out_dir, "svg": svg}
        for key, value in overrides.items():
            if value is not None:
                values[CONFIG_KEYS[key].name] = value
                lines.pop(key, None)  # the value is not the file's
        if "experiment" not in values:
            raise SpectralTransferError("no experiment named (config key or argument)")
        if values["experiment"] in EXPERIMENTS:
            for key, message in _unread(values["experiment"], lines):
                raise source.fail(lines[key], message)
        try:
            return cls(**values)
        except SpectralTransferError as exc:
            if exc.key not in lines:
                raise
            raise source.fail(lines[exc.key], str(exc)) from None

    def load_graph(self) -> WeightedGraph:
        if self.graph is not None:
            return synthetic_graph(self.graph, default_seed=self.seed)
        return parse_graph(self.graph_file, self.graph_format)


# config key -> its field; only 'out' and 'net' differ from their field names
CONFIG_KEYS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig) if f.init}


def _unread(experiment: str, given):
    """``(key, message)`` of each ``given`` config key ``experiment`` does not read."""
    for key in given:
        read_by = CONFIG_KEYS[key].metadata["read_by"]
        if experiment not in read_by:
            yield key, f"key {key!r} is not read by {experiment} (read by {', '.join(read_by)})"
        elif key == "graph_format" and "graph_file" not in given:
            yield key, "key 'graph_format' is read only with graph_file"


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Dispatch; certification status lands in the returned bundle."""
    runner = {
        "coarsen-transfer": _run_coarsen_transfer,
        "perturb-stability": _run_perturb_stability,
        "circle-sampling": _run_circle_sampling,
        "mc-verify": _run_mc_verify,
        "convnet-transfer": _run_convnet_transfer,
    }[config.experiment]
    return runner(config)


def _collect_transfer_rows(setting, config: ExperimentConfig):
    """Shared per-setting certification: rows, scatter points, each
    filter's summary entry (its D among them) and the verdict."""
    if setting.dim_pw == 0:
        raise SpectralTransferError(f"band {setting.band:g} keeps no mode of the source "
                                    "spectrum, so no bound would be checked")
    mode_rows, bound_rows, scatter_points = [], [], []
    all_ok = True
    summaries = {}
    for filt in config.parsed_filters:
        per_mode, bounds, summaries[filt.name] = evaluate_transfer(setting, filt,
                                                                   signal_seed=config.seed)
        for row in per_mode:
            mode_rows.append((filt.name, setting.name, *row))
            scatter_points.append((row.laplacian_mode_error, row.lhs, filt.name))
        bound_rows.extend((filt.name, setting.name, *row) for row in bounds)
        all_ok &= all(row.satisfied for row in (*per_mode, *bounds))
    return mode_rows, bound_rows, scatter_points, summaries, all_ok


def _run_coarsen_transfer(config: ExperimentConfig) -> ReportBundle:
    graph = config.load_graph()
    space = GraphSpace.from_graph(graph, config.laplacian)
    cmap = coarsen_matching(graph)
    setting = coarsening_setting(space, cmap, band=config.band, name="coarsening")
    modes, bounds, points, summaries, ok = _collect_transfer_rows(setting, config)
    d_max = max(entry["lipschitz_constant"] for entry in summaries.values())
    return ReportBundle(
        experiment="coarsen-transfer",
        summary={
            "seed": config.seed,
            "graph": config.graph or config.graph_file,
            "laplacian": config.laplacian,
            "n_fine": graph.n_vertices,
            "n_coarse": cmap.n_coarse,
            "band": setting.band,
            "filters": summaries,
        },
        tables={
            "modes": (_MODES_HEADER, tuple(modes)),
            "bounds": (_BOUNDS_HEADER, tuple(bounds)),
        },
        scatters={"scatter": ScatterData("per-mode laplacian transfer error",
                                         "per-mode filter transfer error", tuple(points), d_max)},
        all_certified=ok,
    )


def _run_perturb_stability(config: ExperimentConfig) -> ReportBundle:
    graph = config.load_graph()
    space = GraphSpace.from_graph(graph, config.laplacian)
    all_modes, all_bounds, stability_rows = [], [], []
    summaries = {}
    ok = True
    for desc, spec in zip(config.perturbations, config.parsed_perturbations):
        modes, bounds, summary, stability, perturbation_ok = _perturbation_rows(
            config, graph, space, desc, spec
        )
        all_modes.extend(modes)
        all_bounds.extend(bounds)
        summaries[desc] = summary
        stability_rows.extend(stability)
        ok &= perturbation_ok
    summary = {
        "seed": config.seed,
        "graph": config.graph or config.graph_file,
        "laplacian": config.laplacian,
        "perturbations": summaries,
    }
    tables = {
        "modes": (_MODES_HEADER, tuple(all_modes)),
        "bounds": (_BOUNDS_HEADER, tuple(all_bounds)),
        "stability": (("perturbation", "filter", "laplacian_frobenius",
                       "filter_frobenius", "laplacian_relative", "filter_relative",
                       "lipschitz", "pass"), tuple(stability_rows)),
    }
    d_max = max(row[6] for row in stability_rows)  # each filter's certified D
    scatters = {"scatter": ScatterData(
        "Laplacian Frobenius error", "filter Frobenius error",
        tuple((lap, filt_abs, name) for _, name, lap, filt_abs, *_ in stability_rows),
        d_max,
    )}
    return ReportBundle("perturb-stability", summary, tables, scatters, all_certified=ok)


def _perturbation_rows(config: ExperimentConfig, graph: WeightedGraph,
                       space: GraphSpace, desc: str, spec) -> tuple:
    """Transfer rows, summary, stability rows and verdict of one perturbation.

    A function of its own so that the perturbed operator, its setting and
    its eigenbasis overlap are freed before the next perturbation is built.
    """
    result = perturb_graph_detailed(graph, spec)
    delta_op = build_laplacian(result.graph, config.laplacian)
    setting = perturbation_setting(
        space, delta_op, kept=result.kept_vertices, band=config.band, name=desc
    )
    modes, bounds, _, summary, ok = _collect_transfer_rows(setting, config)
    # Frobenius stability, the fine operator restricted first when vertices
    # were removed.  Both operators are symmetric: with
    # orthonormal eigenbases U, V and W = U^H V, g(L) - g(L') =
    # U (W o (g(l_i) - g(m_j))) V^H (Hoffman & Wielandt, 1953).
    fine_mat, fine_eig = space.operator.matrix, space.eig
    if result.kept_vertices is not None:
        fine_mat = fine_mat[np.ix_(result.kept_vertices, result.kept_vertices)]
        fine_eig = OperatorWithInnerProduct.symmetric(fine_mat).eig
    lap_abs = frobenius_norm(fine_mat - delta_op.matrix)
    lap_rel = lap_abs / max(frobenius_norm(fine_mat), 1e-30)
    if setting.complete:
        overlap = np.abs(setting.q.T)  # S = U, so the bounds' Q = V^H U is W^H
    else:
        overlap = np.abs(fine_eig.basis.T @ delta_op.eig.basis)
    stability = []
    for filt in config.parsed_filters:
        d_lip = summary[filt.name]["lipschitz_constant"]  # D of its bounds
        g_fine = filt.evaluate(fine_eig.values)
        g_delta = filt.evaluate(delta_op.eig.values)
        # g scaled by a power of two, which cancels exactly from both norms
        # and their ratio and keeps ||g||_F in range
        scale = unit_scale(np.abs(np.append(g_fine, g_delta)).max(initial=0.0))
        g_fine, g_delta = scale * g_fine, scale * g_delta
        scaled_abs = frobenius_norm(overlap * (g_fine[:, None] - g_delta[None, :]))
        with np.errstate(over="ignore"):
            filt_abs = float(scaled_abs / scale)
        filt_rel = float(scaled_abs / max(frobenius_norm(g_fine), 1e-30 * scale))
        dominated = certified(filt_abs, d_lip * lap_abs)
        ok &= dominated
        stability.append((
            desc, filt.name, lap_abs, filt_abs, lap_rel, filt_rel,
            d_lip, dominated,
        ))
    return modes, bounds, summary, stability, ok


# an empirical window around the predicted rate -1/2, not a bound: no slack
_SLOPE_WINDOW = (-0.65, -0.35)
# the columns of trials.csv after ``weight``, named as in the trial results;
# ``tolist`` gives their cells as Python scalars
_SAMPLING_COLUMNS = ("n", "trial", "laplacian_error", "gram_error",
                     "laplacian_bound", "gram_bound")
_MC_VERIFY_COLUMNS = ("n", "trial", "laplacian_error", "gram_error", "activation_error",
                      "laplacian_bound", "gram_bound", "activation_bound",
                      "laplacian_violation", "gram_violation", "activation_violation")


def _run_circle_sampling(config: ExperimentConfig) -> ReportBundle:
    rows = []
    slopes = {}
    ok = True
    for trial_cfg in config.trial_configs:
        weight = trial_cfg.weight
        results = run_trials(trial_cfg, bound_constants(trial_cfg))
        slopes[weight] = slope_fit(trial_cfg, results)
        ok &= all(_SLOPE_WINDOW[0] <= s <= _SLOPE_WINDOW[1] for s in slopes[weight].values())
        rows.extend(zip(repeat(weight), *(results[c].tolist() for c in _SAMPLING_COLUMNS)))
    return ReportBundle(
        experiment="circle-sampling",
        summary={
            "seed": config.seed,
            "band": config.circle_band,
            "kernel_band": config.kernel_band,
            "sizes": list(config.sizes),
            "trials": config.trials,
            "slope_window": list(_SLOPE_WINDOW),
            "slopes": slopes,
        },
        tables={"trials": (("weight", *_SAMPLING_COLUMNS), tuple(rows))},
        all_certified=ok,
    )


def _run_mc_verify(config: ExperimentConfig) -> ReportBundle:
    rows = []
    rates = {}
    ok = True
    constants = {}
    for trial_cfg in config.trial_configs:
        weight = trial_cfg.weight
        constants[weight] = bound_constants(trial_cfg)
        results = run_trials(trial_cfg, constants[weight])
        rates[weight] = failure_rate(trial_cfg, results)
        ok &= all(certified(rates[weight][q], config.delta) for q in QUANTITIES)
        ok &= constants[weight]["norm_chain_ok"]
        rows.extend(zip(repeat(weight), *(results[c].tolist() for c in _MC_VERIFY_COLUMNS)))
    return ReportBundle(
        experiment="mc-verify",
        summary={
            "seed": config.seed,
            "delta": config.delta,
            "band": config.circle_band,
            "kernel_band": config.kernel_band,
            "sizes": list(config.sizes),
            "trials_per_weight": config.trials * len(config.sizes),
            "failure_rates": rates,
            "constants": constants,
        },
        tables={"trials": (("weight", *_MC_VERIFY_COLUMNS), tuple(rows))},
        all_certified=ok,
    )


def default_convnet_spec(space: GraphSpace) -> ConvNetSpec:
    """The reference 2-layer network: channels 1 -> 2 -> 2, unit mixing,
    bias-free, relu, max pooling after the first layer, bands covering 4,
    6, and 8 modes of the input graph.  A band keeps the modes with
    ``|lambda|`` up to it, so the bands fall between consecutive entries
    of ``|values|``, which the decomposition orders by ``|lambda|``."""
    lams = np.abs(space.eig.values)
    if lams.shape[0] < 9:
        raise SpectralTransferError("the default network needs a graph with >= 9 modes")
    bands = tuple(float((lams[k - 1] + lams[k]) / 2) for k in (4, 6, 8))
    layer1 = LayerSpec(
        ((Filter.lowpass(2.0),), (Filter.heat(0.5),)),
        np.array([[1.0], [1.0]]),
        np.zeros(2),
        "max",
    )
    layer2 = LayerSpec(
        ((Filter.lowpass(2.0), Filter.heat(0.5)),
         (Filter.heat(0.5), Filter.lowpass(2.0))),
        np.array([[0.5, 0.5], [0.5, -0.5]]),
        np.zeros(2),
        "none",
    )
    return ConvNetSpec((layer1, layer2), Activation("relu"), bands)


def _run_convnet_transfer(config: ExperimentConfig) -> ReportBundle:
    graph = config.load_graph()
    space = GraphSpace.from_graph(graph, config.laplacian)
    spec = (default_convnet_spec(space) if config.net_file is None
            else load_convnet_spec(config.net_file))

    other = perturb_graph_detailed(graph, config.parsed_perturbations[0]).graph
    other_op = build_laplacian(other, config.laplacian)
    setting1 = ConvNetGraphSetting.build(space, spec, graph, space.operator)
    setting2 = ConvNetGraphSetting.build(space, spec, other, other_op)

    # setting1's layer-0 operator is the space's own
    union = np.concatenate([op.eig.values for setting in (setting1, setting2)
                            for op in setting.operators])
    spec = spec.normalized_on(union)

    hyp_rows = [(j, *row) for j, setting in ((1, setting1), (2, setting2))
                for row in hypothesis_errors(setting, spec, n_probes=config.probes,
                                             seed=_substream(config.seed, "hyp", j))]
    delta = max(value for *_, value in hyp_rows)
    # the theorem assumes delta < 1 strictly; a hypothesis, not a bound to certify
    ok = delta < 1.0

    count = space.dim_pw(spec.bands[-1])
    d_lip = network_lipschitz(spec, (setting1, setting2))
    a_bound = max(spec.mixing_bound(), 1.0)
    b_bound = 0.0 if spec.bias_free() else spec.max_bias() * np.sqrt(graph.n_vertices)
    bound = convnet_transfer_bound(
        spec.n_layers, d_lip, a_bound, b_bound, delta, count
    ) if ok else float("inf")

    rng = np.random.default_rng(np.random.SeedSequence((_substream(config.seed, "net-probes"),)))
    probes = unit_probes(rng, space.dim_pw(spec.bands[0]), config.probes)
    errors = output_errors(spec, setting1, setting2, probes)

    cert_rows = []
    for name, value in errors.items():
        passed = ok and certified(value, bound)
        ok &= passed
        cert_rows.append((name, value, bound, passed))

    contraction_ok = None
    if spec.bias_free() and certified(spec.mixing_bound(), 1.0):
        contraction_ok = _contraction_check(
            spec, setting1, _substream(config.seed, "contraction")
        )
        ok &= contraction_ok
        cert_rows.append(("contraction_50_pairs", float(not contraction_ok),
                          0.0, contraction_ok))

    return ReportBundle(
        experiment="convnet-transfer",
        summary={
            "seed": config.seed,
            "graph": config.graph or config.graph_file,
            "laplacian": config.laplacian,
            "perturbation": config.net_perturbation,
            "layers": spec.n_layers,
            "bands": list(spec.bands),
            "mode_count": count,
            "lipschitz": d_lip,
            "mixing_bound": spec.mixing_bound(),
            "delta": delta,
            "bound": bound,
            "errors": errors,
            "contraction_ok": contraction_ok,
        },
        tables={
            "hypothesis": (("graph", "term", "layer", "value"), tuple(hyp_rows)),
            "certification": (("quantity", "lhs", "rhs", "pass"), tuple(cert_rows)),
        },
        all_certified=ok,
    )


def _contraction_check(spec: ConvNetSpec, setting: ConvNetGraphSetting,
                       seed: int) -> bool:
    """Whether each of 50 seeded input pairs keeps its output gap within
    its input gap, up to the ``certified`` slack; all 100 inputs run as
    one matrix."""
    pairs = 50
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    n = setting.operators[0].dim
    # f1 then f2 of each pair, in pair order; each n x pairs
    f1, f2 = rng.normal(size=(pairs, 2, n)).transpose(1, 2, 0)
    outputs = forward_graph(
        spec, setting.operators[: spec.n_layers], setting.pooling_maps,
        [np.hstack([f1, f2])],
    )[-1]
    gap = np.linalg.norm(f1 - f2, axis=0)
    return all(
        np.all(certified(np.linalg.norm(out[:, :pairs] - out[:, pairs:], axis=0), gap))
        for out in outputs
    )
