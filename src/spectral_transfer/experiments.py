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
  plus, on undirected graphs, Frobenius-norm filter stability against the
  Lipschitz line.
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
from dataclasses import asdict, dataclass, field, fields

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
from .errors import ConfigError, SpectralTransferError
from .filters import Filter, make_filter
from .graphs import (
    OperatorWithInnerProduct,
    WeightedGraph,
    build_laplacian,
    frobenius_norm,
    unit_scale,
)
from .graphs import eigendecompose  # noqa: F401  (uncalled; bench/test_bench.py reads it)
from .graph_io import parse_graph, synthetic_graph
from .montecarlo import (
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
    mode, args = parse_descriptor(descriptor, ConfigError)
    try:
        if len(args) != 1:
            raise ValueError(f"takes 1 argument, got {len(args)}")
        return PerturbationSpec(mode, finite_float(args[0]), seed=seed)
    except (ValueError, SpectralTransferError) as exc:
        raise ConfigError(f"{descriptor.strip()}: {exc}") from None


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description: one field, and one
    default, per config key.  What the experiment runs is parsed with the
    config, before any graph work or trial: ``parsed_filters`` holds the
    ``Filter``s of the experiments that run ``filters``,
    ``parsed_perturbations`` the ``PerturbationSpec``s of
    ``perturbations`` (perturb-stability) or of ``net_perturbation``
    (convnet-transfer), and ``trial_configs`` one ``TrialConfig`` per
    weight of the Monte-Carlo experiments."""

    experiment: str
    seed: int | None = None
    out_dir: str = "spectral_transfer_out"
    svg: bool = False
    graph: str | None = None
    graph_file: str | None = None
    graph_format: str = "edge_list"
    laplacian: str | None = None  # normalized for convnet-transfer, else unnormalized
    filters: tuple = ("lowpass(1.0)", "highpass(1.0)", "heat(1.0)")
    band: float | None = None
    perturbations: tuple = ("remove_edges(0.05)", "remove_edges(0.1)", "add_edges(0.05)",
                            "add_edges(0.1)", "remove_vertices(0.05)")
    sizes: tuple = (64, 256, 1024)
    trials: int = 50
    delta: float = 0.25
    kernel_band: float = 4.0
    circle_band: float = 1.0
    weights: tuple = ("uniform", "cosine")
    net_file: str | None = None
    net_perturbation: str = "remove_edges(0.1)"
    probes: int = 10
    parsed_filters: tuple = field(init=False, repr=False, compare=False)
    parsed_perturbations: tuple = field(init=False, repr=False, compare=False)
    trial_configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; pick one of "
                + ", ".join(EXPERIMENTS)
            )
        if self.seed is None:
            raise ConfigError("a seed is mandatory (config 'seed' or --seed)")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        sources = (self.graph is not None) + (self.graph_file is not None)
        if self.experiment in ("circle-sampling", "mc-verify"):
            if sources:
                raise ConfigError(f"{self.experiment} takes no graph input")
        elif sources != 1:
            raise ConfigError(
                "exactly one graph source is required: 'graph' or 'graph_file'"
            )
        for path in (self.graph_file, self.net_file):
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"referenced file does not exist: {path}")
        if self.probes < 1:
            raise ConfigError(f"probes must be at least 1, got {self.probes}")
        if self.band is not None and not self.band >= 0:
            raise ConfigError(f"band must be nonnegative, got {self.band:g}")
        for name in ("filters", "perturbations", "sizes", "weights"):
            if not getattr(self, name):
                raise ConfigError(f"{name} needs at least one entry")
        if self.laplacian is None:
            kind = "normalized" if self.experiment == "convnet-transfer" else "unnormalized"
            object.__setattr__(self, "laplacian", kind)
        parsed = ()
        if self.experiment in ("coarsen-transfer", "perturb-stability"):
            parsed = tuple(make_filter(desc) for desc in self.filters)
            named = {}  # report name -> descriptor; the summary is keyed by name
            for desc, filt in zip(self.filters, parsed):
                if filt.name in named:
                    raise ConfigError(f"filters {named[filt.name]!r} and {desc!r} share "
                                      f"the report name {filt.name!r}")
                named[filt.name] = desc
        object.__setattr__(self, "parsed_filters", parsed)
        perturbations = ()
        if self.experiment == "perturb-stability":
            perturbations = tuple(
                _parse_perturbation(desc, _substream(self.seed, "perturb", index))
                for index, desc in enumerate(self.perturbations)
            )
        elif self.experiment == "convnet-transfer":
            perturbations = (_parse_perturbation(
                self.net_perturbation, _substream(self.seed, "net-perturb")
            ),)
            if perturbations[0].mode == "remove_vertices":
                raise ConfigError("the network comparison needs equal-size graphs; "
                                  "use edge perturbations")
        object.__setattr__(self, "parsed_perturbations", perturbations)
        trial_configs = ()
        if self.experiment in ("circle-sampling", "mc-verify"):
            sampling = self.experiment == "circle-sampling"
            trial_configs = tuple(
                TrialConfig(
                    band=self.circle_band, kernel_band=self.kernel_band,
                    sizes=self.sizes, trials=self.trials, delta=self.delta,
                    master_seed=_substream(
                        self.seed, "circle" if sampling else "verify", weight
                    ),
                    weight=weight, **({"activation_probes": 0} if sampling else {}),
                )
                for weight in self.weights
            )
            check = check_slope_fit_inputs if sampling else check_failure_rate_inputs
            check(trial_configs[0])
        object.__setattr__(self, "trial_configs", trial_configs)

    @classmethod
    def from_file(cls, path, experiment: str | None = None,
                  seed: int | None = None, out_dir: str | None = None,
                  svg: bool | None = None) -> "ExperimentConfig":
        """Read a flat ``key = value`` file; CLI arguments override file keys.

        Lines are blank, ``#``/``;`` comments or unindented ``key = value``
        with a known, unrepeated key (any case) and a literal nonempty value.
        """
        source = TextFile(path, ConfigError, "config")
        values = {}
        for lineno, _, key, value in config_entries(source):
            if key not in _FIELD_OF_KEY:
                raise source.fail(lineno, f"unknown key, got {source.lines[lineno - 1].strip()!r}")
            with source.at(lineno, prefix=f"bad value for {key}: "):
                values[_FIELD_OF_KEY[key]] = _PARSERS.get(key, str)(value)
        file_experiment = values.get("experiment")
        if None not in (experiment, file_experiment) and experiment != file_experiment:
            raise ConfigError(
                f"config says experiment = {file_experiment}, "
                f"command line says {experiment}"
            )
        overrides = {"experiment": experiment, "seed": seed, "out_dir": out_dir, "svg": svg}
        values.update((k, v) for k, v in overrides.items() if v is not None)
        if "experiment" not in values:
            raise ConfigError("no experiment named (config key or argument)")
        return cls(**values)

    def load_graph(self) -> WeightedGraph:
        if self.graph is not None:
            return synthetic_graph(self.graph, default_seed=self.seed)
        return parse_graph(self.graph_file, self.graph_format)


def _tuple_of(cast):
    return lambda text: tuple(cast(part) for part in split_top_level(text))


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


# config key -> field; only 'out' and 'net' differ from their field names
_FIELD_OF_KEY = {
    {"out_dir": "out", "net_file": "net"}.get(f.name, f.name): f.name
    for f in fields(ExperimentConfig) if f.init
}
# config key -> parser of its value; every other key is text
_PARSERS = {
    "seed": int, "trials": int, "probes": int, "svg": _true_or_false,
    "band": finite_float, "delta": finite_float,
    "kernel_band": finite_float, "circle_band": finite_float,
    "filters": _tuple_of(str), "perturbations": _tuple_of(str),
    "weights": _tuple_of(str), "sizes": _tuple_of(int),
}


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
    """Shared per-setting certification: rows, summaries, each filter's D, verdict."""
    mode_rows, bound_rows, scatter_points, lipschitz = [], [], [], []
    all_ok = True
    summaries = {}
    for filt in config.parsed_filters:
        report = evaluate_transfer(setting, filt, signal_seed=config.seed)
        for row in report.per_mode:
            mode_rows.append((
                filt.name, setting.name, row.mode, row.eigenvalue, row.lhs,
                row.rhs, row.quotient, row.laplacian_mode_error, row.satisfied,
            ))
            scatter_points.append((row.laplacian_mode_error, row.lhs, filt.name))
        for bound in report.bounds:
            bound_rows.append((
                filt.name, setting.name, bound.name, bound.lhs, bound.rhs,
                bound.satisfied,
            ))
        all_ok &= report.all_satisfied
        lipschitz.append(report.lipschitz_constant)
        summaries[filt.name] = {key: getattr(report, key) for key in (
            "filter_error", "laplacian_error", "consistency_error",
            "interpolation_norm", "lipschitz_constant", "grouped_spectrum",
        )}
    return mode_rows, bound_rows, scatter_points, summaries, lipschitz, all_ok


def _run_coarsen_transfer(config: ExperimentConfig) -> ReportBundle:
    graph = config.load_graph()
    space = GraphSpace.from_graph(graph, config.laplacian)
    cmap = coarsen_matching(graph)
    setting = coarsening_setting(space, cmap, band=config.band, name="coarsening")
    modes, bounds, points, summaries, lipschitz, ok = _collect_transfer_rows(setting, config)
    d_max = max(lipschitz)
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
        scatters={
            "scatter": ScatterData(
                "per-mode laplacian transfer error",
                "per-mode filter transfer error",
                tuple(points), d_max, f"y = {d_max:g} x",
            )
        },
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
    }
    scatters = {}
    if graph.directed:
        summary["stability"] = (
            "no Frobenius stability rows: a directed Laplacian is normal only under its "
            "own inner product, and no theorem bounds ||g(L) - g(L')||_F by "
            "D ||L - L'||_F across two inner products")
    else:
        tables["stability"] = (
            ("perturbation", "filter", "laplacian_frobenius",
             "filter_frobenius", "laplacian_relative", "filter_relative",
             "lipschitz", "pass"),
            tuple(stability_rows),
        )
        d_max = max(row[6] for row in stability_rows)  # each filter's certified D
        scatters["scatter"] = ScatterData(
            "Laplacian Frobenius error", "filter Frobenius error",
            tuple((lap, filt_abs, name) for _, name, lap, filt_abs, *_ in stability_rows),
            d_max, f"y = {d_max:g} x",
        )
    return ReportBundle("perturb-stability", summary, tables, scatters, all_certified=ok)


def _perturbation_rows(config: ExperimentConfig, graph: WeightedGraph,
                       space: GraphSpace, desc: str, spec) -> tuple:
    """Transfer rows, summary, stability rows and verdict of one perturbation.

    A function of its own so that the perturbed operator, its setting and
    its eigenbasis overlap are freed before the next perturbation is built.
    Stability rows are written for undirected graphs only.
    """
    result = perturb_graph_detailed(graph, spec)
    delta_op = build_laplacian(result.graph, config.laplacian)
    restriction = None
    if result.kept_vertices is not None:
        restriction = result.restriction_matrix(graph.n_vertices)
    setting = perturbation_setting(
        space, delta_op, restriction=restriction, band=config.band, name=desc
    )
    modes, bounds, _, summary, lipschitz, ok = _collect_transfer_rows(setting, config)
    if graph.directed:
        return modes, bounds, summary, [], ok

    # Frobenius stability, the fine operator restricted first when vertices
    # were removed.  Both operators are normal in the dot product: with
    # orthonormal eigenbases U, V and W = U^H V, g(L) - g(L') =
    # U (W o (g(l_i) - g(m_j))) V^H (Hoffman & Wielandt, 1953).
    fine_mat, fine_eig = space.operator.matrix, space.eig
    if restriction is not None:
        fine_mat = restriction @ fine_mat @ restriction.T
        fine_eig = OperatorWithInnerProduct.symmetric(fine_mat).eig
    lap_abs = frobenius_norm(fine_mat - delta_op.matrix)
    lap_rel = lap_abs / max(frobenius_norm(fine_mat), 1e-30)
    overlap = np.abs(fine_eig.basis.T @ delta_op.eig.basis)
    stability = []
    for filt, d_lip in zip(config.parsed_filters, lipschitz):  # D of its bounds
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


def _run_circle_sampling(config: ExperimentConfig) -> ReportBundle:
    rows = []
    slopes = {}
    ok = True
    for trial_cfg in config.trial_configs:
        weight = trial_cfg.weight
        results = run_trials(trial_cfg, bound_constants(trial_cfg))
        fit = slope_fit(trial_cfg, results)
        slopes[weight] = {"laplacian": fit.laplacian, "gram": fit.gram}
        for quantity in ("laplacian", "gram"):
            ok &= _SLOPE_WINDOW[0] <= slopes[weight][quantity] <= _SLOPE_WINDOW[1]
        for r in results:
            rows.append((
                weight, r.size, r.trial, r.laplacian_err, r.gram_err,
                r.laplacian_bound, r.gram_bound,
            ))
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
        tables={
            "trials": (
                ("weight", "n", "trial", "laplacian_error", "gram_error",
                 "laplacian_bound", "gram_bound"),
                tuple(rows),
            )
        },
        all_certified=ok,
    )


def _run_mc_verify(config: ExperimentConfig) -> ReportBundle:
    rows = []
    rates = {}
    ok = True
    constants_out = {}
    for trial_cfg in config.trial_configs:
        weight = trial_cfg.weight
        constants = bound_constants(trial_cfg)
        results = run_trials(trial_cfg, constants)
        rate = failure_rate(trial_cfg, results)
        rates[weight] = {
            "laplacian": rate.laplacian, "gram": rate.gram,
            "activation": rate.activation, "trials": rate.trials,
        }
        ok &= all(certified(r, config.delta) for r in rate.as_tuple())
        chain_ok = certified(constants.kernel_l2, constants.lambda_l1)
        ok &= chain_ok
        constants_out[weight] = {**asdict(constants), "norm_chain_ok": chain_ok}
        for r in results:
            v = r.violations
            rows.append((
                weight, r.size, r.trial, r.laplacian_err, r.gram_err,
                r.activation_err, r.laplacian_bound, r.gram_bound,
                r.activation_bound, v[0], v[1], v[2],
            ))
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
            "constants": constants_out,
        },
        tables={
            "trials": (
                ("weight", "n", "trial", "laplacian_error", "gram_error",
                 "activation_error", "laplacian_bound", "gram_bound",
                 "activation_bound", "laplacian_violation", "gram_violation",
                 "activation_violation"),
                tuple(rows),
            )
        },
        all_certified=ok,
    )


def default_convnet_spec(space: GraphSpace) -> ConvNetSpec:
    """The reference 2-layer network: channels 1 -> 2 -> 2, unit mixing,
    bias-free, relu, max pooling after the first layer, bands covering 4,
    6, and 8 modes of the input graph.  A band keeps the modes with
    ``|lambda|`` up to it, so the bands fall between sorted ``|lambda|``."""
    lams = np.sort(np.abs(space.eig.values))
    if lams.shape[0] < 9:
        raise ConfigError("the default network needs a graph with >= 9 modes")
    bands = (
        float((lams[3] + lams[4]) / 2),
        float((lams[5] + lams[6]) / 2),
        float((lams[7] + lams[8]) / 2),
    )
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
    if config.net_file is not None:
        spec = load_convnet_spec(config.net_file)
    else:
        spec = default_convnet_spec(space)

    other = perturb_graph_detailed(graph, config.parsed_perturbations[0]).graph
    other_op = build_laplacian(other, config.laplacian)
    setting1 = ConvNetGraphSetting.build(space, spec, graph, space.operator)
    setting2 = ConvNetGraphSetting.build(space, spec, other, other_op)

    # setting1's layer-0 operator is the space's own
    union = np.concatenate([op.eig.values for setting in (setting1, setting2)
                            for op in setting.operators])
    spec = spec.normalized_on(union)

    hyp1 = hypothesis_errors(setting1, spec, n_probes=config.probes,
                             seed=_substream(config.seed, "hyp", 1))
    hyp2 = hypothesis_errors(setting2, spec, n_probes=config.probes,
                             seed=_substream(config.seed, "hyp", 2))
    delta = max(hyp1.delta, hyp2.delta)
    # the theorem assumes delta < 1 strictly; a hypothesis, not a bound to certify
    ok = delta < 1.0

    count = space.dim_pw(spec.bands[-1])
    d_lip = network_lipschitz(spec, (setting1, setting2))
    a_bound = max(spec.mixing_bound(), 1.0)
    b_bound = 0.0 if spec.bias_free() else spec.max_bias() * np.sqrt(graph.n_vertices)
    bound = convnet_transfer_bound(
        spec.n_layers, d_lip, a_bound, b_bound, delta, count
    ) if ok else float("inf")

    rng = np.random.default_rng(
        np.random.SeedSequence((_substream(config.seed, "net-probes"),))
    )
    probes = unit_probes(rng, space.dim_pw(spec.bands[0]), config.probes)
    err1, err2, err12 = output_errors(spec, setting1, setting2, probes)

    cert_rows = []
    for name, value in (("space_vs_graph1", err1), ("space_vs_graph2", err2),
                        ("two_graph", err12)):
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

    hyp_rows = []
    for j, hyp in ((1, hyp1), (2, hyp2)):
        for l, v in enumerate(hyp.laplacian):
            hyp_rows.append((j, "laplacian", l, v))
        hyp_rows.append((j, "consistency", spec.n_layers, hyp.consistency))
        for l, v in enumerate(hyp.activation, start=1):
            hyp_rows.append((j, "activation", l, v))
        for l, v in enumerate(hyp.pooling, start=1):
            hyp_rows.append((j, "pooling", l, v))

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
            "errors": {"space_vs_graph1": err1, "space_vs_graph2": err2,
                       "two_graph": err12},
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
