"""Experiment configuration and orchestration.

Configs are flat ``key = value`` text files; every run is a pure function
of (config, seed): all randomness derives from the master seed through
named substreams, so reruns produce byte-identical reports.

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

import configparser
import functools
import os
import zlib
from dataclasses import dataclass

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
    output_errors,
)
from .errors import ConfigError, ParseError, SpectralTransferError
from .filters import Filter, filter_matrix, make_filter
from .graphs import OperatorWithInnerProduct, WeightedGraph, build_laplacian
from .graphs import eigendecompose  # noqa: F401  (uncalled; bench/test_bench.py reads it)
from .graph_io import parse_graph, parse_mesh_off, synthetic_graph
from .montecarlo import TrialConfig, bound_constants, failure_rate, run_trials, slope_fit
from .reports import ReportBundle, ScatterData
from .sampling import (
    PerturbationSpec,
    coarsen_matching,
    perturb_graph_detailed,
    unit_probes,
)
from .spaces import GraphSpace
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


def split_top_level(text: str) -> list:
    """Split on commas that are not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_perturbation(descriptor: str, seed: int) -> PerturbationSpec:
    descriptor = descriptor.strip()
    if "(" not in descriptor or not descriptor.endswith(")"):
        raise ConfigError(f"cannot parse perturbation {descriptor!r}")
    mode, arg = descriptor[:-1].split("(", 1)
    try:
        return PerturbationSpec(mode.strip(), float(arg), seed=seed)
    except (ValueError, SpectralTransferError) as exc:
        raise ConfigError(f"{descriptor}: {exc}") from None


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
    """Parsed and validated experiment description."""

    experiment: str
    seed: int
    out_dir: str
    svg: bool = False
    graph: str | None = None
    graph_file: str | None = None
    graph_format: str = "edge_list"
    laplacian: str = "unnormalized"
    filters: tuple = ("lowpass(1.0)", "highpass(1.0)", "heat(1.0)")
    band: float | None = None
    perturbations: tuple = ()
    sizes: tuple = (64, 256, 1024)
    trials: int = 50
    delta: float = 0.25
    kernel_band: float = 4.0
    circle_band: float = 1.0
    weights: tuple = ("uniform", "cosine")
    net_file: str | None = None
    net_perturbation: str = "remove_edges(0.1)"
    probes: int = 10

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; pick one of "
                + ", ".join(EXPERIMENTS)
            )
        if self.seed is None:
            raise ConfigError("a seed is mandatory (config 'seed' or --seed)")
        needs_graph = self.experiment in (
            "coarsen-transfer", "perturb-stability", "convnet-transfer"
        )
        has_descriptor = self.graph is not None
        has_file = self.graph_file is not None
        if needs_graph and has_descriptor == has_file:
            raise ConfigError(
                "exactly one graph source is required: 'graph' or 'graph_file'"
            )
        if not needs_graph and (has_descriptor or has_file):
            raise ConfigError(f"{self.experiment} takes no graph input")
        for path in (self.graph_file, self.net_file):
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"referenced file does not exist: {path}")
        if self.probes < 1:
            raise ConfigError(f"probes must be at least 1, got {self.probes}")
        if self.band is not None and not self.band >= 0:
            raise ConfigError(f"band must be nonnegative, got {self.band:g}")

    @classmethod
    def from_file(cls, path, experiment: str | None = None,
                  seed: int | None = None, out_dir: str | None = None,
                  svg: bool | None = None) -> "ExperimentConfig":
        """Read a flat key = value file; CLI arguments override file keys."""
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            parser.read_string("[experiment]\n" + text)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        raw = dict(parser["experiment"])

        def take(key, cast, default):
            if key not in raw:
                return default
            value = raw.pop(key).strip()
            try:
                return cast(value)
            except (ValueError, ParseError) as exc:
                raise ConfigError(f"{path}: bad value for {key}: {exc}") from None

        def tuple_of(cast):
            return lambda v: tuple(cast(p) for p in split_top_level(v))

        file_experiment = take("experiment", str, None)
        if experiment is None:
            experiment = file_experiment
        elif file_experiment is not None and file_experiment != experiment:
            raise ConfigError(
                f"config says experiment = {file_experiment}, "
                f"command line says {experiment}"
            )
        if experiment is None:
            raise ConfigError("no experiment named (config key or argument)")
        file_seed = take("seed", int, None)
        file_out = take("out", str, "spectral_transfer_out")
        file_svg = take("svg", lambda v: v.lower() == "true", False)
        config = cls(
            experiment=experiment,
            seed=seed if seed is not None else file_seed,
            out_dir=out_dir if out_dir is not None else file_out,
            svg=svg if svg is not None else file_svg,
            graph=take("graph", str, None),
            graph_file=take("graph_file", str, None),
            graph_format=take("graph_format", str, "edge_list"),
            laplacian=take("laplacian", str, "unnormalized"),
            filters=take("filters", tuple_of(str), cls.filters),
            band=take("band", float, None),
            perturbations=take("perturbations", tuple_of(str), ()),
            sizes=take("sizes", tuple_of(int), cls.sizes),
            trials=take("trials", int, 50),
            delta=take("delta", float, 0.25),
            kernel_band=take("kernel_band", float, 4.0),
            circle_band=take("circle_band", float, 1.0),
            weights=take("weights", tuple_of(str), cls.weights),
            net_file=take("net", str, None),
            net_perturbation=take("net_perturbation", str, "remove_edges(0.1)"),
            probes=take("probes", int, 10),
        )
        if raw:
            raise ConfigError(f"{path}: unknown keys: {', '.join(sorted(raw))}")
        return config

    def load_graph(self) -> WeightedGraph:
        if self.graph is not None:
            return synthetic_graph(self.graph, default_seed=self.seed)
        if self.graph_format == "off":
            return parse_mesh_off(self.graph_file)
        return parse_graph(self.graph_file, self.graph_format)


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


def _collect_transfer_rows(setting, filters, signal_seed):
    """Shared per-setting certification: mode rows, bound rows, verdict."""
    mode_rows, bound_rows, scatter_points = [], [], []
    all_ok = True
    summaries = {}
    for desc in filters:
        filt = make_filter(desc)
        report = evaluate_transfer(setting, filt, signal_seed=signal_seed)
        for row in report.per_mode:
            mode_rows.append((
                filt.name, setting.name, row.mode, row.eigenvalue, row.lhs,
                row.rhs, row.quotient, row.laplacian_mode_error, row.satisfied,
            ))
            scatter_points.append((row.laplacian_mode_error, row.lhs, filt.name))
            all_ok &= row.satisfied
        for bound in report.bounds:
            bound_rows.append((
                filt.name, setting.name, bound.name, bound.lhs, bound.rhs,
                bound.satisfied,
            ))
            all_ok &= bound.satisfied
        summaries[filt.name] = {
            "filter_error": report.filter_error,
            "laplacian_error": report.laplacian_error,
            "consistency_error": report.consistency_error,
            "interpolation_norm": report.interpolation_norm,
            "lipschitz_constant": report.lipschitz_constant,
            "grouped_spectrum": report.grouped_spectrum,
        }
    return mode_rows, bound_rows, scatter_points, summaries, all_ok


def _run_coarsen_transfer(config: ExperimentConfig) -> ReportBundle:
    graph = config.load_graph()
    space = GraphSpace.from_graph(graph, config.laplacian)
    cmap = coarsen_matching(graph)
    setting = coarsening_setting(space, cmap, band=config.band, name="coarsening")
    modes, bounds, points, summaries, ok = _collect_transfer_rows(
        setting, config.filters, config.seed
    )
    d_max = max(make_filter(d).lipschitz_constant or 1.0 for d in config.filters)
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
    perturbations = config.perturbations or (
        "remove_edges(0.05)", "remove_edges(0.1)",
        "add_edges(0.05)", "add_edges(0.1)", "remove_vertices(0.05)",
    )
    all_modes, all_bounds, stability_rows, points = [], [], [], []
    summaries = {}
    ok = True
    # built on first need, shared by the perturbations that keep every vertex
    space_filter_matrix = functools.cache(lambda d: filter_matrix(make_filter(d), space.eig))
    for index, desc in enumerate(perturbations):
        spec = _parse_perturbation(desc, _substream(config.seed, "perturb", index))
        result = perturb_graph_detailed(graph, spec)
        delta_op = build_laplacian(result.graph, config.laplacian)
        restriction = None
        if result.kept_vertices is not None:
            restriction = result.restriction_matrix(graph.n_vertices)
        setting = perturbation_setting(
            space, delta_op, restriction=restriction, band=config.band, name=desc
        )
        modes, bounds, _, summary, setting_ok = _collect_transfer_rows(
            setting, config.filters, config.seed
        )
        all_modes.extend(modes)
        all_bounds.extend(bounds)
        summaries[desc] = summary
        ok &= setting_ok

        # Frobenius stability: restrict the fine operator first, then
        # compare the two functional-calculus applications.  Both must be
        # normal in the dot product.  Spectral projections do not depend on
        # the inner product, so the decompositions already made serve.
        if restriction is None:
            fine_mat = space.operator.matrix
        else:
            fine_mat = restriction @ space.operator.matrix @ restriction.T
        fine_op = OperatorWithInnerProduct.symmetric(fine_mat)
        lap_abs = float(np.linalg.norm(fine_mat - delta_op.matrix, "fro"))
        lap_rel = lap_abs / max(float(np.linalg.norm(fine_mat, "fro")), 1e-30)
        for filt_desc in config.filters:
            filt = make_filter(filt_desc)
            f_fine = (space_filter_matrix(filt_desc) if restriction is None
                      else filter_matrix(filt, fine_op.eig))
            f_delta = filter_matrix(filt, delta_op.eig)
            filt_abs = float(np.linalg.norm(f_fine - f_delta, "fro"))
            filt_rel = filt_abs / max(float(np.linalg.norm(f_fine, "fro")), 1e-30)
            d_lip = filt.lipschitz_constant
            if d_lip is None:
                raise ConfigError(
                    f"{filt.name}: the stability line needs a Lipschitz constant"
                )
            dominated = certified(filt_abs, d_lip * lap_abs)
            ok &= dominated
            stability_rows.append((
                desc, filt.name, lap_abs, filt_abs, lap_rel, filt_rel,
                d_lip, dominated,
            ))
            points.append((lap_abs, filt_abs, filt.name))
    d_max = max(make_filter(d).lipschitz_constant or 1.0 for d in config.filters)
    return ReportBundle(
        experiment="perturb-stability",
        summary={
            "seed": config.seed,
            "graph": config.graph or config.graph_file,
            "laplacian": config.laplacian,
            "perturbations": summaries,
        },
        tables={
            "modes": (_MODES_HEADER, tuple(all_modes)),
            "bounds": (_BOUNDS_HEADER, tuple(all_bounds)),
            "stability": (
                ("perturbation", "filter", "laplacian_frobenius",
                 "filter_frobenius", "laplacian_relative", "filter_relative",
                 "lipschitz", "pass"),
                tuple(stability_rows),
            ),
        },
        scatters={
            "scatter": ScatterData(
                "Laplacian Frobenius error", "filter Frobenius error",
                tuple(points), d_max, f"y = {d_max:g} x",
            )
        },
        all_certified=ok,
    )


_SLOPE_WINDOW = (-0.65, -0.35)


def _run_circle_sampling(config: ExperimentConfig) -> ReportBundle:
    rows = []
    slopes = {}
    ok = True
    for weight in config.weights:
        trial_cfg = TrialConfig(
            band=config.circle_band, kernel_band=config.kernel_band,
            sizes=config.sizes, trials=config.trials, delta=config.delta,
            master_seed=_substream(config.seed, "circle", weight),
            weight=weight, activation_probes=0,
        )
        results = run_trials(trial_cfg)
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
    for weight in config.weights:
        trial_cfg = TrialConfig(
            band=config.circle_band, kernel_band=config.kernel_band,
            sizes=config.sizes, trials=config.trials, delta=config.delta,
            master_seed=_substream(config.seed, "verify", weight),
            weight=weight,
        )
        constants = bound_constants(trial_cfg)
        results = run_trials(trial_cfg, constants)
        rate = failure_rate(trial_cfg, results)
        rates[weight] = {
            "laplacian": rate.laplacian, "gram": rate.gram,
            "activation": rate.activation, "trials": rate.trials,
        }
        ok &= all(r <= config.delta for r in rate.as_tuple())
        chain_ok = constants.kernel_l2 <= constants.lambda_l1 + 1e-8
        ok &= chain_ok
        constants_out[weight] = {
            "c_lambda": constants.c_lambda,
            "c_quad1": constants.c_quad1,
            "c_quad2": constants.c_quad2,
            "c_quad3": constants.c_quad3,
            "c_tail_inflation": constants.c_tail_inflation,
            "lambda_l1": constants.lambda_l1,
            "kernel_l2": constants.kernel_l2,
            "w_min": constants.w_min,
            "norm_chain_ok": chain_ok,
        }
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
    6, and 8 modes of the input graph."""
    lams = np.sort(space.eig.eigenvalues_with_multiplicity().real)
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
    lap_kind = config.laplacian if config.laplacian != "unnormalized" else "normalized"
    space = GraphSpace.from_graph(graph, lap_kind)
    if config.net_file is not None:
        spec = load_convnet_spec(config.net_file)
    else:
        spec = default_convnet_spec(space)

    pert = _parse_perturbation(
        config.net_perturbation, _substream(config.seed, "net-perturb")
    )
    if pert.mode == "remove_vertices":
        raise ConfigError("the network comparison needs equal-size graphs; "
                          "use edge perturbations")
    other = perturb_graph_detailed(graph, pert).graph
    other_op = build_laplacian(other, lap_kind)

    coarsenings1 = _net_coarsenings(spec, graph)
    coarsenings2 = _net_coarsenings(spec, other)
    setting1 = ConvNetGraphSetting.build(space, spec, coarsenings=coarsenings1)
    setting2 = ConvNetGraphSetting.build(
        space, spec, initial_operator=other_op, coarsenings=coarsenings2
    )

    union = np.concatenate(
        [space.eig.eigenvalues_with_multiplicity().real]
        + [
            op.eig.eigenvalues_with_multiplicity().real
            for setting in (setting1, setting2)
            for op in setting.operators
        ]
    )
    spec = spec.normalized_on(union)

    hyp1 = hypothesis_errors(setting1, spec, n_probes=config.probes,
                             seed=_substream(config.seed, "hyp", 1))
    hyp2 = hypothesis_errors(setting2, spec, n_probes=config.probes,
                             seed=_substream(config.seed, "hyp", 2))
    delta = max(hyp1.delta, hyp2.delta)
    ok = delta < 1.0

    count = space.count_eig_leq(spec.bands[-1])
    d_lip = spec.max_lipschitz()
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
    if spec.bias_free() and spec.mixing_bound() <= 1.0 + 1e-12:
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
            "laplacian": lap_kind,
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


def _net_coarsenings(spec: ConvNetSpec, graph: WeightedGraph) -> dict:
    """One coarsening per pooled layer, chaining through collapsed graphs."""
    coarsenings = {}
    current = graph
    for l, layer in enumerate(spec.layers, start=1):
        if layer.pooling == "none":
            continue
        cmap = coarsen_matching(current)
        coarsenings[l] = cmap
        current = _collapse_graph(current, cmap)
    return coarsenings


def _collapse_graph(graph: WeightedGraph, cmap) -> WeightedGraph:
    """Coarse graph whose edges aggregate the fine weights between groups."""
    weights = {}
    group_of = {v: row for row, grp in enumerate(cmap.groups) for v in grp}
    for u, v, w in graph.edges:
        gu, gv = group_of[u], group_of[v]
        if gu == gv:
            continue
        key = (min(gu, gv), max(gu, gv))
        weights[key] = weights.get(key, 0.0) + w
    edges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return WeightedGraph(cmap.n_coarse, edges)


def _contraction_check(spec: ConvNetSpec, setting: ConvNetGraphSetting,
                       seed: int) -> bool:
    """Whether each of 50 seeded input pairs keeps its output gap within
    its input gap (to 1e-10); all 100 inputs run as one matrix."""
    pairs, tol = 50, 1e-10
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    n = setting.operators[0].dim
    # f1 then f2 of each pair, in pair order; each n x pairs
    f1, f2 = rng.normal(size=(pairs, 2, n)).transpose(1, 2, 0)
    outputs = forward_graph(
        spec, setting.operators[: spec.n_layers], setting.pooling_maps,
        [np.hstack([f1, f2])],
    )[-1]
    gap = np.linalg.norm(f1 - f2, axis=0)
    return not any(
        np.any(np.linalg.norm(out[:, :pairs] - out[:, pairs:], axis=0) > gap + tol)
        for out in outputs
    )
