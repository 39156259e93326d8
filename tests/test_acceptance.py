"""Acceptance criteria.

Each test certifies one acceptance criterion at its stated tolerance and
prints one PASS line (visible with ``pytest -s`` or on failure).  The
experiment runs are shared across criteria through module-scoped fixtures;
the determinism criterion reruns everything from scratch.
"""

import csv
import time

import numpy as np
import pytest

from spectral_transfer.convnet import Activation, spectral_decay_check
from spectral_transfer.errors import TruncationError
from spectral_transfer.experiments import ExperimentConfig, run_experiment
from spectral_transfer.filters import (
    Filter,
    apply_chebyshev,
    apply_exact,
    apply_rational,
    chebyshev_sup_error,
    filter_matrix,
)
from spectral_transfer.graphs import (
    build_laplacian,
    eigendecompose,
    random_geometric_graph,
)
from spectral_transfer.reports import emit_reports
from spectral_transfer.sampling import (
    SampleSet,
    coarsen_matching,
    evaluation_operator,
    gram,
    perturb_graph_detailed,
    PerturbationSpec,
)
from spectral_transfer.spaces import CircleSpace, GraphSpace
from spectral_transfer.transfer import (
    coarsening_setting,
    perturbation_setting,
    transfer_errors,
)

SEED = 20260811
REL = 1e-9
ABS = 1e-12

CERT_FILTERS = ("lowpass(1.0)", "highpass(1.0)", "heat(1.0)")
PERTURBATIONS = (
    "remove_edges(0.05)", "remove_edges(0.1)",
    "add_edges(0.05)", "add_edges(0.1)", "remove_vertices(0.05)",
)


def ok(lhs, rhs):
    return lhs <= rhs * (1.0 + REL) + ABS


def announce(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text}: PASS")


def config_for(experiment, **kw):
    defaults = dict(experiment=experiment, seed=SEED, out_dir="unused")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def certification_runs(tmp_path_factory):
    """Criterion-1 experiment bundles, emitted once."""
    t0 = time.perf_counter()
    runs = {}
    runs["coarsen-path20"] = run_experiment(config_for(
        "coarsen-transfer", graph="path(20)", filters=CERT_FILTERS))
    runs["coarsen-grid5x5"] = run_experiment(config_for(
        "coarsen-transfer", graph="grid(5,5)", filters=CERT_FILTERS))
    runs["perturb-rgg100"] = run_experiment(config_for(
        "perturb-stability", graph="random-geometric(100,0.2)",
        filters=CERT_FILTERS, perturbations=PERTURBATIONS))
    elapsed = time.perf_counter() - t0
    out_dirs = {}
    for name, bundle in runs.items():
        out_dir = tmp_path_factory.mktemp(name)
        emit_reports(bundle, out_dir, svg=True)
        out_dirs[name] = out_dir
    return runs, out_dirs, elapsed


def criterion1_settings():
    """The concrete settings behind criterion 1, for direct measurements."""
    settings = []
    for descriptor in ("path(20)", "grid(5,5)"):
        from spectral_transfer.graph_io import synthetic_graph

        graph = synthetic_graph(descriptor, default_seed=SEED)
        space = GraphSpace.from_graph(graph)
        settings.append(coarsening_setting(space, coarsen_matching(graph),
                                           name=descriptor))
    graph = random_geometric_graph(100, 0.2, seed=SEED)
    space = GraphSpace.from_graph(graph)
    for index, descriptor in enumerate(PERTURBATIONS):
        mode, frac = descriptor[:-1].split("(")
        from spectral_transfer.experiments import _substream

        spec = PerturbationSpec(mode, float(frac),
                                seed=_substream(SEED, "perturb", index))
        res = perturb_graph_detailed(graph, spec)
        delta = build_laplacian(res.graph, "unnormalized")
        settings.append(perturbation_setting(space, delta,
                                             kept=res.kept_vertices,
                                             name=descriptor))
    return settings


def test_criterion_1_theorem_certification(certification_runs):
    runs, _, elapsed = certification_runs
    total_rows = 0
    for name, bundle in runs.items():
        assert bundle.all_certified, f"{name} failed certification"
        _, mode_rows = bundle.tables["modes"]
        _, bound_rows = bundle.tables["bounds"]
        for row in mode_rows:
            assert ok(row[4], row[5]), (name, row)
        for row in bound_rows:
            assert ok(row[3], row[4]), (name, row)
        total_rows += len(mode_rows) + len(bound_rows)
    assert elapsed < 5.0, f"certification took {elapsed:.2f}s (target < 5s)"
    announce(1, f"{total_rows} certified inequalities across coarsening and "
                f"perturbation settings in {elapsed:.2f}s")


def test_criterion_2_identity_filter_degeneracy():
    identity = Filter.identity()
    rng = np.random.default_rng(SEED)
    for setting in criterion1_settings():
        coeffs = rng.normal(size=setting.dim_pw)
        f_err, _, c_err = transfer_errors(setting, identity, coeffs)
        assert abs(f_err - c_err) <= 1e-12, setting.name
    announce(2, "identity filter collapses onto the consistency error "
                "in every criterion-1 setting (1e-12)")


def test_criterion_3_adjoint_and_gram_identities():
    circle = CircleSpace()
    weight = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x)
    sample = SampleSet.weighted_random(40, weight, seed=SEED)
    pair = evaluation_operator(circle, sample, 4.0)
    rng = np.random.default_rng(SEED + 1)
    b = pair.inner.b_matrix
    for _ in range(100):
        f = rng.normal(size=pair.s_matrix.shape[1])
        u = rng.normal(size=pair.s_matrix.shape[0])
        lhs = np.conj(u) @ (b @ (pair.s_matrix @ f))
        rhs = np.conj(pair.r_matrix @ u) @ f
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    four = evaluation_operator(circle, SampleSet.equispaced(4), 1.0)
    assert np.abs(gram(four) - np.eye(3)).max() <= 1e-12
    announce(3, "R = S* on 100 random pairs (1e-12) and the 4-point "
                "circle Gram is the identity (1e-12)")


def test_criterion_4_functional_calculus_canonicity():
    rationals = [
        Filter.rational((1.0,), (1.0, 1.0)),
        Filter.rational((0.0, 1.0), (1.0, 0.0, 1.0)),
        Filter.rational((1.0, 0.5), (1.0, 0.2)),
        Filter.rational((0.5, 0.0, 1.0), (1.0, 1.0, 1.0)),
        Filter.rational((2.0,), (1.0, 0.1, 0.0, 0.01)),
    ]
    rng = np.random.default_rng(SEED)
    for g_idx in range(10):
        graph = random_geometric_graph(10, 0.6, seed=SEED + g_idx)
        op = build_laplacian(graph, "unnormalized")
        eig = eigendecompose(op)
        signal = rng.normal(size=10)
        for filt in rationals:
            exact = apply_exact(filt, eig, signal)
            routed = apply_rational(filt, op, signal)
            rel = np.linalg.norm(routed - exact) / max(np.linalg.norm(exact), 1e-30)
            assert rel <= 1e-10, (g_idx, filt.name)

    graph = random_geometric_graph(16, 0.45, seed=SEED + 50)
    op = build_laplacian(graph, "normalized")
    eig = eigendecompose(op)
    heat = Filter.heat(1.0)
    interval = (0.0, 2.0)
    exact_mat = filter_matrix(heat, eig)
    errors = []
    for degree in (2, 8, 32):
        approx_cols = [
            apply_chebyshev(heat, op, degree, interval, col) for col in np.eye(16)
        ]
        op_err = float(np.linalg.norm(np.stack(approx_cols, axis=1) - exact_mat, 2))
        sup_err = chebyshev_sup_error(heat, degree, interval)
        assert op_err <= sup_err + 1e-12, degree
        errors.append(op_err)
    assert errors[0] >= errors[1] >= errors[2]
    announce(4, "rational route matches spectral synthesis to 1e-10 on 50 "
                "cases; Chebyshev operator errors sit below the scalar sup "
                "errors and decrease over degrees 2, 8, 32")


def test_criterion_5_monte_carlo_rates():
    t0 = time.perf_counter()
    bundle = run_experiment(config_for(
        "circle-sampling", sizes=(64, 256, 1024), trials=50, delta=0.25,
        weights=("uniform", "cosine")))
    elapsed = time.perf_counter() - t0
    assert bundle.all_certified
    slopes = bundle.summary["slopes"]
    for weight in ("uniform", "cosine"):
        for quantity in ("laplacian", "gram"):
            slope = slopes[weight][quantity]
            assert -0.65 <= slope <= -0.35, (weight, quantity, slope)
    assert elapsed < 30.0, f"rate campaign took {elapsed:.2f}s (target < 30s)"
    announce(5, "median-error slopes over N in {64,256,1024} stay inside "
                f"[-0.65, -0.35] for both weights in {elapsed:.2f}s")


def test_criterion_6_markov_failure_rates():
    bundle = run_experiment(config_for(
        "mc-verify", sizes=(256,), trials=400, delta=0.25,
        weights=("uniform", "cosine")))
    assert bundle.all_certified
    for weight, rates in bundle.summary["failure_rates"].items():
        for name in ("laplacian", "gram", "activation"):
            assert rates[name] <= 0.25, (weight, name, rates[name])
        assert rates["trials"] == 400
    announce(6, "violation fractions of all three bounds stay at or below "
                "delta = 0.25 over 400 trials per weight")


def test_criterion_7_convnet_certification():
    bundle = run_experiment(config_for(
        "convnet-transfer", graph="path(16)", laplacian="normalized"))
    assert bundle.all_certified
    summary = bundle.summary
    assert summary["layers"] == 2
    assert summary["mixing_bound"] == pytest.approx(1.0)
    assert 0.0 < summary["delta"] < 1.0
    # bias-free unit-mixing network: the bound is (L D sqrt(#) + 2L + 2) delta
    expected_bound = (
        2 * summary["lipschitz"] * np.sqrt(summary["mode_count"]) + 6
    ) * summary["delta"]
    assert summary["bound"] == pytest.approx(expected_bound, rel=1e-12)
    for name in ("space_vs_graph1", "space_vs_graph2", "two_graph"):
        assert summary["errors"][name] <= summary["bound"], name
    assert summary["contraction_ok"] is True
    announce(7, "two-layer network certified against "
                f"bound {summary['bound']:.3f} with delta {summary['delta']:.3f}; "
                "contraction held on 50 random pairs (1e-10)")


def test_criterion_8_spectral_decay():
    rho = Activation("relu")
    rng = np.random.default_rng(SEED)
    circle = CircleSpace()
    worst = {}
    for band in (1.0, 4.0):
        probes = [v for v in rng.normal(size=(100, circle.dim_pw(band)))]
        try:
            ratio = spectral_decay_check(rho, band, probes)
        except TruncationError as exc:  # the tail gate is part of the criterion
            pytest.fail(f"quadrature tail above 1e-8 at band {band}: {exc}")
        assert ratio <= 1.0 + 1e-6, (band, ratio)
        worst[band] = ratio
    announce(8, "ReLU weighted spectral-decay ratios stay at or below "
                f"1 + 1e-6 (worst {max(worst.values()):.4f}) with the "
                "energy tail under 1e-8")


def test_criterion_9_scatter_dominance(certification_runs):
    _, out_dirs, _ = certification_runs
    # Per-mode rows: nothing above y = quotient * x, recomputed from the
    # emitted file alone.
    checked = 0
    for name, out_dir in out_dirs.items():
        with open(out_dir / "modes.csv") as fh:
            for row in csv.DictReader(fh):
                lhs = float(row["lhs"])
                quotient = float(row["quotient"])
                x = float(row["laplacian_mode_error"])
                assert ok(lhs, quotient * x), (name, row)
                checked += 1
    # Stability scatter: nothing above y = D x.
    with open(out_dirs["perturb-rgg100"] / "stability.csv") as fh:
        for row in csv.DictReader(fh):
            y = float(row["filter_frobenius"])
            x = float(row["laplacian_frobenius"])
            d = float(row["lipschitz"])
            assert ok(y, d * x), row
            checked += 1
    announce(9, f"{checked} emitted scatter rows all sit on or below their "
                "reference lines")


def test_criterion_10_determinism(tmp_path):
    configs = {
        "coarsen-transfer": dict(graph="path(12)", filters=("heat(1.0)",)),
        "perturb-stability": dict(graph="random-geometric(40,0.3)",
                                  filters=("lowpass(1.0)",),
                                  perturbations=("remove_edges(0.1)",
                                                 "remove_vertices(0.1)")),
        "circle-sampling": dict(sizes=(16, 32, 64), trials=30),
        "mc-verify": dict(sizes=(64,), trials=100),
        "convnet-transfer": dict(graph="path(16)", laplacian="normalized",
                                 probes=4),
    }
    for experiment, kw in configs.items():
        paths = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{experiment}-{attempt}"
            bundle = run_experiment(config_for(experiment, **kw))
            emit_reports(bundle, out_dir, svg=True)
            paths.append(out_dir)
        files_a = sorted(p.name for p in paths[0].iterdir())
        files_b = sorted(p.name for p in paths[1].iterdir())
        assert files_a == files_b, experiment
        for name in files_a:
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes(), (
                experiment, name,
            )
    announce(10, "reruns of all five experiments with fixed seeds produce "
                 "byte-identical files")
