"""The transfer report through ``Q = V^H B S`` against the direct formulas.

The reference below applies each filter to the sampling matrix with
``apply_exact`` (or builds ``filter_matrix``) and interpolates with
``R = S^H B``, built here, exactly as the certified terms are written; every number
of ``evaluate_transfer``, ``transfer_errors`` and ``two_graph_error`` must
agree with it to 1e-12 (1 + |ref|).  The Frobenius stability cells of
perturb-stability are checked against dense ``filter_matrix`` differences.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from spectral_transfer import transfer
from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.experiments import ExperimentConfig, run_experiment
from spectral_transfer.filters import Filter, apply_exact, filter_matrix
from spectral_transfer.graphs import (
    InnerProduct,
    OperatorWithInnerProduct,
    build_laplacian,
    frobenius_norm,
    grid_graph,
    hermitian_norm,
    operator_norm,
    path_graph,
    random_geometric_graph,
)
from spectral_transfer.sampling import (
    CoarseningMap,
    PerturbationSpec,
    SampleSet,
    coarsen_matching,
    evaluation_operator,
    perturb_graph_detailed,
    random_sampled_laplacian,
)
from spectral_transfer.spaces import BandlimitedKernel, CircleSpace, GraphSpace
from spectral_transfer.transfer import (
    coarsening_setting,
    evaluate_transfer,
    perturbation_setting,
    sampling_setting,
    transfer_errors,
    two_graph_error,
)

TOL = 1e-12


def interpolation(setting):
    """``R = S^H B``, the adjoint of the setting's sampling matrix."""
    return setting.target.inner.apply(setting.s_pw).conj().T


def reference_report(setting, filt, coeffs):
    """Every number of a transfer report, from ``apply_exact`` and ``R``."""
    eig, inner = setting.target.eig, setting.target.inner
    s, r = setting.s_pw, interpolation(setting)
    lams = setting.source_eigenvalues
    g_s = apply_exact(filt, eig, s)
    mismatch = g_s - s * filt.evaluate(lams)
    lap = setting.target.matrix @ s - s * lams
    filtered_back = r @ apply_exact(filt, eig, s @ coeffs)
    point_g = mismatch @ coeffs
    return {
        "mode_lhs": np.linalg.norm(inner.apply_sqrt(mismatch), axis=0),
        "mode_lap": np.linalg.norm(inner.apply_sqrt(lap), axis=0),
        "pointwise_in_G": np.sqrt((point_g.conj() @ inner.apply(point_g)).real),
        "worstcase_in_G": operator_norm(inner.apply_sqrt(mismatch)),
        "pointwise_in_M": np.linalg.norm(filt.evaluate(lams) * coeffs - filtered_back),
        "worstcase_in_M": operator_norm(np.diag(filt.evaluate(lams)) - r @ g_s),
        "laplacian_error": np.linalg.norm(
            lams * coeffs - r @ (setting.target.matrix @ (s @ coeffs))
        ),
        "consistency_error": np.linalg.norm(coeffs - r @ (s @ coeffs)),
    }


def assert_close(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.all(np.abs(got - ref) <= TOL * (1.0 + np.abs(ref))), (what, got, ref)


def check_against_reference(setting, filt):
    report = evaluate_transfer(setting, filt, signal_seed=5)
    rng = np.random.default_rng(np.random.SeedSequence((5, setting.dim_pw)))
    coeffs = rng.normal(size=setting.dim_pw)
    coeffs /= np.linalg.norm(coeffs)
    ref = reference_report(setting, filt, coeffs)

    assert_close([row.lhs for row in report.per_mode], ref["mode_lhs"], "mode lhs")
    assert_close([row.laplacian_mode_error for row in report.per_mode],
                 ref["mode_lap"], "mode laplacian errors")
    lhs = {bound.bound: bound.lhs for bound in report.bounds}
    for name in ("pointwise_in_G", "worstcase_in_G", "pointwise_in_M", "worstcase_in_M"):
        assert_close(lhs[name], ref[name], name)
    assert_close(report.filter_error, ref["pointwise_in_M"], "filter error")
    assert_close(report.laplacian_error, ref["laplacian_error"], "laplacian error")
    assert_close(report.consistency_error, ref["consistency_error"], "consistency")
    errors = transfer_errors(setting, filt, coeffs)
    assert_close(errors, [ref[k] for k in ("pointwise_in_M", "laplacian_error",
                                           "consistency_error")], "transfer_errors")
    return report


FILTER_MAKERS = {
    "heat": lambda a: Filter.heat(a),
    "lowpass": lambda a: Filter.lowpass(a),
    "highpass": lambda a: Filter.highpass(a),
    "midpass": lambda a: Filter.midpass(a, 0.5),
    "poly": lambda a: Filter.polynomial((0.3, -a, 0.1)),
}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 14),
    radius=st.floats(0.3, 0.9),
    graph_seed=st.integers(0, 10_000),
    family=st.sampled_from(sorted(FILTER_MAKERS)),
    arg=st.floats(0.2, 3.0),
    band_frac=st.sampled_from([1.0, 0.5]),
    setting_kind=st.sampled_from(["coarsening", "remove_vertices", "add_edges"]),
)
def test_q_route_matches_reference(n, radius, graph_seed, family, arg,
                                   band_frac, setting_kind):
    graph = random_geometric_graph(n, radius, seed=graph_seed)
    space = GraphSpace.from_graph(graph)
    band = band_frac * space.full_band()
    if setting_kind == "coarsening":
        setting = coarsening_setting(space, coarsen_matching(graph), band=band)
    else:
        res = perturb_graph_detailed(
            graph, PerturbationSpec(setting_kind, 0.3, seed=graph_seed)
        )
        setting = perturbation_setting(space, build_laplacian(res.graph, "unnormalized"),
                                       kept=res.kept_vertices, band=band)
    check_against_reference(setting, FILTER_MAKERS[family](arg))


_GRAPHS = st.one_of(
    st.integers(4, 30).map("path({})".format),
    st.builds("grid({},{})".format, st.integers(2, 6), st.integers(2, 5)),
    st.builds("random-geometric({},{:.3f})".format, st.integers(4, 30), st.floats(0.2, 0.9)),
)
_STABILITY_FILTERS = st.one_of(
    st.builds("{}({:.3f})".format, st.sampled_from(("heat", "lowpass", "highpass")),
              st.floats(0.1, 4.0)),
    st.builds("midpass({:.3f},{:.3f})".format, st.floats(0.1, 3.0), st.floats(0.1, 2.0)),
    st.builds("poly({:.3f},{:.3f},{:.3f})".format, *[st.floats(-2.0, 2.0)] * 3),
)


@settings(max_examples=150, deadline=None)
@given(
    graph=_GRAPHS,
    laplacian=st.sampled_from(("unnormalized", "normalized", "adjacency")),
    filters=st.lists(_STABILITY_FILTERS, min_size=1, max_size=3, unique=True),
    perturbations=st.lists(
        st.builds("{}({:.3f})".format,
                  st.sampled_from(("remove_edges", "add_edges", "remove_vertices")),
                  st.floats(0.0, 0.5)),
        min_size=1, max_size=3, unique=True),
    seed=st.integers(1, 1000),
)
def test_stability_cells_match_dense_filter_matrices(graph, laplacian, filters,
                                                      perturbations, seed):
    config = ExperimentConfig(
        experiment="perturb-stability", seed=seed, graph=graph, laplacian=laplacian,
        filters=tuple(filters), perturbations=tuple(perturbations),
    )
    try:
        bundle = run_experiment(config)
    except SpectralTransferError:
        reject()  # exit 2
    header, rows = bundle.tables["stability"]
    cells = [dict(zip(header, row)) for row in rows]
    source = config.load_graph()
    fine = build_laplacian(source, laplacian).matrix
    expected = []
    for desc, spec in zip(config.perturbations, config.parsed_perturbations):
        result = perturb_graph_detailed(source, spec)
        fine_mat = fine
        if result.kept_vertices is not None:
            fine_mat = fine[np.ix_(result.kept_vertices, result.kept_vertices)]
        delta = build_laplacian(result.graph, laplacian)
        fine_eig = OperatorWithInnerProduct.symmetric(fine_mat).eig
        for filt in config.parsed_filters:
            g_fine = filter_matrix(filt, fine_eig)
            g_delta = filter_matrix(filt, delta.eig)
            expected.append((desc, filt.name, frobenius_norm(fine_mat - delta.matrix),
                             frobenius_norm(g_fine - g_delta), frobenius_norm(g_fine),
                             frobenius_norm(g_delta)))
    assert len(cells) == len(expected)
    for cell, (desc, name, lap_abs, filt_abs, fine_norm, delta_norm) in zip(cells, expected):
        assert (cell["perturbation"], cell["filter"]) == (desc, name)
        assert cell["laplacian_frobenius"] == lap_abs
        tol = 1e-12 * (fine_norm + delta_norm)
        assert abs(cell["filter_frobenius"] - filt_abs) <= tol, cell
        assert abs(cell["filter_relative"] - filt_abs / max(fine_norm, 1e-30)) <= (
            tol / max(fine_norm, 1e-30)), cell


def dense_graph_side_lhs(setting, filt, coeffs):
    """Graph-side lhs from the mismatch ``V g(mu) V^H B S - S g(Lambda)``
    formed on the graph, and the scale of its roundoff."""
    eig, b = setting.target.eig, setting.target.inner.b
    s, g_lam = setting.s_pw, filt.evaluate(setting.source_eigenvalues)
    g_mu = filt.evaluate(eig.values)
    mismatch = eig.basis @ (g_mu[:, None] * (eig.basis.conj().T @ (b[:, None] * s)))
    mismatch -= s * g_lam
    weighted = np.sqrt(b)[:, None] * mismatch
    sup_g = np.abs(np.concatenate([g_mu, g_lam])).max(initial=0.0)
    return {
        "mode_lhs": np.linalg.norm(weighted, axis=0),
        "pointwise_in_G": np.linalg.norm(weighted @ coeffs),
        "worstcase_in_G": np.linalg.norm(weighted, 2) if weighted.size else 0.0,
    }, sup_g * np.linalg.norm(np.sqrt(b)[:, None] * s)


@settings(max_examples=100, deadline=None)
@given(
    graph=st.one_of(
        st.integers(2, 16).map(path_graph),
        st.builds(grid_graph, st.integers(2, 4), st.integers(2, 4)),
        st.builds(random_geometric_graph, st.integers(3, 16), st.floats(0.3, 0.9),
                  st.integers(0, 10_000)),
    ),
    laplacian=st.sampled_from(("unnormalized", "normalized", "adjacency")),
    perturbation=st.sampled_from(("remove_vertices", "add_edges", "remove_edges")),
    fraction=st.floats(0.0, 0.5),
    band_frac=st.sampled_from([1.0, 0.6, 0.3]),
    family=st.sampled_from(sorted(FILTER_MAKERS)),
    arg=st.floats(0.2, 3.0),
    weight_seed=st.one_of(st.none(), st.integers(0, 10_000)),
)
def test_coordinate_lhs_match_the_dense_mismatch(graph, laplacian, perturbation, fraction,
                                                 band_frac, family, arg, weight_seed):
    # V complete and B-orthonormal makes V^H B an isometry, so the lhs from
    # Q o (g(mu_i) - g(lambda_j)) are the B-norms of the mismatch on the graph
    try:
        space = GraphSpace.from_graph(graph, laplacian)
        res = perturb_graph_detailed(graph, PerturbationSpec(perturbation, fraction, seed=1))
        delta = build_laplacian(res.graph, laplacian)
    except SpectralTransferError:
        reject()  # a vertex of degree 0 under the normalized Laplacian
    if weight_seed is not None:
        # diag(1/b) L is self-adjoint under B = diag(b)
        b = np.random.default_rng(weight_seed).uniform(0.25, 4.0, size=delta.dim)
        delta = OperatorWithInnerProduct(delta.matrix / b[:, None], InnerProduct(b))
    setting = perturbation_setting(space, delta, kept=res.kept_vertices,
                                   band=band_frac * space.full_band())
    filt = FILTER_MAKERS[family](arg)
    try:
        report = evaluate_transfer(setting, filt, signal_seed=5)
    except SpectralTransferError:
        reject()  # a declared Lipschitz constant that a signed spectrum breaks
    rng = np.random.default_rng(np.random.SeedSequence((5, setting.dim_pw)))
    coeffs = rng.normal(size=setting.dim_pw)
    coeffs /= np.linalg.norm(coeffs)
    ref, scale = dense_graph_side_lhs(setting, filt, coeffs)
    got = {"mode_lhs": np.array([row.lhs for row in report.per_mode])}
    got.update((bound.bound, bound.lhs) for bound in report.bounds)
    for name, want in ref.items():
        assert np.all(np.abs(got[name] - want) <= 1e-12 * np.abs(want) + 1e-14 * scale), (
            name, got[name], want, scale)


def test_two_graph_error_matches_reference():
    graph = random_geometric_graph(14, 0.5, seed=3)
    space = GraphSpace.from_graph(graph)
    s1 = coarsening_setting(space, coarsen_matching(graph), name="coarse")
    res = perturb_graph_detailed(graph, PerturbationSpec("add_edges", 0.2, seed=1))
    s2 = perturbation_setting(space, build_laplacian(res.graph, "unnormalized"))
    for filt in (Filter.heat(1.0), Filter.polynomial((0.0, 1.0, -0.2))):
        mats = [interpolation(s) @ filter_matrix(filt, s.target.eig) @ s.s_pw
                for s in (s1, s2)]
        bound = sum(evaluate_transfer(s, filt).bounds[3].rhs for s in (s1, s2))
        err, got_bound = two_graph_error(s1, s2, filt)
        assert_close(err, operator_norm(mats[0] - mats[1]), "two-graph error")
        assert_close(got_bound, bound, "two-graph bound")


@pytest.mark.parametrize("kind", ["perturbation", "coarsening"])
def test_two_graph_error_is_the_spectral_norm_of_the_gap(kind):
    if kind == "perturbation":
        graph = random_geometric_graph(14, 0.5, seed=3)
        space = GraphSpace.from_graph(graph)
        pair = [perturbation_setting(space, build_laplacian(
                    perturb_graph_detailed(graph, PerturbationSpec(p, 0.2, seed=1)).graph,
                    "unnormalized"))
                for p in ("remove_edges", "add_edges")]
    else:
        graph = path_graph(8)
        space = GraphSpace.from_graph(graph)
        shifted = CoarseningMap(8, ((0,), (1, 2), (3, 4), (5, 6), (7,)))
        pair = [coarsening_setting(space, cmap) for cmap in (coarsen_matching(graph), shifted)]
    for filt in (Filter.heat(1.0), Filter.lowpass(1.0), Filter.polynomial((0.0, 1.0, -0.2))):
        gap = pair[0].filtered_transfer_matrix(filt) - pair[1].filtered_transfer_matrix(filt)
        want = np.linalg.norm(gap, 2)
        err, _ = two_graph_error(*pair, filt)
        assert want > 1e-3
        assert abs(err - want) <= 1e-12 * want, (filt.name, err, want)


def test_q_is_computed_once_per_setting():
    graph = random_geometric_graph(10, 0.6, seed=2)
    setting = coarsening_setting(GraphSpace.from_graph(graph), coarsen_matching(graph))
    evaluate_transfer(setting, Filter.heat(1.0))
    q = setting.q
    evaluate_transfer(setting, Filter.lowpass(1.0))
    assert setting.q is q


@pytest.mark.parametrize("factor", [1e160, 1e-160])
def test_large_and_small_filters_scale_every_lhs(factor):
    # coarsen-transfer on path(8) with filters = poly(0,1e160) used to
    # overflow to inf lhs and exit 1
    graph = path_graph(8)
    setting = coarsening_setting(GraphSpace.from_graph(graph), coarsen_matching(graph))
    unit = evaluate_transfer(setting, Filter.polynomial((0.0, 1.0)), signal_seed=1)
    scaled = evaluate_transfer(setting, Filter.polynomial((0.0, factor)), signal_seed=1)
    assert scaled.all_satisfied
    pairs = [(a.lhs, b.lhs) for a, b in zip(unit.per_mode, scaled.per_mode)]
    pairs += [(a.lhs, b.lhs) for a, b in zip(unit.bounds, scaled.bounds)]
    pairs.append((unit.filter_error, scaled.filter_error))
    for a, b in pairs:
        assert abs(b - factor * a) <= TOL * factor * (1.0 + a), (a, b)


def band_setting(kind: str):
    """A setting of each shape the band norms meet: S a coarsening or the
    identity, a vertex restriction, circle sampling at weighted points
    against a target under ``B = diag(1/w)``, and an empty band."""
    if kind == "weighted":
        sample = SampleSet.weighted_random(
            40, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x), seed=5)
        delta = random_sampled_laplacian(BandlimitedKernel(CircleSpace(), 4.0), sample)
        return sampling_setting(evaluation_operator(CircleSpace(), sample, 4.0), delta)
    graph = random_geometric_graph(24, 0.4, seed=11)
    space = GraphSpace.from_graph(graph)
    if kind == "coarsening":
        return coarsening_setting(space, coarsen_matching(graph))
    if kind == "empty":
        return perturbation_setting(space, space.operator, band=-1.0)
    res = perturb_graph_detailed(graph, PerturbationSpec(kind, 0.2, seed=4))
    return perturbation_setting(space, build_laplacian(res.graph, "unnormalized"),
                                kept=res.kept_vertices)


@pytest.mark.parametrize("kind", ["coarsening", "add_edges", "remove_vertices",
                                  "weighted", "empty"])
def test_band_norms_from_the_gram_spectrum_match_operator_norm(kind):
    setting = band_setting(kind)
    if kind == "weighted":
        assert not setting.target.inner.is_standard
    if kind == "empty":
        assert setting.dim_pw == 0
    if kind == "remove_vertices":
        assert setting.s_pw.shape[0] < setting.s_pw.shape[1]
    s, r = setting.s_pw, interpolation(setting)
    refs = {
        "interpolation": operator_norm(setting.target.inner.apply_sqrt(s)),
        "consistency": operator_norm(np.eye(setting.dim_pw) - r @ s),
    }
    got = {"interpolation": setting.interpolation_norm,
           "consistency": setting.consistency_operator_error}
    for name, ref in refs.items():
        assert abs(got[name] - ref) <= 1e-13 * ref + 1e-15, (name, got[name], ref)
    if kind == "empty":
        assert got == {"interpolation": 0.0, "consistency": 0.0}


@settings(max_examples=60, deadline=None)
@given(
    graph=st.one_of(
        st.integers(2, 10).map(path_graph),
        st.builds(grid_graph, st.integers(2, 3), st.integers(2, 3)),
        st.builds(random_geometric_graph, st.integers(3, 10), st.floats(0.3, 0.9),
                  st.integers(0, 10_000)),
    ),
    laplacian=st.sampled_from(("unnormalized", "normalized", "adjacency")),
    perturbation=st.sampled_from(("remove_edges", "add_edges")),
    fraction=st.floats(0.0, 0.5),
    family=st.sampled_from(("lowpass", "highpass", "heat", "poly")),
    arg=st.floats(0.2, 3.0),
)
def test_complete_setting_lhs_and_overlap_match_the_dense_route(
        graph, laplacian, perturbation, fraction, family, arg):
    # with Q unitary, Q^H g(mu) Q - g(lambda) = Q^H C: the reported
    # worstcase_in_M lhs is ||C||, and |Q^T| is the overlap |U^T V|
    try:
        space = GraphSpace.from_graph(graph, laplacian)
        res = perturb_graph_detailed(graph, PerturbationSpec(perturbation, fraction, seed=1))
        delta = build_laplacian(res.graph, laplacian)
    except SpectralTransferError:
        reject()  # a vertex of degree 0 under the normalized Laplacian
    setting = perturbation_setting(space, delta)
    assert setting.complete
    filt = FILTER_MAKERS[family](arg)
    try:
        report = evaluate_transfer(setting, filt)
    except SpectralTransferError:
        reject()  # a declared Lipschitz constant that a signed spectrum breaks
    n, eps = space.n_vertices, np.finfo(float).eps
    g_lam = filt.evaluate(setting.source_eigenvalues)
    sup_g = np.abs(np.concatenate([g_lam, filt.evaluate(delta.eig.values)])).max()
    want = hermitian_norm(np.diag(g_lam) - setting.filtered_transfer_matrix(filt))
    got = {bound.bound: bound.lhs for bound in report.bounds}["worstcase_in_M"]
    assert abs(got - want) <= 1e-12 * want + 64 * n * eps * sup_g, (got, want, sup_g)
    # entries of an orthogonal matrix, so the absolute scale is 1
    overlap = np.abs(space.eig.basis.T @ delta.eig.basis)
    assert np.all(np.abs(np.abs(setting.q.T) - overlap) <= 1e-12 * overlap + 64 * n * eps)


def complete_or_not_setting(kind: str):
    """A complete perturbation setting, or one that each part of the key
    rules out: a removed vertex, a partial band, another B, a coarsening
    and circle sampling."""
    if kind == "sampling":
        return band_setting("weighted")
    graph = random_geometric_graph(16, 0.5, seed=3)
    space = GraphSpace.from_graph(graph)
    if kind == "coarsening":
        return coarsening_setting(space, coarsen_matching(graph))
    perturbation = "remove_vertices" if kind == "remove_vertices" else "add_edges"
    res = perturb_graph_detailed(graph, PerturbationSpec(perturbation, 0.2, seed=4))
    delta = build_laplacian(res.graph, "unnormalized")
    if kind == "reweighted":
        b = np.random.default_rng(2).uniform(0.25, 4.0, size=delta.dim)
        delta = OperatorWithInnerProduct(delta.matrix / b[:, None], InnerProduct(b))
    band = 0.5 * space.full_band() if kind == "partial_band" else None
    return perturbation_setting(space, delta, kept=res.kept_vertices, band=band)


@pytest.mark.parametrize("kind, solves", [
    ("complete", 0), ("remove_vertices", 1), ("partial_band", 1), ("reweighted", 1),
    ("coarsening", 1), ("sampling", 1),
])
def test_worstcase_in_m_solves_only_off_a_complete_setting(monkeypatch, kind, solves):
    calls = []

    def counting_norm(mat):
        calls.append(mat.shape)
        return hermitian_norm(mat)

    monkeypatch.setattr(transfer, "hermitian_norm", counting_norm)
    setting = complete_or_not_setting(kind)
    assert setting.complete == (kind == "complete")
    filters = (Filter.lowpass(1.0), Filter.polynomial((0.3, -1.0, 0.1)))
    for filt in filters:
        evaluate_transfer(setting, filt)
    assert len(calls) == solves * len(filters)
