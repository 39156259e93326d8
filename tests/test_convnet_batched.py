"""Probe sets as matrix columns: batched forwards, pooling, hypothesis terms
and output errors, checked against per-probe reference loops kept here.

The references draw their probes one vector at a time in the historical
order, so equal results also show that every seeded stream is consumed in
that order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer.convnet import (
    Activation,
    ConvNetGraphSetting,
    ConvNetSpec,
    LayerSpec,
    forward_continuous,
    forward_graph,
    hypothesis_errors,
    output_errors,
    pool,
)
from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.experiments import _contraction_check
from spectral_transfer.filters import Filter
from spectral_transfer.graphs import build_laplacian, grid_graph, path_graph
from spectral_transfer.sampling import (
    CoarseningMap,
    PerturbationSpec,
    coarsen_matching,
    perturb_graph_detailed,
    unit_probes,
)
from spectral_transfer.spaces import CircleSpace, GraphSpace

from coarsening_references import pool_per_row

CIRCLE = CircleSpace()

graphs = st.one_of(
    st.builds(path_graph, st.integers(9, 17)),
    st.builds(grid_graph, st.integers(3, 5), st.integers(3, 5)),
)
poolings = st.sampled_from(("max", "l2avg"))
activations = st.sampled_from(("relu", "abs"))


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def graph_bands(space, count):
    """Nondecreasing bands between the sorted distinct eigenvalues."""
    lams = np.unique(np.round(space.eig.values.real, 9))
    picks = np.linspace(1, len(lams) - 1, count).astype(int)
    return tuple(float((lams[i - 1] + lams[i]) / 2) for i in picks)


def two_layer_spec(bands, pooling, activation, mix_scale=1.0, biases=(0.0, 0.0),
                   k_input=1):
    """K = k_input -> 2 -> 1 channels; pooling after the first layer."""
    grid = ((Filter.lowpass(2.0), Filter.heat(0.5)), (Filter.heat(0.5), Filter.lowpass(1.0)))
    layer1 = LayerSpec(
        tuple(row[:k_input] for row in grid),
        mix_scale * np.array([[0.5, 0.5], [0.5, -0.5]])[:, :k_input],
        np.array(biases),
        pooling,
    )
    layer2 = LayerSpec(
        ((Filter.heat(1.0), Filter.lowpass(2.0)),),
        mix_scale * np.array([[0.5, 0.5]]),
        np.array([biases[0]]),
        "none",
    )
    return ConvNetSpec((layer1, layer2), Activation(activation), bands)


def graph_setting(graph, spec, perturb_seed=None):
    space = GraphSpace.from_graph(graph, "normalized")
    base, op = graph, space.operator
    if perturb_seed is not None:
        base = perturb_graph_detailed(
            graph, PerturbationSpec("add_edges", 0.1, seed=perturb_seed)
        ).graph
        op = build_laplacian(base, "normalized")
    return ConvNetGraphSetting.build(space, spec, base, op)


# --- per-probe references: the loops the batched code replaced -------------


def listed_unit_probes(dim, n_random, rng, with_basis=True):
    probes = [col for col in np.eye(dim)] if with_basis else []
    for _ in range(n_random):
        v = rng.normal(size=dim)
        probes.append(v / np.linalg.norm(v))
    return probes


def hypothesis_terms_per_probe(setting, spec, n_probes, seed):
    """Activation and pooling terms, one probe at a time."""
    space = setting.space
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    activation_terms, pooling_terms = [], []
    for l in range(1, spec.n_layers + 1):
        band_lo, band_hi = spec.bands[l - 1], spec.bands[l]
        basis_lo = space.pw_basis(band_lo)
        # the dense band projector, as the reference for the eigenbasis path
        proj_hi = space.eig.apply_function(
            (np.abs(space.eig.values) <= band_hi).astype(float)
        )
        s_prev = setting.sample_maps[l - 1]
        worst = 0.0
        for c in listed_unit_probes(basis_lo.shape[1], n_probes, rng):
            f_vals = basis_lo @ c
            lhs = spec.activation.apply(s_prev @ f_vals)
            rhs = s_prev @ (proj_hi @ spec.activation.apply(f_vals))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        activation_terms.append(worst)
        layer = spec.layers[l - 1]
        if layer.pooling == "none":
            pooling_terms.append(0.0)
            continue
        basis_hi = space.pw_basis(band_hi)
        worst = 0.0
        for c in listed_unit_probes(basis_hi.shape[1], n_probes, rng):
            f_vals = basis_hi @ c
            pooled = pool_per_row(s_prev @ f_vals, setting.pooling_maps[l - 1], layer.pooling)
            worst = max(worst, float(np.linalg.norm(pooled - setting.sample_maps[l] @ f_vals)))
        pooling_terms.append(worst)
    return activation_terms, pooling_terms


def output_errors_per_probe(spec, setting1, setting2, probes):
    """Space-vs-graph and two-graph gaps, running every net per probe; a
    graph net samples its input by the layer-0 map and maps back by S^T."""
    space = setting1.space

    def graph_outputs(setting, f_space):
        outputs = forward_graph(spec, setting.operators[: spec.n_layers],
                                setting.pooling_maps, [setting.sample_maps[0] @ f_space])[-1]
        return [setting.sample_maps[-1].T @ out for out in outputs]

    def space_vs_graph(setting):
        worst = 0.0
        for coeffs in probes:
            cont = forward_continuous(spec, space, [coeffs])[-1]
            graph = graph_outputs(setting, space.synthesize(coeffs, spec.bands[0]))
            for k in range(spec.layers[-1].k_out):
                gap = space.synthesize(cont[k], spec.bands[-1]) - graph[k]
                worst = max(worst, float(np.linalg.norm(gap)) / float(np.linalg.norm(coeffs)))
        return worst

    worst12 = 0.0
    for coeffs in probes:
        f_space = space.synthesize(coeffs, spec.bands[0])
        out1, out2 = graph_outputs(setting1, f_space), graph_outputs(setting2, f_space)
        for k in range(spec.layers[-1].k_out):
            diff = out1[k] - out2[k]
            worst12 = max(worst12, float(np.linalg.norm(diff)) / float(np.linalg.norm(coeffs)))
    return {"space_vs_graph1": space_vs_graph(setting1),
            "space_vs_graph2": space_vs_graph(setting2), "two_graph": worst12}


def contraction_per_pair(spec, setting, seed, pairs=50, tol=1e-10):
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    n = setting.operators[0].dim
    ops = setting.operators[: spec.n_layers]
    for _ in range(pairs):
        f1 = rng.normal(size=n)
        f2 = rng.normal(size=n)
        out1 = forward_graph(spec, ops, setting.pooling_maps, [f1])[-1]
        out2 = forward_graph(spec, ops, setting.pooling_maps, [f2])[-1]
        gap = np.linalg.norm(f1 - f2)
        for k in range(spec.layers[-1].k_out):
            if np.linalg.norm(out1[k] - out2[k]) > gap + tol:
                return False
    return True


# --- the batched code against the references --------------------------------


class TestBatchedForwards:
    @settings(max_examples=25, deadline=None)
    @given(graphs, poolings, activations, st.integers(1, 6), st.integers(0, 2**31))
    def test_forward_graph_matrix_equals_columns(self, graph, pooling, act, width, seed):
        space = GraphSpace.from_graph(graph, "normalized")
        spec = two_layer_spec(graph_bands(space, 3), pooling, act, biases=(0.1, -0.2),
                              k_input=2)
        setting = graph_setting(graph, spec)
        ops = setting.operators[: spec.n_layers]
        rng = np.random.default_rng(seed)
        inputs = [rng.normal(size=(graph.n_vertices, width)) for _ in range(2)]
        batched = forward_graph(spec, ops, setting.pooling_maps, inputs)
        for j in range(width):
            single = forward_graph(
                spec, ops, setting.pooling_maps, [ch[:, j] for ch in inputs]
            )
            for layer_out, layer_ref in zip(batched, single):
                for ch, ref in zip(layer_out, layer_ref):
                    assert_close(ch[:, j], ref)

    @settings(max_examples=25, deadline=None)
    @given(graphs, activations, st.booleans(), st.integers(1, 6), st.integers(0, 2**31))
    def test_forward_continuous_matrix_equals_columns(self, graph, act, on_circle,
                                                      width, seed):
        if on_circle:
            space, bands = CIRCLE, (1.0, 4.0, 9.0)
        else:
            space = GraphSpace.from_graph(graph, "normalized")
            bands = graph_bands(space, 3)
        spec = two_layer_spec(bands, "none", act, biases=(0.1, -0.2), k_input=2)
        rng = np.random.default_rng(seed)
        dim0 = space.dim_pw(bands[0])
        inputs = [rng.normal(size=(dim0, width)) for _ in range(2)]
        batched = forward_continuous(spec, space, inputs)
        for j in range(width):
            single = forward_continuous(spec, space, [ch[:, j] for ch in inputs])
            for layer_out, layer_ref in zip(batched, single):
                for ch, ref in zip(layer_out, layer_ref):
                    assert_close(ch[:, j], ref)

    def test_mixed_channel_shapes_rejected(self):
        space = GraphSpace.from_graph(path_graph(9), "normalized")
        spec = two_layer_spec(graph_bands(space, 3), "none", "relu", k_input=2)
        setting = graph_setting(path_graph(9), spec)
        with pytest.raises(SpectralTransferError, match="channels"):
            forward_graph(spec, setting.operators[:2], setting.pooling_maps,
                          [np.ones(9), np.ones((9, 3))])


class TestBatchedPool:
    @settings(max_examples=25, deadline=None)
    @given(graphs, poolings, st.integers(1, 5), st.integers(0, 2**31))
    def test_pool_matrix_equals_per_row_loop(self, graph, kind, width, seed):
        cmap = coarsen_matching(graph)
        signal = np.random.default_rng(seed).normal(size=(graph.n_vertices, width))
        pooled = pool(signal, cmap, kind)
        assert pooled.shape == (cmap.n_coarse, width)
        for j in range(width):
            assert_close(pooled[:, j], pool_per_row(signal[:, j], cmap, kind))
        assert_close(pool(signal[:, 0], cmap, kind), pool_per_row(signal[:, 0], cmap, kind))

    @pytest.mark.parametrize("kind", ["max", "l2avg"])
    def test_singletons_pass_through_in_a_matrix(self, kind):
        cmap = CoarseningMap(5, ((0,), (1, 3), (2,), (4,)))
        signal = np.arange(15, dtype=float).reshape(5, 3)
        pooled = pool(signal, cmap, kind)
        np.testing.assert_array_equal(pooled[[0, 2, 3]], signal[[0, 2, 4]])
        for j in range(3):
            assert_close(pooled[:, j], pool_per_row(signal[:, j], cmap, kind))


class TestBatchedMeasurements:
    @settings(max_examples=25, deadline=None)
    @given(graphs, poolings, activations, st.integers(0, 6), st.integers(0, 2**31))
    def test_hypothesis_terms_equal_per_probe_loops(self, graph, pooling, act,
                                                    n_probes, seed):
        space = GraphSpace.from_graph(graph, "normalized")
        spec = two_layer_spec(graph_bands(space, 3), pooling, act)
        setting = graph_setting(graph, spec, perturb_seed=seed % 97)
        rows = hypothesis_errors(setting, spec, n_probes=n_probes, seed=seed)
        activation, pooling_terms = hypothesis_terms_per_probe(setting, spec, n_probes, seed)
        assert_close([value for term, _, value in rows if term == "activation"], activation)
        assert_close([value for term, _, value in rows if term == "pooling"], pooling_terms)

    @settings(max_examples=25, deadline=None)
    @given(graphs, poolings, activations, st.integers(1, 6), st.integers(0, 2**31))
    def test_output_errors_equal_per_probe_loops(self, graph, pooling, act,
                                                 n_probes, seed):
        space = GraphSpace.from_graph(graph, "normalized")
        spec = two_layer_spec(graph_bands(space, 3), pooling, act, biases=(0.05, 0.0))
        setting1 = graph_setting(graph, spec)
        setting2 = graph_setting(graph, spec, perturb_seed=seed % 97)
        dim0 = space.dim_pw(spec.bands[0])
        listed = listed_unit_probes(dim0, n_probes, np.random.default_rng(seed),
                                    with_basis=False)
        probes = unit_probes(np.random.default_rng(seed), dim0, n_probes)
        got = output_errors(spec, setting1, setting2, probes)
        ref = output_errors_per_probe(spec, setting1, setting2, listed)
        assert list(got) == list(ref)
        assert_close(list(got.values()), list(ref.values()))

    def test_output_errors_reject_a_zero_probe(self):
        space = GraphSpace.from_graph(path_graph(12), "normalized")
        spec = two_layer_spec(graph_bands(space, 3), "max", "relu")
        setting = graph_setting(path_graph(12), spec)
        probes = np.zeros((space.dim_pw(spec.bands[0]), 2))
        probes[0, 0] = 1.0
        with pytest.raises(SpectralTransferError, match="nonzero"):
            output_errors(spec, setting, setting, probes)

    @settings(max_examples=25, deadline=None)
    @given(graphs, poolings, st.sampled_from((0.5, 1.0, 3.0)), st.integers(0, 2**31))
    def test_contraction_verdict_equals_per_pair_loop(self, graph, pooling, scale, seed):
        space = GraphSpace.from_graph(graph, "normalized")
        spec = two_layer_spec(graph_bands(space, 3), pooling, "relu", mix_scale=scale)
        setting = graph_setting(graph, spec)
        assert _contraction_check(spec, setting, seed) == contraction_per_pair(
            spec, setting, seed
        )
