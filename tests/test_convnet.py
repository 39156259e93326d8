"""Graph and continuous ConvNet forwards, pooling, and the network bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer.convnet import (
    Activation,
    ConvNetGraphSetting,
    ConvNetSpec,
    LayerSpec,
    convnet_transfer_bound,
    forward_continuous,
    forward_graph,
    hypothesis_errors,
    load_convnet_spec,
    network_lipschitz,
    output_errors,
    pool,
    spectral_decay_check,
)
from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.filters import Filter
from spectral_transfer.graphs import build_laplacian, grid_graph, path_graph
from spectral_transfer.sampling import (
    CoarseningMap,
    PerturbationSpec,
    coarsen_matching,
    coarsened_laplacian,
    perturb_graph_detailed,
    unit_probes,
)
from spectral_transfer.spaces import CircleSpace, GraphSpace

from coarsening_references import collapse_per_edge

CIRCLE = CircleSpace()


def one_channel_layer(filt, pooling="none", bias=0.0):
    return LayerSpec(((filt,),), np.array([[1.0]]), np.array([bias]), pooling)


def full_band_of(space):
    return space.full_band() * (1 + 1e-9)


class TestActivation:
    def test_relu_and_abs(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(Activation("relu").apply(x), [0.0, 0.0, 3.0])
        np.testing.assert_array_equal(Activation("abs").apply(x), [2.0, 0.0, 3.0])

    def test_unknown_rejected(self):
        with pytest.raises(SpectralTransferError, match="unknown activation 'tanh'"):
            Activation("tanh")

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 10))
    def test_contractive_and_homogeneous(self, y, z, c):
        for rho in (Activation("relu"), Activation("abs")):
            assert abs(rho.apply(y) - rho.apply(z)) <= abs(y - z) + 1e-12
            assert rho.apply(c * y) == pytest.approx(c * rho.apply(y), abs=1e-9)


class TestPool:
    def test_max_pair(self):
        cmap = CoarseningMap(2, ((0, 1),))
        np.testing.assert_allclose(
            pool(np.array([3.0, 1.0]), cmap, "max"), [3.0 / np.sqrt(2)]
        )

    def test_l2avg_pair(self):
        cmap = CoarseningMap(2, ((0, 1),))
        np.testing.assert_allclose(
            pool(np.array([3.0, 4.0]), cmap, "l2avg"), [np.sqrt(12.5)]
        )

    def test_singleton_passthrough(self):
        cmap = CoarseningMap(1, ((0,),))
        for kind in ("max", "l2avg"):
            np.testing.assert_allclose(pool(np.array([5.0]), cmap, kind), [5.0])

    def test_max_of_signed_signals(self):
        cmap = CoarseningMap(2, ((0, 1),))
        np.testing.assert_allclose(
            pool(np.array([-1.0, 2.0]), cmap, "max"), [2.0 / np.sqrt(2)]
        )
        np.testing.assert_allclose(
            pool(np.array([-3.0, -1.0]), cmap, "max"), [-1.0 / np.sqrt(2)]
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpectralTransferError, match="pooling kind"):
            pool(np.array([1.0, 2.0]), CoarseningMap(2, ((0, 1),)), "mean")

    def test_pooling_reduces_norm(self):
        rng = np.random.default_rng(3)
        cmap = coarsen_matching(path_graph(9))
        for _ in range(50):
            s = rng.normal(size=9)
            for kind in ("max", "l2avg"):
                assert np.linalg.norm(pool(s, cmap, kind)) <= np.linalg.norm(s) + 1e-12


class TestForwardGraph:
    def test_identity_net_passthrough(self):
        op = build_laplacian(path_graph(4), "unnormalized")
        spec = ConvNetSpec(
            (one_channel_layer(Filter.identity()),), Activation("relu"), (4.0, 4.0)
        )
        s = np.array([0.5, 1.0, 0.0, 2.0])  # nonnegative: relu is a no-op
        out = forward_graph(spec, [op], [None], [s])
        np.testing.assert_allclose(out[-1][0], s, atol=1e-12)

    def test_zero_input_zero_output(self):
        op = build_laplacian(path_graph(5), "unnormalized")
        spec = ConvNetSpec(
            (one_channel_layer(Filter.heat(1.0)), one_channel_layer(Filter.lowpass(1.0))),
            Activation("abs"),
            (4.0, 4.0, 4.0),
        )
        out = forward_graph(spec, [op, op], [None, None], [np.zeros(5)])
        np.testing.assert_array_equal(out[-1][0], np.zeros(5))

    def test_hand_traced_relu_layer(self):
        op = build_laplacian(path_graph(2), "unnormalized")
        spec = ConvNetSpec(
            (one_channel_layer(Filter.polynomial((0.0, 1.0))),),
            Activation("relu"),
            (2.0, 2.0),
        )
        out = forward_graph(spec, [op], [None], [np.array([1.0, 0.0])])
        np.testing.assert_allclose(out[-1][0], [1.0, 0.0], atol=1e-12)

    def test_channel_mismatch_rejected(self):
        op = build_laplacian(path_graph(3), "unnormalized")
        spec = ConvNetSpec(
            (one_channel_layer(Filter.identity()),), Activation("relu"), (4.0, 4.0)
        )
        with pytest.raises(SpectralTransferError, match="network expects 1 input channels"):
            forward_graph(spec, [op], [None], [np.ones(3), np.ones(3)])

    def test_permutation_equivariance(self):
        graph = path_graph(7)
        op = build_laplacian(graph, "unnormalized")
        rng = np.random.default_rng(5)
        perm = rng.permutation(7)
        p_mat = np.eye(7)[perm]
        op_p = build_laplacian(
            graph, "unnormalized"
        )  # same spectrum; permute explicitly below
        from spectral_transfer.graphs import OperatorWithInnerProduct

        op_p = OperatorWithInnerProduct.symmetric(p_mat @ op.matrix @ p_mat.T)
        grid = ((Filter.heat(0.5), Filter.lowpass(2.0)),)
        layer = LayerSpec(grid, np.array([[0.6, 0.4]]), np.array([0.1]), "none")
        spec = ConvNetSpec((layer,), Activation("relu"), (4.0, 4.0))
        s1, s2 = rng.normal(size=7), rng.normal(size=7)
        out = forward_graph(spec, [op], [None], [s1, s2])[-1][0]
        out_p = forward_graph(spec, [op_p], [None], [p_mat @ s1, p_mat @ s2])[-1][0]
        np.testing.assert_allclose(out_p, p_mat @ out, atol=1e-10)

    def test_contraction_bias_free_unit_mixing(self):
        graph = path_graph(8)
        space = GraphSpace.from_graph(graph)
        cmap = coarsen_matching(graph)
        op = space.operator
        grid1 = ((Filter.lowpass(4.0),),)
        grid2 = ((Filter.heat(0.25),),)
        spec = ConvNetSpec(
            (
                LayerSpec(grid1, np.array([[1.0]]), np.array([0.0]), "max"),
                LayerSpec(grid2, np.array([[1.0]]), np.array([0.0]), "none"),
            ),
            Activation("relu"),
            (8.0, 8.0, 8.0),
        )

        ops = [op, coarsened_laplacian(cmap, op)]
        maps = [cmap, None]
        rng = np.random.default_rng(11)
        for _ in range(50):
            f1, f2 = rng.normal(size=8), rng.normal(size=8)
            o1 = forward_graph(spec, ops, maps, [f1])[-1][0]
            o2 = forward_graph(spec, ops, maps, [f2])[-1][0]
            assert np.linalg.norm(o1 - o2) <= np.linalg.norm(f1 - f2) + 1e-10

    def test_norm_growth_envelope(self):
        graph = path_graph(6)
        op = build_laplacian(graph, "unnormalized")
        a_val, bias = 1.7, 0.3
        layer = LayerSpec(
            ((Filter.lowpass(2.0),),), np.array([[a_val]]), np.array([bias]), "none"
        )
        spec = ConvNetSpec((layer, layer), Activation("relu"), (8.0, 8.0, 8.0))
        b_norm = bias * np.sqrt(6)  # norm of the constant bias signal
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = rng.normal(size=6)
            outs = forward_graph(spec, [op, op], [None, None], [f])
            for l, channels in enumerate(outs, start=1):
                envelope = a_val**l * np.linalg.norm(f) + b_norm * (
                    (a_val**l - 1) / (a_val - 1)
                )
                assert np.linalg.norm(channels[0]) <= envelope + 1e-10


class TestForwardContinuous:
    def test_constant_fixed_point(self):
        spec = ConvNetSpec(
            (one_channel_layer(Filter.identity()),), Activation("relu"), (0.0, 0.0)
        )
        out = forward_continuous(spec, CIRCLE, [np.array([2.5])])
        np.testing.assert_allclose(out[-1][0], [2.5], atol=1e-12)

    def test_zero_input_zero_bias(self):
        spec = ConvNetSpec(
            (one_channel_layer(Filter.heat(1.0)),), Activation("relu"), (1.0, 4.0)
        )
        out = forward_continuous(spec, CIRCLE, [np.zeros(3)])
        np.testing.assert_allclose(out[-1][0], np.zeros(5), atol=1e-14)

    def test_relu_of_filtered_cosine_against_quadrature_oracle(self):
        # One lowpass layer fed the first cosine; the layer output must match
        # projecting relu(g(1) sqrt2 cos) computed on a 4096-point grid.
        filt = Filter.lowpass(2.0)
        spec = ConvNetSpec((one_channel_layer(filt),), Activation("relu"), (1.0, 9.0))
        inp = np.array([0.0, 1.0, 0.0])
        out = forward_continuous(spec, CIRCLE, [inp])[-1][0]
        grid = np.arange(4096) / 4096
        g1 = filt.evaluate(1.0)
        oracle_vals = np.maximum(g1 * np.sqrt(2) * np.cos(2 * np.pi * grid), 0.0)
        oracle = CIRCLE.basis_matrix(grid, 9.0).T @ oracle_vals / 4096
        np.testing.assert_allclose(out, oracle, atol=1e-8)

    def test_graph_space_continuous_side_exact(self):
        space = GraphSpace.from_graph(path_graph(5))
        band = full_band_of(space)
        spec = ConvNetSpec(
            (one_channel_layer(Filter.heat(0.5)),), Activation("abs"), (band, band)
        )
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=5)
        out = forward_continuous(spec, space, [coeffs])[-1][0]
        # Oracle: full-band graph side equals pointwise arithmetic.
        lams = space.eigenvalues_up_to(band)
        g_vals = Filter.heat(0.5).evaluate(lams).real
        vertex = space.synthesize(g_vals * coeffs, band)
        expected = space.project_pw(band, np.abs(vertex))
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestTransferBound:
    def test_zero_delta(self):
        assert convnet_transfer_bound(2, 1.0, 1.0, 0.0, 0.0, 9) == 0.0

    def test_unit_mixing_substitution(self):
        val = convnet_transfer_bound(1, 1.0, 1.0, 0.0, 0.01, 4)
        assert val == pytest.approx(0.06)

    def test_bias_free_corollary_form(self):
        val = convnet_transfer_bound(2, 1.0, 1.0, 0.0, 0.1, 9)
        assert val == pytest.approx(1.2)

    def test_expansive_mixing(self):
        val = convnet_transfer_bound(2, 1.0, 2.0, 0.5, 0.1, 4)
        front = 2 * 1.0 * 2.0 + 4 + 2
        growth = 4.0 * 1.0 + 0.5 * 3.0
        assert val == pytest.approx(front * growth * 0.1)

    def test_delta_range_enforced(self):
        with pytest.raises(SpectralTransferError, match=r"hypothesis tolerance 1.5 outside \[0, 1\)"):
            convnet_transfer_bound(1, 1.0, 1.0, 0.0, 1.5, 4)


def build_two_layer_setting(graph, perturb=None):
    """Shared fixture: a 2-layer K=1->2->2 net on a path graph."""
    space = GraphSpace.from_graph(graph, "normalized")
    lams = np.sort(space.eig.values.real)
    bands = (
        float((lams[3] + lams[4]) / 2),
        float((lams[5] + lams[6]) / 2),
        float((lams[7] + lams[8]) / 2),
    )
    union_spectrum = lams
    layer1 = LayerSpec(
        ((Filter.lowpass(2.0),), (Filter.heat(0.5),)),
        np.array([[1.0], [1.0]]),
        np.zeros(2),
        "max",
    )
    layer2 = LayerSpec(
        (
            (Filter.lowpass(2.0), Filter.heat(0.5)),
            (Filter.heat(0.5), Filter.lowpass(2.0)),
        ),
        np.array([[0.5, 0.5], [0.5, -0.5]]),
        np.zeros(2),
        "none",
    )
    spec = ConvNetSpec((layer1, layer2), Activation("relu"), bands)
    spec = spec.normalized_on(union_spectrum)

    if perturb is None:
        base_graph, initial_op = graph, space.operator
    else:
        res = perturb_graph_detailed(graph, perturb)
        base_graph = res.graph
        initial_op = build_laplacian(base_graph, "normalized")
    setting = ConvNetGraphSetting.build(space, spec, base_graph, initial_op)
    return space, spec, setting


def reference_chain(space, spec, graph, operator):
    """Maps and operators as they were built before ConvNetGraphSetting.build
    matched and collapsed in its own loop: first a {layer: CoarseningMap}
    dict chained through collapsed graphs, then a second walk applying it."""
    coarsenings, current = {}, graph
    for l, layer in enumerate(spec.layers, start=1):
        if layer.pooling == "none":
            continue
        cmap = coarsen_matching(current)
        coarsenings[l] = cmap
        current = collapse_per_edge(current, cmap)
    s, op = np.eye(space.n_vertices), operator
    maps, operators, pooling = [s], [op], []
    for l in range(1, spec.n_layers + 1):
        cmap = coarsenings.get(l)
        if cmap is not None:
            s = cmap.s_matrix @ s
            op = coarsened_laplacian(cmap, op)
        pooling.append(cmap)
        maps.append(s)
        operators.append(op)
    return maps, operators, pooling


class TestGraphSettingBuild:
    def test_two_pooling_layers_match_the_two_pass_chain(self):
        graph = grid_graph(4, 4)
        space = GraphSpace.from_graph(graph, "normalized")
        band = full_band_of(space)
        spec = ConvNetSpec(
            (one_channel_layer(Filter.heat(0.5), "max"),
             one_channel_layer(Filter.lowpass(2.0), "l2avg"),
             one_channel_layer(Filter.heat(1.0))),
            Activation("relu"), (band,) * 4,
        )
        other = perturb_graph_detailed(
            graph, PerturbationSpec("add_edges", 0.05, seed=3)
        ).graph
        assert other.n_edges > graph.n_edges
        for g in (graph, other):
            op = build_laplacian(g, "normalized")
            setting = ConvNetGraphSetting.build(space, spec, g, op)
            maps, operators, pooling = reference_chain(space, spec, g, op)
            assert [o.dim for o in setting.operators] == [16, 8, 4, 4]
            assert setting.operators[3] is setting.operators[2]
            assert setting.pooling_maps[2] is None
            for got, want in zip(setting.pooling_maps[:2], pooling[:2]):
                assert got == want
                np.testing.assert_array_equal(got.s_matrix, want.s_matrix)
            for got, want in zip(setting.sample_maps, maps, strict=True):
                np.testing.assert_array_equal(got, want)
            for got, want in zip(setting.operators, operators, strict=True):
                np.testing.assert_array_equal(got.matrix, want.matrix)
                np.testing.assert_array_equal(got.inner.b_matrix, want.inner.b_matrix)


class TestHypothesisAndCertification:
    def test_identity_setting_all_terms_zero(self):
        graph = path_graph(8)
        space = GraphSpace.from_graph(graph)
        band = full_band_of(space)
        spec = ConvNetSpec(
            (one_channel_layer(Filter.lowpass(2.0)),), Activation("relu"), (band, band)
        )
        setting = ConvNetGraphSetting.build(space, spec, graph, space.operator)
        rows = hypothesis_errors(setting, spec, n_probes=4)
        assert max(value for *_, value in rows) <= 1e-10

    def test_two_layer_terms_finite_and_delta_below_one(self):
        space, spec, setting = build_two_layer_setting(path_graph(16))
        rows = hypothesis_errors(setting, spec, n_probes=8)
        terms = [term for term, _, _ in rows]
        assert [terms.count(term) for term in ("laplacian", "activation", "pooling")] == [2, 2, 2]
        assert 0.0 < max(value for *_, value in rows) < 1.0

    def test_end_to_end_certification(self):
        graph = path_graph(16)
        space, spec, setting1 = build_two_layer_setting(graph)
        _, _, setting2 = build_two_layer_setting(
            graph, perturb=PerturbationSpec("remove_edges", 0.1, seed=3)
        )
        delta = max(value for setting in (setting1, setting2)
                    for *_, value in hypothesis_errors(setting, spec, n_probes=8))
        assert delta < 1.0
        count = space.dim_pw(spec.bands[-1])
        bound = convnet_transfer_bound(
            spec.n_layers, network_lipschitz(spec, (setting1, setting2)),
            max(spec.mixing_bound(), 1.0),
            0.0, delta, count,
        )
        rng = np.random.default_rng(17)
        dim0 = space.dim_pw(spec.bands[0])
        probes = unit_probes(rng, dim0, 10)
        err1, err2, err12 = output_errors(spec, setting1, setting2, probes)
        assert err1 <= bound
        assert err2 <= bound
        assert err12 <= bound


class TestSpectralDecay:
    def test_nonnegative_probe_ratio_below_one(self):
        # relu leaves nonnegative signals unchanged, so the ratio is the
        # band's own weighted energy over M^2 ||f||^2, at most 1.
        rho = Activation("relu")
        probes = [np.array([1.5, 0.3, 0.0])]  # nonneg: 1.5 + 0.3 sqrt2 cos >= 0
        ratio = spectral_decay_check(rho, 1.0, probes, truncation=64, grid=4096)
        # Oracle: sum n^2 c_n^2 / (M^2 ||f||^2) = 0.09 / 2.34
        assert ratio == pytest.approx(0.09 / 2.34, abs=1e-8)
        assert ratio <= 1.0

    def test_constant_probe_zero(self):
        ratio = spectral_decay_check(
            Activation("relu"), 1.0, [np.array([2.0, 0.0, 0.0])], truncation=64,
            grid=4096,
        )
        assert ratio <= 1e-12

    def test_pure_cosine_band_one(self):
        probes = [np.array([0.0, 1.0, 0.0])]
        ratio = spectral_decay_check(Activation("relu"), 1.0, probes,
                                     truncation=1024)
        assert ratio <= 1.0 + 1e-6

    def test_random_probes_bands_one_and_four(self):
        rng = np.random.default_rng(23)
        for band in (1.0, 4.0):
            dim = CIRCLE.dim_pw(band)
            probes = [v for v in rng.normal(size=(20, dim))]
            ratio = spectral_decay_check(Activation("relu"), band, probes,
                                         truncation=1024)
            assert ratio <= 1.0 + 1e-6


class TestSpecLoadingAndValidation:
    def test_load_round_trip(self, tmp_path):
        text = """
[net]
activation = relu
bands = 1.0, 1.0, 4.0

[layer 1]
filters = lowpass(2.0) ; highpass(2.0)
mix = 1.0 ; 1.0
biases = 0.0, 0.0
pooling = max

[layer 2]
filters = heat(1.0), heat(1.0) ; lowpass(1.0), identity
mix = 0.5, 0.5 ; 0.5, -0.5
pooling = none
"""
        path = tmp_path / "net.ini"
        path.write_text(text)
        spec = load_convnet_spec(path)
        assert spec.n_layers == 2
        assert spec.k_input == 1
        assert spec.layers[0].k_out == 2
        assert spec.layers[0].pooling == "max"
        assert spec.layers[1].filters[1][1].name == "identity"
        assert spec.bands == (1.0, 1.0, 4.0)
        assert spec.mixing_bound() == pytest.approx(1.0)

    def test_band_monotonicity_enforced(self):
        with pytest.raises(SpectralTransferError, match="nondecreasing"):
            ConvNetSpec(
                (one_channel_layer(Filter.identity()),), Activation("relu"), (4.0, 1.0)
            )

    def test_channel_chaining_enforced(self):
        l1 = LayerSpec(
            ((Filter.identity(),), (Filter.identity(),)),
            np.ones((2, 1)), np.zeros(2), "none",
        )  # outputs 2 channels
        l2 = one_channel_layer(Filter.identity())  # expects 1
        with pytest.raises(SpectralTransferError, match="channels"):
            ConvNetSpec((l1, l2), Activation("relu"), (1.0, 1.0, 1.0))

    def test_normalization_preserves_network(self):
        graph = path_graph(6)
        op = build_laplacian(graph, "unnormalized")
        space = GraphSpace.from_graph(graph)
        lams = space.eig.values.real
        layer = LayerSpec(
            ((Filter.polynomial((0.0, 2.0)),),), np.array([[0.5]]), np.zeros(1), "none"
        )
        spec = ConvNetSpec((layer,), Activation("relu"), (8.0, 8.0))
        normed = spec.normalized_on(lams)
        from spectral_transfer.filters import sup_norm_on_spectrum

        assert sup_norm_on_spectrum(
            normed.layers[0].filters[0][0], lams
        ) == pytest.approx(1.0)
        rng = np.random.default_rng(1)
        s = rng.normal(size=6)
        out1 = forward_graph(spec, [op], [None], [s])[-1][0]
        out2 = forward_graph(normed, [op], [None], [s])[-1][0]
        np.testing.assert_allclose(out2, out1, atol=1e-12)
