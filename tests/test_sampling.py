"""Sampling/interpolation pairs, coarsening, random Laplacians, perturbation."""

import numpy as np
import pytest

from spectral_transfer.errors import (
    DegeneratePerturbationError,
    GraphError,
    ParameterError,
    WeightError,
)
from spectral_transfer.graphs import (
    OperatorWithInnerProduct,
    WeightedGraph,
    adjoint_wrt,
    build_laplacian,
    path_graph,
)
from spectral_transfer.sampling import (
    CoarseningMap,
    PerturbationSpec,
    SampleSet,
    coarsen_matching,
    coarsened_laplacian,
    evaluation_operator,
    gram,
    perturb_graph_detailed,
    random_sampled_laplacian,
)
from spectral_transfer.spaces import BandlimitedKernel, CircleSpace

CIRCLE = CircleSpace()


def uniform_sample(n, seed):
    """n points drawn uniformly on [0, 1) from a seeded generator."""
    return SampleSet(np.random.default_rng(seed).uniform(size=n))


class TestSampleSet:
    def test_weights_default_to_ones(self):
        ss = uniform_sample(6, seed=0)
        np.testing.assert_array_equal(ss.w_values, np.ones(6))
        np.testing.assert_array_equal(ss.inner_product().b_matrix, np.eye(6))

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (2, 3, 4)])
    def test_a_stack_has_no_single_inner_product(self, shape):
        stack = SampleSet(np.random.default_rng(0).random(shape))
        with pytest.raises(ParameterError, match=r"stack .*take one row"):
            stack.inner_product()
        row = SampleSet(stack.points[(0,) * (len(shape) - 1)])
        np.testing.assert_array_equal(row.inner_product().b, np.ones(4))


class TestEvaluationOperator:
    def test_constant_column(self):
        ss = uniform_sample(10, seed=0)
        pair = evaluation_operator(CIRCLE, ss, 0.0)
        np.testing.assert_allclose(pair.s_matrix[:, 0], 1.0 / np.sqrt(10))
        assert pair.inner.norm(pair.s_matrix[:, 0]) == pytest.approx(1.0)

    def test_cosine_at_quarter_points(self):
        pair = evaluation_operator(CIRCLE, SampleSet.equispaced(4), 1.0)
        expected = np.array([np.sqrt(2), 0.0, -np.sqrt(2), 0.0]) / 2.0
        np.testing.assert_allclose(pair.s_matrix[:, 1], expected, atol=1e-15)
        assert np.linalg.norm(pair.s_matrix[:, 1]) == pytest.approx(1.0)

    def test_band_nesting(self):
        ss = uniform_sample(17, seed=3)
        lo = evaluation_operator(CIRCLE, ss, 1.0)
        hi = evaluation_operator(CIRCLE, ss, 4.0)
        np.testing.assert_array_equal(hi.s_matrix[:, :3], lo.s_matrix)

    def test_adjoint_identity_100_random_pairs(self):
        ss = SampleSet.weighted_random(
            40, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x), seed=5
        )
        pair = evaluation_operator(CIRCLE, ss, 4.0)
        rng = np.random.default_rng(6)
        b = pair.inner.b_matrix
        for _ in range(100):
            f = rng.normal(size=pair.s_matrix.shape[1])
            u = rng.normal(size=pair.s_matrix.shape[0])
            lhs = np.conj(u) @ (b @ (pair.s_matrix @ f))
            rhs = np.conj(pair.r_matrix @ u) @ f
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestGram:
    def test_four_equispaced_band1_is_identity(self):
        pair = evaluation_operator(CIRCLE, SampleSet.equispaced(4), 1.0)
        np.testing.assert_allclose(gram(pair), np.eye(3), atol=1e-12)

    def test_single_point_band0(self):
        pair = evaluation_operator(CIRCLE, SampleSet(np.array([0.37])), 0.0)
        np.testing.assert_allclose(gram(pair), [[1.0]], atol=1e-15)

    def test_gram_equals_r_compose_s(self):
        ss = uniform_sample(25, seed=1)
        pair = evaluation_operator(CIRCLE, ss, 4.0)
        np.testing.assert_allclose(gram(pair), pair.r_matrix @ pair.s_matrix,
                                   atol=1e-14)

    def test_monte_carlo_refinement(self):
        # More samples usually tighten the Gram toward the identity.
        wins = 0
        for seed in range(50):
            g16 = gram(evaluation_operator(CIRCLE, uniform_sample(16, seed), 4.0))
            g64 = gram(evaluation_operator(
                CIRCLE, uniform_sample(64, seed + 1000), 4.0))
            e16 = np.linalg.norm(g16 - np.eye(5), "fro")
            e64 = np.linalg.norm(g64 - np.eye(5), "fro")
            wins += e64 < e16
        assert wins >= 40  # >= 80% of 50 seeded trials


class TestCoarsening:
    def test_p2_single_pair(self):
        cmap = coarsen_matching(path_graph(2))
        assert cmap.groups == ((0, 1),)

    def test_p3_traces_heuristic(self):
        # Degree-1 vertex 0 is visited first and takes its only neighbour.
        cmap = coarsen_matching(path_graph(3))
        assert cmap.groups == ((0, 1), (2,))

    def test_edgeless_all_singletons(self):
        cmap = coarsen_matching(WeightedGraph(4, ()))
        assert cmap.groups == ((0,), (1,), (2,), (3,))

    def test_rows_orthonormal(self):
        cmap = coarsen_matching(path_graph(9))
        s = cmap.s_matrix
        np.testing.assert_allclose(s @ s.T, np.eye(cmap.n_coarse), atol=1e-15)

    def test_weights_steer_matching(self):
        # Hand trace: degrees are d0=11, d1=15, d2=6, so vertex 2 is visited
        # first; its scores are w20 (1/6 + 1/11) = 0.258 for vertex 0 and
        # w21 (1/6 + 1/15) = 1.167 for vertex 1, so the heavier edge wins.
        g = WeightedGraph(3, ((0, 1, 10.0), (1, 2, 5.0), (0, 2, 1.0)))
        cmap = coarsen_matching(g)
        assert cmap.groups == ((0,), (1, 2))

    def test_equal_scores_tie_break_smaller_index(self):
        # Symmetric triangle: vertex 2 is visited first (degree 2) and both
        # neighbours score 1 (1/2 + 1/11); the tie goes to vertex 0.
        g = WeightedGraph(3, ((0, 1, 10.0), (1, 2, 1.0), (0, 2, 1.0)))
        cmap = coarsen_matching(g)
        assert cmap.groups == ((0, 2), (1,))

    def test_matching_must_cover(self):
        with pytest.raises(GraphError, match="cover"):
            CoarseningMap(3, ((0, 1),))

    def test_matching_must_not_repeat_a_vertex(self):
        with pytest.raises(GraphError, match="cover"):
            CoarseningMap(3, ((0, 1), (1, 2)))

    def test_groups_sorted_and_ordered_by_smallest_vertex(self):
        cmap = CoarseningMap(4, ((3, 1), (2,), (0,)))
        assert cmap.groups == ((0,), (1, 3), (2,))
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_array_equal(
            cmap.s_matrix, [[1, 0, 0, 0], [0, r, 0, r], [0, 0, 1, 0]]
        )


class TestCoarsenedLaplacian:
    def test_p2_collapsed_to_zero(self):
        # Oracle: (1/sqrt2, 1/sqrt2) L (1/sqrt2, 1/sqrt2)^T with L = K2
        # Laplacian annihilates constants.
        op = build_laplacian(path_graph(2), "unnormalized")
        cmap = coarsen_matching(path_graph(2))
        coarse = coarsened_laplacian(cmap, op)
        np.testing.assert_allclose(coarse.matrix, [[0.0]], atol=1e-15)

    def test_p3_explicit_product(self):
        op = build_laplacian(path_graph(3), "unnormalized")
        cmap = coarsen_matching(path_graph(3))
        coarse = coarsened_laplacian(cmap, op)
        # Oracle: explicit 2x3 . 3x3 . 3x2 product.
        s = np.array([[1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], [0.0, 0.0, 1.0]])
        expected = s @ op.matrix @ s.T
        np.testing.assert_allclose(expected,
                                   [[0.5, -1 / np.sqrt(2)], [-1 / np.sqrt(2), 1.0]],
                                   atol=1e-15)
        np.testing.assert_allclose(coarse.matrix, expected, atol=1e-15)

    def test_zero_laplacian(self):
        cmap = coarsen_matching(path_graph(4))
        zero = OperatorWithInnerProduct.symmetric(np.zeros((4, 4)))
        np.testing.assert_array_equal(coarsened_laplacian(cmap, zero).matrix, 0.0)


class TestRandomSampledLaplacian:
    def test_zero_kernel_zero_operator(self):
        kernel = BandlimitedKernel(CIRCLE, 0.0)
        ss = uniform_sample(8, seed=0)
        op = random_sampled_laplacian(kernel, ss)
        np.testing.assert_allclose(op.matrix, 0.0, atol=1e-14)

    def test_equispaced_band1_exact(self):
        # Oracle: direct computation.  With 4 equispaced points, uniform
        # weight, and kernel band 1, the quadrature of H phi is exact, so
        # the discrete action reproduces S L phi without error.
        kernel = BandlimitedKernel(CIRCLE, 1.0)
        ss = SampleSet.equispaced(4)
        op = random_sampled_laplacian(kernel, ss)
        pair = evaluation_operator(CIRCLE, ss, 1.0)
        for m, lam in enumerate(CIRCLE.eigenvalues_up_to(1.0)):
            s_phi = pair.s_matrix[:, m]
            np.testing.assert_allclose(op.matrix @ s_phi, lam * s_phi, atol=1e-12)

    def test_self_adjoint_under_weighted_inner(self):
        w = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x)
        ss = SampleSet.weighted_random(30, w, seed=9)
        op = random_sampled_laplacian(BandlimitedKernel(CIRCLE, 4.0), ss)
        defect = np.abs(op.matrix - adjoint_wrt(op.matrix, op.inner)).max()
        assert defect <= 1e-12

    def test_nonpositive_weight_rejected(self):
        # the sample set holds the weights the Laplacian divides by
        points = uniform_sample(5, seed=2).points
        with pytest.raises(WeightError, match="nonpositive sampling weight"):
            random_sampled_laplacian(BandlimitedKernel(CIRCLE, 1.0), SampleSet(points, points - 1.0))


class TestPerturbation:
    def test_zero_fraction_identity(self):
        g = path_graph(5)
        out = perturb_graph_detailed(g, PerturbationSpec("remove_edges", 0.0, seed=1)).graph
        assert out.edges == g.edges

    def test_p3_removes_exactly_one_edge(self):
        g = path_graph(3)
        out = perturb_graph_detailed(g, PerturbationSpec("remove_edges", 0.5, seed=11)).graph
        assert out.n_edges == 1  # floor(0.5 * 2)
        assert out.n_vertices == 3

    def test_complete_graph_add_edges_unchanged(self):
        triangle = WeightedGraph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        out = perturb_graph_detailed(triangle, PerturbationSpec("add_edges", 1.0, seed=3)).graph
        assert out.edges == triangle.edges

    def test_add_edges_count(self):
        g = path_graph(6)
        out = perturb_graph_detailed(g, PerturbationSpec("add_edges", 0.4, seed=3)).graph
        assert out.n_edges == g.n_edges + int(0.4 * g.n_edges)

    def test_vertex_removal_reindexes(self):
        g = path_graph(10)
        res = perturb_graph_detailed(g, PerturbationSpec("remove_vertices", 0.2, seed=5))
        assert res.graph.n_vertices == 8
        assert len(res.kept_vertices) == 8
        s = res.restriction_matrix(10)
        assert s.shape == (8, 10)
        np.testing.assert_allclose(s @ s.T, np.eye(8), atol=1e-15)

    def test_empty_graph_rejected(self):
        with pytest.raises(DegeneratePerturbationError):
            perturb_graph_detailed(path_graph(3), PerturbationSpec("remove_vertices", 1.0, seed=0))

    def test_deterministic_under_seed(self):
        g = path_graph(30)
        spec = PerturbationSpec("remove_edges", 0.3, seed=77)
        first, second = (perturb_graph_detailed(g, spec).graph for _ in range(2))
        assert first.edges == second.edges

    def test_bad_mode_and_fraction(self):
        with pytest.raises(ParameterError):
            PerturbationSpec("rewire", 0.1)
        with pytest.raises(ParameterError):
            PerturbationSpec("add_edges", 1.5)

