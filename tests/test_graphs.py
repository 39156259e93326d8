"""Graph construction, Laplacians, inner products, eigendecomposition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_transfer.errors import (
    DecompositionError,
    DegenerateDegreeError,
    GraphError,
    InvalidInnerProductError,
    NormalityError,
)
from spectral_transfer import graphs
from spectral_transfer.graphs import (
    InnerProduct,
    OperatorWithInnerProduct,
    WeightedGraph,
    adjoint_wrt,
    build_laplacian,
    eigendecompose,
    grid_graph,
    normality_defect,
    path_graph,
    random_geometric_graph,
)


def random_symmetric_op(n, rng):
    a = rng.normal(size=(n, n))
    return OperatorWithInnerProduct.symmetric(0.5 * (a + a.T))


class TestWeightedGraph:
    def test_path3(self):
        g = path_graph(3)
        assert g.n_vertices == 3
        np.testing.assert_array_equal(
            g.adjacency(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self loop"):
            WeightedGraph(2, ((0, 0, 1.0),))

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(GraphError, match="duplicate"):
            WeightedGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(GraphError, match="non-finite"):
            WeightedGraph(2, ((0, 1, np.inf),))

    def test_directed_keeps_orientation(self):
        g = WeightedGraph(2, ((1, 0, 3.0),), directed=True)
        np.testing.assert_array_equal(g.adjacency(), [[0, 0], [3, 0]])

    def test_grid_edge_count(self):
        g = grid_graph(3, 4)
        # 3 rows of 3 horizontal edges + 2 rows of 4 vertical edges
        assert g.n_edges == 3 * 3 + 2 * 4

    def test_random_geometric_deterministic(self):
        g1 = random_geometric_graph(30, 0.3, seed=7)
        g2 = random_geometric_graph(30, 0.3, seed=7)
        assert g1.edges == g2.edges
        g3 = random_geometric_graph(30, 0.3, seed=8)
        assert g1.edges != g3.edges


class TestBuildLaplacian:
    def test_path3_unnormalized(self):
        op = build_laplacian(path_graph(3), "unnormalized")
        np.testing.assert_array_equal(
            op.matrix, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )
        assert op.inner.is_standard

    def test_isolated_vertex(self):
        op = build_laplacian(WeightedGraph(1, ()), "unnormalized")
        np.testing.assert_array_equal(op.matrix, [[0.0]])

    def test_k2_normalized(self):
        # Oracle: I - D^{-1/2} W D^{-1/2} computed with raw numpy arithmetic.
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        d_is = np.diag(1.0 / np.sqrt(w.sum(axis=1)))
        expected = np.eye(2) - d_is @ w @ d_is
        np.testing.assert_allclose(expected, [[1, -1], [-1, 1]], atol=1e-15)
        op = build_laplacian(WeightedGraph(2, ((0, 1, 1.0),)), "normalized")
        np.testing.assert_allclose(op.matrix, expected, atol=1e-15)

    def test_normalized_rejects_zero_degree(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))  # vertex 2 isolated
        with pytest.raises(DegenerateDegreeError, match="vertex 2"):
            build_laplacian(g, "normalized")

    def test_adjacency_kind(self):
        op = build_laplacian(path_graph(2), "adjacency")
        np.testing.assert_array_equal(op.matrix, [[0, 1], [1, 0]])

    def test_row_sums_exactly_zero(self):
        op = build_laplacian(random_geometric_graph(40, 0.35, seed=1), "unnormalized")
        np.testing.assert_array_equal(op.matrix.sum(axis=1), np.zeros(40))

    def test_directed_laplacian_is_normal_under_built_inner(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)), directed=True)
        op = build_laplacian(g, "unnormalized")
        assert normality_defect(op) < 1e-10


class TestAdjoint:
    def test_symmetric_self_adjoint(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(adjoint_wrt(a, InnerProduct.standard(2)), a)

    def test_diagonal_b_2x2(self):
        # Oracle: direct 2x2 multiplication of B^{-1} A^H B.  The adjoint
        # identity <Au, v> = <u, A*v> is re-checked explicitly below.
        b = np.diag([1.0, 2.0])
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.linalg.inv(b) @ a.T @ b
        np.testing.assert_allclose(expected, [[0, 0], [0.5, 0]], atol=1e-15)
        inner = InnerProduct(b)
        a_star = adjoint_wrt(a, inner)
        np.testing.assert_allclose(a_star, expected, atol=1e-15)
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, v = rng.normal(size=2), rng.normal(size=2)
            assert v @ inner.apply(a @ u) == pytest.approx((a_star @ v) @ inner.apply(u))

    def test_unitary_under_b_adjoint_is_inverse(self):
        # Build a B-unitary operator from a B-orthonormal eigenbasis and
        # unimodular eigenvalues (eigendecomposition oracle).
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 0.1 * np.eye(4)
        inner = InnerProduct.from_eigenvector_matrix(g.astype(complex))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        u = g @ np.diag(phases) @ np.linalg.inv(g)
        a_star = adjoint_wrt(u, inner)
        np.testing.assert_allclose(a_star, np.linalg.inv(u), atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(5, 5))
        inner = InnerProduct(b @ b.T + 5 * np.eye(5))
        a = rng.normal(size=(5, 5))
        twice = adjoint_wrt(adjoint_wrt(a, inner), inner)
        np.testing.assert_allclose(twice, a, atol=1e-12)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInnerProductError):
            adjoint_wrt(np.eye(3), InnerProduct.standard(2))


class TestInnerProduct:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInnerProductError, match="Hermitian"):
            InnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_hermitian_full_matrix(self):
        b = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 0.0], [0.0, 1.0, 2.0]])
        with pytest.raises(InvalidInnerProductError, match="Hermitian"):
            InnerProduct(b)

    def test_rejects_complex_diagonal(self):
        with pytest.raises(InvalidInnerProductError, match="Hermitian"):
            InnerProduct(np.diag([1.0 + 0.5j, 2.0]))
        # An imaginary part within the Hermitian tolerance still fails.
        with pytest.raises(InvalidInnerProductError, match="positive definite"):
            InnerProduct(np.diag([1.0 + 1e-12j, 2.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInnerProductError, match="positive definite"):
            InnerProduct(np.diag([1.0, -1.0]))

    def test_pair_matches_formula(self):
        b = np.diag([2.0, 3.0])
        inner = InnerProduct(b)
        u, v = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        assert v.conj() @ inner.apply(u) == pytest.approx(2.0 - 3.0)


class TestNormalityDefect:
    def test_symmetric_zero(self):
        op = OperatorWithInnerProduct.symmetric(np.array([[1.0, 2.0], [2.0, 0.0]]))
        assert normality_defect(op) == 0.0

    def test_upper_triangular_positive_under_dot(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        a_star = a.T
        expected = np.linalg.norm(a @ a_star - a_star @ a, "fro")
        assert expected > 0.5  # direct computation oracle: defect = sqrt(2+2) - ish
        with pytest.raises(NormalityError):
            OperatorWithInnerProduct(a, InnerProduct.standard(2))

    def test_constructed_b_restores_normality(self):
        # Appendix-style construction: B from the eigenvector matrix.
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        gamma = np.array([[1.0, 1.0], [0.0, 1.0]])  # eigenvectors of a
        inner = InnerProduct.from_eigenvector_matrix(gamma)
        op = OperatorWithInnerProduct(a, inner)
        assert normality_defect(op) < 1e-12
        # Oracle: A commutes with B^{-1} A^H B.
        b = inner.b_matrix
        a_star = np.linalg.solve(b, a.T @ b)
        np.testing.assert_allclose(a @ a_star, a_star @ a, atol=1e-12)


def _commutator_accepts(a, inner):
    """The commutator test every operator took before the symmetric shortcut."""
    a_star = adjoint_wrt(a, inner)
    defect = np.linalg.norm(a @ a_star - a_star @ a, "fro")
    scale = (1.0 + np.linalg.norm(a, "fro")) ** 2
    return defect <= OperatorWithInnerProduct._NORMALITY_RTOL * scale


def _accepts(a, inner):
    try:
        OperatorWithInnerProduct(a, inner)
    except NormalityError:
        return False
    return True


class TestNormalityCheck:
    def test_symmetric_laplacian_skips_the_commutator(self, monkeypatch):
        a = build_laplacian(grid_graph(4, 5), "normalized").matrix
        assert _commutator_accepts(a, InnerProduct.standard(20))

        def commutator(op):
            raise AssertionError("commutator computed for a symmetric matrix")

        monkeypatch.setattr(graphs, "normality_defect", commutator)
        assert _accepts(a, InnerProduct.standard(20))

    @pytest.mark.parametrize("name", [
        "symmetric-laplacian", "normal-circulant", "non-normal", "directed-laplacian",
    ])
    def test_same_verdict_as_the_commutator(self, name):
        if name == "symmetric-laplacian":
            a = build_laplacian(random_geometric_graph(30, 0.4, seed=3), "unnormalized").matrix
            inner = InnerProduct.standard(30)
        elif name == "normal-circulant":
            a = np.roll(np.eye(6), 1, axis=1) + 2.0 * np.eye(6)  # I-shift circulant
            assert not np.array_equal(a, a.T)
            inner = InnerProduct.standard(6)
        elif name == "non-normal":
            a = np.array([[1.0, 1.0], [0.0, 2.0]])
            inner = InnerProduct.standard(2)
        else:
            graph = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 0.5)),
                                  directed=True)
            op = build_laplacian(graph, "unnormalized")
            a, inner = op.matrix, op.inner
        expected = name != "non-normal"
        assert _commutator_accepts(a, inner) == expected
        assert _accepts(a, inner) == expected


def _group_eigenvalues_reference(values, tol):
    """The grouping as first written: ``np.mean`` of the group each step."""
    order = np.lexsort((values.imag, values.real, np.abs(values)))
    groups = []
    for idx in order:
        if groups:
            current = groups[-1]
            if abs(values[idx] - np.mean(values[current])) <= tol:
                current.append(idx)
                continue
        groups.append([idx])
    return groups


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=12),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_grouping_matches_reference_on_clustered_spectra(cluster_sizes, complex_, seed):
    rng = np.random.default_rng(seed)
    tol = 1e-8
    values = []
    for size in cluster_sizes:
        centre = rng.uniform(-3.0, 3.0) + (1j * rng.uniform(-3.0, 3.0) if complex_ else 0)
        # members lie within half the tolerance of the centre; some repeat it
        spread = rng.choice([0.0, 0.1, 0.5]) * tol
        values.extend(centre + spread * rng.uniform(-1.0, 1.0, size=size))
    values = np.asarray(values, dtype=complex)
    got = graphs._group_eigenvalues(values, tol)
    expected = _group_eigenvalues_reference(values, tol)
    assert [list(map(int, g)) for g in got] == [list(map(int, g)) for g in expected]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.4, max_value=0.9), min_size=0, max_size=8),
        min_size=1, max_size=6,
    ),
    st.integers(min_value=0, max_value=10**6),
)
# a running mean one ulp off np.mean puts this gap on the other side of tol
@example(chains=[[], [0.546875, 0.4375, 0.5625, 0.5, 0.5, 0.5]], seed=0)
def test_grouping_matches_reference_on_chained_spectra(chains, seed):
    # Successive gaps of 0.4-0.9 tol put members within tol of the last
    # member but not always of the first or of the group mean, so only the
    # running mean reproduces the reference's groups.
    rng = np.random.default_rng(seed)
    tol = 1e-8
    values = []
    for gaps in chains:
        start = rng.uniform(0.5, 3.0)
        values.extend(start + tol * np.concatenate([[0.0], np.cumsum(gaps)]))
    values = np.asarray(values, dtype=complex)
    got = graphs._group_eigenvalues(values, tol)
    expected = _group_eigenvalues_reference(values, tol)
    assert [list(map(int, g)) for g in got] == [list(map(int, g)) for g in expected]


@pytest.mark.parametrize(
    "offsets, expected",
    [
        # beyond tol of the first member, just inside tol of the mean
        ([0.0, 0.8, 1.39], [[0, 1, 2]]),
        # just outside tol of the mean
        ([0.0, 0.8, 1.41], [[0, 1], [2]]),
        # within tol of the last member, not of the mean
        ([0.0, 0.9, 1.8], [[0, 1], [2]]),
        ([0.0, 0.6, 1.2, 1.8, 2.4], [[0, 1, 2], [3, 4]]),
    ],
)
def test_grouping_compares_with_the_running_mean(offsets, expected):
    tol = 1e-8
    values = 1.0 + tol * np.asarray(offsets, dtype=complex)
    got = graphs._group_eigenvalues(values, tol)
    assert [list(map(int, g)) for g in got] == expected
    assert [list(map(int, g)) for g in _group_eigenvalues_reference(values, tol)] == expected


class TestEigendecompose:
    def test_k2_laplacian_projections(self):
        # Oracle: characteristic polynomial of [[1,-1],[-1,1]] gives 0 and 2
        # with eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2.
        op = OperatorWithInnerProduct.symmetric(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        eig = eigendecompose(op)
        np.testing.assert_allclose(eig.values, [0.0, 2.0], atol=1e-12)
        p0 = 0.5 * np.ones((2, 2))
        p1 = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(eig.groups[0].projection, p0, atol=1e-12)
        np.testing.assert_allclose(eig.groups[1].projection, p1, atol=1e-12)

    def test_zero_matrix_single_group(self):
        op = OperatorWithInnerProduct.symmetric(np.zeros((4, 4)))
        eig = eigendecompose(op)
        assert len(eig.groups) == 1
        assert eig.groups[0].columns.shape[1] == 4
        np.testing.assert_allclose(eig.groups[0].projection, np.eye(4), atol=1e-12)

    def test_directed_with_constructed_inner(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        gamma = np.array([[1.0, 1.0], [0.0, 1.0]])
        inner = InnerProduct.from_eigenvector_matrix(gamma)
        eig = eigendecompose(OperatorWithInnerProduct(a, inner))
        np.testing.assert_allclose(sorted(eig.values.real), [1.0, 2.0], atol=1e-9)
        recon = eig.apply_function(eig.values)
        np.testing.assert_allclose(recon, a, atol=1e-9)

    def test_defective_rejected(self):
        gamma = np.array([[1.0, 1.0], [0.0, 1e-12]])
        with pytest.raises(DecompositionError):
            InnerProduct.from_eigenvector_matrix(gamma)

    def test_grouping_merges_near_degenerate(self):
        op = OperatorWithInnerProduct.symmetric(np.diag([1.0, 1.0 + 1e-12, 5.0]))
        eig = eigendecompose(op)
        assert [g.columns.shape[1] for g in eig.groups] == [2, 1]
        assert eig.grouped

    def test_reconstruction_and_partition_of_identity(self):
        rng = np.random.default_rng(0)
        for n in (3, 8, 17):
            op = random_symmetric_op(n, rng)
            eig = eigendecompose(op)
            a = op.matrix
            assert np.linalg.norm(eig.apply_function(eig.values) - a, "fro") <= 1e-9 * np.linalg.norm(a, "fro")
            total = sum(g.projection for g in eig.groups)
            assert np.linalg.norm(total - np.eye(n), "fro") <= 1e-9

    def test_projections_b_orthogonal_on_random_probes(self):
        g = np.random.default_rng(5).normal(size=(4, 4)) + 0.3 * np.eye(4)
        inner = InnerProduct.from_eigenvector_matrix(g.astype(complex))
        a = g @ np.diag([1.0, 2.0, 3.0, 4.0]) @ np.linalg.inv(g)
        eig = eigendecompose(OperatorWithInnerProduct(a, inner))
        rng = np.random.default_rng(6)
        b = inner.b_matrix
        for _ in range(100):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            for j, gj in enumerate(eig.groups):
                for k, gk in enumerate(eig.groups):
                    if j != k:
                        val = (gk.projection @ v).conj() @ (b @ (gj.projection @ u))
                        assert abs(val) <= 1e-9

    def test_unnormalized_laplacian_kernel_is_constants(self):
        op = build_laplacian(random_geometric_graph(25, 0.5, seed=2), "unnormalized")
        eig = eigendecompose(op)
        assert abs(eig.values[0]) < 1e-10
        ones = np.ones(op.dim) / np.sqrt(op.dim)
        np.testing.assert_allclose(eig.groups[0].projection @ ones, ones, atol=1e-9)

    def test_spectral_projector_band(self):
        op = OperatorWithInnerProduct.symmetric(np.diag([0.0, 1.0, 4.0]))
        eig = eigendecompose(op)
        p = eig.apply_function((np.abs(eig.values) <= 2.0).astype(float))
        np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
def test_adjoint_involution_property(n, seed):
    rng = np.random.default_rng(seed)
    b_root = rng.normal(size=(n, n))
    inner = InnerProduct(b_root @ b_root.T + n * np.eye(n))
    a = rng.normal(size=(n, n))
    np.testing.assert_allclose(adjoint_wrt(adjoint_wrt(a, inner), inner), a, atol=1e-12)
