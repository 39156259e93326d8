"""Graph construction, Laplacians, inner products, eigendecomposition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.filters import Filter, apply_exact, apply_rational
from spectral_transfer.graphs import (
    InnerProduct,
    OperatorWithInnerProduct,
    build_laplacian,
    eigendecompose,
    grid_graph,
    path_graph,
    random_geometric_graph,
)

from edge_arrays import edge_arrays, graph_of, reference_adjacency


def random_symmetric_op(n, rng):
    a = rng.normal(size=(n, n))
    return OperatorWithInnerProduct.symmetric(0.5 * (a + a.T))


class TestWeightedGraph:
    def test_path3(self):
        g = path_graph(3)
        assert g.n_vertices == 3
        np.testing.assert_array_equal(
            reference_adjacency(g), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_rejects_self_loop(self):
        with pytest.raises(SpectralTransferError, match="self loop"):
            graph_of(2, ((0, 0, 1.0),))

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(SpectralTransferError, match="duplicate"):
            graph_of(2, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(SpectralTransferError, match="non-finite"):
            graph_of(2, ((0, 1, np.inf),))

    def test_grid_edge_count(self):
        g = grid_graph(3, 4)
        # 3 rows of 3 horizontal edges + 2 rows of 4 vertical edges
        assert g.n_edges == 3 * 3 + 2 * 4

    def test_random_geometric_deterministic(self):
        g1 = random_geometric_graph(30, 0.3, seed=7)
        g2 = random_geometric_graph(30, 0.3, seed=7)
        assert edge_arrays(g1) == edge_arrays(g2)
        g3 = random_geometric_graph(30, 0.3, seed=8)
        assert edge_arrays(g1) != edge_arrays(g3)


class TestBuildLaplacian:
    def test_path3_unnormalized(self):
        op = build_laplacian(path_graph(3), "unnormalized")
        np.testing.assert_array_equal(
            op.matrix, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )
        assert op.inner.is_standard

    def test_isolated_vertex(self):
        op = build_laplacian(graph_of(1, ()), "unnormalized")
        np.testing.assert_array_equal(op.matrix, [[0.0]])

    def test_k2_normalized(self):
        # Oracle: I - D^{-1/2} W D^{-1/2} computed with raw numpy arithmetic.
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        d_is = np.diag(1.0 / np.sqrt(w.sum(axis=1)))
        expected = np.eye(2) - d_is @ w @ d_is
        np.testing.assert_allclose(expected, [[1, -1], [-1, 1]], atol=1e-15)
        op = build_laplacian(graph_of(2, ((0, 1, 1.0),)), "normalized")
        np.testing.assert_allclose(op.matrix, expected, atol=1e-15)

    def test_normalized_rejects_zero_degree(self):
        g = graph_of(3, ((0, 1, 1.0),))  # vertex 2 isolated
        with pytest.raises(SpectralTransferError, match="vertex 2"):
            build_laplacian(g, "normalized")

    def test_adjacency_kind(self):
        op = build_laplacian(path_graph(2), "adjacency")
        np.testing.assert_array_equal(op.matrix, [[0, 1], [1, 0]])

    def test_row_sums_exactly_zero(self):
        op = build_laplacian(random_geometric_graph(40, 0.35, seed=1), "unnormalized")
        np.testing.assert_array_equal(op.matrix.sum(axis=1), np.zeros(40))


def adjoint(a, inner):
    """Matrix of the adjoint under a diagonal B: ``B^{-1} A^H B``."""
    return (a.conj().T * inner.b) / inner.b[:, None]


class TestAdjoint:
    def test_symmetric_self_adjoint(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        op = OperatorWithInnerProduct(a, InnerProduct.standard(2))
        np.testing.assert_array_equal(adjoint(op.matrix, op.inner), a)

    def test_diagonal_b_2x2(self):
        # Oracle: A = B^{-1} H with H symmetric is self-adjoint under B,
        # since B A = H; the identity <Au, v> = <u, Av> is re-checked below.
        b = np.array([1.0, 2.0])
        a = np.linalg.inv(np.diag(b)) @ np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(a, [[0, 1], [0.5, 0]], atol=1e-15)
        inner = InnerProduct(b)
        OperatorWithInnerProduct(a, inner)
        np.testing.assert_allclose(adjoint(a, inner), a, atol=1e-15)
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, v = rng.normal(size=2), rng.normal(size=2)
            assert v @ inner.apply(a @ u) == pytest.approx((a @ v) @ inner.apply(u))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(SpectralTransferError, match="dimensions differ"):
            OperatorWithInnerProduct(np.eye(3), InnerProduct.standard(2))


class TestInnerProduct:
    def test_rejects_non_hermitian(self):
        with pytest.raises(SpectralTransferError, match="1-D array of weights"):
            InnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_hermitian_full_matrix(self):
        b = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 0.0], [0.0, 1.0, 2.0]])
        with pytest.raises(SpectralTransferError, match="1-D array of weights"):
            InnerProduct(b)

    def test_rejects_a_matrix(self):
        # Even a Hermitian positive definite B is refused: only diagonal weights.
        with pytest.raises(SpectralTransferError, match="1-D array of weights"):
            InnerProduct(np.eye(3))

    def test_rejects_complex_diagonal(self):
        for b in ([1.0 + 0.5j, 2.0], [1.0 + 1e-12j, 2.0], [1.0 + 0j, 2.0]):
            with pytest.raises(SpectralTransferError, match="positive real"):
                InnerProduct(np.array(b))

    def test_rejects_indefinite(self):
        for b in ([1.0, -1.0], [1.0, 0.0], [1.0, np.nan]):
            with pytest.raises(SpectralTransferError, match="positive real"):
                InnerProduct(np.array(b))

    def test_pair_matches_formula(self):
        inner = InnerProduct(np.array([2.0, 3.0]))
        u, v = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        assert v.conj() @ inner.apply(u) == pytest.approx(2.0 - 3.0)
        np.testing.assert_array_equal(inner.b_matrix, np.diag([2.0, 3.0]))


class TestNormalityDefect:
    def test_upper_triangular_positive_under_dot(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        a_star = a.T
        expected = np.linalg.norm(a @ a_star - a_star @ a, "fro")
        assert expected > 0.5  # direct computation oracle: defect = sqrt(2+2) - ish
        with pytest.raises(SpectralTransferError, match="not self-adjoint"):
            OperatorWithInnerProduct(a, InnerProduct.standard(2))


def _commutator_accepts(a, inner):
    """The normality test by commutator, which admits every normal operator."""
    a_star = adjoint(a, inner)
    defect = np.linalg.norm(a @ a_star - a_star @ a, "fro")
    scale = (1.0 + np.linalg.norm(a, "fro")) ** 2
    return defect <= 1e-8 * scale


def _accepts(a, inner):
    try:
        OperatorWithInnerProduct(a, inner)
    except SpectralTransferError as exc:
        assert "not self-adjoint" in str(exc)
        return False
    return True


def _weighted_self_adjoint(n, seed):
    """``(A, inner)`` with ``A = B^{-1} H``, H symmetric and B = diag(b)."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n))
    b = rng.uniform(0.1, 10.0, size=n)
    return (h + h.T) / b[:, None], InnerProduct(b)


class TestNormalityCheck:
    @pytest.mark.parametrize("name", ["symmetric-laplacian", "non-normal", "weighted"])
    def test_same_verdict_as_the_commutator(self, name):
        # on self-adjoint and on non-normal operators the self-adjointness
        # check and the commutator agree
        if name == "symmetric-laplacian":
            a = build_laplacian(random_geometric_graph(30, 0.4, seed=3), "unnormalized").matrix
            inner = InnerProduct.standard(30)
        elif name == "non-normal":
            a = np.array([[1.0, 1.0], [0.0, 2.0]])
            inner = InnerProduct.standard(2)
        else:
            a, inner = _weighted_self_adjoint(6, 4)
        expected = name != "non-normal"
        assert _commutator_accepts(a, inner) == expected
        assert _accepts(a, inner) == expected

    def test_a_normal_operator_that_is_not_self_adjoint_is_rejected(self):
        a = np.roll(np.eye(6), 1, axis=1) + 2.0 * np.eye(6)  # I-shift circulant
        assert _commutator_accepts(a, InnerProduct.standard(6))
        with pytest.raises(SpectralTransferError, match="not self-adjoint"):
            OperatorWithInnerProduct(a, InnerProduct.standard(6))

    def test_roundoff_asymmetry_is_accepted(self):
        # an asymmetry at roundoff passes the relative tolerance; one at 1e-6 fails
        a = build_laplacian(grid_graph(4, 5), "normalized").matrix
        perturbed = a + 1e-14 * np.triu(np.ones_like(a), 1)
        assert not np.array_equal(perturbed, perturbed.T)
        assert _accepts(perturbed, InnerProduct.standard(20))
        assert not _accepts(a + 1e-6 * np.triu(np.ones_like(a), 1), InnerProduct.standard(20))


@settings(max_examples=100, deadline=None)
@given(
    clusters=st.lists(
        st.tuples(
            st.floats(-3.0, 3.0),
            # the spread, relative to the radius, is inside DEFAULT_GROUP_TOL
            st.one_of(st.just(0.0), st.floats(1e-14, 1e-9)),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        ),
        min_size=1, max_size=4,
    ),
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
# a cluster 1, 1 + 1e-10, 1 + 3e-10 whose mean would be off by 1e-10
@example(clusters=[(0.0, 0.0, [0.0]), (1.0, 1.5e-10, [0.0, 1 / 3, 1.0]), (2.0, 0.0, [0.0])],
         coeffs=[0.5, -1.0, 1.0], seed=0)
def test_clustered_spectra_keep_each_eigenvalue(clusters, coeffs, seed):
    radius = max(max(abs(centre) for centre, _, _ in clusters), 1.0)
    lams = np.array([centre + spread * radius * offset
                     for centre, spread, offsets in clusters for offset in offsets])
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(lams.size, lams.size)))
    a = (q * lams) @ q.T
    op = OperatorWithInnerProduct.symmetric(0.5 * (a + a.T))
    eig = eigendecompose(op)
    v = eig.basis
    scale = max(np.linalg.norm(op.matrix, 2), 1.0)
    assert np.linalg.norm(op.matrix @ v - v * eig.values, 2) <= 1e-12 * scale
    assert np.all(np.diff(np.abs(eig.values)) >= 0)
    # a polynomial through the eigenbasis against Horner on the matrix
    filt = Filter.polynomial(tuple(coeffs))
    signal = np.random.default_rng(seed + 1).normal(size=lams.size)
    exact = apply_exact(filt, eig, signal)
    size = sum(abs(c) * scale**k for k, c in enumerate(coeffs)) * np.linalg.norm(signal)
    assert np.linalg.norm(exact - apply_rational(filt, op, signal)) <= 1e-12 * size


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

    def test_weighted_operator(self):
        a, inner = _weighted_self_adjoint(7, 8)
        eig = eigendecompose(OperatorWithInnerProduct(a, inner))
        v = eig.basis
        np.testing.assert_allclose(a @ v, v * eig.values, atol=1e-10)
        np.testing.assert_allclose(v.T @ inner.apply(v), np.eye(7), atol=1e-10)
        np.testing.assert_allclose(eig.apply_function(eig.values), a, atol=1e-10)

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
        a, inner = _weighted_self_adjoint(4, 5)
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
