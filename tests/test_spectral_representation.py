"""The eigenbasis representation against explicit group projectors.

A decomposition stores the B-orthonormal basis, one eigenvalue per basis
column and the size of each cluster of near-equal eigenvalues; spectral
functions act as ``V g V^H B``.  These tests compare every spectral route
with the definition it replaced: a sum over the eigenvalue clusters of
``g(lambda_j) C_j C_j^H B``, where ``C_j`` are the cluster's basis columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer.filters import (
    DEFAULT_EXCLUSION_TOL,
    Filter,
    apply_exact,
    filter_matrix,
    max_difference_quotient,
)
from spectral_transfer.graphs import (
    InnerProduct,
    OperatorWithInnerProduct,
    build_laplacian,
    eigendecompose,
    grid_graph,
    path_graph,
    random_geometric_graph,
)

from edge_arrays import graph_of

TOL = 1e-12


def group_projector_sum(eig, values):
    """``sum_j values[j] C_j C_j^H B`` over the eigenvalue groups."""
    b = eig.inner.b_matrix
    out = np.zeros((eig.dim, eig.dim), dtype=complex)
    start = 0
    for value, count in zip(values, eig.multiplicities):
        cols = eig.basis[:, start:start + count]
        out += value * (cols @ (cols.conj().T @ b))
        start += count
    return out


def group_values(eig):
    """One eigenvalue per group, as the groups report it."""
    return np.array([group.eigenvalue for group in eig.groups])


def random_walk_laplacian():
    """``D^{-1} L`` of a weighted graph, self-adjoint under ``B = D``."""
    graph = graph_of(
        4, ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0), (2, 3, 1.0), (3, 1, 0.5))
    )
    lap = build_laplacian(graph, "unnormalized").matrix
    deg = np.diag(lap).copy()
    return OperatorWithInnerProduct(lap / deg[:, None], InnerProduct(deg))


OPERATORS = {
    "distinct": lambda: build_laplacian(path_graph(7), "unnormalized"),
    "repeated": lambda: build_laplacian(grid_graph(4, 4), "unnormalized"),
    "weighted": random_walk_laplacian,
}

FILTERS = (Filter.heat(0.7), Filter.polynomial((0.5, -0.3, 0.1)))


def assert_matches(actual, expected):
    scale = 1.0 + np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=0, atol=TOL * scale)


@pytest.fixture(params=sorted(OPERATORS))
def decomposed(request):
    op = OPERATORS[request.param]()
    return request.param, op, eigendecompose(op)


def test_operators_cover_the_three_cases(decomposed):
    name, op, eig = decomposed
    assert eig.grouped == (name == "repeated")
    assert op.inner.is_standard == (name != "weighted")
    assert eig.basis.shape == (op.dim, op.dim)
    assert int(eig.multiplicities.sum()) == op.dim


def test_values_hold_each_group_eigenvalue_once_per_column(decomposed):
    # values is nondecreasing in |lambda|, and each column is an
    # eigenvector for its own value, not for a value shared by its cluster
    _, op, eig = decomposed
    assert eig.values.shape == (op.dim,)
    assert np.all(np.diff(np.abs(eig.values)) >= 0)
    assert_matches(op.matrix @ eig.basis, eig.basis * eig.values)


def test_filter_matrix_and_apply_exact_match_group_projectors(decomposed):
    _, op, eig = decomposed
    rng = np.random.default_rng(3)
    vector = rng.normal(size=op.dim)
    matrix = rng.normal(size=(op.dim, 3))
    for filt in FILTERS:
        reference = group_projector_sum(eig, filt.evaluate(group_values(eig)))
        assert_matches(filter_matrix(filt, eig), reference)
        assert_matches(apply_exact(filt, eig, vector), reference @ vector)
        assert_matches(apply_exact(filt, eig, matrix), reference @ matrix)


def test_projector_reconstruction_and_groups_match(decomposed):
    _, op, eig = decomposed
    values, groups = eig.values, group_values(eig)
    assert_matches(eig.apply_function(values), group_projector_sum(eig, groups))
    assert_matches(eig.apply_function(values), op.matrix)
    for band in (0.5, float(np.abs(values).max())):
        assert_matches(
            eig.apply_function((np.abs(values) <= band).astype(float)),
            group_projector_sum(eig, (np.abs(groups) <= band).astype(float)),
        )
    for j, group in enumerate(eig.groups):
        unit = np.zeros(len(groups))
        unit[j] = 1.0
        assert group.columns.shape[1] == eig.multiplicities[j]
        assert_matches(group.projection, group_projector_sum(eig, unit))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.floats(min_value=0.2, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["unnormalized", "adjacency"]),
)
def test_random_graphs_match_group_projectors(n, radius, seed, kind):
    op = build_laplacian(random_geometric_graph(n, radius, seed=seed), kind)
    eig = eigendecompose(op)
    signal = np.random.default_rng(seed).normal(size=(n, 2))
    for filt in FILTERS:
        reference = group_projector_sum(eig, filt.evaluate(group_values(eig)))
        assert_matches(filter_matrix(filt, eig), reference)
        assert_matches(apply_exact(filt, eig, signal), reference @ signal)
        assert_matches(apply_exact(filt, eig, signal[:, 0]), reference @ signal[:, 0])


def loop_quotient(filt, lam, target, tol=DEFAULT_EXCLUSION_TOL):
    """The per-eigenvalue loop form of the maximal difference quotient."""
    target = np.asarray(target)
    dist = np.abs(target - lam)
    keep = dist > tol
    if not keep.any():
        return 0.0
    return float((np.abs(filt.evaluate(target[keep]) - filt.evaluate(lam)) / dist[keep]).max())


@pytest.mark.parametrize("filt", [
    Filter.lowpass(1.0), Filter.highpass(2.0), Filter.heat(0.5),
    Filter.midpass(1.0, 0.4), Filter.polynomial((0.0, 0.0, 1.0)),
])
def test_array_quotient_matches_scalar_form(filt):
    rng = np.random.default_rng(8)
    target = np.concatenate([rng.uniform(0.0, 5.0, size=9), [1.0, 1.0 + 1e-14]])
    # 1.0 sits within the exclusion tolerance of two target points; 7.0
    # is far from all of them.
    source = np.concatenate([rng.uniform(0.0, 5.0, size=6), [1.0, 7.0], target[:3]])
    expected = np.array([loop_quotient(filt, lam, target) for lam in source])
    array_form = max_difference_quotient(filt, source, target)
    assert array_form.shape == source.shape
    np.testing.assert_allclose(array_form, expected, rtol=1e-13, atol=0)
    for lam, want in zip(source, expected):
        got = max_difference_quotient(filt, float(lam), target)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_array_quotient_all_excluded_is_zero():
    target = [1.0, 1.0 + 1e-14]
    out = max_difference_quotient(Filter.heat(1.0), np.array([1.0, 1.0 - 1e-14]), target)
    np.testing.assert_array_equal(out, [0.0, 0.0])
