"""The inner product held in its stored form: weights for a diagonal B, a
matrix for a full one, checked against dense formulas built here."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer.graphs import (
    InnerProduct,
    OperatorWithInnerProduct,
    adjoint_wrt,
    build_laplacian,
    eigendecompose,
    random_geometric_graph,
)
from spectral_transfer.montecarlo import cosine_weight
from spectral_transfer.sampling import SampleSet, SamplingPair, gram
from spectral_transfer.spaces import CircleSpace


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref).max()))


def dense_b(form, n, rng):
    """(argument for InnerProduct, the dense B it stands for)."""
    if form == "full":
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = m @ m.conj().T / n + 0.5 * np.eye(n)
        b = 0.5 * (b + b.conj().T)
        return b, b
    weights = rng.uniform(0.1, 10.0, size=n)
    return (weights if form == "weights" else np.diag(weights)), np.diag(weights)


def dense_sqrt(b):
    vals, vecs = np.linalg.eigh(b)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@settings(max_examples=60, deadline=None)
@given(
    form=st.sampled_from(["weights", "diagonal-matrix", "full"]),
    n=st.integers(min_value=1, max_value=7),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stored_form_matches_dense_formulas(form, n, cols, seed):
    rng = np.random.default_rng(seed)
    arg, b = dense_b(form, n, rng)
    inner = InnerProduct(arg)
    assert inner.b.ndim == (2 if form == "full" and n > 1 else 1)
    np.testing.assert_array_equal(inner.b_matrix, b)
    root = dense_sqrt(b)
    x = rng.normal(size=(n, cols))
    u = rng.normal(size=n) + 1j * rng.normal(size=n)

    assert_close(inner.apply(x), b @ x)
    assert_close(inner.apply(u), b @ u)
    assert_close(inner.norm(u), np.sqrt((u.conj() @ b @ u).real))
    assert_close(inner.column_norms(x), np.linalg.norm(root @ x, axis=0))
    assert_close(inner.weighted_operator_norm(x), np.linalg.norm(root @ x, 2))

    a = rng.normal(size=(n, n))
    assert_close(adjoint_wrt(a, inner), np.linalg.solve(b, a.conj().T @ b))

    pair = SamplingPair(CircleSpace(), SampleSet.equispaced(n), 1.0, x, inner)
    assert_close(pair.r_matrix, x.conj().T @ b)
    assert_close(gram(pair), x.conj().T @ b @ x)

    # an operator normal under B: B^{-1/2} U D U^H B^{1/2} with U unitary
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = rng.uniform(-3, 3, size=n) + 1j * rng.uniform(-3, 3, size=n)
    op_mat = np.linalg.solve(root, (q * d) @ q.conj().T @ root)
    op = OperatorWithInnerProduct(op_mat, inner)
    eig = eigendecompose(op)
    assert_close(eig.apply_function(eig.group_values), op_mat)


def test_dot_product_operator_holds_its_matrix_and_o_n_bytes():
    build_laplacian(random_geometric_graph(50, 0.3, 1), "unnormalized")  # warm-up
    graph = random_geometric_graph(1000, 0.06, 0)
    tracemalloc.start()
    try:
        op = build_laplacian(graph, "unnormalized")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.inner.is_standard
    assert held <= op.matrix.nbytes + 64 * graph.n_vertices


def test_weighted_inner_product_of_2048_samples_holds_under_1_mb():
    sample = SampleSet(np.arange(2048) / 2048, cosine_weight(np.arange(2048) / 2048))
    tracemalloc.start()
    try:
        inner = sample.inner_product()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1e6
    assert_close(inner.apply(np.ones(2048)), 1.0 / sample.w_values)
