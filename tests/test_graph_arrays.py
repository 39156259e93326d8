"""The edge-array graph layer against a per-edge reference.

The reference below is the loop form of the same rules: one Python tuple
per edge, checked and canonicalised one at a time, generators that append
one edge at a time, and perturbations that walk edge lists and candidate
lists.  Every graph, perturbation and error message of the array code must
match it exactly, and every Laplacian the dense formula on the adjacency
matrix filled one edge at a time.
The tests take their example counts from the hypothesis profile
(``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.graphs import (
    WeightedGraph,
    build_laplacian,
    grid_graph,
    path_graph,
    random_geometric_graph,
)
from spectral_transfer.sampling import PerturbationSpec, perturb_graph_detailed

from edge_arrays import edge_arrays, graph_of, reference_adjacency, triple_arrays


def reference_edges(n_vertices, edges):
    """Canonical edge tuple, or the error message of the first bad edge."""
    if n_vertices < 1:
        raise SpectralTransferError("graph must have at least one vertex")
    seen, canonical = set(), []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise SpectralTransferError(f"edge ({u}, {v}) outside vertex range")
        if u == v:
            raise SpectralTransferError(f"self loop at vertex {u}")
        if not np.isfinite(w):
            raise SpectralTransferError(f"non-finite weight on edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise SpectralTransferError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        canonical.append((key[0], key[1], w))
    return tuple(canonical)


def reference_geometric_edges(n, radius, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = rng.uniform(size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                 if dist[i, j] <= radius)


def reference_perturb(n, edges, spec):
    """``(n, edges, kept_vertices)`` of the perturbed graph."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    edges = list(edges)
    if spec.mode == "remove_edges":
        k = int(np.floor(spec.fraction * len(edges)))
        drop = set(rng.choice(len(edges), size=k, replace=False)) if k else set()
        return n, tuple(e for i, e in enumerate(edges) if i not in drop), None
    if spec.mode == "add_edges":
        k = int(np.floor(spec.fraction * len(edges)))
        existing = {(u, v) for u, v, _ in edges}
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in existing]
        k = min(k, len(candidates))
        pick = rng.choice(len(candidates), size=k, replace=False) if k else []
        added = [(candidates[i][0], candidates[i][1], 1.0) for i in sorted(pick)]
        return n, tuple(edges + added), None
    k = int(np.floor(spec.fraction * n))
    if k >= n:
        raise SpectralTransferError(f"removing {k} of {n} vertices empties the graph")
    drop = set(rng.choice(n, size=k, replace=False)) if k else set()
    kept = tuple(v for v in range(n) if v not in drop)
    index = {v: i for i, v in enumerate(kept)}
    return len(kept), tuple((index[u], index[v], w) for u, v, w in edges
                            if u in index and v in index), kept


WEIGHTS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, np.inf, -np.inf, np.nan]))


@st.composite
def edge_lists(draw, valid: bool):
    """``(n, edges)``; unless ``valid``, indices run one past each end of
    the vertex range and weights may be non-finite."""
    n = draw(st.integers(1, 7))
    low, high = (0, n - 1) if valid else (-1, n)
    pairs = st.tuples(st.integers(low, high), st.integers(low, high))
    if valid:
        pairs = pairs.filter(lambda p: p[0] != p[1])
    key = (lambda p: (min(p), max(p))) if valid else None
    raw = draw(st.lists(pairs, max_size=12, unique_by=key))
    weight = st.floats(0.1, 3.0) if valid else WEIGHTS
    return n, tuple((u, v, draw(weight)) for u, v in raw)


@settings(deadline=None)
@given(case=edge_lists(valid=False))
@example(case=(3, ((0, 1, 1.0), (1, 0, 2.0))))
@example(case=(3, ((0, 2, 1.0), (1, 1, np.nan), (5, 0, 1.0))))
@example(case=(2, ((0, 1, np.inf), (0, 2, 1.0))))
def test_graph_matches_the_per_edge_reference(case):
    n, edges = case
    try:
        expected = reference_edges(n, edges)
    except SpectralTransferError as exc:
        with pytest.raises(SpectralTransferError) as info:
            graph_of(n, edges)
        assert str(info.value) == str(exc)
        return
    graph = graph_of(n, edges)
    assert edge_arrays(graph) == triple_arrays(expected)
    assert graph.n_edges == len(expected)
    same = WeightedGraph(n, graph.u, graph.v, graph.w)
    assert (same.n_vertices, edge_arrays(same)) == (n, triple_arrays(expected))


@settings(deadline=None)
@given(n=st.integers(1, 40), radius=st.floats(0.0, 1.5), seed=st.integers(0, 2**32))
def test_random_geometric_graph_matches_the_per_pair_reference(n, radius, seed):
    graph = random_geometric_graph(n, radius, seed)
    assert edge_arrays(graph) == triple_arrays(reference_geometric_edges(n, radius, seed))


@settings(deadline=None)
@given(
    case=edge_lists(valid=True),
    mode=st.sampled_from(["remove_edges", "add_edges", "remove_vertices"]),
    fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32),
)
def test_perturbation_matches_the_per_edge_reference(case, mode, fraction, seed):
    n, edges = case
    graph = graph_of(n, edges)
    spec = PerturbationSpec(mode, fraction, seed)
    try:
        n_out, edges_out, kept = reference_perturb(n, reference_edges(n, edges), spec)
    except SpectralTransferError as exc:
        with pytest.raises(SpectralTransferError, match=str(exc)):
            perturb_graph_detailed(graph, spec)
        return
    result = perturb_graph_detailed(graph, spec)
    assert result.graph.n_vertices == n_out
    assert edge_arrays(result.graph) == triple_arrays(edges_out)
    assert result.kept_vertices == kept


def reference_path_edges(n):
    return tuple((i, i + 1, 1.0) for i in range(n - 1))


def reference_grid_edges(rows, cols):
    """Row-major, each vertex's right edge before its down edge."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1, 1.0))
            if r + 1 < rows:
                edges.append((i, i + cols, 1.0))
    return tuple(edges)


@settings(deadline=None)
@given(n=st.integers(1, 30))
@example(n=1)
def test_path_graph_matches_the_per_edge_loop(n):
    graph = path_graph(n)
    assert graph.n_vertices == n
    assert edge_arrays(graph) == triple_arrays(reference_path_edges(n))


@settings(deadline=None)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9))
@example(rows=1, cols=1)
@example(rows=1, cols=5)
@example(rows=5, cols=1)
def test_grid_graph_matches_the_per_edge_loop(rows, cols):
    graph = grid_graph(rows, cols)
    assert graph.n_vertices == rows * cols
    assert edge_arrays(graph) == triple_arrays(reference_grid_edges(rows, cols))


@pytest.mark.parametrize("n", [0, -3])
def test_a_path_without_vertices_is_an_error(n):
    with pytest.raises(SpectralTransferError, match="graph must have at least one vertex"):
        path_graph(n)


def dense_laplacian(w_mat, kind):
    """The shift operator by its dense formula on the adjacency matrix."""
    deg = w_mat.sum(axis=1)
    if kind == "unnormalized":
        return np.diag(deg) - w_mat
    if kind == "normalized":
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        return np.eye(w_mat.shape[0]) - (d_inv_sqrt[:, None] * w_mat) * d_inv_sqrt[None, :]
    return w_mat


#: integer weights, float weights, and zeros of both signs
LAPLACIAN_WEIGHTS = st.one_of(st.integers(-2, 4).map(float), st.floats(-3.0, 3.0),
                              st.sampled_from([0.0, -0.0]))


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_of(n, [(u, v, draw(LAPLACIAN_WEIGHTS)) for u, v in chosen])


@settings(deadline=None)
@given(graph=weighted_graphs(), kind=st.sampled_from(["unnormalized", "normalized", "adjacency"]))
@example(graph=graph_of(3, ((0, 1, 0.0), (1, 2, 2.0))), kind="unnormalized")
@example(graph=graph_of(3, ((0, 1, 1.0), (1, 2, -0.0), (0, 2, 2.0))), kind="normalized")
def test_laplacian_equals_the_dense_formula(graph, kind):
    w_mat = reference_adjacency(graph)
    if kind == "normalized" and np.any(w_mat.sum(axis=1) <= 0):
        bad = int(np.argmin(w_mat.sum(axis=1)))
        with pytest.raises(SpectralTransferError, match=f"vertex {bad} has degree"):
            build_laplacian(graph, kind)
        return
    got, want = build_laplacian(graph, kind).matrix, dense_laplacian(w_mat, kind)
    assert np.array_equal(got, want)
    # array_equal takes -0.0 for 0.0; the signs must match too
    assert np.array_equal(np.signbit(got), np.signbit(want))
