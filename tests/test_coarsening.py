"""Heavy-edge coarsening from edge arrays against the dense and per-group
loops it replaced (tests/coarsening_references.py)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer.convnet import _collapse_graph, pool
from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.graphs import grid_graph
from spectral_transfer.sampling import (
    CoarseningMap,
    PerturbationSpec,
    coarsen_matching,
    perturb_graph_detailed,
)

from coarsening_references import (
    coarsen_matching_dense,
    collapse_per_edge,
    partition_per_group,
    pool_per_row,
)
from edge_arrays import graph_of, reference_adjacency


@st.composite
def random_graphs(draw):
    """Sparse graphs with isolated vertices and signed integer weights, zero
    included."""
    n = draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    weights = draw(st.lists(st.integers(-2, 4), min_size=len(chosen), max_size=len(chosen)))
    return graph_of(n, [(u, v, float(w)) for (u, v), w in zip(chosen, weights)])


grids = st.builds(grid_graph, st.integers(1, 7), st.integers(1, 7))
perturbed_grids = st.builds(
    lambda graph, spec: perturb_graph_detailed(graph, spec).graph,
    grids,
    st.builds(PerturbationSpec, st.sampled_from(("add_edges", "remove_edges", "remove_vertices")),
              st.sampled_from((0.05, 0.1, 0.3)), st.integers(0, 2**31)),
)
integer_weight_graphs = st.one_of(random_graphs(), grids, perturbed_grids)


def stuck_vertex(graph):
    """A vertex with nonzero-weight edges whose degree is 0, or None."""
    adjacency = reference_adjacency(graph)
    stuck = (adjacency.sum(axis=1) == 0) & (adjacency != 0).any(axis=1)
    return int(np.argmax(stuck)) if stuck.any() else None


def assert_collapse_and_pool_match_loops(graph, cmap, seed):
    got, want = _collapse_graph(graph, cmap), collapse_per_edge(graph, cmap)
    assert got.n_vertices == want.n_vertices
    for name in ("u", "v", "w"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), strict=True)
    signal = np.random.default_rng(seed).normal(size=(graph.n_vertices, 2))
    for kind in ("max", "l2avg"):
        pooled = pool(signal, cmap, kind)
        for j in range(2):
            np.testing.assert_allclose(pooled[:, j], pool_per_row(signal[:, j], cmap, kind),
                                       rtol=1e-12, atol=0)


@settings(deadline=None)
@given(integer_weight_graphs, st.integers(0, 2**31))
def test_matching_equals_the_dense_reference(graph, seed):
    bad = stuck_vertex(graph)
    if bad is not None:
        with pytest.raises(SpectralTransferError, match=f"vertex {bad} has edges but degree 0"):
            coarsen_matching(graph)
        return
    cmap = coarsen_matching(graph)
    groups, s_matrix = coarsen_matching_dense(graph)
    assert cmap.groups == groups
    np.testing.assert_array_equal(cmap.s_matrix, s_matrix, strict=True)
    assert_collapse_and_pool_match_loops(graph, cmap, seed)


@st.composite
def partitions(draw):
    """A graph and a partition of its vertices into shuffled groups of 1 to
    4, listed in shuffled order."""
    graph = draw(integer_weight_graphs)
    order = draw(st.permutations(range(graph.n_vertices)))
    groups = []
    while order:
        size = draw(st.integers(1, 4))
        groups.append(tuple(order[:size]))
        order = order[size:]
    return graph, tuple(draw(st.permutations(groups)))


@settings(deadline=None)
@given(partitions(), st.integers(0, 2**31))
def test_any_partition_equals_the_per_group_loops(graph_and_groups, seed):
    graph, groups = graph_and_groups
    cmap = CoarseningMap(graph.n_vertices, groups)
    want_groups, s_matrix = partition_per_group(graph.n_vertices, groups)
    assert cmap.groups == want_groups
    np.testing.assert_array_equal(cmap.s_matrix, s_matrix, strict=True)
    np.testing.assert_array_equal(cmap.members, np.concatenate(want_groups))
    np.testing.assert_array_equal(cmap.sizes, [len(grp) for grp in want_groups])
    assert_collapse_and_pool_match_loops(graph, cmap, seed)


def test_matching_and_collapse_never_read_the_dense_adjacency():
    # S takes about half the bytes of the n x n adjacency, and the rest of
    # the work is on edge arrays: a dense adjacency would lift the peak
    # above 8 n^2 bytes
    graph = perturb_graph_detailed(grid_graph(30, 30), PerturbationSpec("add_edges", 0.1, seed=5)).graph
    groups, s_matrix = coarsen_matching_dense(graph)
    tracemalloc.start()
    try:
        cmap = coarsen_matching(graph)
        coarse = _collapse_graph(graph, cmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * graph.n_vertices**2
    assert cmap.groups == groups
    np.testing.assert_array_equal(cmap.s_matrix, s_matrix)
    assert coarse.n_vertices == cmap.n_coarse
