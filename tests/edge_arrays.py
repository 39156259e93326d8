"""A graph's edge arrays in a form that compares with ``==``, graphs built
from ``(u, v, w)`` triples, and the dense adjacency matrix filled one edge
at a time."""

import numpy as np

from spectral_transfer.graphs import WeightedGraph


def edge_arrays(graph) -> tuple:
    """The graph's ``u``, ``v`` and ``w`` arrays as lists."""
    return graph.u.tolist(), graph.v.tolist(), graph.w.tolist()


def triple_arrays(triples) -> tuple:
    """The ``u``, ``v`` and ``w`` lists of ``(u, v, w)`` triples, in order."""
    return tuple(map(list, zip(*triples))) if triples else ([], [], [])


def graph_of(n_vertices, triples) -> WeightedGraph:
    """The graph of ``(u, v, w)`` triples, edges in the triples' order."""
    return WeightedGraph(n_vertices, *triple_arrays(triples))


def reference_adjacency(graph) -> np.ndarray:
    """The graph's symmetric adjacency matrix W, filled one edge at a time."""
    w_mat = np.zeros((graph.n_vertices, graph.n_vertices))
    for u, v, w in zip(*edge_arrays(graph)):
        w_mat[u, v] = w
        w_mat[v, u] = w
    return w_mat
