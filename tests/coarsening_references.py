"""Loop references for heavy-edge coarsening, pooling and graph collapse.

The library works from edge arrays and one vertex order; these are the
loops it replaced, kept as oracles.  With integer weights the degrees and
coarse weights are exact sums in both, and the scores are the same
floating-point expressions, so the results must be equal.
"""

import numpy as np

from edge_arrays import graph_of, reference_adjacency


def partition_per_group(n_fine, groups):
    """Groups sorted and ordered by smallest vertex, and S filled one group
    at a time: ``(groups, s_matrix)``."""
    groups = sorted((tuple(sorted(grp)) for grp in groups), key=min)
    s = np.zeros((len(groups), n_fine))
    for row, grp in enumerate(groups):
        s[row, list(grp)] = 1.0 / np.sqrt(len(grp))
    return tuple(groups), s


def coarsen_matching_dense(graph):
    """Heavy-edge matching over rows of the dense adjacency matrix:
    ``(groups, s_matrix)`` as :func:`partition_per_group` gives them."""
    w = reference_adjacency(graph)
    deg = w.sum(axis=1)
    order = sorted(range(graph.n_vertices), key=lambda u: (deg[u], u))
    matched = np.zeros(graph.n_vertices, dtype=bool)
    groups = []
    for u in order:
        if matched[u]:
            continue
        matched[u] = True
        neighbors = [v for v in np.nonzero(w[u])[0] if not matched[v]]
        if not neighbors:
            groups.append((u,))
            continue
        inv_du = 1.0 / deg[u]
        best = max(
            neighbors,
            key=lambda v: (w[u, v] * (inv_du + 1.0 / deg[v]), -v),
        )
        matched[best] = True
        groups.append((u, best))
    return partition_per_group(graph.n_vertices, groups)


def collapse_per_edge(graph, cmap):
    """Coarse graph from a dict of coarse pairs filled one fine edge at a
    time."""
    weights = {}
    group_of = {v: row for row, grp in enumerate(cmap.groups) for v in grp}
    for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
        gu, gv = group_of[u], group_of[v]
        if gu == gv:
            continue
        key = (min(gu, gv), max(gu, gv))
        weights[key] = weights.get(key, 0.0) + w
    edges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return graph_of(cmap.n_coarse, edges)


def pool_per_row(signal, cmap, kind):
    out = np.empty(cmap.n_coarse, dtype=float)
    for row in range(cmap.n_coarse):
        parents = list(cmap.groups[row])
        vals = signal[parents]
        k = len(parents)
        if kind == "max":
            out[row] = vals.max() / np.sqrt(k)
        else:
            out[row] = np.sqrt(float(vals @ vals) / k)
    return out
