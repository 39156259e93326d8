"""Graph file parsing and synthetic generators.

Three text formats load, each as an undirected graph: whitespace edge
lists ("u v w" with 0-based indices and '#' comments), Matrix Market
coordinate files with a ``symmetric`` header (a ``general`` header, which
declares a directed graph, is an error), and OFF meshes as unit-weight
graphs with one edge per polygon side, deduplicated.  Every reading or
parsing error names the file.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import SpectralTransferError
from .graphs import (
    WeightedGraph,
    grid_graph,
    path_graph,
    random_geometric_graph,
)
from .textio import TextFile, finite_float, parse_descriptor


def parse_graph(path, format: str = "edge_list") -> WeightedGraph:
    """Read a graph file; ``format`` is ``edge_list``, ``matrix_market`` or
    ``off``.

    A file that cannot be read as text, or does not parse, raises an error
    that names ``path``.
    """
    if format not in GRAPH_FORMATS:
        raise SpectralTransferError(f"unknown graph format {format!r}")
    return GRAPH_FORMATS[format](TextFile(path, "graph file"))


def _parse_edge_list(source: TextFile) -> WeightedGraph:
    edges = []
    for lineno, parts in source.records("#"):
        with source.at(lineno):
            if len(parts) != 3:
                raise ValueError(f"expected 'u v w', got {len(parts)} tokens")
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex index ({u}, {v})")
            if not np.isfinite(w):
                raise ValueError(f"non-finite weight {parts[2]}")
        edges.append((u, v, w))
    if not edges:
        raise source.fail(None, "no edges found")
    return WeightedGraph(1 + max(max(u, v) for u, v, _ in edges), *zip(*edges))


_MM_HEADER = re.compile(
    r"%%MatrixMarket\s+matrix\s+coordinate\s+(real|integer)\s+(symmetric|general)",
    re.IGNORECASE,
)


def _parse_matrix_market(source: TextFile) -> WeightedGraph:
    header = _MM_HEADER.match(source.lines[0].strip())
    if header is None:
        raise source.fail(
            1, "expected '%%MatrixMarket matrix coordinate real symmetric' header"
        )
    if header.group(2).lower() == "general":
        raise SpectralTransferError(
            f"{source.path}: line 1: a 'general' Matrix Market header declares a directed "
            "graph, and only undirected graphs are supported; write the file with a "
            "'symmetric' header"
        )
    n, edges = None, []
    for lineno, parts in source.records(None):
        if lineno == 1 or parts[0].startswith("%"):
            continue
        with source.at(lineno):
            if len(parts) != 3:
                raise ValueError("expected " + ("'rows cols nnz'" if n is None else "'i j value'"))
            if n is None:
                n, cols, _ = (int(p) for p in parts)
                if n != cols:
                    raise ValueError(f"adjacency must be square, got {n}x{cols}")
                continue
            i, j, w = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index ({i + 1}, {j + 1}) outside declared range")
            if not np.isfinite(w):
                raise ValueError(f"non-finite value {parts[2]}")
        if i != j:  # diagonal entries carry no edge
            edges.append((i, j, w))
    if n is None:
        raise source.fail(None, "missing size line")
    return WeightedGraph(n, *(zip(*edges) if edges else ((), (), ())))


def _parse_mesh_off(source: TextFile) -> WeightedGraph:
    tokens = list(source.records("#"))
    if not tokens or tokens[0][1] != ["OFF"]:
        raise source.fail(tokens[0][0] if tokens else 1, "missing OFF header")
    if len(tokens) < 2 or len(tokens[1][1]) != 3:
        raise source.fail(None, "expected 'n_vertices n_faces n_edges' after header")
    with source.at(tokens[1][0]):
        n_vertices, n_faces, _ = (int(t) for t in tokens[1][1])
    face_rows = tokens[2 + n_vertices : 2 + n_vertices + n_faces]
    if len(face_rows) < n_faces:
        raise source.fail(None, f"declared {n_faces} faces, found {len(face_rows)}")
    edges = set()
    for lineno, parts in face_rows:
        with source.at(lineno):
            k = int(parts[0])
            idx = [int(p) for p in parts[1 : 1 + k]]
            if len(idx) != k or k < 2:
                raise ValueError(f"face lists {k} vertices but has {len(idx)}")
            if not all(0 <= a < n_vertices for a in idx):
                raise ValueError(f"face index {max(idx)} overflows vertex count")
        edges.update((min(a, b), max(a, b)) for a, b in zip(idx, idx[1:] + idx[:1]) if a != b)
    pairs = np.array(sorted(edges)).reshape(-1, 2)
    return WeightedGraph(n_vertices, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)))


#: The graph file parsers, by ``graph_format`` name.
GRAPH_FORMATS = {"edge_list": _parse_edge_list, "matrix_market": _parse_matrix_market,
                 "off": _parse_mesh_off}


def synthetic_graph(descriptor: str, default_seed: int | None = None) -> WeightedGraph:
    """Build ``path(n)``, ``grid(r,c)``, or ``random-geometric(n,radius[,seed])``.

    The geometric generator falls back to ``default_seed`` when the
    descriptor omits its own.
    """
    name, args = parse_descriptor(descriptor)
    try:
        if name == "path" and len(args) == 1:
            return path_graph(int(args[0]))
        if name == "grid" and len(args) == 2:
            return grid_graph(int(args[0]), int(args[1]))
        if name == "random-geometric" and len(args) in (2, 3):
            seed = int(args[2]) if len(args) == 3 else default_seed
            if seed is None:
                raise SpectralTransferError(
                    "random-geometric needs a seed (third argument or the experiment seed)"
                )
            return random_geometric_graph(int(args[0]), finite_float(args[1]), seed)
    except (ValueError, SpectralTransferError) as exc:
        raise SpectralTransferError(f"{descriptor}: {exc}") from None
    raise SpectralTransferError(f"unknown graph descriptor {descriptor!r}")
