"""Graph file parsing, writing, and synthetic generators.

Two text formats round-trip exactly: whitespace edge lists ("u v w" with
0-based indices and '#' comments) and Matrix Market coordinate files
(symmetric -> undirected, general -> directed).  OFF meshes load as
unit-weight graphs with one edge per polygon side, deduplicated.  Every
reading or parsing error names the file.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .graphs import (
    WeightedGraph,
    grid_graph,
    path_graph,
    random_geometric_graph,
)


def parse_graph(path, format: str = "edge_list") -> WeightedGraph:
    """Read a graph file; ``format`` is ``edge_list``, ``matrix_market`` or
    ``off``.

    A file that cannot be read as text, or does not parse, raises
    :class:`ParseError` with a message that names ``path``.
    """
    parsers = {
        "edge_list": _parse_edge_list,
        "matrix_market": _parse_matrix_market,
        "off": _parse_mesh_off,
    }
    if format not in parsers:
        raise ParseError(f"unknown graph format {format!r}")
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file {path}: {exc}") from None
    try:
        return parsers[format](lines)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def parse_mesh_off(path) -> WeightedGraph:
    """Read an OFF mesh as a unit-weight graph of all polygon edges."""
    return parse_graph(path, "off")


def _parse_edge_list(lines) -> WeightedGraph:
    edges = []
    max_vertex = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                f"expected 'u v w', got {len(parts)} tokens", line=lineno
            )
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex index ({u}, {v})", line=lineno)
        if not np.isfinite(w):
            raise ParseError(f"non-finite weight {parts[2]}", line=lineno)
        edges.append((u, v, w))
        max_vertex = max(max_vertex, u, v)
    if max_vertex < 0:
        raise ParseError("no edges found")
    return WeightedGraph(max_vertex + 1, tuple(edges))


_MM_HEADER = re.compile(
    r"%%MatrixMarket\s+matrix\s+coordinate\s+(real|integer)\s+(symmetric|general)",
    re.IGNORECASE,
)


def _parse_matrix_market(lines) -> WeightedGraph:
    if not lines:
        raise ParseError("empty file")
    header = _MM_HEADER.match(lines[0].strip())
    if header is None:
        raise ParseError(
            "expected '%%MatrixMarket matrix coordinate real "
            "symmetric|general' header", line=1,
        )
    symmetric = header.group(2).lower() == "symmetric"
    dims = None
    edges = []
    n = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if dims is None:
            if len(parts) != 3:
                raise ParseError("expected 'rows cols nnz'", line=lineno)
            try:
                rows, cols, _ = (int(p) for p in parts)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if rows != cols:
                raise ParseError(f"adjacency must be square, got {rows}x{cols}",
                                 line=lineno)
            dims = (rows, cols)
            n = rows
            continue
        if len(parts) != 3:
            raise ParseError("expected 'i j value'", line=lineno)
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            w = float(parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"index ({i + 1}, {j + 1}) outside declared range",
                             line=lineno)
        if not np.isfinite(w):
            raise ParseError(f"non-finite value {parts[2]}", line=lineno)
        if i == j:
            continue  # diagonal entries carry no edge
        edges.append((i, j, w))
    if dims is None:
        raise ParseError("missing size line")
    return WeightedGraph(n, tuple(edges), directed=not symmetric)


def _parse_mesh_off(lines) -> WeightedGraph:
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append((lineno, line.split()))
    if not tokens or tokens[0][1] != ["OFF"]:
        raise ParseError("missing OFF header", line=tokens[0][0] if tokens else 1)
    if len(tokens) < 2 or len(tokens[1][1]) != 3:
        raise ParseError("expected 'n_vertices n_faces n_edges' after header")
    try:
        n_vertices, n_faces, _ = (int(t) for t in tokens[1][1])
    except ValueError as exc:
        raise ParseError(str(exc), line=tokens[1][0]) from None
    face_rows = tokens[2 + n_vertices : 2 + n_vertices + n_faces]
    if len(face_rows) < n_faces:
        raise ParseError(f"declared {n_faces} faces, found {len(face_rows)}")
    edges = set()
    for lineno, parts in face_rows:
        try:
            k = int(parts[0])
            idx = [int(p) for p in parts[1 : 1 + k]]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if len(idx) != k or k < 2:
            raise ParseError(f"face lists {k} vertices but has {len(idx)}",
                             line=lineno)
        for a, b in zip(idx, idx[1:] + idx[:1]):
            if not (0 <= a < n_vertices and 0 <= b < n_vertices):
                raise ParseError(f"face index {max(a, b)} overflows vertex count",
                                 line=lineno)
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return WeightedGraph(
        n_vertices, tuple((a, b, 1.0) for a, b in sorted(edges))
    )


def emit_graph(graph: WeightedGraph, path, format: str = "edge_list") -> None:
    """Write a graph so that :func:`parse_graph` reproduces it exactly."""
    if format == "edge_list":
        lines = [f"{u} {v} {w!r}" for u, v, w in graph.edges]
        text = "# u v w\n" + "\n".join(lines) + "\n"
    elif format == "matrix_market":
        kind = "general" if graph.directed else "symmetric"
        rows = [f"%%MatrixMarket matrix coordinate real {kind}",
                f"{graph.n_vertices} {graph.n_vertices} {graph.n_edges}"]
        for u, v, w in graph.edges:
            if graph.directed:
                rows.append(f"{u + 1} {v + 1} {w!r}")
            else:
                # symmetric storage keeps the lower triangle
                rows.append(f"{max(u, v) + 1} {min(u, v) + 1} {w!r}")
        text = "\n".join(rows) + "\n"
    else:
        raise ParseError(f"unknown graph format {format!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


_GENERATOR = re.compile(r"^([a-z-]+)\(([^)]*)\)$")


def synthetic_graph(descriptor: str, default_seed: int | None = None) -> WeightedGraph:
    """Build ``path(n)``, ``grid(r,c)``, or ``random-geometric(n,radius[,seed])``.

    The geometric generator falls back to ``default_seed`` when the
    descriptor omits its own.
    """
    match = _GENERATOR.match(descriptor.strip())
    if match is None:
        raise ParseError(f"cannot parse graph descriptor {descriptor!r}")
    name, arg_str = match.group(1), match.group(2)
    args = [a.strip() for a in arg_str.split(",") if a.strip()]
    try:
        if name == "path" and len(args) == 1:
            return path_graph(int(args[0]))
        if name == "grid" and len(args) == 2:
            return grid_graph(int(args[0]), int(args[1]))
        if name == "random-geometric" and len(args) in (2, 3):
            seed = int(args[2]) if len(args) == 3 else default_seed
            if seed is None:
                raise ParseError(
                    f"{descriptor}: random-geometric needs a seed "
                    "(third argument or the experiment seed)"
                )
            return random_geometric_graph(int(args[0]), float(args[1]), seed)
    except ValueError as exc:
        raise ParseError(f"{descriptor}: {exc}") from None
    raise ParseError(f"unknown graph descriptor {descriptor!r}")
