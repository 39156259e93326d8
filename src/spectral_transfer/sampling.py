"""Sampling, interpolation, coarsening, and perturbation operators.

Three ways a graph can discretize an underlying space, each as explicit
matrices:

* point sampling on the circle: S evaluates band-limited signals at sample
  points scaled by 1/sqrt(density), interpolation is its adjoint R = S*
  under the graph inner product;
* heavy-edge matching coarsening: each vertex group (a matched pair or a
  singleton) collapses with weights 1/sqrt(group size), so S has
  orthonormal rows and R = S^T;
* graph perturbation: S = R = identity (or a vertex restriction when
  vertices are deleted).

For randomly sampled graphs the discrete Laplacian is the Monte-Carlo
quadrature of the kernel integral operator,
``[D q]_k = N^{-1} sum_{k'} H(x_k, x_{k'}) q_{k'} / w(x_{k'})``,
self-adjoint under ``B = diag(1/w(x_k))``.  The band-limited kernel
``H = Phi Lambda Phi^T`` has rank K = dim PW(kernel band), so D is kept as
its rank-K factors and applied in O(N K) time and memory; the dense N x N
matrix is formed only on request (``np.asarray``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePerturbationError,
    GraphError,
    ParameterError,
    WeightError,
)
from .graphs import InnerProduct, OperatorWithInnerProduct, WeightedGraph
from .spaces import BandlimitedKernel, CircleSpace


@dataclass(frozen=True)
class SampleSet:
    """Sample points in the continuous space, with their drawing weights.

    ``w_values`` holds the sampling density w evaluated at the points; it
    induces the graph inner product, and is all ones when none is given
    (uniformly drawn points).  Points of shape (..., N) are a stack of
    sample sets of one size N, which :func:`sampled_laplacian_matrix`
    turns into a stack of operators.
    """

    points: np.ndarray
    w_values: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.size < 1:
            raise ParameterError("sample set needs at least one point")
        object.__setattr__(self, "points", pts)
        w = np.ones(pts.shape) if self.w_values is None else np.asarray(self.w_values, dtype=float)
        if w.shape != pts.shape:
            raise WeightError("weight values must align with sample points")
        if np.any(w <= 0):
            raise WeightError(f"nonpositive sampling weight {w.min():g}")
        object.__setattr__(self, "w_values", w)

    @property
    def size(self) -> int:
        return int(self.points.shape[-1])

    def inner_product(self) -> InnerProduct:
        """B = diag(1/w); the dot product for uniformly drawn points."""
        if self.points.ndim > 1:
            raise ParameterError(
                f"a stack of sample sets {self.points.shape} has no single "
                "inner product; take one row"
            )
        return InnerProduct(1.0 / self.w_values)

    @classmethod
    def equispaced(cls, n: int) -> "SampleSet":
        return cls(np.arange(n) / n)

    @classmethod
    def weighted_random(cls, n: int, weight, seed, w_max: float | None = None) -> "SampleSet":
        """Rejection-sample n points from the density ``weight`` on [0, 1)."""
        if w_max is None:
            grid = np.arange(4096) / 4096
            w_max = float(np.max(weight(grid))) * (1.0 + 1e-9)
        points, w_values = rejection_sample([np.random.default_rng(seed)], n, weight, w_max)
        return cls(points[0], w_values[0])


def rejection_sample(rngs, n: int, weight, w_max: float) -> tuple:
    """Rejection-sample n points on [0, 1) from the density ``weight <=
    w_max`` with each generator of ``rngs``.

    Returns ``(points, w_values)``, both (len(rngs), N): row r is what
    generator r alone gives, and ``w_values`` holds ``weight`` at the
    points.  A round gives every short row ``m = 2 (N - filled) + 8``
    candidates and then m acceptance variates from its generator, and
    keeps the first accepted candidates in draw order.  The rows of one
    shortfall draw their round as one stack, with one ``weight`` call and
    one acceptance mask; the first round is one stack of every row.
    """
    points = np.empty((len(rngs), n))
    w_values = np.empty_like(points)
    filled = np.zeros(len(rngs), dtype=np.int64)
    while (short := np.flatnonzero(filled < n)).size:
        # the rows of the largest shortfall draw their round together
        need = n - int(filled[short].min())
        rows = short[filled[short] == n - need]
        cand = np.empty((rows.size, 2 * need + 8))
        accept = np.empty_like(cand)
        # random(out=) writes the doubles that uniform(size=m) returns
        for row, cand_row, accept_row in zip(rows, cand, accept):
            rngs[row].random(out=cand_row)
            rngs[row].random(out=accept_row)
        w_cand = np.asarray(weight(cand), dtype=float)
        acc = accept * w_max <= w_cand
        rank = np.cumsum(acc, axis=1)
        r, c = np.nonzero(acc & (rank <= need))
        cols = filled[rows][r] + rank[r, c] - 1
        points[rows[r], cols] = cand[r, c]
        w_values[rows[r], cols] = w_cand[r, c]
        filled[rows] += np.minimum(rank[:, -1], need)
    return points, w_values


@dataclass(frozen=True)
class SamplingPair:
    """Evaluation/interpolation matrices for one band on one sample set.

    ``s_matrix`` has entries phi_m(x_k) / sqrt(N); the interpolation
    matrix is its adjoint ``s^H B``.  A lower band's ``s_matrix`` is the
    leading columns of a higher band's, so pairs of different bands nest.
    """

    space: CircleSpace
    sample_set: SampleSet
    band: float
    s_matrix: np.ndarray
    inner: InnerProduct

    @property
    def r_matrix(self) -> np.ndarray:
        return self.inner.apply(self.s_matrix).conj().T


def evaluation_operator(
    space: CircleSpace, sample_set: SampleSet, band: float
) -> SamplingPair:
    """Point-evaluation sampling of PW(band) at the sample set."""
    phi = space.basis_matrix(sample_set.points, band)
    s = phi / np.sqrt(sample_set.size)
    return SamplingPair(space, sample_set, band, s, sample_set.inner_product())


def gram(pair: SamplingPair) -> np.ndarray:
    """Quadrature Gram matrix ``S^H B S``; the matrix of R o S in the
    band-limited basis, converging to the identity for quadrature sample
    sets."""
    return pair.s_matrix.conj().T @ pair.inner.apply(pair.s_matrix)


@dataclass(frozen=True)
class CoarseningMap:
    """A partition of the fine vertices into groups, with its collapse
    operator.

    Each group is sorted and the groups are ordered by their smallest fine
    vertex; coarse row k carries 1/sqrt(|group k|) on group k, so the rows
    are orthonormal and interpolation S^T is an isometry onto its range.
    """

    n_fine: int
    groups: tuple
    s_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = sorted((tuple(sorted(grp)) for grp in self.groups), key=min)
        if sorted(v for grp in groups for v in grp) != list(range(self.n_fine)):
            raise GraphError("matching must cover every fine vertex exactly once")
        s = np.zeros((len(groups), self.n_fine))
        for row, grp in enumerate(groups):
            s[row, list(grp)] = 1.0 / np.sqrt(len(grp))
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "s_matrix", s)

    @property
    def n_coarse(self) -> int:
        return self.s_matrix.shape[0]


def coarsen_matching(graph: WeightedGraph) -> CoarseningMap:
    """Heavy-edge maximal matching in the Graclus style.

    Vertices are visited in ascending (degree, index) order; an unmatched
    vertex pairs with the unmatched neighbour maximizing
    ``w_uv (1/d_u + 1/d_v)``, ties broken by the smaller index; leftovers
    become singletons.  The visit order makes the heuristic fully
    deterministic.
    """
    if graph.directed:
        raise GraphError("coarsening requires an undirected graph")
    w = graph.adjacency()
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
    return CoarseningMap(graph.n_vertices, tuple(groups))


def coarsened_laplacian(
    cmap: CoarseningMap, fine_laplacian: OperatorWithInnerProduct
) -> OperatorWithInnerProduct:
    """``S L S^T`` on the coarse vertex set, with the dot product."""
    if fine_laplacian.dim != cmap.n_fine:
        raise GraphError("coarsening map and Laplacian dimensions differ")
    s = cmap.s_matrix
    mat = s @ fine_laplacian.matrix @ s.T
    if not np.iscomplexobj(mat):
        mat = 0.5 * (mat + mat.T)
    return OperatorWithInnerProduct(mat, InnerProduct.standard(cmap.n_coarse))


@dataclass(frozen=True)
class LowRankOperator:
    """The N x N matrix ``left @ right`` kept as its thin factors.

    ``op @ x`` costs O(N K) per column and never forms the product;
    ``np.asarray(op)`` gives the dense matrix.  Factors of shapes
    (..., N, K) and (..., K, N) hold a stack of such matrices.
    """

    left: np.ndarray
    right: np.ndarray

    def __matmul__(self, x):
        return self.left @ (self.right @ x)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.left @ self.right, dtype=dtype)


def sampled_laplacian_matrix(
    kernel: BandlimitedKernel, sample_set: SampleSet, basis=None
) -> LowRankOperator:
    """The Monte-Carlo kernel discretization at the sample set's points.

    ``[D q]_k = N^{-1} sum_{k'} H(x_k, x_{k'}) q_{k'} / w(x_{k'})`` with w the
    sample set's ``w_values``.  With ``H = Phi Lambda Phi^T`` over the kernel
    band, it is the :class:`LowRankOperator` with factors ``Phi Lambda / N``
    (N x K) and ``(Phi / w)^T`` (K x N); a stack of sample sets gives
    stacked factors.  ``basis`` is ``Phi``, the kernel-band basis at the
    points, when the caller has already evaluated it.  ``right @ Phi / N``
    is the K x K weighted Gram ``Phi^T B Phi / N`` from which the
    Monte-Carlo trials read both quadrature errors (``montecarlo.mc_trial``)
    without forming an N-row product.
    """
    phi = kernel.space.basis_matrix(sample_set.points, kernel.band) if basis is None else basis
    left = phi * (kernel.eigenvalues / sample_set.size)
    return LowRankOperator(left, (phi / sample_set.w_values[..., None]).swapaxes(-1, -2))


def random_sampled_laplacian(
    kernel: BandlimitedKernel, sample_set: SampleSet
) -> OperatorWithInnerProduct:
    """Monte-Carlo discretization of the kernel integral operator, paired
    with the inner product ``B = diag(1/w(x_k))`` under which it is
    self-adjoint for symmetric kernels."""
    return OperatorWithInnerProduct(
        sampled_laplacian_matrix(kernel, sample_set), sample_set.inner_product()
    )


@dataclass(frozen=True)
class PerturbationSpec:
    """Random edit of a graph: how, how much, and with which seed."""

    mode: str
    fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("remove_edges", "add_edges", "remove_vertices"):
            raise ParameterError(f"unknown perturbation mode {self.mode!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ParameterError(f"fraction {self.fraction} outside [0, 1]")


@dataclass(frozen=True)
class PerturbationResult:
    """Perturbed graph plus the surviving-vertex map for vertex deletion."""

    graph: WeightedGraph
    kept_vertices: tuple | None = None

    def restriction_matrix(self, n_fine: int) -> np.ndarray:
        """Selector rows mapping fine signals to surviving vertices."""
        s = np.zeros((len(self.kept_vertices), n_fine))
        s[np.arange(len(self.kept_vertices)), self.kept_vertices] = 1.0
        return s


def perturb_graph_detailed(graph: WeightedGraph, spec: PerturbationSpec) -> PerturbationResult:
    """Apply a perturbation; deterministic under the given seed.

    Removed edges and vertices are drawn with one ``rng.choice`` each; added
    edges are drawn among the absent ones in row-major (u, v) order, with
    ``u < v`` when undirected, and appended in that order with weight 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n, m = graph.n_vertices, graph.n_edges
    u, v, w = graph.u, graph.v, graph.w
    if spec.mode == "remove_edges":
        k = int(np.floor(spec.fraction * m))
        keep = np.ones(m, dtype=bool)
        if k:
            keep[rng.choice(m, size=k, replace=False)] = False
        return PerturbationResult(WeightedGraph.from_arrays(
            n, u[keep], v[keep], w[keep], graph.directed
        ))
    if spec.mode == "add_edges":
        k = int(np.floor(spec.fraction * m))
        absent = np.ones((n, n), dtype=bool)
        absent[u, v] = False
        np.fill_diagonal(absent, False)
        candidates = np.flatnonzero(absent if graph.directed else np.triu(absent, 1))
        k = min(k, candidates.size)
        pick = np.sort(rng.choice(candidates.size, size=k, replace=False)) if k else []
        new_u, new_v = divmod(candidates[pick], n)
        return PerturbationResult(WeightedGraph.from_arrays(
            n, np.concatenate([u, new_u]), np.concatenate([v, new_v]),
            np.concatenate([w, np.ones(k)]), graph.directed,
        ))
    # remove_vertices
    k = int(np.floor(spec.fraction * n))
    if k >= n:
        raise DegeneratePerturbationError(
            f"removing {k} of {n} vertices empties the graph"
        )
    keep = np.ones(n, dtype=bool)
    if k:
        keep[rng.choice(n, size=k, replace=False)] = False
    index = np.cumsum(keep) - 1  # new index of each kept vertex
    kept_edge = keep[u] & keep[v]
    sub = WeightedGraph.from_arrays(
        int(keep.sum()), index[u[kept_edge]], index[v[kept_edge]], w[kept_edge],
        graph.directed,
    )
    return PerturbationResult(sub, tuple(np.flatnonzero(keep).tolist()))


def unit_probes(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` unit coefficient columns, drawn one probe after another."""
    probes = rng.normal(size=(count, dim)).T
    return probes / np.linalg.norm(probes, axis=0)

