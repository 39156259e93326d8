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
``H = Phi Lambda Phi^T`` has rank K = dim PW(kernel band), so D is
``Phi (Lambda / N) (Phi / w)^T``, and a Monte-Carlo trial reads only its
factors, the N x K ``Phi`` and the K x N ``(Phi / w)^T``; the dense N x N
matrix is formed only for a paired operator
(:func:`random_sampled_laplacian`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import SpectralTransferError
from .graphs import InnerProduct, OperatorWithInnerProduct, WeightedGraph
from .spaces import BandlimitedKernel, CircleSpace


@dataclass(frozen=True)
class SampleSet:
    """Sample points in the continuous space, with their drawing weights.

    ``w_values`` holds the sampling density w evaluated at the points; it
    induces the graph inner product, and is all ones when none is given
    (uniformly drawn points).  Points of shape (..., N) are a stack of
    sample sets of one size N, which :func:`sampled_laplacian_matrix`
    turns into stacked factors.
    """

    points: np.ndarray
    w_values: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.size < 1:
            raise SpectralTransferError("sample set needs at least one point")
        object.__setattr__(self, "points", pts)
        w = np.ones(pts.shape) if self.w_values is None else np.asarray(self.w_values, dtype=float)
        if w.shape != pts.shape:
            raise SpectralTransferError("weight values must align with sample points")
        if np.any(w <= 0):
            raise SpectralTransferError(f"nonpositive sampling weight {w.min():g}")
        object.__setattr__(self, "w_values", w)

    @property
    def size(self) -> int:
        return int(self.points.shape[-1])

    def inner_product(self) -> InnerProduct:
        """B = diag(1/w); the dot product for uniformly drawn points."""
        if self.points.ndim > 1:
            raise SpectralTransferError(
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
    return SamplingPair(space, band, s, sample_set.inner_product())


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
    ``members`` lists the fine vertices group by group in that order and
    ``sizes`` holds the group sizes.
    """

    n_fine: int
    groups: tuple
    members: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    s_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = np.fromiter(map(len, self.groups), dtype=np.int64, count=len(self.groups))
        fine = np.fromiter(chain.from_iterable(self.groups), dtype=np.int64,
                           count=int(given.sum()))
        if (given == 0).any() or not np.array_equal(np.sort(fine), np.arange(self.n_fine)):
            raise SpectralTransferError("matching must cover every fine vertex exactly once")
        # sort each group, then order the groups by their smallest member
        lead = np.minimum.reduceat(fine, np.cumsum(given) - given)
        members = fine[np.lexsort((fine, np.repeat(lead, given)))]
        sizes = given[np.argsort(lead)]
        rows = np.repeat(np.arange(sizes.size), sizes)
        s = np.zeros((sizes.size, self.n_fine))
        s[rows, members] = (1.0 / np.sqrt(sizes))[rows]
        # the groups as tuples of ints: consecutive slices of the member list
        flat, ends = members.tolist(), np.cumsum(sizes).tolist()
        cuts = map(slice, [0, *ends[:-1]], ends)
        object.__setattr__(self, "groups", tuple(map(tuple, map(flat.__getitem__, cuts))))
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "sizes", sizes)
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
    deterministic.  Neighbours are the endpoints of nonzero-weight edges,
    and degrees are the edge weights summed in edge order; a vertex with
    such edges but degree 0 is rejected.
    """
    n = graph.n_vertices
    nonzero = graph.w != 0
    u, v, w = graph.u[nonzero], graph.v[nonzero], graph.w[nonzero]
    # each edge as two half-edges: end -> other
    end, other, weight = np.concatenate((u, v)), np.concatenate((v, u)), np.concatenate((w, w))
    deg = np.bincount(end, weight, minlength=n)
    count = np.bincount(end, minlength=n)
    stuck = (deg == 0) & (count > 0)
    if stuck.any():
        raise SpectralTransferError(
            f"vertex {int(np.argmax(stuck))} has edges but degree 0; heavy-edge "
            "matching scores an edge by the inverse degrees of its ends"
        )
    score = weight * (1.0 / deg[end] + 1.0 / deg[other])
    # each vertex's neighbours, best first: by score, then smaller index
    by_rank = np.lexsort((other, -score, end))
    ranked, bounds = other[by_rank].tolist(), np.cumsum(count).tolist()
    firsts = [0, *bounds[:-1]]
    matched = [False] * n
    groups = []
    for x in np.argsort(deg, kind="stable").tolist():
        if matched[x]:
            continue
        matched[x] = True
        best = next((y for y in ranked[firsts[x]:bounds[x]] if not matched[y]), None)
        if best is None:
            groups.append((x,))
        else:
            matched[best] = True
            groups.append((x, best))
    return CoarseningMap(n, tuple(groups))


def coarsened_laplacian(
    cmap: CoarseningMap, fine_laplacian: OperatorWithInnerProduct
) -> OperatorWithInnerProduct:
    """``S L S^T`` on the coarse vertex set, with the dot product."""
    if fine_laplacian.dim != cmap.n_fine:
        raise SpectralTransferError("coarsening map and Laplacian dimensions differ")
    s = cmap.s_matrix
    mat = s @ fine_laplacian.matrix @ s.T
    return OperatorWithInnerProduct.symmetric(0.5 * (mat + mat.T))


def sampled_laplacian_matrix(kernel: BandlimitedKernel, sample_set: SampleSet) -> tuple:
    """The Monte-Carlo kernel discretization at the sample set's points, as
    its two factors ``(phi, right)``.

    ``[D q]_k = N^{-1} sum_{k'} H(x_k, x_{k'}) q_{k'} / w(x_{k'})`` with w the
    sample set's ``w_values``.  With ``H = Phi Lambda Phi^T`` over the kernel
    band, ``D = (phi * Lambda / N) @ right`` with ``phi = Phi`` (N x K), the
    kernel-band basis at the points, and ``right = (Phi / w)^T`` (K x N); a
    stack of sample sets gives stacked factors.  ``right @ phi / N`` is the
    K x K weighted Gram ``Phi^T B Phi / N`` from which the Monte-Carlo
    trials read both quadrature errors (``montecarlo.mc_trial``) without
    forming an N-row product.
    """
    phi = kernel.space.basis_matrix(sample_set.points, kernel.band)
    return phi, (phi / sample_set.w_values[..., None]).swapaxes(-1, -2)


def random_sampled_laplacian(
    kernel: BandlimitedKernel, sample_set: SampleSet
) -> OperatorWithInnerProduct:
    """Monte-Carlo discretization of the kernel integral operator, paired
    with the inner product ``B = diag(1/w(x_k))`` under which it is
    self-adjoint for symmetric kernels."""
    phi, right = sampled_laplacian_matrix(kernel, sample_set)
    matrix = (phi * (kernel.eigenvalues / sample_set.size)) @ right
    return OperatorWithInnerProduct(matrix, sample_set.inner_product())


@dataclass(frozen=True)
class PerturbationSpec:
    """Random edit of a graph: how, how much, and with which seed."""

    mode: str
    fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("remove_edges", "add_edges", "remove_vertices"):
            raise SpectralTransferError(f"unknown perturbation mode {self.mode!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise SpectralTransferError(f"fraction {self.fraction} outside [0, 1]")


@dataclass(frozen=True)
class PerturbationResult:
    """Perturbed graph plus the surviving-vertex map for vertex deletion."""

    graph: WeightedGraph
    kept_vertices: tuple | None = None


def perturb_graph_detailed(graph: WeightedGraph, spec: PerturbationSpec) -> PerturbationResult:
    """Apply a perturbation; deterministic under the given seed.

    Removed edges and vertices are drawn with one ``rng.choice`` each; added
    edges are drawn among the absent pairs ``u < v`` in row-major order and
    appended in that order with weight 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n, m = graph.n_vertices, graph.n_edges
    u, v, w = graph.u, graph.v, graph.w
    if spec.mode == "remove_edges":
        k = int(np.floor(spec.fraction * m))
        keep = np.ones(m, dtype=bool)
        if k:
            keep[rng.choice(m, size=k, replace=False)] = False
        return PerturbationResult(WeightedGraph(n, u[keep], v[keep], w[keep]))
    if spec.mode == "add_edges":
        k = int(np.floor(spec.fraction * m))
        absent = np.ones((n, n), dtype=bool)
        absent[u, v] = False
        np.fill_diagonal(absent, False)
        candidates = np.flatnonzero(np.triu(absent, 1))
        k = min(k, candidates.size)
        pick = np.sort(rng.choice(candidates.size, size=k, replace=False)) if k else []
        new_u, new_v = divmod(candidates[pick], n)
        return PerturbationResult(WeightedGraph(
            n, np.concatenate([u, new_u]), np.concatenate([v, new_v]),
            np.concatenate([w, np.ones(k)]),
        ))
    # remove_vertices
    k = int(np.floor(spec.fraction * n))
    if k >= n:
        raise SpectralTransferError(
            f"removing {k} of {n} vertices empties the graph"
        )
    keep = np.ones(n, dtype=bool)
    if k:
        keep[rng.choice(n, size=k, replace=False)] = False
    index = np.cumsum(keep) - 1  # new index of each kept vertex
    kept_edge = keep[u] & keep[v]
    sub = WeightedGraph(
        int(keep.sum()), index[u[kept_edge]], index[v[kept_edge]], w[kept_edge])
    return PerturbationResult(sub, tuple(np.flatnonzero(keep).tolist()))


def unit_probes(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` unit coefficient columns, drawn one probe after another."""
    probes = rng.normal(size=(count, dim)).T
    return probes / np.linalg.norm(probes, axis=0)

