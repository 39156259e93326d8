"""Sampling, interpolation, coarsening, and perturbation operators.

Three ways a graph can discretize an underlying space, each as explicit
matrices:

* point sampling on the circle: S evaluates band-limited signals at sample
  points scaled by 1/sqrt(density), interpolation is its adjoint R = S*
  under the graph inner product;
* heavy-edge matching coarsening: matched pairs collapse with weights
  1/sqrt2, singletons copy through, so S has orthonormal rows and R = S^T;
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
    BandError,
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

    ``density`` is N / mu(M) = N on unit-measure spaces.  ``w_values`` holds
    the sampling density w evaluated at the points when they were drawn from
    a non-uniform measure; it induces the graph inner product.
    """

    points: np.ndarray
    rng_seed: int | None = None
    w_values: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.size < 1:
            raise ParameterError("sample set needs at least one point")
        object.__setattr__(self, "points", pts)
        if self.w_values is not None:
            w = np.asarray(self.w_values, dtype=float)
            if w.shape != pts.shape:
                raise WeightError("weight values must align with sample points")
            if np.any(w <= 0):
                raise WeightError(f"nonpositive sampling weight {w.min():g}")
            object.__setattr__(self, "w_values", w)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def density(self) -> float:
        return float(self.size)

    def inner_product(self) -> InnerProduct:
        """B = diag(1/w); the dot product for uniformly drawn points."""
        if self.w_values is None:
            return InnerProduct.standard(self.size)
        return InnerProduct.diagonal(1.0 / self.w_values)

    @classmethod
    def equispaced(cls, n: int) -> "SampleSet":
        return cls(np.arange(n) / n)

    @classmethod
    def uniform_random(cls, n: int, seed) -> "SampleSet":
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(size=n), rng_seed=None)

    @classmethod
    def weighted_random(cls, n: int, weight, seed, w_max: float | None = None) -> "SampleSet":
        """Rejection-sample n points from the density ``weight`` on [0, 1)."""
        rng = np.random.default_rng(seed)
        if w_max is None:
            grid = np.arange(4096) / 4096
            w_max = float(np.max(weight(grid))) * (1.0 + 1e-9)
        points = np.empty(n)
        filled = 0
        while filled < n:
            cand = rng.uniform(size=2 * (n - filled) + 8)
            acc = rng.uniform(size=cand.size) * w_max <= weight(cand)
            take = cand[acc][: n - filled]
            points[filled : filled + take.size] = take
            filled += take.size
        return cls(points, rng_seed=None, w_values=np.asarray(weight(points), dtype=float))


@dataclass(frozen=True)
class SamplingPair:
    """Evaluation/interpolation matrices for one band on one sample set.

    ``s_matrix`` has entries phi_m(x_k) / sqrt(density); the interpolation
    matrix is its adjoint ``s^H B``.  Restricting to a lower band drops
    trailing columns only, so pairs of different bands nest.
    """

    space: CircleSpace
    sample_set: SampleSet
    band: float
    s_matrix: np.ndarray
    inner: InnerProduct

    @property
    def r_matrix(self) -> np.ndarray:
        return self.s_matrix.conj().T @ self.inner.b_matrix

    def restrict_to_band(self, band: float) -> "SamplingPair":
        if band > self.band:
            raise BandError("can only restrict to a lower band")
        m = self.space.dim_pw(band)
        return SamplingPair(self.space, self.sample_set, band,
                            self.s_matrix[:, :m], self.inner)

    def sample_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        return self.s_matrix @ np.asarray(coeffs)


def evaluation_operator(
    space: CircleSpace, sample_set: SampleSet, band: float
) -> SamplingPair:
    """Point-evaluation sampling of PW(band) at the sample set."""
    phi = space.basis_matrix(sample_set.points, band)
    s = phi / np.sqrt(sample_set.density)
    return SamplingPair(space, sample_set, band, s, sample_set.inner_product())


def gram(pair: SamplingPair) -> np.ndarray:
    """Quadrature Gram matrix ``S^H B S``; the matrix of R o S in the
    band-limited basis, converging to the identity for quadrature sample
    sets."""
    return pair.s_matrix.conj().T @ (pair.inner.b_matrix @ pair.s_matrix)


@dataclass(frozen=True)
class CoarseningMap:
    """A maximal matching with its collapse operator.

    Coarse rows follow the groups sorted by their smallest fine vertex;
    paired rows carry (1/sqrt2, 1/sqrt2) and singleton rows carry 1, so the
    rows are orthonormal and interpolation S^T is an isometry onto its
    range.
    """

    n_fine: int
    pairs: tuple
    singletons: tuple
    groups: tuple = field(init=False, repr=False, compare=False)
    s_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        covered = sorted(
            [v for p in self.pairs for v in p] + list(self.singletons)
        )
        if covered != list(range(self.n_fine)):
            raise GraphError("matching must cover every fine vertex exactly once")
        groups = sorted(
            [tuple(sorted(p)) for p in self.pairs] + [(s,) for s in self.singletons],
            key=min,
        )
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
    pairs, singletons = [], []
    for u in order:
        if matched[u]:
            continue
        neighbors = [v for v in np.nonzero(w[u])[0] if not matched[v] and v != u]
        if not neighbors:
            matched[u] = True
            singletons.append(u)
            continue
        inv_du = 1.0 / deg[u]
        best = max(
            neighbors,
            key=lambda v: (w[u, v] * (inv_du + 1.0 / deg[v]), -v),
        )
        matched[u] = matched[best] = True
        pairs.append((min(u, best), max(u, best)))
    return CoarseningMap(graph.n_vertices, tuple(pairs), tuple(singletons))


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
    ``np.asarray(op)`` gives the dense matrix.
    """

    left: np.ndarray
    right: np.ndarray

    def __matmul__(self, x):
        return self.left @ (self.right @ x)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.left @ self.right, dtype=dtype)


def sampled_laplacian_matrix(
    kernel: BandlimitedKernel, sample_set: SampleSet, weight=None
) -> tuple:
    """Raw ``(matrix, w_values)`` of the Monte-Carlo kernel discretization.

    ``[D q]_k = N^{-1} sum_{k'} H(x_k, x_{k'}) q_{k'} / w(x_{k'})``.  With
    ``H = Phi Lambda Phi^T`` over the kernel band, ``matrix`` is the
    :class:`LowRankOperator` with factors ``Phi Lambda / N`` (N x K) and
    ``(Phi / w)^T`` (K x N).
    """
    pts = sample_set.points
    if weight is not None:
        w_vals = np.asarray(weight(pts), dtype=float)
    elif sample_set.w_values is not None:
        w_vals = sample_set.w_values
    else:
        w_vals = np.ones(sample_set.size)
    if np.any(w_vals <= 0):
        raise WeightError(f"nonpositive weight at a sample point: {w_vals.min():g}")
    phi = kernel.space.basis_matrix(pts, kernel.band)
    left = phi * (kernel.eigenvalues / sample_set.size)
    return LowRankOperator(left, (phi / w_vals[:, None]).T), w_vals


def random_sampled_laplacian(
    kernel: BandlimitedKernel, sample_set: SampleSet, weight=None
) -> OperatorWithInnerProduct:
    """Monte-Carlo discretization of the kernel integral operator, paired
    with the inner product ``B = diag(1/w(x_k))`` under which it is
    self-adjoint for symmetric kernels."""
    mat, w_vals = sampled_laplacian_matrix(kernel, sample_set, weight)
    return OperatorWithInnerProduct(mat, InnerProduct.diagonal(1.0 / w_vals))


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
        if self.kept_vertices is None:
            return np.eye(n_fine)
        s = np.zeros((len(self.kept_vertices), n_fine))
        for row, v in enumerate(self.kept_vertices):
            s[row, v] = 1.0
        return s


def perturb_graph_detailed(graph: WeightedGraph, spec: PerturbationSpec) -> PerturbationResult:
    """Apply a perturbation; deterministic under the given seed."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    edges = list(graph.edges)
    if spec.mode == "remove_edges":
        k = int(np.floor(spec.fraction * len(edges)))
        drop = set(rng.choice(len(edges), size=k, replace=False)) if k else set()
        kept = tuple(e for i, e in enumerate(edges) if i not in drop)
        return PerturbationResult(WeightedGraph(graph.n_vertices, kept, graph.directed))
    if spec.mode == "add_edges":
        k = int(np.floor(spec.fraction * len(edges)))
        existing = {(e[0], e[1]) for e in edges}
        if graph.directed:
            candidates = [
                (u, v)
                for u in range(graph.n_vertices)
                for v in range(graph.n_vertices)
                if u != v and (u, v) not in existing
            ]
        else:
            candidates = [
                (u, v)
                for u in range(graph.n_vertices)
                for v in range(u + 1, graph.n_vertices)
                if (u, v) not in existing
            ]
        k = min(k, len(candidates))
        pick = rng.choice(len(candidates), size=k, replace=False) if k else []
        new_edges = edges + [(candidates[i][0], candidates[i][1], 1.0) for i in sorted(pick)]
        return PerturbationResult(WeightedGraph(graph.n_vertices, tuple(new_edges), graph.directed))
    # remove_vertices
    k = int(np.floor(spec.fraction * graph.n_vertices))
    if k >= graph.n_vertices:
        raise DegeneratePerturbationError(
            f"removing {k} of {graph.n_vertices} vertices empties the graph"
        )
    drop = set(rng.choice(graph.n_vertices, size=k, replace=False)) if k else set()
    kept = tuple(v for v in range(graph.n_vertices) if v not in drop)
    index = {v: i for i, v in enumerate(kept)}
    new_edges = tuple(
        (index[u], index[v], w) for u, v, w in edges if u in index and v in index
    )
    return PerturbationResult(
        WeightedGraph(len(kept), new_edges, graph.directed), kept
    )


def perturb_graph(graph: WeightedGraph, spec: PerturbationSpec) -> WeightedGraph:
    return perturb_graph_detailed(graph, spec).graph


def unit_probes(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` unit coefficient columns, drawn one probe after another."""
    probes = rng.normal(size=(count, dim)).T
    return probes / np.linalg.norm(probes, axis=0)


def activation_commutation_error(
    pair: SamplingPair,
    pair_hi: SamplingPair,
    activation,
    probes,
    quadrature_grid: int = 4096,
) -> float:
    """How far sampling is from commuting with a pointwise nonlinearity.

    For each probe f in PW(pair.band), a column of ``probes``, compares
    applying ``activation`` to the sampled signal against sampling the
    band-limited projection of ``activation`` applied in the continuous
    space: ``max_f || rho(S f) - S' P(band') rho(f) || / ||f||`` with the
    high-band pair's graph norm.  Sampling commutes with pointwise maps on
    continuous signals, so the gap is purely the spectral content beyond
    the higher band.
    """
    if pair_hi.band < pair.band:
        raise BandError("second pair must have the higher band")
    if pair.sample_set is not pair_hi.sample_set and not np.array_equal(
        pair.sample_set.points, pair_hi.sample_set.points
    ):
        raise ParameterError("pairs must share one sample set")
    probes = np.asarray(probes, dtype=float)
    norms = np.linalg.norm(probes, axis=0)
    if np.any(norms == 0.0):
        raise ParameterError("probe signals must be nonzero")
    space = pair.space
    grid = np.arange(quadrature_grid) / quadrature_grid
    sampled = activation(pair.sample_coefficients(probes))
    rho_grid = activation(space.basis_matrix(grid, pair.band) @ probes)
    projected = pair_hi.sample_coefficients(space.analyze_grid(rho_grid, pair_hi.band))
    errors = pair_hi.inner.column_norms(sampled - projected) / norms
    return float(errors.max(initial=0.0))
