"""Weighted graphs, Laplacian variants, custom inner products, eigendecomposition.

Operators that are not symmetric matrices are handled as normal operators
under a constructed inner product ``<u, v> = v^H B u``: for a diagonalizable
matrix with eigenvector matrix G, ``B = G^{-H} G^{-1}`` makes the matrix
normal, its adjoint is ``B^{-1} A^H B``, and eigenprojections are
B-orthogonal.  Each operator caches its eigendecomposition as ``op.eig``,
which every filter, bound and network layer on it reads.  All
decompositions are dense and direct: time grows as n^3 and memory as n^2
(one eigenbasis per operator, no per-eigenvalue projectors).  Measured on
2 cores with one BLAS thread, perturb-stability on random-geometric(1000,
0.06) with five perturbations and three filters takes 25 s at 313 MB peak
RSS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    DecompositionError,
    DegenerateDegreeError,
    GraphError,
    InvalidInnerProductError,
    NormalityError,
    ParameterError,
)

#: Condition-number ceiling for eigenvector matrices of directed Laplacians.
#: Near-defective matrices are rejected rather than silently mishandled.
MAX_EIGENVECTOR_CONDITION = 1e8

#: Relative eigenvalue-grouping tolerance (times the spectral radius).
#: Repeated eigenvalues must share one projection for a filter response to
#: be well defined on the eigenspace.
DEFAULT_GROUP_TOL = 1e-8


@dataclass(frozen=True)
class WeightedGraph:
    """A weighted graph: the discrete domain of all transfer settings.

    Edges are stored as ``(u, v, w)`` triples.  Undirected graphs keep one
    canonical entry per edge with ``u < v``; directed graphs keep entries as
    given.  Self loops, duplicate edges, and non-finite weights are rejected.
    """

    n_vertices: int
    edges: tuple
    directed: bool = False

    def __post_init__(self):
        if self.n_vertices < 1:
            raise GraphError("graph must have at least one vertex")
        seen = set()
        canonical = []
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise GraphError(f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise GraphError(f"self loop at vertex {u}")
            if not np.isfinite(w):
                raise GraphError(f"non-finite weight on edge ({u}, {v})")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            canonical.append((key[0], key[1], w) if not self.directed else (u, v, w))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix W; symmetric when undirected."""
        w_mat = np.zeros((self.n_vertices, self.n_vertices))
        for u, v, w in self.edges:
            w_mat[u, v] = w
            if not self.directed:
                w_mat[v, u] = w
        return w_mat

    def degrees(self) -> np.ndarray:
        """Row sums of the adjacency matrix."""
        return self.adjacency().sum(axis=1)


def path_graph(n: int) -> WeightedGraph:
    """Path on ``n`` vertices with unit weights."""
    return WeightedGraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """4-neighbour grid on ``rows x cols`` vertices with unit weights."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1, 1.0))
            if r + 1 < rows:
                edges.append((i, i + cols, 1.0))
    return WeightedGraph(rows * cols, tuple(edges))


def random_geometric_graph(n: int, radius: float, seed: int) -> WeightedGraph:
    """Unit-weight geometric graph on ``n`` seeded uniform points in [0,1]^2.

    Vertices are connected when their Euclidean distance is at most
    ``radius``.  The same seed produces the identical graph.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = rng.uniform(size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    edges = [
        (i, j, 1.0) for i in range(n) for j in range(i + 1, n) if dist[i, j] <= radius
    ]
    return WeightedGraph(n, tuple(edges))


@dataclass(frozen=True)
class InnerProduct:
    """Hermitian positive-definite matrix B defining ``<u, v> = v^H B u``."""

    b_matrix: np.ndarray
    _sqrt: np.ndarray = field(init=False, repr=False, compare=False)
    _inv_sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.b_matrix)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InvalidInnerProductError("B must be square")
        diag = np.diag(b)
        # A diagonal B is Hermitian exactly when its diagonal is real, so
        # only a full B needs the O(n^2) comparison with its adjoint.
        full = np.count_nonzero(b) != np.count_nonzero(diag)
        check = b if full else diag
        if not np.allclose(check, check.conj().T, atol=1e-10 * (1.0 + np.abs(check).max())):
            raise InvalidInnerProductError("B must be Hermitian")
        if not full:
            if diag.min() <= 0 or np.abs(diag.imag).max() > 0:
                raise InvalidInnerProductError(
                    f"B must be positive definite (min diagonal {diag.real.min():.3e})"
                )
            root = np.sqrt(diag.real)
            object.__setattr__(self, "b_matrix", b)
            object.__setattr__(self, "_sqrt", np.diag(root))
            object.__setattr__(self, "_inv_sqrt", np.diag(1.0 / root))
            return
        vals, vecs = np.linalg.eigh(b)
        if vals.min() <= 0:
            raise InvalidInnerProductError(
                f"B must be positive definite (min eigenvalue {vals.min():.3e})"
            )
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "_sqrt", (vecs * np.sqrt(vals)) @ vecs.conj().T)
        object.__setattr__(self, "_inv_sqrt", (vecs / np.sqrt(vals)) @ vecs.conj().T)

    @classmethod
    def standard(cls, n: int) -> "InnerProduct":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, weights: np.ndarray) -> "InnerProduct":
        return cls(np.diag(np.asarray(weights, dtype=float)))

    @classmethod
    def from_eigenvector_matrix(cls, gamma: np.ndarray) -> "InnerProduct":
        """B = G^{-H} G^{-1} under which the decomposed operator is normal."""
        cond = np.linalg.cond(gamma)
        if not np.isfinite(cond) or cond > MAX_EIGENVECTOR_CONDITION:
            raise DecompositionError(
                f"eigenvector matrix condition {cond:.3e} exceeds "
                f"{MAX_EIGENVECTOR_CONDITION:.0e}; operator treated as defective"
            )
        g_inv = np.linalg.inv(gamma)
        b = g_inv.conj().T @ g_inv
        return cls(0.5 * (b + b.conj().T))

    @property
    def dim(self) -> int:
        return self.b_matrix.shape[0]

    @cached_property
    def is_standard(self) -> bool:
        return bool(np.array_equal(self.b_matrix, np.eye(self.dim)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``B x`` for a vector or matrix ``x``; ``x`` itself when B = I."""
        return x if self.is_standard else self.b_matrix @ x

    def pair(self, u: np.ndarray, v: np.ndarray) -> complex:
        """``<u, v> = v^H B u``."""
        return complex(v.conj() @ (self.b_matrix @ u))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.pair(u, u).real, 0.0)))

    def sqrt_matrix(self) -> np.ndarray:
        """Hermitian square root of B; reweights vectors into Euclidean norm."""
        return self._sqrt

    def inv_sqrt_matrix(self) -> np.ndarray:
        return self._inv_sqrt

    def weighted_operator_norm(self, mat: np.ndarray) -> float:
        """Largest singular value of ``mat`` with B-norm on the output side.

        The input side is taken with the Euclidean norm (orthonormal
        coefficients); pass ``B^{1/2} mat`` semantics are handled here.
        """
        if mat.size == 0:
            return 0.0
        return float(np.linalg.norm(self._weighted(mat), 2))

    def column_norms(self, mat: np.ndarray) -> np.ndarray:
        """Norm under this inner product of each column of ``mat``."""
        return np.linalg.norm(self._weighted(mat), axis=0)

    def _weighted(self, mat: np.ndarray) -> np.ndarray:
        # B^{1/2} mat, whose Euclidean norms are B-norms of mat.
        return mat if self.is_standard else self._sqrt @ mat


def adjoint_wrt(a: np.ndarray, inner: InnerProduct) -> np.ndarray:
    """Matrix of the adjoint under ``inner``: ``B^{-1} A^H B``."""
    a = np.asarray(a)
    if a.shape[0] != a.shape[1] or a.shape[0] != inner.dim:
        raise InvalidInnerProductError("operator and inner product dimensions differ")
    b = inner.b_matrix
    diag = np.diag(b)
    if np.count_nonzero(b - np.diag(diag)) == 0:
        return (a.conj().T * diag[None, :]) / diag[:, None]
    return np.linalg.solve(b, a.conj().T @ b)


@dataclass(frozen=True)
class OperatorWithInnerProduct:
    """A square matrix paired with the inner product making it normal."""

    matrix: np.ndarray
    inner: InnerProduct

    #: Relative normality tolerance; the commutator defect is compared
    #: against this times (1 + ||A||_F)^2.
    _NORMALITY_RTOL = 1e-8

    def __post_init__(self):
        a = np.asarray(self.matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NormalityError("operator matrix must be square")
        if a.shape[0] != self.inner.dim:
            raise NormalityError("operator and inner product dimensions differ")
        object.__setattr__(self, "matrix", a)
        defect = normality_defect(self)
        scale = (1.0 + np.linalg.norm(a, "fro")) ** 2
        if defect > self._NORMALITY_RTOL * scale:
            raise NormalityError(
                f"operator is not normal under the given inner product "
                f"(commutator defect {defect:.3e})"
            )

    @classmethod
    def symmetric(cls, matrix: np.ndarray) -> "OperatorWithInnerProduct":
        matrix = np.asarray(matrix)
        return cls(matrix, InnerProduct.standard(matrix.shape[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def adjoint(self) -> np.ndarray:
        return adjoint_wrt(self.matrix, self.inner)

    @cached_property
    def eig(self) -> "EigenDecomposition":
        """The grouped eigendecomposition, computed once per operator."""
        return eigendecompose(self)


def normality_defect(op: OperatorWithInnerProduct) -> float:
    """Frobenius norm of ``A A* - A* A`` with the B-adjoint; 0 when normal."""
    a = op.matrix
    a_star = adjoint_wrt(a, op.inner)
    return float(np.linalg.norm(a @ a_star - a_star @ a, "fro"))


def build_laplacian(graph: WeightedGraph, kind: str) -> OperatorWithInnerProduct:
    """Build a shift operator for ``graph``.

    ``kind`` selects the unnormalized Laplacian ``D - W``, the normalized
    Laplacian ``I - D^{-1/2} W D^{-1/2}``, or the adjacency matrix ``W``
    itself.  Symmetric results use the dot product; directed results get the
    inner product built from a numerically computed eigenvector matrix.
    """
    if kind not in ("unnormalized", "normalized", "adjacency"):
        raise ParameterError(f"unknown laplacian kind {kind!r}")
    w_mat = graph.adjacency()
    deg = w_mat.sum(axis=1)
    if kind == "unnormalized":
        mat = np.diag(deg) - w_mat
    elif kind == "normalized":
        if np.any(deg <= 0):
            bad = int(np.argmin(deg))
            raise DegenerateDegreeError(
                f"vertex {bad} has degree {deg[bad]:g}; normalized Laplacian undefined"
            )
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        mat = np.eye(graph.n_vertices) - (d_inv_sqrt[:, None] * w_mat) * d_inv_sqrt[None, :]
    else:
        mat = w_mat
    if not graph.directed:
        return OperatorWithInnerProduct.symmetric(mat)
    # Directed: construct B from the eigenvector matrix (complex in general).
    _, gamma = np.linalg.eig(mat.astype(complex))
    inner = InnerProduct.from_eigenvector_matrix(gamma)
    return OperatorWithInnerProduct(mat.astype(complex), inner)


def _real_if_possible(values: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(values) and np.all(values.imag == 0):
        return values.real
    return values


@dataclass(frozen=True)
class EigenGroup:
    """One eigenvalue with the B-orthonormal basis columns of its eigenspace."""

    eigenvalue: complex
    columns: np.ndarray
    inner: InnerProduct

    @property
    def multiplicity(self) -> int:
        return self.columns.shape[1]

    @property
    def projection(self) -> np.ndarray:
        """Eigenprojection ``C C^H B``; built on each access, never stored."""
        return self.columns @ self.inner.apply(self.columns).conj().T


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues grouped into eigenspaces, ordered by increasing ``|lambda|``.

    ``basis`` holds B-orthonormal eigenvector columns, group by group;
    group j has eigenvalue ``group_values[j]`` and spans the next
    ``multiplicities[j]`` columns.  A spectral function g acts as
    ``V g(Lambda) V^H B``, so the decomposition stores one n x n matrix in
    all, and no eigenprojection is formed unless asked for.
    """

    group_values: np.ndarray
    multiplicities: np.ndarray
    inner: InnerProduct
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def grouped(self) -> bool:
        """True when some eigenvalue is repeated (to the grouping tolerance)."""
        return bool(np.any(self.multiplicities > 1))

    @property
    def groups(self) -> tuple:
        """One :class:`EigenGroup` per eigenvalue, viewing its basis columns."""
        ends = np.cumsum(self.multiplicities)
        return tuple(
            EigenGroup(complex(value), self.basis[:, end - count:end], self.inner)
            for value, count, end in zip(self.group_values, self.multiplicities, ends)
        )

    def eigenvalues(self) -> np.ndarray:
        """Distinct (grouped) eigenvalues in |lambda| order."""
        return self.group_values

    def with_multiplicity(self, values) -> np.ndarray:
        """Per-group ``values`` repeated over each group's basis columns."""
        return np.repeat(np.asarray(values), self.multiplicities)

    def eigenvalues_with_multiplicity(self) -> np.ndarray:
        return self.with_multiplicity(self.group_values)

    def apply_function(self, values) -> np.ndarray:
        """Matrix of ``sum_j values[j] P_j``, i.e. ``V diag(values) V^H B``."""
        scaled = self.basis * self.with_multiplicity(values)
        return scaled @ self.inner.apply(self.basis).conj().T

    def apply_function_to(self, values, signal: np.ndarray) -> np.ndarray:
        """``sum_j values[j] P_j signal`` as ``V (values * (V^H B signal))``.

        ``signal`` is a vector or a matrix of column signals; no n x n
        matrix is formed.
        """
        coeffs = self.basis.conj().T @ self.inner.apply(signal)
        scale = self.with_multiplicity(values)
        return self.basis @ (scale.reshape((-1,) + (1,) * (coeffs.ndim - 1)) * coeffs)

    def reconstruct(self) -> np.ndarray:
        return self.apply_function(self.group_values)

    def spectral_projector(self, band: float) -> np.ndarray:
        """Projection onto the span of eigenspaces with ``|lambda| <= band``."""
        return self.apply_function((np.abs(self.group_values) <= band).astype(float))


def _group_eigenvalues(values: np.ndarray, tol: float):
    """Cluster |lambda|-sorted eigenvalues; indices of each merged group."""
    order = np.lexsort((values.imag, values.real, np.abs(values)))
    groups = []
    for idx in order:
        if groups:
            current = groups[-1]
            mean = np.mean(values[current])
            if abs(values[idx] - mean) <= tol:
                current.append(idx)
                continue
        groups.append([idx])
    return groups


def eigendecompose(op: OperatorWithInnerProduct) -> EigenDecomposition:
    """Eigendecompose a normal-under-B operator into grouped eigenspaces.

    Eigenvalues closer than ``DEFAULT_GROUP_TOL`` times max(spectral
    radius, 1) merge into a single eigenspace whose eigenvalue is their
    mean.  Raises :class:`DecompositionError` when the operator is
    defective to tolerance.  Callers read the cached ``op.eig`` instead.
    """
    a = op.matrix
    n = a.shape[0]
    hermitian = op.inner.is_standard and np.allclose(
        a, a.conj().T, atol=1e-12 * (1.0 + np.abs(a).max())
    )
    if hermitian:
        vals, vecs = np.linalg.eigh(a)
        vals = vals.astype(float)
    else:
        # Reweight into a Euclidean-normal matrix, then use its Schur form:
        # for a normal matrix the Schur factor is diagonal and the unitary
        # columns are orthonormal eigenvectors.
        m = op.inner.sqrt_matrix() @ a @ op.inner.inv_sqrt_matrix()
        t, z = scipy.linalg.schur(np.asarray(m, dtype=complex), output="complex")
        off = t - np.diag(np.diag(t))
        scale = 1.0 + np.abs(np.diag(t)).max()
        if np.linalg.norm(off, "fro") > 1e-7 * scale * n:
            raise DecompositionError(
                "operator is defective to tolerance; no eigendecomposition"
            )
        vals = np.diag(t)
        vecs = op.inner.inv_sqrt_matrix() @ z

    radius = float(np.abs(vals).max()) if n else 0.0
    group_tol = DEFAULT_GROUP_TOL * max(radius, 1.0)

    vals = np.asarray(vals, dtype=complex)
    index_groups = _group_eigenvalues(vals, group_tol)
    means = np.array([np.mean(vals[idxs]) for idxs in index_groups])
    return EigenDecomposition(
        group_values=means.real if hermitian else _real_if_possible(means),
        multiplicities=np.array([len(idxs) for idxs in index_groups]),
        inner=op.inner,
        basis=vecs[:, np.concatenate(index_groups)],
    )
