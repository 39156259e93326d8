"""Weighted graphs, Laplacian variants, custom inner products, eigendecomposition.

A graph holds its edges as three arrays, endpoints ``u``, ``v`` and weights
``w``; it is checked, filled into its adjacency matrix and perturbed
(``sampling.perturb_graph_detailed``) as whole arrays, with no Python loop
per edge.  The ``edges`` tuple of ``(u, v, w)`` triples is a view built on
request, which the ConvNet's graph coarsening reads.

Operators that are not symmetric matrices are handled as normal operators
under a constructed inner product ``<u, v> = v^H B u``: for a diagonalizable
matrix with eigenvector matrix G, ``B = G^{-H} G^{-1}`` makes the matrix
normal, its adjoint is ``B^{-1} A^H B``, and eigenprojections are
B-orthogonal.  Each operator caches its eigendecomposition as ``op.eig``,
which every filter, bound and network layer on it reads.  All
decompositions are dense and direct: time grows as n^3 and memory as n^2
(one eigenbasis per operator, no per-eigenvalue projectors).  A diagonal B,
the dot product included, is held as its n weights, and only a directed
graph's B as a matrix: an operator of random-geometric(1000, 0.06) holds its
8.0 MB matrix plus 26 kB (tracemalloc).  Every Hermitian eigenvalue solve is
numpy's ``eigvalsh``; scipy.linalg loads only for a directed (non-Hermitian)
operator's Schur form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

#: Range of the largest squared column norm inside which the Gram matrix
#: neither overflows nor loses its top eigenvalue to underflow; likewise a
#: squared column norm in it is summed without overflow or underflow.
_GRAM_SAFE_RANGE = (2.0**-900, 2.0**900)


def column_norms(mat: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of ``mat``, free of overflow and underflow.

    A column whose squared norm leaves ``_GRAM_SAFE_RANGE`` is summed again
    after scaling by a power of two, from its largest entry; every other
    column is summed as it is.  Non-finite entries give non-finite norms.
    """
    mat = np.asarray(mat)
    low, high = _GRAM_SAFE_RANGE
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=0)
        redo = np.flatnonzero(~((low <= norms * norms) & (norms * norms <= high)))
    if redo.size:
        cols = mat[:, redo]
        peaks = np.abs(cols).max(axis=0, initial=0.0)
        finite = np.isfinite(peaks) & (peaks > 0.0)
        scale = unit_scale(peaks[finite])
        with np.errstate(over="ignore"):
            norms[redo[finite]] = np.linalg.norm(cols[:, finite] * scale, axis=0) / scale
    return norms


def frobenius_norm(mat: np.ndarray) -> float:
    """Frobenius norm of ``mat``, free of overflow and underflow.

    numpy's norm when its square lies in ``_GRAM_SAFE_RANGE``; otherwise
    the rescaled norm that :func:`column_norms` gives the entries taken as
    one column.  Non-finite entries give a non-finite norm.
    """
    mat = np.asarray(mat)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(mat))
    low, high = _GRAM_SAFE_RANGE
    if low <= norm * norm <= high:
        return norm
    return float(column_norms(mat.reshape(-1, 1))[0])


def unit_scale(peak):
    """Power of two that brings ``peak`` near 1, exact bar entries far too
    small to move a norm; the clamp keeps it finite for a subnormal peak."""
    return np.ldexp(1.0, np.clip(-np.frexp(peak)[1], -1000, 1000))


def operator_norm(mat: np.ndarray) -> float:
    """Spectral norm (largest singular value) of the matrix ``mat``.

    The square root of the largest eigenvalue of the smaller Gram matrix,
    ``A^H A`` or ``A A^H``, which is accurate to about machine epsilon
    relative to the norm; where that Gram matrix leaves its safe range,
    the norm of ``mat`` scaled by a power of two.  An empty matrix has norm
    0 and a norm beyond the float range is ``inf``; a non-finite entry
    raises :class:`numpy.linalg.LinAlgError`, as a full SVD does.
    """
    mat = np.asarray(mat)
    if mat.shape[0] < mat.shape[1]:
        # the conjugate of A A^H has the same eigenvalues
        mat = mat.T
    left = mat.conj().T if np.iscomplexobj(mat) else mat.T
    with np.errstate(over="ignore", invalid="ignore"):
        gram = left @ mat
    # the squared column norms; a non-finite entry makes its column's one
    # non-finite
    top_column = gram.diagonal().real.max(initial=0.0)
    low, high = _GRAM_SAFE_RANGE
    if not low <= top_column <= high:
        # an empty or zero matrix has norm 0
        peak = np.abs(mat).max(initial=0.0)
        if not np.isfinite(peak):
            raise np.linalg.LinAlgError("operator norm of a matrix with non-finite entries")
        if peak == 0.0:
            return 0.0
        scale = unit_scale(peak)
        with np.errstate(over="ignore"):
            return float(operator_norm(mat * scale) / scale)
    return float(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[-1], 0.0)))


def hermitian_norm(mat: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix: its largest eigenvalue modulus.

    One eigensolve of the Hermitian part of ``mat``, which absorbs roundoff
    asymmetry, and no Gram product.  As in :func:`operator_norm`, an empty
    matrix has norm 0, a norm beyond the float range is ``inf`` and a
    non-finite entry raises :class:`numpy.linalg.LinAlgError`.
    """
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("operator norm of a matrix with non-finite entries")
    # halved before the sum, which then cannot overflow
    vals = np.linalg.eigvalsh(0.5 * mat + 0.5 * mat.conj().T)
    return float(max(abs(vals[0]), abs(vals[-1])))


@dataclass(frozen=True, init=False, eq=False)
class WeightedGraph:
    """A weighted graph: the discrete domain of all transfer settings.

    Edges are held as three read-only arrays in input order: endpoints ``u``
    and ``v`` (int64) and weights ``w`` (float64).  Undirected graphs keep
    each edge once with ``u < v``; directed graphs keep endpoints as given.
    Self loops, duplicate edges (either orientation when undirected), and
    non-finite weights are rejected, naming the first bad edge.  ``edges``
    is the ``(u, v, w)`` tuple view, built on each access.
    """

    n_vertices: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    directed: bool

    def __init__(self, n_vertices: int, edges=(), directed: bool = False):
        """Graph of ``(u, v, w)`` triples."""
        rows = tuple(edges)
        u, v, w = zip(*rows) if rows else ((), (), ())
        self._store(n_vertices, np.array(u), np.array(v), np.array(w, dtype=float),
                    directed)

    @classmethod
    def from_arrays(cls, n_vertices: int, u, v, w,
                    directed: bool = False) -> "WeightedGraph":
        """Graph of the edges ``(u[i], v[i], w[i])``, checked as triples are."""
        graph = cls.__new__(cls)
        graph._store(n_vertices, np.asarray(u), np.asarray(v),
                     np.array(w, dtype=float), directed)
        return graph

    def _store(self, n_vertices, u, v, w, directed):
        if n_vertices < 1:
            raise GraphError("graph must have at least one vertex")
        # an index beyond int64 stays a Python int (object array)
        u, v = (x if x.dtype == object else x.astype(np.int64) for x in (u, v))
        message = _first_edge_error(n_vertices, u, v, w, directed)
        if message:
            raise GraphError(message)
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        for name, value in (("n_vertices", n_vertices), ("u", u), ("v", v),
                            ("w", w), ("directed", directed)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def edges(self) -> tuple:
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def n_edges(self) -> int:
        return self.w.shape[0]

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix W; symmetric when undirected."""
        n = self.n_vertices
        try:
            w_mat = np.zeros((n, n))
        except (MemoryError, ValueError):
            raise GraphError(
                f"graph of {n} vertices needs a dense {n}x{n} matrix of "
                f"{8 * n * n / 2**30:.3g} GiB, which cannot be allocated"
            ) from None
        w_mat[self.u, self.v] = self.w
        if not self.directed:
            w_mat[self.v, self.u] = self.w
        return w_mat


def _first_edge_error(n: int, u, v, w, directed: bool) -> str | None:
    """What is wrong with the first invalid edge, or None when all are valid.

    An edge is checked for its vertex range, a self loop, a non-finite
    weight and an earlier edge with the same endpoints, in that order.
    """
    if not u.size:
        return None
    # endpoints clipped into [-1, n] keep their range verdicts and int64 sorts
    top = min(n, 2**62)
    uc, vc = (np.clip(x, -1, top).astype(np.int64) for x in (u, v))
    if not directed:
        uc, vc = np.minimum(uc, vc), np.maximum(uc, vc)
    order = np.lexsort((vc, uc))  # stable: a repeat sorts after its first
    repeat = np.zeros(u.size, dtype=bool)
    repeat[order[1:]] = (np.diff(uc[order]) == 0) & (np.diff(vc[order]) == 0)
    checks = (
        ((uc < 0) | (uc >= n) | (vc < 0) | (vc >= n),
         "edge ({0}, {1}) outside vertex range"),
        (u == v, "self loop at vertex {0}"),
        (~np.isfinite(w), "non-finite weight on edge ({0}, {1})"),
        (repeat, "duplicate edge ({0}, {1})"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    first = int(np.argmax(bad))
    message = next(message for mask, message in checks if mask[first])
    return message.format(int(u[first]), int(v[first]))


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
    # row-major, so edges come in (i, j) order with i < j
    rows, cols = np.nonzero(np.triu(dist <= radius, 1))
    return WeightedGraph.from_arrays(n, rows, cols, np.ones(rows.size))


@dataclass(frozen=True)
class InnerProduct:
    """Hermitian positive-definite matrix B defining ``<u, v> = v^H B u``.

    ``b`` is a 1-D array of weights or a 2-D matrix.  A diagonal B is held as
    its weights and acts by scaling rows; only a full B is held n x n, with
    ``eigh`` square roots.  ``b_matrix`` builds the dense B on request.
    """

    b: np.ndarray
    _sqrt: np.ndarray = field(init=False, repr=False, compare=False)
    _inv_sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.b)
        if b.ndim == 2 and b.shape[0] == b.shape[1]:
            if np.count_nonzero(b) == np.count_nonzero(np.diag(b)):
                b = np.diag(b)
        elif b.ndim != 1:
            raise InvalidInnerProductError("B must be square")
        # A diagonal B is Hermitian exactly when its weights are real, so
        # only a full B needs the O(n^2) comparison with its adjoint.
        if not np.allclose(b, b.conj().T, atol=1e-10 * (1.0 + np.abs(b).max())):
            raise InvalidInnerProductError("B must be Hermitian")
        if b.ndim == 1:
            if b.min() <= 0 or np.abs(b.imag).max() > 0:
                raise InvalidInnerProductError(
                    f"B must be positive definite (min diagonal {b.real.min():.3e})"
                )
            b = b.real
            roots = np.sqrt(b), 1.0 / np.sqrt(b)
        else:
            vals, vecs = np.linalg.eigh(b)
            if vals.min() <= 0:
                raise InvalidInnerProductError(
                    f"B must be positive definite (min eigenvalue {vals.min():.3e})"
                )
            roots = ((vecs * np.sqrt(vals)) @ vecs.conj().T,
                     (vecs / np.sqrt(vals)) @ vecs.conj().T)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_sqrt", roots[0])
        object.__setattr__(self, "_inv_sqrt", roots[1])

    @classmethod
    def standard(cls, n: int) -> "InnerProduct":
        return cls(np.ones(n))

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
        return self.b.shape[0]

    @property
    def b_matrix(self) -> np.ndarray:
        """The dense n x n matrix B, built on each access."""
        return np.diag(self.b) if self.b.ndim == 1 else self.b

    @cached_property
    def is_standard(self) -> bool:
        return self.b.ndim == 1 and bool(np.all(self.b == 1.0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``B x`` for a vector or matrix ``x``; ``x`` itself when B = I."""
        return self._times(self.b, x)

    def apply_sqrt(self, x: np.ndarray) -> np.ndarray:
        """``B^{1/2} x``, whose Euclidean norms are the B-norms of ``x``."""
        return self._times(self._sqrt, x)

    def _times(self, factor: np.ndarray, x: np.ndarray) -> np.ndarray:
        # factor is B or a root of B, held in the same form as B
        if self.is_standard:
            return x
        if factor.ndim == 1:
            return factor.reshape(factor.shape + (1,) * (np.ndim(x) - 1)) * x
        return factor @ x

    def norm(self, u: np.ndarray) -> float:
        """Norm of the vector ``u`` under this inner product."""
        return float(self.column_norms(np.asarray(u)[:, None])[0])

    def weighted_operator_norm(self, mat: np.ndarray) -> float:
        """Operator norm of ``mat``, Euclidean norm in and B-norm out."""
        return operator_norm(self.apply_sqrt(mat))

    def column_norms(self, mat: np.ndarray) -> np.ndarray:
        """Norm under this inner product of each column of ``mat``."""
        return column_norms(self.apply_sqrt(mat))


def adjoint_wrt(a: np.ndarray, inner: InnerProduct) -> np.ndarray:
    """Matrix of the adjoint under ``inner``: ``B^{-1} A^H B``."""
    a = np.asarray(a)
    if a.shape[0] != a.shape[1] or a.shape[0] != inner.dim:
        raise InvalidInnerProductError("operator and inner product dimensions differ")
    if inner.b.ndim == 1:
        return (a.conj().T * inner.b) / inner.b[:, None]
    return np.linalg.solve(inner.b, a.conj().T @ inner.b)


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
        if self.inner.is_standard and np.array_equal(a, a.conj().T):
            return  # a Hermitian matrix is normal
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
    def projection(self) -> np.ndarray:
        """Eigenprojection ``C C^H B``; built on each access, never stored."""
        return self.columns @ self.inner.apply(self.columns).conj().T


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues grouped into eigenspaces, ordered by increasing ``|lambda|``.

    ``basis`` holds B-orthonormal eigenvector columns, group by group, and
    ``values`` one eigenvalue per column: group j spans the next
    ``multiplicities[j]`` columns, each holding its group's mean eigenvalue.
    A spectral function g acts as ``V g(Lambda) V^H B``, so the
    decomposition stores one n x n matrix in all, and no eigenprojection is
    formed unless asked for.
    """

    values: np.ndarray
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
            EigenGroup(complex(self.values[end - 1]), self.basis[:, end - count:end], self.inner)
            for count, end in zip(self.multiplicities, ends)
        )

    def apply_function(self, values) -> np.ndarray:
        """Matrix of ``V diag(values) V^H B``, one value per basis column."""
        scaled = self.basis * np.asarray(values)
        return scaled @ self.inner.apply(self.basis).conj().T

    def apply_function_to(self, values, signal: np.ndarray) -> np.ndarray:
        """``V (values * (V^H B signal))``, one value per basis column.

        ``signal`` is a vector or a matrix of column signals; no n x n
        matrix is formed.
        """
        coeffs = self.basis.conj().T @ self.inner.apply(signal)
        scale = np.asarray(values)
        return self.basis @ (scale.reshape((-1,) + (1,) * (coeffs.ndim - 1)) * coeffs)


def _group_eigenvalues(values: np.ndarray, tol: float):
    """Cluster |lambda|-sorted eigenvalues; indices of each merged group."""
    order = np.lexsort((values.imag, values.real, np.abs(values)))
    groups = []
    total = mean = 0.0
    for idx, value in zip(order.tolist(), values[order].tolist()):
        if groups:
            current = groups[-1]
            gap = abs(value - mean)
            if abs(gap - tol) <= 1e-12 * (1.0 + abs(value)):
                # near tol, decide with np.mean: the running mean may be an ulp off
                gap = abs(values[idx] - np.mean(values[current]))
            if gap <= tol:
                current.append(idx)
                total += value
                mean = total / len(current)
                continue
        groups.append([idx])
        total = mean = value
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
        # Reweight into the Euclidean-normal B^{1/2} A B^{-1/2}, then use its
        # Schur form: for a normal matrix the Schur factor is diagonal and
        # the unitary columns are orthonormal eigenvectors.
        import scipy.linalg

        inner = op.inner
        m = inner.apply_sqrt(a)
        m = m * inner._inv_sqrt if inner.b.ndim == 1 else m @ inner._inv_sqrt
        t, z = scipy.linalg.schur(np.asarray(m, dtype=complex), output="complex")
        off = t - np.diag(np.diag(t))
        scale = 1.0 + np.abs(np.diag(t)).max()
        if np.linalg.norm(off, "fro") > 1e-7 * scale * n:
            raise DecompositionError(
                "operator is defective to tolerance; no eigendecomposition"
            )
        vals = np.diag(t)
        vecs = inner._times(inner._inv_sqrt, z)

    radius = float(np.abs(vals).max()) if n else 0.0
    group_tol = DEFAULT_GROUP_TOL * max(radius, 1.0)

    vals = np.asarray(vals, dtype=complex)
    index_groups = _group_eigenvalues(vals, group_tol)
    counts = np.array([len(idxs) for idxs in index_groups])
    order = np.concatenate(index_groups)
    # a singleton's mean is its value; only a merged group needs np.mean
    means = vals[order[np.cumsum(counts) - counts]]
    for j in np.flatnonzero(counts > 1):
        means[j] = np.mean(vals[index_groups[j]])
    return EigenDecomposition(
        values=np.repeat(means.real if hermitian else _real_if_possible(means), counts),
        multiplicities=counts,
        inner=op.inner,
        basis=vecs[:, order],
    )
