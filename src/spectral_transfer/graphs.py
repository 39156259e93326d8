"""Weighted undirected graphs, Laplacian variants, diagonal inner products,
eigendecomposition.

A graph is built from, and held as, three edge arrays: endpoints ``u``,
``v`` and weights ``w``.  It is checked, perturbed and coarsened as whole
arrays, with no Python loop per edge, and its Laplacian is filled from them.

Graphs are undirected only, as in the transferability theory this package
certifies: every operator is self-adjoint under a diagonal positive inner
product ``<u, v> = v^H B u``, the dot product for a graph and ``diag(1/w)``
for a sampled Laplacian, held as its n weights.  Each operator caches its
eigendecomposition as ``op.eig``, one numpy ``eigh`` of the Hermitian
``B^{1/2} A B^{-1/2}``, which every filter, bound and network layer on it
reads: each eigenvector column keeps its own eigenvalue, as ``eigh`` returns
it, so a filter acts on the operator itself.  All decompositions are dense
and direct: time grows as n^3 and memory as n^2 (one eigenbasis per
operator, no per-eigenvalue projectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SpectralTransferError

#: Relative eigenvalue-cluster tolerance (times the spectral radius).  It
#: only labels clusters of near-equal eigenvalues, for ``grouped`` and
#: ``groups``; it changes no eigenvalue.
DEFAULT_GROUP_TOL = 1e-8

#: Range of the largest squared column norm inside which the Gram matrix
#: neither overflows nor loses its top eigenvalue to underflow; likewise a
#: squared column norm in it is summed without overflow or underflow.
_GRAM_SAFE_RANGE = (2.0**-900, 2.0**900)

#: The shift operators :func:`build_laplacian` builds, by config name.
LAPLACIAN_KINDS = ("unnormalized", "normalized", "adjacency")


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

    Edge i joins ``u[i]`` and ``v[i]`` with weight ``w[i]``, held as three
    read-only arrays in input order: ``u < v`` (int64) and ``w`` (float64).
    Out-of-range endpoints, self loops, non-finite weights and duplicate
    edges in either orientation are rejected, naming the first bad edge.
    """

    n_vertices: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __init__(self, n_vertices: int, u, v, w):
        if n_vertices < 1:
            raise SpectralTransferError("graph must have at least one vertex")
        # an index beyond int64 stays a Python int (object array)
        u, v = (x if x.dtype == object else x.astype(np.int64) for x in map(np.asarray, (u, v)))
        w = np.array(w, dtype=float)
        message = _first_edge_error(n_vertices, u, v, w)
        if message:
            raise SpectralTransferError(message)
        u, v = np.minimum(u, v), np.maximum(u, v)
        for name, value in (("n_vertices", n_vertices), ("u", u), ("v", v), ("w", w)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_edges(self) -> int:
        return self.w.shape[0]


def _first_edge_error(n: int, u, v, w) -> str | None:
    """What is wrong with the first invalid edge, or None when all are valid.

    An edge is checked for its vertex range, a self loop, a non-finite
    weight and an earlier edge with the same endpoints, in that order.
    """
    if not u.size:
        return None
    # endpoints clipped into [-1, n] keep their range verdicts and int64 sorts
    top = min(n, 2**62)
    uc, vc = (np.clip(x, -1, top).astype(np.int64) for x in (u, v))
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
    return WeightedGraph(n, np.arange(n - 1), np.arange(1, n), np.ones(max(n - 1, 0)))


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """4-neighbour grid on ``rows x cols`` vertices with unit weights; edges in
    row-major vertex order, each vertex's right edge before its down edge."""
    if rows < 1 or cols < 1:
        raise SpectralTransferError(f"grid needs rows and cols >= 1, got {rows} x {cols}")
    n = rows * cols
    i = np.arange(n)
    u = np.repeat(i, 2)
    v = u + np.tile((1, cols), n)
    has = np.stack((i % cols + 1 < cols, i + cols < n), axis=1).ravel()
    return WeightedGraph(n, u[has], v[has], np.ones(np.count_nonzero(has)))


def random_geometric_graph(n: int, radius: float, seed: int) -> WeightedGraph:
    """Unit-weight geometric graph on ``n`` seeded uniform points in [0,1]^2.

    Vertices are connected when their Euclidean distance is at most
    ``radius``.  The same seed produces the identical graph.
    """
    if radius < 0:
        raise SpectralTransferError(f"radius must be nonnegative, got {radius:g}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = rng.uniform(size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    # row-major, so edges come in (i, j) order with i < j
    rows, cols = np.nonzero(np.triu(dist <= radius, 1))
    return WeightedGraph(n, rows, cols, np.ones(rows.size))


@dataclass(frozen=True)
class InnerProduct:
    """Diagonal inner product ``<u, v> = v^H B u`` with ``B = diag(b)``.

    ``b`` is a 1-D array of positive real weights; B and its square roots
    act by scaling rows, and ``b_matrix`` builds the dense B on request.
    """

    b: np.ndarray
    _sqrt: np.ndarray = field(init=False, repr=False, compare=False)
    _inv_sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.b)
        if b.ndim != 1:
            raise SpectralTransferError("B must be given as a 1-D array of weights")
        if np.iscomplexobj(b) or not np.all(b > 0):
            raise SpectralTransferError(
                f"B must have positive real weights (min weight {b.real.min():.3e})"
            )
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_sqrt", np.sqrt(b))
        object.__setattr__(self, "_inv_sqrt", 1.0 / self._sqrt)

    @classmethod
    def standard(cls, n: int) -> "InnerProduct":
        return cls(np.ones(n))

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @property
    def b_matrix(self) -> np.ndarray:
        """The dense n x n matrix B, built on each access."""
        return np.diag(self.b)

    @cached_property
    def is_standard(self) -> bool:
        return bool(np.all(self.b == 1.0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``B x`` for a vector or matrix ``x``; ``x`` itself when B = I."""
        return self._times(self.b, x)

    def apply_sqrt(self, x: np.ndarray) -> np.ndarray:
        """``B^{1/2} x``, whose Euclidean norms are the B-norms of ``x``."""
        return self._times(self._sqrt, x)

    def apply_inv_sqrt(self, x: np.ndarray) -> np.ndarray:
        """``B^{-1/2} x``, which maps orthonormal columns to B-orthonormal ones."""
        return self._times(self._inv_sqrt, x)

    def _times(self, factor: np.ndarray, x: np.ndarray) -> np.ndarray:
        # factor holds the diagonal of B or of a root of B
        if self.is_standard:
            return x
        return factor.reshape(factor.shape + (1,) * (np.ndim(x) - 1)) * x


@dataclass(frozen=True)
class OperatorWithInnerProduct:
    """A square matrix A paired with the inner product B under which it is
    self-adjoint, that is ``B A`` is Hermitian."""

    matrix: np.ndarray
    inner: InnerProduct

    #: Relative self-adjointness tolerance: the largest entry of
    #: ``B A - (B A)^H`` is compared against this times the largest of ``B A``.
    _SYMMETRY_RTOL = 1e-10

    def __post_init__(self):
        a = np.asarray(self.matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SpectralTransferError("operator matrix must be square")
        if a.shape[0] != self.inner.dim:
            raise SpectralTransferError("operator and inner product dimensions differ")
        object.__setattr__(self, "matrix", a)
        if self.inner.is_standard and np.array_equal(a, a.conj().T):
            return
        ba = self.inner.apply(a)
        scale = np.abs(ba).max(initial=0.0)
        diff = ba - ba.conj().T
        defect = np.abs(diff, out=diff).max(initial=0.0).real  # no third n x n array
        if defect > self._SYMMETRY_RTOL * scale:
            raise SpectralTransferError(
                f"operator is not self-adjoint under the given inner product "
                f"(largest entry of B A - (B A)^H {defect:.3e})"
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
        """The eigendecomposition, computed once per operator."""
        return eigendecompose(self)


def build_laplacian(graph: WeightedGraph, kind: str) -> OperatorWithInnerProduct:
    """Build a shift operator for ``graph``, symmetric under the dot product.

    ``kind`` selects the unnormalized Laplacian ``D - W``, the normalized
    Laplacian ``I - D^{-1/2} W D^{-1/2}``, or the adjacency matrix ``W``
    itself, each formed in place in the one n x n matrix the edge arrays
    fill.  A degree beyond the float range is an error for both Laplacians.
    """
    if kind not in LAPLACIAN_KINDS:
        raise SpectralTransferError(f"unknown laplacian kind {kind!r}")
    n = graph.n_vertices
    try:
        mat = np.zeros((n, n))
    except (MemoryError, ValueError):
        raise SpectralTransferError(
            f"graph of {n} vertices needs a dense {n}x{n} matrix of "
            f"{8 * n * n / 2**30:.3g} GiB, which cannot be allocated"
        ) from None
    mat[graph.u, graph.v] = graph.w
    mat[graph.v, graph.u] = graph.w
    if kind == "adjacency":
        return OperatorWithInnerProduct.symmetric(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        deg = mat.sum(axis=1)
    if not np.isfinite(deg).all():
        bad = int(np.argmax(~np.isfinite(deg)))
        raise SpectralTransferError(f"vertex {bad} has degree {deg[bad]:g}; its edge weights "
                                    "sum beyond the float range")
    if kind == "normalized":
        if np.any(deg <= 0):
            bad = int(np.argmin(deg))
            raise SpectralTransferError(f"vertex {bad} has degree {deg[bad]:g}; normalized "
                                        "Laplacian undefined")
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        mat *= d_inv_sqrt[:, None]
        mat *= d_inv_sqrt
        deg = 1.0  # the diagonal of I
    # 0.0 - x, as in D - W, so a zero weight gives 0.0, never -0.0
    np.subtract(0.0, mat, out=mat)
    np.fill_diagonal(mat, deg)
    return OperatorWithInnerProduct.symmetric(mat)


@dataclass(frozen=True)
class EigenGroup:
    """One cluster of eigenvalues with its B-orthonormal basis columns;
    ``eigenvalue`` is the value of its last column."""

    eigenvalue: float
    columns: np.ndarray
    inner: InnerProduct

    @property
    def projection(self) -> np.ndarray:
        """Eigenprojection ``C C^H B``; built on each access, never stored."""
        return self.columns @ self.inner.apply(self.columns).conj().T


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and eigenvectors, ordered by increasing ``|lambda|``.

    ``basis`` holds B-orthonormal eigenvector columns and ``values`` the
    eigenvalue of each column, nondecreasing in ``|lambda|`` (ties by
    lambda), so ``A V = V diag(values)``.  Cluster j of near-equal
    eigenvalues spans the next ``multiplicities[j]`` columns.
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
        """True when some eigenvalue is repeated (to the cluster tolerance)."""
        return bool(np.any(self.multiplicities > 1))

    @property
    def groups(self) -> tuple:
        """One :class:`EigenGroup` per cluster, viewing its basis columns."""
        ends = np.cumsum(self.multiplicities)
        return tuple(
            EigenGroup(float(self.values[end - 1]), self.basis[:, end - count:end], self.inner)
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


def eigendecompose(op: OperatorWithInnerProduct) -> EigenDecomposition:
    """Eigendecompose an operator self-adjoint under B.

    One ``eigh`` of the Hermitian ``B^{1/2} A B^{-1/2}``, whose orthonormal
    eigenvectors ``B^{-1/2}`` maps to B-orthonormal ones, ordered by
    ``|lambda|`` and then by lambda; every column keeps the eigenvalue
    ``eigh`` gave it.  ``multiplicities`` counts the runs of consecutive
    eigenvalues at most ``DEFAULT_GROUP_TOL`` times max(spectral radius, 1)
    apart.  Callers read the cached ``op.eig`` instead.
    """
    inner = op.inner
    vals, vecs = np.linalg.eigh(inner.apply_inv_sqrt(inner.apply_sqrt(op.matrix).T).T)
    order = np.lexsort((vals, np.abs(vals)))
    values = vals[order]
    tol = DEFAULT_GROUP_TOL * max(np.abs(values).max(initial=0.0), 1.0)
    starts = np.flatnonzero(np.r_[True, np.abs(np.diff(values)) > tol])
    return EigenDecomposition(
        values=values,
        multiplicities=np.diff(np.r_[starts, values.size]),
        inner=inner,
        basis=inner.apply_inv_sqrt(vecs)[:, order],
    )
