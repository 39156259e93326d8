"""Models of the underlying space that graphs discretize.

Three concrete models share one small interface (ordered eigenpairs up to a
band, band-limited projection, diagonal Laplacian action):

* :class:`CircleSpace` -- the unit circle [0, 1) with total measure 1, the
  real trigonometric basis {1, sqrt2 cos(2 pi n x), sqrt2 sin(2 pi n x)} and
  eigenvalue n^2 (second derivative scaled by -(2 pi)^{-2});
* :class:`GraphSpace` -- a weighted graph playing the "continuous" role, as
  in coarsening and perturbation settings;
* :class:`BandlimitedKernel` / :class:`KernelSpace` -- the integral operator
  with kernel H(x0, x) = sum_m phi_m(x0) lambda_m phi_m(x) truncated at a
  kernel band, which acts like the Laplacian composed with the band
  projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BandError, IntegrationError
from .graphs import EigenDecomposition, OperatorWithInnerProduct, WeightedGraph

#: Refinement-based trapezoid quadrature stops when successive estimates
#: differ by less than this.
QUADRATURE_TOL = 1e-10
_MAX_GRID = 1 << 20


class CircleSpace:
    """Unit circle with measure 1 and eigenvalues n^2.

    Eigenpairs are ordered constant first, then cosine before sine within
    each frequency: (0, 1), (1, sqrt2 cos), (1, sqrt2 sin), (4, ...), ...
    """

    total_measure = 1.0

    @staticmethod
    def max_frequency(band: float) -> int:
        """Largest n with n^2 <= band."""
        if band < 0:
            raise BandError("band must be nonnegative")
        n = int(np.floor(np.sqrt(band * (1.0 + 1e-12))))
        while (n + 1) ** 2 <= band * (1.0 + 1e-12):
            n += 1
        return n

    def eigenvalues_up_to(self, band: float) -> np.ndarray:
        n_max = self.max_frequency(band)
        vals = [0.0]
        for n in range(1, n_max + 1):
            vals.extend([float(n * n)] * 2)
        return np.array(vals)

    def count_eig_leq(self, band: float) -> int:
        return 1 + 2 * self.max_frequency(band)

    def dim_pw(self, band: float) -> int:
        return self.count_eig_leq(band)

    def basis_matrix(self, points, band: float) -> np.ndarray:
        """Eigenfunction evaluations, shape (len(points), dim PW(band))."""
        x = np.atleast_1d(np.asarray(points, dtype=float))
        n_max = self.max_frequency(band)
        cols = [np.ones_like(x)]
        root2 = np.sqrt(2.0)
        for n in range(1, n_max + 1):
            cols.append(root2 * np.cos(2.0 * np.pi * n * x))
            cols.append(root2 * np.sin(2.0 * np.pi * n * x))
        return np.stack(cols, axis=1)

    def eigenpairs_up_to(self, band: float):
        """Ordered (eigenvalue, callable) pairs with |lambda| <= band."""
        vals = self.eigenvalues_up_to(band)
        pairs = []
        for m, lam in enumerate(vals):
            pairs.append((lam, self._basis_callable(m)))
        return pairs

    def _basis_callable(self, index: int):
        if index == 0:
            return lambda x: np.ones_like(np.asarray(x, dtype=float))
        n = (index + 1) // 2
        if index % 2 == 1:
            return lambda x: np.sqrt(2.0) * np.cos(2.0 * np.pi * n * np.asarray(x))
        return lambda x: np.sqrt(2.0) * np.sin(2.0 * np.pi * n * np.asarray(x))

    def synthesize(self, coeffs: np.ndarray, points) -> np.ndarray:
        """Evaluate the PW signal with the given coefficients at points."""
        coeffs = np.asarray(coeffs)
        band = self.band_of_dim(coeffs.shape[0])
        return self.basis_matrix(points, band) @ coeffs

    def band_of_dim(self, dim: int) -> float:
        """Band whose PW space has exactly ``dim`` basis functions."""
        if dim < 1 or dim % 2 == 0:
            raise BandError(f"no circle PW space has dimension {dim}")
        n_max = (dim - 1) // 2
        return float(n_max * n_max)

    def analyze_grid(self, grid_values: np.ndarray, band: float) -> np.ndarray:
        """Coefficients up to ``band`` from values on a uniform grid.

        The uniform-grid trapezoid rule on the circle is the plain mean and
        is exact for trigonometric polynomials of frequency below the grid
        size minus the basis frequency.
        """
        grid_values = np.asarray(grid_values)
        q = grid_values.shape[0]
        grid = np.arange(q) / q
        phi = self.basis_matrix(grid, band)
        return phi.T @ grid_values / q

    def project_callable(self, func, band: float) -> np.ndarray:
        """Adaptive trapezoid projection of a callable signal onto PW(band).

        Doubles the grid from 256 points (or 8 per frequency) until
        successive coefficient vectors agree to QUADRATURE_TOL; raises
        :class:`IntegrationError` if the budget runs out before convergence.
        """
        n_max = self.max_frequency(band)
        q = max(256, 8 * (n_max + 1))
        prev = None
        while q <= _MAX_GRID:
            grid = np.arange(q) / q
            coeffs = self.basis_matrix(grid, band).T @ np.asarray(func(grid)) / q
            if prev is not None and np.abs(coeffs - prev).max() < QUADRATURE_TOL:
                return coeffs
            prev = coeffs
            q *= 2
        raise IntegrationError(
            f"projection quadrature did not converge below {QUADRATURE_TOL:g}"
        )

    def project_pw(self, band: float, signal) -> np.ndarray:
        """Spectral projection onto PW(band).

        ``signal`` is either a callable on [0, 1) or a coefficient vector in
        this space's ordering (then the projection is truncation or
        zero-padding).  Idempotent.
        """
        dim = self.dim_pw(band)
        if callable(signal):
            return self.project_callable(signal, band)
        coeffs = np.asarray(signal)
        out = np.zeros(dim, dtype=coeffs.dtype)
        k = min(dim, coeffs.shape[0])
        out[:k] = coeffs[:k]
        return out

    def apply_laplacian(self, coeffs: np.ndarray) -> np.ndarray:
        """Diagonal action: multiply each coefficient by its eigenvalue."""
        coeffs = np.asarray(coeffs)
        band = self.band_of_dim(coeffs.shape[0])
        return self.eigenvalues_up_to(band) * coeffs

    def sup_norm_of_basis(self, band: float) -> float:
        return np.sqrt(2.0) if self.max_frequency(band) >= 1 else 1.0


@dataclass(frozen=True)
class GraphSpace:
    """A weighted graph in the "continuous" role of a transfer setting."""

    graph: WeightedGraph
    operator: OperatorWithInnerProduct
    eig: EigenDecomposition = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "eig", self.operator.eig)  # eager, on purpose

    @classmethod
    def from_graph(cls, graph: WeightedGraph, kind: str = "unnormalized") -> "GraphSpace":
        from .graphs import build_laplacian

        return cls(graph, build_laplacian(graph, kind))

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    def eigenvalues_up_to(self, band: float) -> np.ndarray:
        vals = self.eig.eigenvalues_with_multiplicity()
        return vals[np.abs(vals) <= band * (1.0 + 1e-12)]

    def count_eig_leq(self, band: float) -> int:
        return int(self.eigenvalues_up_to(band).shape[0])

    dim_pw = count_eig_leq

    def full_band(self) -> float:
        vals = self.eig.eigenvalues_with_multiplicity()
        return float(np.abs(vals).max())

    def pw_basis(self, band: float) -> np.ndarray:
        """B-orthonormal eigenvector columns with |lambda| <= band."""
        vals = self.eig.eigenvalues_with_multiplicity()
        keep = np.abs(vals) <= band * (1.0 + 1e-12)
        return self.eig.basis[:, keep]

    def eigenpairs_up_to(self, band: float):
        basis = self.pw_basis(band)
        vals = self.eigenvalues_up_to(band)
        return [(vals[m], basis[:, m]) for m in range(len(vals))]

    def project_pw(self, band: float, signal: np.ndarray) -> np.ndarray:
        """Coefficients <s, phi_m>_B for the eigenvectors inside the band."""
        basis = self.pw_basis(band)
        return basis.conj().T @ self.operator.inner.apply(np.asarray(signal))

    def synthesize(self, coeffs: np.ndarray, band: float) -> np.ndarray:
        return self.pw_basis(band) @ np.asarray(coeffs)

    def apply_laplacian(self, coeffs: np.ndarray, band: float) -> np.ndarray:
        return self.eigenvalues_up_to(band) * np.asarray(coeffs)

    def projector_matrix(self, band: float) -> np.ndarray:
        return self.eig.spectral_projector(band)


@dataclass(frozen=True)
class BandlimitedKernel:
    """Symmetric kernel H(x0, x) = sum_{m <= Mbar} phi_m(x0) lambda_m phi_m(x).

    The induced integral operator agrees with the Laplacian composed with
    the band projection, so on PW(lambda) with lambda below the kernel band
    it acts exactly like the Laplacian.
    """

    space: CircleSpace
    band: float
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", self.space.eigenvalues_up_to(self.band)
        )

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def lambda_l1(self) -> float:
        """Sum of |lambda_m| over the kernel band, with multiplicity."""
        return float(np.abs(self.eigenvalues).sum())

    def l2_norm(self) -> float:
        """Exact L2(M x M) norm: the terms are orthonormal rank-one pieces."""
        return float(np.sqrt((self.eigenvalues**2).sum()))

    def evaluate(self, x0, x) -> np.ndarray:
        """Kernel matrix H[x0_i, x_j]."""
        phi0 = self.space.basis_matrix(np.atleast_1d(x0), self.band)
        phi1 = self.space.basis_matrix(np.atleast_1d(x), self.band)
        return (phi0 * self.eigenvalues) @ phi1.T

    def l2_norm_by_quadrature(self, grid: int = 512) -> float:
        """Independent check of the L2 norm on a tensor grid."""
        xs = np.arange(grid) / grid
        h = self.evaluate(xs, xs)
        return float(np.sqrt((h**2).sum() / grid**2))


def bandlimited_kernel(space: CircleSpace, band: float) -> BandlimitedKernel:
    """Kernel evaluator for the band-limited Laplacian; see the class docs."""
    if band < 0:
        raise BandError("kernel band must be nonnegative")
    return BandlimitedKernel(space, band)


@dataclass(frozen=True)
class KernelSpace:
    """The kernel variant of the continuous space.

    Delegates the eigenstructure to its base space but exposes the kernel
    quadrature route for the Laplacian action, so the diagonal action can be
    cross-checked against direct integration.
    """

    kernel: BandlimitedKernel

    @property
    def base(self) -> CircleSpace:
        return self.kernel.space

    def eigenvalues_up_to(self, band: float) -> np.ndarray:
        if band > self.kernel.band:
            raise BandError(
                f"band {band:g} exceeds the kernel band {self.kernel.band:g}"
            )
        return self.base.eigenvalues_up_to(band)

    def count_eig_leq(self, band: float) -> int:
        return int(self.eigenvalues_up_to(band).shape[0])

    def apply_laplacian(self, coeffs: np.ndarray) -> np.ndarray:
        return self.base.apply_laplacian(coeffs)

    def apply_by_quadrature(self, coeffs: np.ndarray, grid: int = 2048) -> np.ndarray:
        """Laplacian action via integral quadrature of the kernel.

        Computes coefficients of x0 -> integral H(x0, x) f(x) dx on a fine
        uniform grid; the diagonal route must agree to quadrature accuracy.
        """
        coeffs = np.asarray(coeffs)
        band = self.base.band_of_dim(coeffs.shape[0])
        xs = np.arange(grid) / grid
        f_vals = self.base.synthesize(coeffs, xs)
        lf_vals = self.kernel.evaluate(xs, xs) @ f_vals / grid
        return self.base.analyze_grid(lf_vals, band)
