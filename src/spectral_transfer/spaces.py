"""Models of the underlying space that graphs discretize.

* :class:`CircleSpace` -- the unit circle [0, 1) with total measure 1, the
  real trigonometric basis {1, sqrt2 cos(2 pi n x), sqrt2 sin(2 pi n x)} and
  eigenvalue n^2 (second derivative scaled by -(2 pi)^{-2}); signals are
  evaluated through :meth:`CircleSpace.basis_matrix` and analyzed from
  uniform grids;
* :class:`GraphSpace` -- a weighted graph playing the "continuous" role, as
  in coarsening and perturbation settings; band-limited signals live in the
  span of its B-orthonormal eigenvectors;
* :class:`BandlimitedKernel` -- the kernel H(x0, x) = sum_m phi_m(x0)
  lambda_m phi_m(x) truncated at a kernel band, whose integral operator
  acts like the circle Laplacian composed with the band projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BandError
from .graphs import EigenDecomposition, OperatorWithInnerProduct, WeightedGraph, build_laplacian


class CircleSpace:
    """Unit circle with measure 1 and eigenvalues n^2.

    Eigenpairs are ordered constant first, then cosine before sine within
    each frequency: (0, 1), (1, sqrt2 cos), (1, sqrt2 sin), (4, ...), ...
    """

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

    def dim_pw(self, band: float) -> int:
        return 1 + 2 * self.max_frequency(band)

    def basis_matrix(self, points, band: float) -> np.ndarray:
        """Eigenfunction evaluations, shape ``points.shape + (dim PW(band),)``
        for points of any shape (a scalar counts as one point).

        The columns are written into one preallocated array through two
        points-shaped scratch arrays.
        """
        x = np.atleast_1d(np.asarray(points, dtype=float))
        n_max = self.max_frequency(band)
        out = np.empty(x.shape + (1 + 2 * n_max,))
        out[..., 0] = 1.0
        root2 = np.sqrt(2.0)
        arg, val = np.empty_like(x), np.empty_like(x)
        for n in range(1, n_max + 1):
            np.multiply(2.0 * np.pi * n, x, out=arg)
            np.multiply(root2, np.cos(arg, out=val), out=out[..., 2 * n - 1])
            np.multiply(root2, np.sin(arg, out=val), out=out[..., 2 * n])
        return out

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
        return cls(graph, build_laplacian(graph, kind))

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    def eigenvalues_up_to(self, band: float) -> np.ndarray:
        vals = self.eig.values
        return vals[np.abs(vals) <= band * (1.0 + 1e-12)]

    def dim_pw(self, band: float) -> int:
        return int(self.eigenvalues_up_to(band).shape[0])

    def full_band(self) -> float:
        return float(np.abs(self.eig.values).max())

    def pw_basis(self, band: float) -> np.ndarray:
        """B-orthonormal eigenvector columns with |lambda| <= band."""
        keep = np.abs(self.eig.values) <= band * (1.0 + 1e-12)
        return self.eig.basis[:, keep]

    def project_pw(self, band: float, signal: np.ndarray) -> np.ndarray:
        """Coefficients <s, phi_m>_B for the eigenvectors inside the band."""
        basis = self.pw_basis(band)
        return basis.conj().T @ self.operator.inner.apply(np.asarray(signal))

    def synthesize(self, coeffs: np.ndarray, band: float) -> np.ndarray:
        return self.pw_basis(band) @ np.asarray(coeffs)


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
        if self.band < 0:
            raise BandError("kernel band must be nonnegative")
        object.__setattr__(
            self, "eigenvalues", self.space.eigenvalues_up_to(self.band)
        )

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
