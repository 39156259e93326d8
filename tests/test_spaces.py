"""Circle / graph / kernel space models and band-limited projections."""

import numpy as np
import pytest

from spectral_transfer.graphs import path_graph
from spectral_transfer.spaces import (
    BandlimitedKernel,
    CircleSpace,
    GraphSpace,
    bandlimited_kernel,
)

CIRCLE = CircleSpace()


class TestCircleEigenpairs:
    def test_band_zero_constant_only(self):
        np.testing.assert_array_equal(CIRCLE.eigenvalues_up_to(0.0), [0.0])
        phi = CIRCLE.basis_matrix(np.linspace(0, 1, 5), 0.0)
        assert phi.shape == (5, 1)
        np.testing.assert_allclose(phi, 1.0)

    def test_band_one_eigenvalues(self):
        # Oracle: lambda_n = n^2 checked by quadrature of the second
        # difference action below; here the eigenvalue list itself.
        np.testing.assert_array_equal(CIRCLE.eigenvalues_up_to(1.0), [0.0, 1.0, 1.0])

    def test_eigenvalue_matches_second_derivative_quadrature(self):
        # L = -(2 pi)^{-2} d^2/dx^2 applied by central differences on a fine
        # grid must reproduce lambda = n^2 for each basis function.
        q = 1 << 12
        xs = np.arange(q) / q
        h = 1.0 / q
        basis = CIRCLE.basis_matrix(xs, 9.0)
        for index, lam in enumerate(CIRCLE.eigenvalues_up_to(9.0)):
            vals = basis[:, index]
            second = (np.roll(vals, -1) - 2 * vals + np.roll(vals, 1)) / h**2
            lap = -second / (2 * np.pi) ** 2
            # quadrature inner product <L phi, phi> = lambda ||phi||^2 = lambda
            est = float(lap @ vals / q)
            assert est == pytest.approx(lam, abs=1e-4), f"basis index {index}"

    def test_count_examples(self):
        assert CIRCLE.dim_pw(4.5) == 5  # n in {0, +-1, +-2}
        assert CIRCLE.dim_pw(0.0) == 1
        assert CIRCLE.dim_pw(1.0) == 3

    def test_weyl_count_window(self):
        for lam in (1.0, 4.0, 9.0, 16.0, 25.0):
            count = CIRCLE.dim_pw(lam)
            assert 2 * np.sqrt(lam) - 1 <= count <= 2 * np.sqrt(lam) + 1

    def test_orthonormal_gram_4096(self):
        q = 4096
        grid = np.arange(q) / q
        phi = CIRCLE.basis_matrix(grid, 36.0)
        gram = phi.T @ phi / q
        assert np.abs(gram - np.eye(phi.shape[1])).max() <= 1e-10


GRID = np.arange(256) / 256


class TestCircleProjection:
    def test_basis_function_projects_to_unit_coefficient(self):
        phi3 = CIRCLE.basis_matrix(GRID, 4.0)[:, 3]
        coeffs = CIRCLE.analyze_grid(phi3, 4.0)
        expected = np.zeros(5)
        expected[3] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    def test_basis_function_above_band_projects_to_zero(self):
        phi3 = CIRCLE.basis_matrix(GRID, 4.0)[:, 3]  # frequency 2
        coeffs = CIRCLE.analyze_grid(phi3, 1.0)
        np.testing.assert_allclose(coeffs, np.zeros(3), atol=1e-10)

    def test_cos_mixture(self):
        # cos(2 pi x) + cos(4 pi x) projected to band 1 keeps only the n=1
        # cosine coefficient, of size 1/sqrt2 in the sqrt2-normalized basis.
        # Oracle: orthonormality integral, <cos(2 pi x), sqrt2 cos(2 pi x)> =
        # 1/sqrt2.
        values = np.cos(2 * np.pi * GRID) + np.cos(4 * np.pi * GRID)
        coeffs = CIRCLE.analyze_grid(values, 1.0)
        np.testing.assert_allclose(coeffs, [0.0, 1 / np.sqrt(2), 0.0], atol=1e-10)

    def test_projection_idempotent_and_monotone(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=CIRCLE.dim_pw(9.0))
        once = CIRCLE.analyze_grid(CIRCLE.basis_matrix(GRID, 9.0) @ c, 4.0)
        twice = CIRCLE.analyze_grid(CIRCLE.basis_matrix(GRID, 4.0) @ once, 4.0)
        np.testing.assert_allclose(once, c[:5], atol=1e-12)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        # band monotonicity: projecting to 4 then 1 equals projecting to 1
        np.testing.assert_allclose(
            CIRCLE.analyze_grid(CIRCLE.basis_matrix(GRID, 4.0) @ once, 1.0), c[:3],
            atol=1e-12,
        )

    def test_laplacian_diagonal_action(self):
        # The band-limited kernel applied by quadrature sends the constant to
        # zero and the frequency-2 cosine to 4 times itself.
        np.testing.assert_allclose(
            _kernel_quadrature(9.0, np.eye(5)[0] * 2.0), np.zeros(5), atol=1e-8
        )
        np.testing.assert_allclose(
            _kernel_quadrature(9.0, np.eye(5)[3]), 4.0 * np.eye(5)[3], atol=1e-8
        )


def _kernel_quadrature(kernel_band, coeffs):
    """Band-4 coefficients of the kernel at ``kernel_band`` applied by quadrature."""
    kernel = bandlimited_kernel(CIRCLE, kernel_band)
    grid = np.arange(2048) / 2048
    f_vals = CIRCLE.basis_matrix(grid, 4.0) @ coeffs
    lf_vals = kernel.evaluate(grid, grid) @ f_vals / grid.size
    return CIRCLE.analyze_grid(lf_vals, 4.0)


class TestKernelSpace:
    def test_quadrature_route_matches_diagonal_action(self):
        # Below the kernel band, applying the kernel by quadrature multiplies
        # each coefficient by its eigenvalue n^2.
        rng = np.random.default_rng(10)
        coeffs = rng.normal(size=CIRCLE.dim_pw(4.0))  # band 4 < kernel band 9
        diag = CIRCLE.eigenvalues_up_to(4.0) * coeffs
        np.testing.assert_allclose(_kernel_quadrature(9.0, coeffs), diag, atol=1e-8)


class TestGraphSpace:
    def test_p2_eigenpairs(self):
        space = GraphSpace.from_graph(path_graph(2))
        assert list(space.eigenvalues_up_to(3.0)) == [0.0, pytest.approx(2.0)]
        v0 = space.pw_basis(3.0)[:, 0]
        np.testing.assert_allclose(np.abs(v0), np.ones(2) / np.sqrt(2), atol=1e-12)

    def test_full_band_counts_all(self):
        space = GraphSpace.from_graph(path_graph(5))
        assert space.dim_pw(space.full_band()) == 5

    def test_laplacian_action_matches_matrix(self):
        space = GraphSpace.from_graph(path_graph(4))
        band = space.full_band()
        rng = np.random.default_rng(0)
        s = rng.normal(size=4)
        coeffs = space.project_pw(band, s)
        via_coeffs = space.synthesize(space.eigenvalues_up_to(band) * coeffs, band)
        np.testing.assert_allclose(via_coeffs, space.operator.matrix @ s, atol=1e-10)

    def test_projector_idempotent(self):
        space = GraphSpace.from_graph(path_graph(6))
        s = np.random.default_rng(1).normal(size=6)
        once = space.synthesize(space.project_pw(1.0, s), 1.0)
        twice = space.synthesize(space.project_pw(1.0, once), 1.0)
        np.testing.assert_allclose(twice, once, atol=1e-10)


class TestBandlimitedKernel:
    def test_zero_band_kernel_vanishes(self):
        k = bandlimited_kernel(CIRCLE, 0.0)
        xs = np.linspace(0, 1, 7)
        np.testing.assert_allclose(k.evaluate(xs, xs), 0.0, atol=1e-14)

    def test_band_one_closed_form(self):
        # H(x0, x) = 2 cos(2 pi (x0 - x)); trigonometric identity oracle.
        k = bandlimited_kernel(CIRCLE, 1.0)
        rng = np.random.default_rng(4)
        x0 = rng.uniform(size=9)
        x = rng.uniform(size=9)
        expected = 2.0 * np.cos(2 * np.pi * (x0[:, None] - x[None, :]))
        np.testing.assert_allclose(k.evaluate(x0, x), expected, atol=1e-12)

    def test_lambda_l1_band4(self):
        # 0 + 1 + 1 + 4 + 4
        assert bandlimited_kernel(CIRCLE, 4.0).lambda_l1 == pytest.approx(10.0)

    def test_l2_norm_quadrature_cross_check(self):
        k = bandlimited_kernel(CIRCLE, 4.0)
        exact = k.l2_norm()
        assert exact == pytest.approx(np.sqrt(1 + 1 + 16 + 16))
        xs = np.arange(256) / 256
        by_quadrature = np.sqrt((k.evaluate(xs, xs) ** 2).sum()) / xs.size
        assert by_quadrature == pytest.approx(exact, abs=1e-8)

    def test_l2_norm_below_lambda_l1(self):
        for band in (1.0, 4.0, 9.0):
            k = bandlimited_kernel(CIRCLE, band)
            assert k.l2_norm() <= k.lambda_l1 + 1e-12

