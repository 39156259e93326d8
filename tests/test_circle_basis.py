"""Accuracy of the circle's trigonometric basis, evaluated by angle addition
from one cosine/sine pair per point, against direct evaluation and against
40-digit mpmath values."""

import mpmath
import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spectral_transfer.spaces import CircleSpace

CIRCLE = CircleSpace()
EPS = np.finfo(float).eps


@given(
    points=arrays(float, array_shapes(min_dims=1, max_dims=3, max_side=6),
                  elements=st.floats(0.0, 1.0, exclude_max=True)),
    n_max=st.integers(0, 64),
)
def test_basis_matches_direct_evaluation(points, n_max):
    phi = CIRCLE.basis_matrix(points, float(n_max * n_max))
    assert phi.shape == points.shape + (1 + 2 * n_max,)
    np.testing.assert_array_equal(phi[..., 0], 1.0)
    freqs = np.arange(1, n_max + 1)
    arg = 2.0 * np.pi * freqs * points[..., None]
    # both routes err by O(n eps): here the rounded argument 2 pi n x
    tol = 16 * freqs * EPS
    assert np.all(np.abs(phi[..., 1::2] - np.sqrt(2.0) * np.cos(arg)) <= tol)
    assert np.all(np.abs(phi[..., 2::2] - np.sqrt(2.0) * np.sin(arg)) <= tol)


def test_basis_matches_mpmath_up_to_frequency_2047():
    points = np.random.default_rng(2047).random(60)
    phi = CIRCLE.basis_matrix(points, 2047.0**2)
    freqs = sorted({*range(1, 17), 100, 500, 1000, 1500, 2046, 2047}
                   | {2**k + d for k in range(5, 11) for d in (-1, 0, 1)})
    with mpmath.workdps(40):
        root2 = mpmath.sqrt(2)
        for i, x in enumerate(points):
            for n in freqs:
                # x is a double, so 2 n x is exact at 40 digits
                turns = 2 * n * mpmath.mpf(float(x))
                exact = (root2 * mpmath.cospi(turns), root2 * mpmath.sinpi(turns))
                for value, ref in zip(phi[i, 2 * n - 1: 2 * n + 1], exact):
                    assert abs(mpmath.mpf(float(value)) - ref) <= 8 * n * EPS, (x, n)


def test_lower_band_is_bitwise_leading_columns_of_higher():
    points = np.random.default_rng(4).random((3, 50))
    low = CIRCLE.basis_matrix(points, 4.0)
    high = CIRCLE.basis_matrix(points, 2500.0)
    assert low.shape == (3, 50, 5) and high.shape == (3, 50, 101)
    np.testing.assert_array_equal(low, high[..., :5])
