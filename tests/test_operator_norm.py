"""``graphs.operator_norm`` and ``graphs.hermitian_norm`` against the largest
singular value from an SVD."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer.graphs import column_norms, frobenius_norm, hermitian_norm, operator_norm
from spectral_transfer.transfer import ABS_SLACK, REL_SLACK


def _matrix(rng, rows, cols, kind, complex_, cond_exp, scale_exp):
    def draw(shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_ else out

    if kind == "zero":
        mat = np.zeros((rows, cols), dtype=complex if complex_ else float)
    elif kind == "rank-deficient":
        rank = int(rng.integers(1, min(rows, cols) + 1))
        mat = draw((rows, rank)) @ draw((rank, cols))
    elif kind == "ill-conditioned":
        # A = U diag(s) V^H with singular values from 1 down to 10^-cond_exp
        k = min(rows, cols)
        u, _ = np.linalg.qr(draw((rows, k)))
        v, _ = np.linalg.qr(draw((cols, k)))
        mat = (u * np.logspace(0, -cond_exp, k)) @ v.conj().T
    else:
        mat = draw((rows, cols))
    return mat * 10.0**scale_exp


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 80),
    cols=st.integers(1, 80),
    kind=st.sampled_from(["gaussian", "rank-deficient", "ill-conditioned", "zero"]),
    complex_=st.booleans(),
    cond_exp=st.integers(0, 12),
    scale_exp=st.sampled_from([0, 0, 0, -8, 8, -200, 200, -310]),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_norm_matches_largest_singular_value(
    rows, cols, kind, complex_, cond_exp, scale_exp, seed
):
    mat = _matrix(np.random.default_rng(seed), rows, cols, kind, complex_,
                  cond_exp, scale_exp)
    sigma = np.linalg.svd(mat, compute_uv=False)[0]
    got = operator_norm(mat)
    # a certified lhs never comes out lower than the SVD's beyond the slack
    assert got >= sigma - (REL_SLACK * sigma + ABS_SLACK)
    assert abs(got - sigma) <= 1e-12 * sigma


@settings(max_examples=100, deadline=None)
@given(
    order=st.one_of(st.integers(1, 40), st.just(300)),
    kind=st.sampled_from(["gaussian", "rank-deficient", "ill-conditioned", "zero"]),
    complex_=st.booleans(),
    cond_exp=st.integers(0, 12),
    scale_exp=st.sampled_from([0, 0, 0, -8, 8, -200, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_norm_matches_largest_singular_value(
    order, kind, complex_, cond_exp, scale_exp, seed
):
    # A + A^H, plus a roundoff-sized skew part that the Hermitian part drops;
    # order 300 covers a solve of the size of a graph operator
    rng = np.random.default_rng(seed)
    half = _matrix(rng, order, order, kind, complex_, cond_exp, scale_exp)
    mat = half + half.conj().T
    sigma = np.linalg.svd(mat, compute_uv=False)[0]
    skewed = mat + 1e-17 * (half - half.conj().T)
    for got in (hermitian_norm(mat), hermitian_norm(skewed)):
        assert abs(got - sigma) <= 1e-12 * sigma


def test_hermitian_norm_of_empty_and_non_finite_matrices():
    assert hermitian_norm(np.zeros((0, 0))) == 0.0
    # a zero matrix's eigenvalues may come back as -0.0; its norm is +0.0
    for n in (1, 3):
        assert str(hermitian_norm(np.zeros((n, n)))) == "0.0"
    for bad in (np.nan, np.inf):
        mat = np.eye(3)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_norm(mat)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_empty_matrix_has_norm_zero(shape):
    assert operator_norm(np.zeros(shape)) == 0.0


@pytest.mark.parametrize("shape", [(6, 3), (3, 6), (50, 40)])
def test_nan_entry_raises_as_the_svd_does(shape):
    mat = np.ones(shape)
    mat[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(mat, compute_uv=False)
    with pytest.raises(np.linalg.LinAlgError):
        operator_norm(mat)


def test_infinite_entry_raises():
    mat = np.ones((6, 3))
    mat[1, 2] = np.inf
    with pytest.raises(np.linalg.LinAlgError):
        operator_norm(mat)


@pytest.mark.parametrize("exponent", [-1022, -1030, -1060, -1072])
def test_subnormal_entries_get_their_norm(exponent):
    # the rows (3, 4) and (0, 0) scaled by 2^exponent have norm exactly
    # 5 * 2^exponent, down into the subnormal range
    mat = np.array([[3.0, 4.0], [0.0, 0.0]]) * 2.0**exponent
    assert operator_norm(mat) == 5.0 * 2.0**exponent
    assert operator_norm(mat) == np.linalg.svd(mat, compute_uv=False)[0]


def test_norms_beyond_the_float_range_are_inf_without_a_warning():
    # 1e308 times 3 (or 2 for a column of four entries) exceeds the float
    # range; 5e307 times 3 does not
    huge = np.full((3, 3), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mat in (huge, huge[:2], huge * (1 + 1j)):
            assert operator_norm(mat) == np.inf
        assert hermitian_norm(huge) == np.inf
        assert frobenius_norm(huge) == np.inf
        assert column_norms(np.full((4, 2), 1e308)).tolist() == [np.inf, np.inf]
        in_range = np.full((3, 3), 5e307)
        assert operator_norm(in_range) == pytest.approx(1.5e308, rel=1e-15)
        assert hermitian_norm(in_range) == pytest.approx(1.5e308, rel=1e-15)


def test_near_isometries_have_norm_one():
    # Every eigenvalue of the Gram matrix of a near-isometry sits near 1,
    # a tight cluster on which LAPACK's single-eigenvalue drivers can fail.
    rng = np.random.default_rng(0)
    for _ in range(60):
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        assert abs(operator_norm(q) - 1.0) <= 1e-13


def test_column_norms_in_range_equal_numpy_bytes():
    mat = np.random.default_rng(3).standard_normal((40, 7)) * 10.0**np.arange(-3, 4)
    assert np.array_equal(column_norms(mat), np.linalg.norm(mat, axis=0))


@pytest.mark.parametrize("complex_", [False, True])
def test_column_norms_of_huge_and_tiny_columns(complex_):
    # squared, these columns overflow, underflow to subnormals, or vanish
    base = np.random.default_rng(4).standard_normal((30, 5))
    if complex_:
        base = base + 1j * np.random.default_rng(5).standard_normal((30, 5))
    factors = np.array([1e160, 1e-160, 1e-310, 1.0, 1e300])
    got = column_norms(base * factors)
    assert np.allclose(got / factors, np.linalg.norm(base, axis=0), rtol=1e-12, atol=0)


def test_column_norms_keep_zero_and_non_finite_columns():
    mat = np.zeros((3, 3))
    mat[0, 1], mat[1, 2] = np.inf, np.nan
    got = column_norms(mat)
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("factor", [1e200, 1e-200, 1.0])
def test_frobenius_norm_of_huge_and_tiny_matrices(complex_, factor):
    # squared, the entries of the scaled matrices overflow or underflow
    base = np.random.default_rng(6).standard_normal((7, 5))
    if complex_:
        base = base + 1j * np.random.default_rng(7).standard_normal((7, 5))
    got = frobenius_norm(base * factor)
    assert isinstance(got, float)
    assert got / factor == pytest.approx(np.linalg.norm(base), rel=1e-12)


def test_frobenius_norm_in_range_equals_numpy_bytes():
    mat = np.random.default_rng(8).standard_normal((9, 4)) * 1e3
    assert frobenius_norm(mat) == np.linalg.norm(mat, "fro")


def test_frobenius_norm_of_zero_and_non_finite_matrices():
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    mat = np.ones((3, 3))
    mat[1, 2] = np.inf
    assert frobenius_norm(mat) == np.inf
    mat[0, 0] = np.nan
    assert np.isnan(frobenius_norm(mat))
