"""Filter families, functional-calculus routes, and filter constants."""

import numpy as np
import pytest

from spectral_transfer.errors import (
    FilterEvaluationError,
    SingularFilterError,
    SpectralIntervalError,
)
from spectral_transfer.filters import (
    Filter,
    apply_chebyshev,
    apply_exact,
    apply_rational,
    chebyshev_sup_error,
    filter_matrix,
    make_filter,
    max_difference_quotient,
    sup_norm_on_spectrum,
)
from spectral_transfer.graphs import (
    OperatorWithInnerProduct,
    build_laplacian,
    eigendecompose,
    random_geometric_graph,
)
from spectral_transfer.transfer import filter_constants

P2_LAPLACIAN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def p2_eig():
    return eigendecompose(OperatorWithInnerProduct.symmetric(P2_LAPLACIAN))


def random_connected_laplacian(n, seed, kind="unnormalized"):
    g = random_geometric_graph(n, 0.6, seed=seed)
    return build_laplacian(g, kind)


class TestApplyExact:
    def test_identity_filter(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=2)
        np.testing.assert_allclose(apply_exact(Filter.identity(), p2_eig(), s), s,
                                   atol=1e-14)

    def test_g_lambda_is_operator(self):
        s = np.array([1.0, 0.0])
        out = apply_exact(Filter.polynomial((0.0, 1.0)), p2_eig(), s)
        np.testing.assert_allclose(out, P2_LAPLACIAN @ s, atol=1e-14)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-14)

    def test_lambda_squared_matches_matrix_square(self):
        # Oracle: explicit matrix square.
        s = np.array([1.0, 0.0])
        expected = (P2_LAPLACIAN @ P2_LAPLACIAN) @ s
        np.testing.assert_allclose(expected, [2.0, -2.0], atol=1e-14)
        out = apply_exact(Filter.polynomial((0.0, 0.0, 1.0)), p2_eig(), s)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_vanishing_filter_gives_zero(self):
        eig = eigendecompose(random_connected_laplacian(8, seed=4))
        lams = eig.eigenvalues_with_multiplicity().real
        # table filter that is exactly zero at every eigenvalue
        filt = Filter.from_table(lams, np.zeros_like(lams))
        s = np.random.default_rng(1).normal(size=eig.dim)
        out = apply_exact(filt, eig, s)
        assert np.linalg.norm(out) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(FilterEvaluationError, match="dimension"):
            apply_exact(Filter.identity(), p2_eig(), np.ones(3))


class TestApplyRational:
    def test_plain_lambda(self):
        op = OperatorWithInnerProduct.symmetric(P2_LAPLACIAN)
        s = np.array([2.0, -1.0])
        out = apply_rational(Filter.rational((0.0, 1.0), (1.0,)), op, s)
        np.testing.assert_allclose(out, P2_LAPLACIAN @ s, atol=1e-13)

    def test_resolvent_on_constant(self):
        # Oracle: linear solve of (I + L) x = s with s in the kernel of L.
        op = OperatorWithInnerProduct.symmetric(P2_LAPLACIAN)
        s = np.array([1.0, 1.0])
        expected = np.linalg.solve(np.eye(2) + P2_LAPLACIAN, s)
        np.testing.assert_allclose(expected, s, atol=1e-14)  # L s = 0
        out = apply_rational(Filter.rational((1.0,), (1.0, 1.0)), op, s)
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_cancellation_is_identity(self):
        op = OperatorWithInnerProduct.symmetric(P2_LAPLACIAN)
        s = np.array([0.3, 0.7])
        out = apply_rational(Filter.rational((1.0, 1.0), (1.0, 1.0)), op, s)
        np.testing.assert_allclose(out, s, atol=1e-12)

    def test_singular_denominator_rejected(self):
        op = OperatorWithInnerProduct.symmetric(P2_LAPLACIAN)
        # denominator lambda vanishes at the 0 eigenvalue
        with pytest.raises(SingularFilterError):
            apply_rational(Filter.rational((1.0,), (0.0, 1.0)), op, np.ones(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_exact_on_random_graphs(self, seed):
        # Canonical equivalence of the two functional-calculus routes.
        op = random_connected_laplacian(10, seed=seed)
        eig = eigendecompose(op)
        rng = np.random.default_rng(100 + seed)
        s = rng.normal(size=op.dim)
        filters = [
            Filter.rational((1.0,), (1.0, 1.0)),
            Filter.rational((0.0, 1.0), (1.0, 0.0, 1.0)),
            Filter.rational((1.0, 0.5), (1.0, 0.2)),
            Filter.rational((0.5, 0.0, 1.0), (1.0, 1.0, 1.0)),
            Filter.rational((2.0,), (1.0, 0.1, 0.0, 0.01)),
        ]
        for filt in filters:
            exact = apply_exact(filt, eig, s)
            routed = apply_rational(filt, op, s)
            denom = np.linalg.norm(exact)
            assert np.linalg.norm(routed - exact) <= 1e-10 * max(denom, 1.0)


class TestApplyChebyshev:
    def test_degree0_constant_exact(self):
        op = OperatorWithInnerProduct.symmetric(P2_LAPLACIAN)
        s = np.array([1.0, 2.0])
        out = apply_chebyshev(Filter.polynomial((3.0,)), op, 0, (0.0, 2.0), s)
        np.testing.assert_allclose(out, 3.0 * s, atol=1e-13)

    def test_degree1_linear_exact(self):
        op = OperatorWithInnerProduct.symmetric(P2_LAPLACIAN)
        s = np.array([1.0, 0.0])
        out = apply_chebyshev(Filter.polynomial((0.0, 1.0)), op, 1, (0.0, 2.0), s)
        np.testing.assert_allclose(out, P2_LAPLACIAN @ s, atol=1e-12)

    def test_refinement_shrinks_error(self):
        op = random_connected_laplacian(10, seed=3)
        eig = eigendecompose(op)
        lam_max = float(eig.eigenvalues_with_multiplicity().real.max())
        interval = (0.0, lam_max * (1.0 + 1e-6))
        filt = Filter.heat(1.0)
        s = np.random.default_rng(2).normal(size=op.dim)
        exact = apply_exact(filt, eig, s)
        errs = []
        for deg in (2, 8):
            approx = apply_chebyshev(filt, op, deg, interval, s)
            errs.append(np.linalg.norm(approx - exact))
        assert errs[1] < errs[0]

    def test_operator_error_below_scalar_sup_error_and_nonincreasing(self):
        op = random_connected_laplacian(12, seed=9, kind="normalized")
        eig = eigendecompose(op)
        interval = (0.0, 2.0)
        rng = np.random.default_rng(5)
        for filt in (Filter.heat(1.0), Filter.rational((1.0,), (1.0, 0.0, 1.0))):
            exact_mat = np.stack(
                [apply_exact(filt, eig, col) for col in np.eye(op.dim)], axis=1
            )
            op_errors = []
            for deg in (2, 8, 32):
                sup_err = chebyshev_sup_error(filt, deg, interval)
                approx_mat = np.stack(
                    [apply_chebyshev(filt, op, deg, interval, col)
                     for col in np.eye(op.dim)], axis=1,
                )
                op_errors.append(np.linalg.norm(approx_mat - exact_mat, 2))
                assert op_errors[-1] <= sup_err + 1e-12
                for _ in range(5):
                    s = rng.normal(size=op.dim)
                    approx = apply_chebyshev(filt, op, deg, interval, s)
                    exact = apply_exact(filt, eig, s)
                    lhs = np.linalg.norm(approx - exact)
                    assert lhs <= sup_err * np.linalg.norm(s) + 1e-12
            assert op_errors[0] >= op_errors[1] >= op_errors[2] - 1e-15, filt.name

    def test_interval_escape_rejected(self):
        op = OperatorWithInnerProduct.symmetric(P2_LAPLACIAN)  # spectrum {0, 2}
        with pytest.raises(SpectralIntervalError, match="escapes"):
            apply_chebyshev(Filter.identity(), op, 4, (0.0, 1.0), np.ones(2))

    def test_default_interval_contains_bipartite_top(self):
        # A path graph is bipartite, so the normalized Laplacian tops out at
        # exactly 2; the default interval must still contain it, and tightly.
        from spectral_transfer.filters import _containing_interval
        from spectral_transfer.graphs import path_graph

        op = build_laplacian(path_graph(6), "normalized")
        a, b = _containing_interval(op.eig.eigenvalues_with_multiplicity().real)
        assert a <= 0.0 < 2.0 <= b <= 2.001
        s = np.random.default_rng(1).normal(size=6)
        out = apply_chebyshev(Filter.heat(1.0), op, 16, signal=s)
        np.testing.assert_array_equal(
            out, apply_chebyshev(Filter.heat(1.0), op, 16, (a, b), s)
        )
        exact = apply_exact(Filter.heat(1.0), eigendecompose(op), s)
        assert np.linalg.norm(out - exact) <= 1e-12


class TestPermutationEquivariance:
    def test_filter_commutes_with_relabeling(self):
        op = random_connected_laplacian(9, seed=12)
        rng = np.random.default_rng(13)
        perm = rng.permutation(op.dim)
        p_mat = np.eye(op.dim)[perm]
        permuted = OperatorWithInnerProduct.symmetric(p_mat @ op.matrix @ p_mat.T)
        filt = Filter.heat(0.7)
        s = rng.normal(size=op.dim)
        lhs = apply_exact(filt, eigendecompose(permuted), p_mat @ s)
        rhs = p_mat @ apply_exact(filt, eigendecompose(op), s)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestConstants:
    def test_identity_quotient_is_one(self):
        filt = Filter.polynomial((0.0, 1.0))
        assert max_difference_quotient(filt, 0.3, [0.0, 1.0, 2.5]) == pytest.approx(1.0)

    def test_square_quotient(self):
        # |4 - 0| / |2 - 0| = 2
        filt = Filter.polynomial((0.0, 0.0, 1.0))
        assert max_difference_quotient(filt, 0.0, [2.0]) == pytest.approx(2.0)

    def test_all_excluded_returns_zero(self):
        filt = Filter.heat(1.0)
        assert max_difference_quotient(filt, 1.0, [1.0, 1.0 + 1e-14]) == 0.0

    def test_quotient_below_lipschitz_on_random_spectra(self):
        rng = np.random.default_rng(21)
        for filt in (Filter.lowpass(1.0), Filter.highpass(2.0),
                     Filter.heat(0.5), Filter.midpass(1.0, 0.4)):
            d = filt.lipschitz_constant
            for _ in range(100):
                spectrum = rng.uniform(0.0, 5.0, size=6)
                lam = rng.uniform(0.0, 5.0)
                q = max_difference_quotient(filt, lam, spectrum)
                assert q <= d * (1.0 + 1e-12) + 1e-12

    def test_sup_norm(self):
        assert sup_norm_on_spectrum(Filter.identity(), [0.3]) == 1.0
        assert sup_norm_on_spectrum(Filter.polynomial((0.0, 1.0)), [0, 1, 4]) == 4.0
        # heat decays: max at the smallest eigenvalue
        assert sup_norm_on_spectrum(Filter.heat(1.0), [0, 1, 4]) == pytest.approx(1.0)

    def test_filter_constants_bundle(self):
        fc = filter_constants(Filter.lowpass(2.0), [0.0, 1.0], [0.5, 3.0])
        assert fc.vg_per_eig.shape == (2,)
        assert fc.sup_norm == pytest.approx(1.0)
        assert np.all(fc.vg_per_eig <= 0.5 + 1e-12)


class TestTableAndParsing:
    def test_table_file_round_trip(self, tmp_path):
        path = tmp_path / "resp.txt"
        path.write_text("# lambda response\n0.0 1.0\n2.0 0.0\n1.0 0.5\n")
        filt = Filter.from_table_file(path)
        assert filt.evaluate(0.5) == pytest.approx(0.75)   # linear between knots
        assert filt.evaluate(-1.0) == pytest.approx(1.0)   # constant extrapolation
        assert filt.evaluate(5.0) == pytest.approx(0.0)

    def test_table_file_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 9.0\n")
        with pytest.raises(FilterEvaluationError, match="line 1"):
            Filter.from_table_file(path)

    def test_make_filter_descriptors(self):
        assert make_filter("lowpass(2.0)").name == "lowpass(2)"
        assert make_filter("heat(1)").params == {"t": 1.0}
        assert make_filter("identity").name == "identity"
        with pytest.raises(FilterEvaluationError):
            make_filter("bandstop(1)")

    @pytest.mark.parametrize(
        "descriptor", ["heat(inf)", "lowpass(inf)", "midpass(inf,1)", "poly(1,nan)"]
    )
    def test_make_filter_rejects_non_finite_arguments(self, descriptor):
        with pytest.raises(FilterEvaluationError, match="finite"):
            make_filter(descriptor)

    def test_missing_table_file_is_a_filter_error(self, tmp_path):
        with pytest.raises(FilterEvaluationError, match="cannot read filter table"):
            make_filter(f"table({tmp_path / 'nowhere.txt'})")

    def test_non_finite_values_are_a_filter_error(self):
        # 2 sigma^2 underflows to 0, so g(c) is 0/0
        with pytest.raises(FilterEvaluationError, match="not finite"):
            Filter.midpass(0.0, 1e-300).evaluate(np.array([0.0, 1.0]))
        with pytest.raises(FilterEvaluationError, match="not finite"):
            Filter.heat(1e3).evaluate(-1.0)
        # 2 sigma^2 overflows to inf: a flat filter, not an error
        np.testing.assert_array_equal(Filter.midpass(0.0, 1e300).evaluate([0.0, 5.0]), 1.0)

    def test_make_filter_table_descriptor(self, tmp_path):
        path = tmp_path / "resp.txt"
        path.write_text("0.0 1.0\n1.0 0.0\n")
        filt = make_filter(f"table({path})")
        assert filt.evaluate(0.25) == pytest.approx(0.75)

    def test_real_only_filter_rejects_complex(self):
        with pytest.raises(FilterEvaluationError, match="imaginary"):
            Filter.lowpass(1.0).evaluate(np.array([1.0 + 0.5j]))

    def test_normalization(self):
        filt = Filter.polynomial((0.0, 2.0))  # g(x) = 2x, sup on {0,1,3} = 6
        normed, factor = filt.normalized_on([0.0, 1.0, 3.0])
        assert factor == pytest.approx(6.0)
        assert normed.evaluate(3.0) == pytest.approx(1.0)

    def test_filter_matrix_matches_apply(self):
        eig = p2_eig()
        filt = Filter.heat(0.3)
        mat = filter_matrix(filt, eig)
        s = np.array([0.2, -1.1])
        np.testing.assert_allclose(mat @ s, apply_exact(filt, eig, s), atol=1e-13)
