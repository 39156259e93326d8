"""The transfer-error measurements and the five certified bounds."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.filters import Filter
from spectral_transfer.graphs import (
    OperatorWithInnerProduct,
    build_laplacian,
    path_graph,
    random_geometric_graph,
)
from spectral_transfer.sampling import (
    CoarseningMap,
    PerturbationSpec,
    SampleSet,
    coarsen_matching,
    evaluation_operator,
    perturb_graph_detailed,
    random_sampled_laplacian,
    sampled_laplacian_matrix,
)
from spectral_transfer.spaces import BandlimitedKernel, CircleSpace, GraphSpace
from spectral_transfer.transfer import (
    FilterConstants,
    TransferSetting,
    bound_fourier_mode,
    bound_worstcase,
    certified,
    coarsening_setting,
    evaluate_transfer,
    filter_constants,
    perturbation_setting,
    sampling_setting,
    transfer_errors,
    two_graph_error,
)

CIRCLE = CircleSpace()
FILTERS = [Filter.lowpass(1.0), Filter.highpass(1.0), Filter.heat(1.0)]


def uniform_sample(n, seed):
    """n points drawn uniformly on [0, 1) from a seeded generator."""
    return SampleSet(np.random.default_rng(seed).uniform(size=n))


def identity_setting(n=6, seed=0, name="identity"):
    space = GraphSpace.from_graph(random_geometric_graph(n, 0.7, seed=seed))
    return space, perturbation_setting(space, space.operator, name=name)


def diagonal_setting(source_eigenvalues, s_pw, target_eigenvalues):
    """Source modes ``source_eigenvalues`` sampled by ``s_pw`` onto the
    diagonal operator ``diag(target_eigenvalues)``."""
    target = OperatorWithInnerProduct.symmetric(np.diag(target_eigenvalues))
    return TransferSetting("diagonal", 1.0, np.asarray(source_eigenvalues, dtype=float),
                           np.asarray(s_pw, dtype=float), target)


def unit_signal(setting, seed=0):
    """The unit-norm signal ``evaluate_transfer`` probes for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, setting.dim_pw)))
    coeffs = rng.normal(size=setting.dim_pw)
    return coeffs / np.linalg.norm(coeffs)


class TestTransferErrors:
    def test_identity_setting_all_zero(self):
        space, setting = identity_setting()
        coeffs = np.random.default_rng(1).normal(size=setting.dim_pw)
        errs = transfer_errors(setting, Filter.heat(1.0), coeffs)
        assert all(e <= 1e-10 for e in errs)

    def test_identity_filter_degeneracy(self):
        # g = 1 collapses the filter error onto the consistency error.
        space = GraphSpace.from_graph(path_graph(8))
        cmap = coarsen_matching(path_graph(8))
        setting = coarsening_setting(space, cmap)
        coeffs = np.random.default_rng(2).normal(size=setting.dim_pw)
        f_err, _, c_err = transfer_errors(setting, Filter.identity(), coeffs)
        assert f_err == pytest.approx(c_err, abs=1e-12)

    def test_p2_point_coarsening_hand_values(self):
        # Fine P2: s = (1, 0), both vertices collapse to one node.
        space = GraphSpace.from_graph(path_graph(2))
        cmap = coarsen_matching(path_graph(2))
        setting = coarsening_setting(space, cmap)
        coeffs = space.project_pw(setting.band, np.array([1.0, 0.0]))
        f_err, l_err, c_err = transfer_errors(
            setting, Filter.polynomial((0.0, 1.0)), coeffs
        )
        assert f_err == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert l_err == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert c_err == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_band_mismatch_raises(self):
        _, setting = identity_setting()
        with pytest.raises(SpectralTransferError, match="coefficients, band holds"):
            transfer_errors(setting, Filter.identity(), np.ones(setting.dim_pw + 1))


class TestModeBound:
    def test_constant_filter_zero_lhs(self):
        space = GraphSpace.from_graph(path_graph(5))
        cmap = coarsen_matching(path_graph(5))
        setting = coarsening_setting(space, cmap)
        row = bound_fourier_mode(setting, Filter.polynomial((0.7,)), 2)
        assert row.lhs <= 1e-12
        assert row.satisfied

    def test_p2_annihilated_mode(self):
        # phi = (1,-1)/sqrt2 collapses to zero under pair coarsening, so
        # both sides of the mode bound vanish.
        space = GraphSpace.from_graph(path_graph(2))
        setting = coarsening_setting(space, coarsen_matching(path_graph(2)))
        row = bound_fourier_mode(setting, Filter.polynomial((0.0, 1.0)), 1)
        assert row.eigenvalue == pytest.approx(2.0)
        assert row.lhs <= 1e-12
        assert row.rhs <= 1e-12
        assert row.satisfied

    def test_identity_target_zero_everywhere(self):
        _, setting = identity_setting(8, seed=3)
        for m in range(setting.dim_pw):
            row = bound_fourier_mode(setting, Filter.heat(0.5), m)
            assert row.lhs <= 1e-10
            assert row.satisfied


class TestRawBoundFormulas:
    def test_pointwise_zero(self):
        # S = I onto Delta = Lambda: no Laplacian or consistency error
        setting = diagonal_setting([0.0, 1.0], np.eye(2), [0.0, 1.0])
        _, bounds, _ = evaluate_transfer(setting, Filter.polynomial((0.0, 1.0)))
        rows = {row.bound: row for row in bounds}
        assert (rows["pointwise_in_G"].rhs, rows["pointwise_in_M"].rhs) == (0.0, 0.0)
        assert rows["pointwise_in_G"].satisfied and rows["pointwise_in_M"].satisfied

    def test_pointwise_two_mode_sum(self):
        # S = 2 I, so ||R|| = 2, and Delta - Lambda = diag(0.05, 0.1) gives
        # mode errors 0.1 and 0.2; g(x) = x - 0.5 has quotients 1 and sup 0.5
        setting = diagonal_setting([0.0, 1.0], 2.0 * np.eye(2), [0.05, 1.1])
        assert setting.interpolation_norm == pytest.approx(2.0)
        np.testing.assert_allclose(setting.laplacian_mode_errors, [0.1, 0.2])
        _, bounds, summary = evaluate_transfer(setting, Filter.polynomial((-0.5, 1.0)))
        rows = {row.bound: row for row in bounds}
        c = np.abs(unit_signal(setting))
        in_g = 1.0 * c[0] * 0.1 + 1.0 * c[1] * 0.2
        assert rows["pointwise_in_G"].rhs == pytest.approx(in_g)
        # K = S^H S = 4 I, so the signal's consistency error is 3
        assert summary["consistency_error"] == pytest.approx(3.0)
        assert rows["pointwise_in_M"].rhs == pytest.approx(2.0 * in_g + 0.5 * 3.0)

    def test_single_mode_reduces_to_mode_bound(self):
        # one mode, so |c| = 1: the mode bound 0.7 * 0.3 of g(x) = 0.7 x
        setting = diagonal_setting([0.0], [[1.0], [0.0]], [0.3, 2.0])
        per_mode, bounds, _ = evaluate_transfer(setting, Filter.polynomial((0.0, 0.7)))
        in_g = bounds[0]
        assert in_g.bound == "pointwise_in_G"
        assert in_g.rhs == pytest.approx(0.7 * 0.3)
        assert in_g.rhs == pytest.approx(per_mode[0].rhs)

    def test_worstcase_substitution(self):
        def rhs(lap_err, consistency):
            setting = SimpleNamespace(
                dim_pw=4, laplacian_operator_error=lap_err, interpolation_norm=1.0,
                consistency_operator_error=consistency,
            )
            return bound_worstcase(setting, FilterConstants(np.ones(4), 1.0, 1.0))

        assert rhs(0.0, 0.0) == (0.0, 0.0)
        in_g, in_m = rhs(0.05, 0.02)
        assert in_g == pytest.approx(0.1)
        assert in_m == pytest.approx(0.12)


@pytest.mark.parametrize("kind", ["coarsening", "add_edges", "remove_vertices", "sampling"])
def test_bound_rows_certify_the_paper_formulas(kind):
    """Each bound row is ``(bound, lhs, rhs, satisfied)`` with ``satisfied``
    its lhs certified against its rhs, and each rhs the paper's formula
    from the filter constants and the setting's measured norms."""
    if kind == "sampling":
        sample = uniform_sample(48, seed=6)
        setting = sampling_setting(
            evaluation_operator(CIRCLE, sample, 4.0),
            random_sampled_laplacian(BandlimitedKernel(CIRCLE, 9.0), sample),
        )
    else:
        graph = random_geometric_graph(20, 0.4, seed=9)
        space = GraphSpace.from_graph(graph)
        if kind == "coarsening":
            setting = coarsening_setting(space, coarsen_matching(graph))
        else:
            res = perturb_graph_detailed(graph, PerturbationSpec(kind, 0.1, seed=3))
            setting = perturbation_setting(space, build_laplacian(res.graph, "unnormalized"),
                                           kept=res.kept_vertices)
    for filt in FILTERS + [Filter.polynomial((0.2, -1.0, 0.3))]:
        _, bounds, summary = evaluate_transfer(setting, filt, signal_seed=4)
        constants = filter_constants(filt, setting.source_eigenvalues,
                                     setting.target.eig.values)
        coeffs = unit_signal(setting, seed=4)
        consistency = transfer_errors(setting, filt, coeffs)[2]
        point_g = np.sum(constants.vg_per_eig * np.abs(coeffs) * setting.laplacian_mode_errors)
        worst_g = (constants.lipschitz * math.sqrt(setting.dim_pw)
                   * setting.laplacian_operator_error)
        norm_r = setting.interpolation_norm
        want = {
            "pointwise_in_G": point_g,
            "worstcase_in_G": worst_g,
            "pointwise_in_M": norm_r * point_g + constants.sup_norm * consistency,
            "worstcase_in_M": (norm_r * worst_g
                               + constants.sup_norm * setting.consistency_operator_error),
        }
        assert [row.bound for row in bounds] == list(want)
        for row in bounds:
            assert row._fields == ("bound", "lhs", "rhs", "satisfied")
            assert row.satisfied == certified(row.lhs, row.rhs)
            assert row.rhs == pytest.approx(want[row.bound], rel=1e-12, abs=1e-15), row
        assert bounds[2].lhs == summary["filter_error"]


def certifies(setting, filt) -> bool:
    """Whether every per-mode and aggregate row of the filter certifies."""
    per_mode, bounds, _ = evaluate_transfer(setting, filt)
    return all(row.satisfied for row in (*per_mode, *bounds))


class TestCertifiedSlack:
    """``certified`` passes lhs <= rhs (1 + 1e-9) + 1e-12, and no more: the
    slack's values are written out here, so a change to either fails."""

    @pytest.mark.parametrize("rhs", [0.0, 1.0, 1e6])
    def test_the_edge_of_the_slack_certifies_and_the_next_float_does_not(self, rhs):
        edge = rhs * (1.0 + 1e-9) + 1e-12
        assert certified(edge, rhs)
        assert not certified(np.nextafter(edge, np.inf), rhs)

    def test_the_edge_of_the_slack_elementwise(self):
        rhs = np.array([0.0, 1.0, 1e6])
        edge = rhs * (1.0 + 1e-9) + 1e-12
        assert certified(edge, rhs).tolist() == [True] * 3
        assert certified(np.nextafter(edge, np.inf), rhs).tolist() == [False] * 3


class TestCertification:
    """The bounds are theorems: every configuration must certify."""

    @pytest.mark.parametrize("filt", FILTERS, ids=lambda f: f.name)
    def test_coarsening_certifies(self, filt):
        for graph in (path_graph(12), random_geometric_graph(20, 0.4, seed=5)):
            space = GraphSpace.from_graph(graph)
            setting = coarsening_setting(space, coarsen_matching(graph))
            assert certifies(setting, filt)

    @pytest.mark.parametrize("mode", ["remove_edges", "add_edges", "remove_vertices"])
    def test_perturbation_certifies(self, mode):
        graph = random_geometric_graph(25, 0.4, seed=8)
        space = GraphSpace.from_graph(graph)
        res = perturb_graph_detailed(graph, PerturbationSpec(mode, 0.1, seed=2))
        delta = build_laplacian(res.graph, "unnormalized")
        setting = perturbation_setting(space, delta, kept=res.kept_vertices)
        for filt in FILTERS:
            assert certifies(setting, filt), (mode, filt.name)

    def test_circle_sampling_certifies(self):
        ss = uniform_sample(64, seed=4)
        pair = evaluation_operator(CIRCLE, ss, 4.0)
        delta = random_sampled_laplacian(BandlimitedKernel(CIRCLE, 9.0), ss)
        setting = sampling_setting(pair, delta)
        for filt in FILTERS:
            assert certifies(setting, filt), filt.name

    def test_scatter_dominance(self):
        graph = random_geometric_graph(25, 0.4, seed=13)
        space = GraphSpace.from_graph(graph)
        setting = coarsening_setting(space, coarsen_matching(graph))
        for filt in FILTERS:
            per_mode, _, _ = evaluate_transfer(setting, filt)
            for row in per_mode:
                assert row.lhs <= row.quotient * row.laplacian_mode_error * (1 + 1e-9) + 1e-12

    def test_interpolation_norm_is_measured(self):
        space = GraphSpace.from_graph(path_graph(6))
        setting = coarsening_setting(space, coarsen_matching(path_graph(6)))
        _, _, summary = evaluate_transfer(setting, Filter.identity())
        # Coarsening has orthonormal rows, so ||R|| = ||S|| = 1.
        assert summary["interpolation_norm"] == pytest.approx(1.0, abs=1e-12)


class TestRefinementMonotonicity:
    def test_median_laplacian_error_shrinks_with_n(self):
        kernel = BandlimitedKernel(CIRCLE, 4.0)
        lams = CIRCLE.eigenvalues_up_to(1.0)
        errs = {n: [] for n in (64, 1024)}
        for n in errs:
            for seed in range(50):
                ss = uniform_sample(n, seed=seed * 7 + n)
                pair = evaluation_operator(CIRCLE, ss, 1.0)
                phi, right = sampled_laplacian_matrix(kernel, ss)
                delta_s = (phi * (kernel.eigenvalues / n)) @ (right @ pair.s_matrix)
                diff = pair.s_matrix * lams - delta_s
                errs[n].append(np.linalg.norm(diff, 2))
        assert np.median(errs[1024]) < np.median(errs[64])


class TestTwoGraph:
    def test_identical_settings_zero(self):
        graph = path_graph(8)
        space = GraphSpace.from_graph(graph)
        setting = coarsening_setting(space, coarsen_matching(graph))
        err, bound = two_graph_error(setting, setting, Filter.lowpass(1.0))
        assert err <= 1e-12
        assert bound >= 0.0

    def test_zero_perturbation_matches_original(self):
        graph = random_geometric_graph(15, 0.5, seed=1)
        space = GraphSpace.from_graph(graph)
        unperturbed = perturbation_setting(space, space.operator, name="g1")
        zero = perturb_graph_detailed(graph, PerturbationSpec("remove_edges", 0.0, seed=0))
        other = perturbation_setting(
            space, build_laplacian(zero.graph, "unnormalized"), name="g2"
        )
        err, bound = two_graph_error(unperturbed, other, Filter.heat(1.0))
        assert err <= 1e-12

    def test_p8_two_coarsenings_within_triangle_bound(self):
        # heavy-edge matching pairs (0,1) (2,3) (4,5) (6,7); the hand-built
        # one shifts every pair by a vertex and keeps both ends single
        graph = path_graph(8)
        space = GraphSpace.from_graph(graph)
        heavy = coarsen_matching(graph)
        shifted = CoarseningMap(8, ((0,), (1, 2), (3, 4), (5, 6), (7,)))
        assert heavy.groups != shifted.groups
        s1 = coarsening_setting(space, heavy, name="c1")
        s2 = coarsening_setting(space, shifted, name="c2")
        err, bound = two_graph_error(s1, s2, Filter.lowpass(1.0))
        assert np.isfinite(err) and np.isfinite(bound)
        assert err > 1e-6
        assert err <= bound * (1 + 1e-9) + 1e-12

    def test_coarsening_vs_perturbation_share_space(self):
        graph = random_geometric_graph(16, 0.5, seed=3)
        space = GraphSpace.from_graph(graph)
        s1 = coarsening_setting(space, coarsen_matching(graph), name="coarse")
        pert = perturb_graph_detailed(graph, PerturbationSpec("remove_edges", 0.2, seed=4))
        s2 = perturbation_setting(
            space, build_laplacian(pert.graph, "unnormalized"), name="pert"
        )
        for filt in FILTERS:
            err, bound = two_graph_error(s1, s2, filt)
            assert err <= bound * (1 + 1e-9) + 1e-12
