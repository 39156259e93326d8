"""Monte-Carlo quadrature bounds: constants, rates, slopes, reproducibility."""

import csv
import math

import numpy as np
import pytest

from spectral_transfer import cli, montecarlo
from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.experiments import ExperimentConfig
from spectral_transfer.montecarlo import (
    QUANTITIES,
    TrialConfig,
    bound_constants,
    cosine_weight,
    failure_rate,
    mc_trial,
    nonasymptotic_filter_bound,
    run_trials,
    slope_fit,
)
from spectral_transfer.sampling import SampleSet
from spectral_transfer.spaces import CircleSpace
from spectral_transfer.transfer import certified

CIRCLE = CircleSpace()


def small_config(**kw):
    defaults = dict(band=1.0, kernel_band=4.0, sizes=(64,), trials=5,
                    delta=0.25, master_seed=3)
    defaults.update(kw)
    return TrialConfig(**defaults)


def all_trials(cfg):
    return run_trials(cfg, bound_constants(cfg))


@pytest.fixture
def equispaced(monkeypatch):
    """Trials drawn at the N equispaced points, carrying the configured
    weight there: the exact quadrature of every band below N / 2."""
    def draw_block(self, size_index, trial_indices):
        points = SampleSet.equispaced(self.sizes[size_index]).points
        points = np.tile(points, (len(trial_indices), 1))
        return SampleSet(points, self.weight_fn()(points))
    monkeypatch.setattr(TrialConfig, "draw_block", draw_block)


class TestConfigValidation:
    def test_band_ordering(self):
        with pytest.raises(SpectralTransferError, match="below the kernel band"):
            small_config(band=4.0, kernel_band=4.0)

    def test_delta_range(self):
        with pytest.raises(SpectralTransferError, match=r"delta 1.0 outside \(0, 1\)"):
            small_config(delta=1.0)

    def test_sizes_cover_band(self):
        with pytest.raises(SpectralTransferError, match="dim PW"):
            small_config(sizes=(2,))


class TestConstants:
    def test_c_lambda_is_sqrt_dim(self):
        # For the circle basis the pointwise column norm is constant, so the
        # optimal constant equals sqrt(dim PW).
        for band, dim in ((0.0, 1), (1.0, 3), (4.0, 5), (25.0, 11), (1e4, 201)):
            cfg = small_config(band=band, kernel_band=band + 1.0, sizes=(dim,),
                               activation_probes=0)
            assert bound_constants(cfg)["c_lambda"] == np.sqrt(dim)

    def test_c_lambda_certificate_1000_probes(self):
        cons = bound_constants(small_config())
        rng = np.random.default_rng(0)
        xs = np.arange(8192) / 8192
        basis = CIRCLE.basis_matrix(xs, 1.0)
        for _ in range(1000):
            c = rng.normal(size=3)
            sup = np.abs(basis @ c).max()
            assert sup <= cons["c_lambda"] * np.linalg.norm(c) * (1 + 1e-9)

    def test_uniform_simplifications(self):
        cons = bound_constants(small_config(weight="uniform"))
        assert cons["w_min"] == pytest.approx(1.0)
        # dim PW(1) = 3 and max |phi|^2 = 2 for the trig basis
        assert cons["c_quad2"] == pytest.approx(2 * 3)
        assert cons["c_quad1"] == pytest.approx(cons["kernel_l2"] * cons["c_lambda"])

    def test_kernel_norm_chain(self):
        cons = bound_constants(small_config())
        assert cons["kernel_l2"] <= cons["lambda_l1"] + 1e-8
        assert cons["norm_chain_ok"] is True
        assert cons["lambda_l1"] == pytest.approx(10.0)  # 0 + 1 + 1 + 4 + 4

    def test_cosine_weight_minimum(self):
        cons = bound_constants(small_config(weight="cosine"))
        assert cons["w_min"] == pytest.approx(0.5, abs=1e-6)

    def test_closed_forms_under_the_cosine_weight(self):
        # w_min = 1/2, dim PW(1) = 3, max |phi|^2 = 2 and ||H||_L2^2 = 1 + 1 + 16 + 16
        cons = bound_constants(small_config(weight="cosine"))
        assert cons["kernel_l2"] == pytest.approx(np.sqrt(34.0), rel=1e-12)
        assert cons["c_quad1"] == pytest.approx(np.sqrt(34.0) * np.sqrt(3.0) / 0.5, rel=1e-12)
        assert cons["c_quad2"] == pytest.approx(3 * 2 / np.sqrt(0.5), rel=1e-12)

    def test_tail_constant_positive_and_inflated(self):
        cons = bound_constants(small_config())
        assert cons["c_quad3"] > 0
        assert cons["c_tail_inflation"] == 1.5

    def test_no_tail_estimate_without_activation_probes(self, monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("the activation tail was estimated")

        monkeypatch.setattr(montecarlo, "estimate_activation_tail_constant", no_estimate)
        cons = bound_constants(small_config(activation_probes=0))
        assert cons["c_quad3"] == 0.0
        results = run_trials(small_config(activation_probes=0), cons)
        assert np.all(results["activation_bound"] == 0.0)
        assert not results["activation_violation"].any()


class TestMcTrial:
    def test_equispaced_band1_exact(self, equispaced):
        cfg = small_config(sizes=(8,), trials=1)
        r = mc_trial(cfg, 0, [0], bound_constants(cfg))
        assert r["trial"].tolist() == [0]
        assert r["laplacian_error"][0] <= 1e-12
        assert r["gram_error"][0] <= 1e-12

    def test_bounds_attached(self):
        # each bound column is its closed form in the returned constants;
        # the cosine weight's w_min = 1/2 enters the activation bound
        n, delta = 64, 0.25
        cfg = small_config(sizes=(n,), trials=3, delta=delta, weight="cosine")
        cons = bound_constants(cfg)
        r = mc_trial(cfg, 0, [0, 1, 2], cons)
        assert r["trial"].tolist() == [0, 1, 2] and r["n"].tolist() == [n] * 3
        closed_forms = {
            "laplacian": cons["c_quad1"] / math.sqrt(n * delta),
            "gram": cons["c_quad2"] / math.sqrt(n * delta),
            "activation": cons["c_quad3"] / (cons["w_min"] * n * delta) ** 0.25,
        }
        for q, bound in closed_forms.items():
            assert r[f"{q}_bound"].tolist() == pytest.approx([bound] * 3, rel=1e-12)

    def test_an_empty_campaign_has_no_columns(self):
        cfg = small_config(trials=0)
        with pytest.raises(SpectralTransferError, match="at least one size and one trial"):
            run_trials(cfg, bound_constants(cfg))

    def test_bitwise_reproducible(self):
        cfg = small_config(trials=3)
        a = all_trials(cfg)
        b = all_trials(cfg)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name


class TestFailureRates:
    def test_tiny_delta_inflates_bounds_to_no_failures(self):
        # The bounds scale like delta^{-1/2}, so a small delta makes them
        # huge and the observed rate collapses to zero.
        cfg = small_config(sizes=(16,), trials=100, delta=0.01)
        rates = failure_rate(cfg, all_trials(cfg))
        assert rates["laplacian"] == 0.0
        assert rates["gram"] == 0.0

    def test_weak_guarantee_delta_near_one_still_markov(self):
        # delta = 0.99 gives the tightest bound with the weakest guarantee;
        # the observed rate can be large but never beyond delta.
        cfg = small_config(sizes=(16,), trials=100, delta=0.99)
        rates = failure_rate(cfg, all_trials(cfg))
        for q in QUANTITIES:
            assert rates[q] <= 0.99

    def test_markov_guarantee_holds(self):
        cfg = small_config(sizes=(64,), trials=120, delta=0.25, weight="cosine")
        rates = failure_rate(cfg, all_trials(cfg))
        for q in QUANTITIES:
            assert rates[q] <= 0.25

    def test_equispaced_rate_zero(self, equispaced):
        cfg = small_config(sizes=(16,), trials=100, activation_probes=0)
        rates = failure_rate(cfg, all_trials(cfg))
        assert rates == {"laplacian": 0.0, "gram": 0.0, "activation": 0.0, "trials": 100}

    def test_rates_are_the_mean_violations_of_the_columns(self):
        cfg = small_config(sizes=(16, 32), trials=60, delta=0.9)
        results = all_trials(cfg)
        rates = failure_rate(cfg, results)
        assert rates["trials"] == 120
        for q in QUANTITIES:
            flags = [not certified(e, b) for e, b in
                     zip(results[f"{q}_error"].tolist(), results[f"{q}_bound"].tolist())]
            assert rates[q] == np.mean(flags), q
        # the campaign has violations to count, and trials without them
        assert 0.0 < rates["laplacian"] < 1.0

    def test_needs_100_trials(self):
        with pytest.raises(SpectralTransferError, match="100"):
            failure_rate(small_config(trials=5), {})


def csv_cell(value) -> str:
    """A cell of trials.csv: a bool as true or false, a number as its repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def test_mc_verify_trials_csv_rows_are_the_run_trials_columns(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("sizes = 16, 32\ntrials = 60\nseed = 5\n")
    code = cli.main(["mc-verify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "trials.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header[0] == "weight" and set(header[1:]) == set(all_trials(small_config()))
    expected = []
    for trial_cfg in ExperimentConfig.from_file(path, "mc-verify").trial_configs:
        results = all_trials(trial_cfg)
        columns = [results[name].tolist() for name in header[1:]]
        expected += [[trial_cfg.weight, *map(csv_cell, cells)] for cells in zip(*columns)]
    assert len(expected) == 2 * 120
    assert rows == expected


class TestSlopes:
    def test_uniform_slopes_in_window(self):
        cfg = TrialConfig(band=1.0, kernel_band=4.0, sizes=(64, 256, 1024),
                          trials=50, delta=0.25, master_seed=42,
                          activation_probes=0)
        fit = slope_fit(cfg, all_trials(cfg))
        assert fit.keys() == {"laplacian", "gram"}
        assert -0.65 <= fit["laplacian"] <= -0.35
        assert -0.65 <= fit["gram"] <= -0.35

    def test_exact_points_raise_slope_undefined(self, equispaced):
        cfg = TrialConfig(band=1.0, kernel_band=4.0, sizes=(8, 16, 32),
                          trials=30, delta=0.25, master_seed=0, activation_probes=0)
        with pytest.raises(SpectralTransferError, match="medians vanish"):
            slope_fit(cfg, all_trials(cfg))

    def test_needs_three_sizes(self):
        cfg = small_config(sizes=(64, 256), trials=30)
        with pytest.raises(SpectralTransferError, match="3 sample sizes"):
            slope_fit(cfg, {})


class TestNonasymptoticBound:
    def test_zero_filter_zero_bound(self):
        assert nonasymptotic_filter_bound(0.0, 0.0, 3, np.sqrt(2), 1.0, 1024,
                                          0.5, 1.0, 0.1) == 0.0

    def test_quadrupling_n_halves_at_half_alpha(self):
        args = dict(d_lipschitz=1.0, g_sup=1.0, dim_pw=3, max_phi_inf=np.sqrt(2),
                    w_min=1.0, alpha=0.5, b_const=1.0, delta=0.1)
        b1 = nonasymptotic_filter_bound(n=256, **args)
        b2 = nonasymptotic_filter_bound(n=1024, **args)
        assert b2 == pytest.approx(b1 / 2.0)

    def test_numeric_oracle_substitution(self):
        # M (2 D B max|phi| / 32 + g max|phi|^2 / 32) / sqrt(delta)
        expected = 3 * (2 * np.sqrt(2) / 32 + 2 / 32) / np.sqrt(0.1)
        val = nonasymptotic_filter_bound(1.0, 1.0, 3, np.sqrt(2), 1.0, 1024,
                                         0.5, 1.0, 0.1)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_alpha_range(self):
        with pytest.raises(SpectralTransferError, match=r"alpha 0.9 outside \(0, 1/2\]"):
            nonasymptotic_filter_bound(1.0, 1.0, 3, 1.0, 1.0, 64, 0.9, 1.0, 0.1)


class TestUnbiasedness:
    def test_estimator_tracks_exact_action(self):
        cfg = small_config(weight="cosine")
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=3)
        x0 = 0.3125
        exact = float(
            CIRCLE.basis_matrix(np.array([x0]), 1.0)[0]
            @ (CIRCLE.eigenvalues_up_to(1.0) * coeffs)
        )
        # per trial, the quadrature of x -> H(x0, x) f(x) over 128 points
        # drawn from w, whose mean is the exact action at x0
        values = np.empty(200)
        for t in range(values.size):
            seed = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(0xE5, t))
            sample = SampleSet.weighted_random(128, cfg.weight_fn(), seed, w_max=1.5)
            f_vals = CIRCLE.basis_matrix(sample.points, 1.0) @ coeffs
            h_row = cfg.kernel.evaluate(np.array([x0]), sample.points)[0]
            values[t] = float((h_row * f_vals / sample.w_values).mean())
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - exact) <= 3.0 * se + 1e-12
