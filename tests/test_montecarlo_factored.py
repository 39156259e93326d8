"""The factored sampled kernel and the per-size activation probes, checked
against dense, per-probe reference implementations kept here."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_transfer.montecarlo import (
    _TRIAL_ROWS,
    TrialConfig,
    _activation_excess,
    bound_constants,
    cosine_weight,
    estimate_activation_tail_constant,
    mc_trial,
    relu,
    run_trials,
)
from spectral_transfer.sampling import SampleSet, sampled_laplacian_matrix
from spectral_transfer.spaces import CircleSpace, bandlimited_kernel

CIRCLE = CircleSpace()


def dense_kernel_matrix(kernel, points, w_vals):
    """``[D]_{kk'} = H(x_k, x_k') / w(x_k') / N`` entry by entry."""
    return kernel.evaluate(points, points) / w_vals[None, :] / points.size


def per_probe_tail(config, rng, probes, grid):
    """Continuous activation tails of seeded unit probes, one at a time."""
    xs = np.arange(grid) / grid
    basis_lo = CIRCLE.basis_matrix(xs, config.band)
    basis_hi = CIRCLE.basis_matrix(xs, config.kernel_band)
    for _ in range(probes):
        c = rng.normal(size=basis_lo.shape[1])
        c /= np.linalg.norm(c)
        rho_grid = relu(basis_lo @ c)
        coeffs_hi = basis_hi.T @ rho_grid / grid
        yield c, coeffs_hi, rho_grid - basis_hi @ coeffs_hi


def per_probe_excess(config, sample, s_mat, b_sqrt, grid=4096):
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, 0xF0, sample.size))
    )
    phi_hi = CIRCLE.basis_matrix(sample.points, config.kernel_band)
    worst = -np.inf
    for c, coeffs_hi, tail in per_probe_tail(config, rng, config.activation_probes, grid):
        projected = (phi_hi @ coeffs_hi) / np.sqrt(sample.size)
        graph_tail = np.linalg.norm((relu(s_mat @ c) - projected) * b_sqrt)
        worst = max(worst, graph_tail - np.sqrt((tail**2).mean()))
    return worst


def trial_inputs(config, size_index, trial_index):
    sample = config.draw(size_index, trial_index)
    w_vals = (sample.w_values if sample.w_values is not None
              else config.weight_fn()(sample.points))
    s_mat = CIRCLE.basis_matrix(sample.points, config.band) / np.sqrt(sample.size)
    return sample, w_vals, s_mat


def dense_trial_errors(config, size_index, trial_index):
    """The three trial errors with the dense N x N kernel."""
    sample, w_vals, s_mat = trial_inputs(config, size_index, trial_index)
    b_sqrt = 1.0 / np.sqrt(w_vals)
    dense = dense_kernel_matrix(config.kernel, sample.points, w_vals)
    mismatch = s_mat * CIRCLE.eigenvalues_up_to(config.band) - dense @ s_mat
    gram = s_mat.T @ (s_mat / w_vals[:, None])
    return (
        np.linalg.norm(mismatch * b_sqrt[:, None], 2),
        np.linalg.norm(gram - np.eye(s_mat.shape[1]), "fro"),
        per_probe_excess(config, sample, s_mat, b_sqrt) if config.activation_probes else 0.0,
    )


def assert_close(actual, ref):
    ref = np.asarray(ref)
    assert np.all(np.abs(np.asarray(actual) - ref) <= 1e-12 * (1.0 + np.abs(ref)))


SAMPLE_SETS = {
    "uniform": (lambda: SampleSet.uniform_random(40, seed=1), None),
    "cosine": (lambda: SampleSet.uniform_random(40, seed=2), cosine_weight),
    "w_values": (lambda: SampleSet.weighted_random(40, cosine_weight, seed=3), None),
}


@pytest.mark.parametrize("kind", sorted(SAMPLE_SETS))
def test_factored_kernel_matches_dense(kind):
    make, weight = SAMPLE_SETS[kind]
    sample = make()
    kernel = bandlimited_kernel(CIRCLE, 9.0)
    op, w_vals = sampled_laplacian_matrix(kernel, sample, weight)
    dense = dense_kernel_matrix(kernel, sample.points, w_vals)
    rng = np.random.default_rng(0)
    vec, mat = rng.normal(size=40), rng.normal(size=(40, 3))
    assert op.left.shape == (40, kernel.dim) and op.right.shape == (kernel.dim, 40)
    assert_close(np.asarray(op), dense)
    assert_close(op @ vec, dense @ vec)
    assert_close(op @ mat, dense @ mat)


@pytest.mark.parametrize("weight", ["uniform", "cosine"])
def test_activation_excess_matches_per_probe_loop(weight):
    config = TrialConfig(band=1.0, kernel_band=4.0, sizes=(32, 200), trials=2,
                         delta=0.25, master_seed=5, weight=weight)
    for size_index in range(2):
        for trial_index in range(2):
            sample, w_vals, s_mat = trial_inputs(config, size_index, trial_index)
            b_sqrt = 1.0 / np.sqrt(w_vals)
            phi_hi = CIRCLE.basis_matrix(sample.points, config.kernel_band)
            assert_close(
                _activation_excess(config, phi_hi, s_mat, b_sqrt),
                per_probe_excess(config, sample, s_mat, b_sqrt),
            )


@pytest.mark.parametrize("probes", [40, 500])
def test_tail_constant_matches_per_probe_loop(probes):
    # 40 probes end in a partial block; 500 is the shipped count.
    config = TrialConfig(band=1.0, kernel_band=4.0, sizes=(16,), trials=1,
                         delta=0.25, master_seed=11)
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xAC7)))
    worst = max(np.abs(tail).max() for _, _, tail in per_probe_tail(config, rng, probes, 4096))
    assert_close(estimate_activation_tail_constant(config, probes=probes), 1.5 * worst)


def test_trial_allocates_no_dense_kernel():
    n = 4096
    config = TrialConfig(band=1.0, kernel_band=4.0, sizes=(n,), trials=1,
                         delta=0.25, master_seed=1, weight="cosine")
    constants = bound_constants(config)
    mc_trial(config, 0, [0], constants)  # fills the per-size probe cache
    tracemalloc.start()
    try:
        mc_trial(config, 0, [0], constants)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 16


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=9, max_value=300),
    bands=st.sampled_from([(0.0, 1.0), (1.0, 4.0), (1.0, 9.0), (4.0, 9.0)]),
    weight=st.sampled_from(["uniform", "cosine"]),
    probes=st.sampled_from([0, 3]),
)
def test_trial_matches_dense_reference(n, bands, weight, probes):
    config = TrialConfig(band=bands[0], kernel_band=bands[1], sizes=(n,), trials=1,
                         delta=0.25, master_seed=n, weight=weight,
                         activation_probes=probes)
    (result,) = mc_trial(config, 0, [0], bound_constants(config))
    assert_close(
        (result.laplacian_err, result.gram_err, result.activation_err),
        dense_trial_errors(config, 0, 0),
    )


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=9, max_value=300), min_size=1, max_size=2),
    trials=st.integers(min_value=1, max_value=12),
    bands=st.sampled_from([(0.0, 1.0), (1.0, 4.0), (4.0, 9.0)]),
    weight=st.sampled_from(["uniform", "cosine"]),
    sampler=st.sampled_from(["random", "equispaced"]),
    probes=st.sampled_from([0, 3]),
)
# blocks of 2048 // 300 = 6 trials: the last block holds 2
@example(sizes=[300], trials=8, bands=(1.0, 4.0), weight="cosine",
         sampler="random", probes=3)
# above the row budget every block is one trial
@example(sizes=[_TRIAL_ROWS + 1], trials=2, bands=(1.0, 4.0), weight="uniform",
         sampler="random", probes=3)
def test_run_trials_match_dense_reference(sizes, trials, bands, weight, sampler, probes):
    config = TrialConfig(band=bands[0], kernel_band=bands[1], sizes=tuple(sizes),
                         trials=trials, delta=0.25, master_seed=sum(sizes),
                         weight=weight, sampler=sampler, activation_probes=probes)
    results = run_trials(config, bound_constants(config))
    order = [(si, t) for si in range(len(sizes)) for t in range(trials)]
    assert [(r.size, r.trial) for r in results] == [(sizes[si], t) for si, t in order]
    for r, (si, t) in zip(results, order):
        ref = dense_trial_errors(config, si, t)
        assert_close((r.laplacian_err, r.gram_err, r.activation_err), ref)
        bounds = (r.laplacian_bound, r.gram_bound, r.activation_bound)
        assert r.violations == tuple(e > b for e, b in zip(ref, bounds))


def test_run_trials_memory_stays_linear_in_n():
    n = 16384
    config = TrialConfig(band=1.0, kernel_band=4.0, sizes=(n,), trials=2,
                         delta=0.25, master_seed=1, weight="cosine")
    constants = bound_constants(config)
    run_trials(config, constants)  # fills the per-size probe cache
    tracemalloc.start()
    try:
        run_trials(config, constants)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about ten N x K arrays of doubles: one trial per block at this size,
    # and no N x N kernel (2 GB here)
    assert peak < 16 * n * config.kernel.dim * 8
