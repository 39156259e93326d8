"""The factored sampled kernel, the per-size activation probes and the
block draw of trials, checked against dense, per-probe and per-trial
reference implementations kept here."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_transfer import montecarlo
from spectral_transfer.montecarlo import (
    TrialConfig,
    _activation_excess,
    bound_constants,
    cosine_weight,
    estimate_activation_tail_constant,
    mc_trial,
    run_trials,
)
from spectral_transfer.sampling import (
    SampleSet,
    rejection_sample,
    sampled_laplacian_matrix,
    unit_probes,
)
from spectral_transfer.spaces import BandlimitedKernel, CircleSpace

CIRCLE = CircleSpace()


def relu(x):
    return np.maximum(x, 0.0)


def uniform_sample(n, seed, weight=None):
    """n points drawn uniformly on [0, 1) from a seeded generator, carrying
    ``weight`` at the points (ones when it is None)."""
    points = np.random.default_rng(seed).uniform(size=n)
    return SampleSet(points, None if weight is None else weight(points))


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
    points, w_vals, _ = per_trial_draw(config, size_index, trial_index)
    sample = SampleSet(points, w_vals)
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
    "uniform": lambda: uniform_sample(40, seed=1),
    "cosine": lambda: uniform_sample(40, seed=2, weight=cosine_weight),
    "w_values": lambda: SampleSet.weighted_random(40, cosine_weight, seed=3),
}


@pytest.mark.parametrize("kind", sorted(SAMPLE_SETS))
def test_factored_kernel_matches_dense(kind):
    sample = SAMPLE_SETS[kind]()
    kernel = BandlimitedKernel(CIRCLE, 9.0)
    op = sampled_laplacian_matrix(kernel, sample)
    dense = dense_kernel_matrix(kernel, sample.points, sample.w_values)
    rng = np.random.default_rng(0)
    vec, mat = rng.normal(size=40), rng.normal(size=(40, 3))
    assert op.left.shape == (40, len(kernel.eigenvalues))
    assert op.right.shape == (len(kernel.eigenvalues), 40)
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
            phi_hi = CIRCLE.basis_matrix(sample.points, config.kernel_band)
            assert_close(
                _activation_excess(config, phi_hi, w_vals),
                per_probe_excess(config, sample, s_mat, 1.0 / np.sqrt(w_vals)),
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


@pytest.mark.parametrize("weight", ["uniform", "cosine"])
@pytest.mark.parametrize("n, trials", [(256, 32), (2048, 4)])
def test_trial_block_peak_stays_within_six_basis_arrays(n, trials, weight):
    # 8192 rows, the row budget of one block, at two block shapes
    config = TrialConfig(band=1.0, kernel_band=4.0, sizes=(n,), trials=trials,
                         delta=0.25, master_seed=1, weight=weight, activation_probes=8)
    constants = bound_constants(config)
    mc_trial(config, 0, range(trials), constants)  # fills the per-size probe cache
    tracemalloc.start()
    try:
        mc_trial(config, 0, range(trials), constants)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the block's kernel-band basis is one rows x K array; the sampled
    # Laplacian's factors and the probe tails add a few more, and no N-row
    # mismatch, band sampling matrix or their products are formed
    assert peak <= 6 * n * trials * len(config.kernel.eigenvalues) * 8


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=9, max_value=300),
    bands=st.sampled_from([(0.0, 1.0), (1.0, 4.0), (1.0, 9.0), (4.0, 9.0), (1.0, 25.0)]),
    weight=st.sampled_from(["uniform", "cosine"]),
    probes=st.sampled_from([0, 3]),
)
# N = 9 points below K = 11 kernel-band functions: the weighted Gram of the
# kernel-band basis is singular
@example(n=9, bands=(1.0, 25.0), weight="cosine", probes=3)
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
    # up to 40 trials: above 8192 // 205 = 39 points a size spans two blocks
    trials=st.integers(min_value=1, max_value=40),
    bands=st.sampled_from([(0.0, 1.0), (1.0, 4.0), (4.0, 9.0)]),
    weight=st.sampled_from(["uniform", "cosine"]),
    sampler=st.sampled_from(["random", "equispaced"]),
    probes=st.sampled_from([0, 3]),
)
# blocks of 8192 // 300 = 27 trials: the last block holds 3
@example(sizes=[300], trials=30, bands=(1.0, 4.0), weight="cosine",
         sampler="random", probes=3)
# blocks of 8192 // 2049 = 3 trials at a large N: the last block holds 2
@example(sizes=[2049], trials=5, bands=(1.0, 4.0), weight="uniform",
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
    # about five N x K arrays of doubles: one trial per block at this size,
    # and no N x N kernel (2 GB here)
    assert peak < 16 * n * len(config.kernel.eigenvalues) * 8


def per_set_rejection(rng, n, weight, w_max):
    """The per-set rejection loop that drew each trial before blocks: the
    points, their weights and the number of rounds."""
    points = np.empty(n)
    filled = rounds = 0
    while filled < n:
        cand = rng.uniform(size=2 * (n - filled) + 8)
        acc = rng.uniform(size=cand.size) * w_max <= weight(cand)
        take = cand[acc][: n - filled]
        points[filled : filled + take.size] = take
        filled += take.size
        rounds += 1
    return points, np.asarray(weight(points), dtype=float), rounds


def per_trial_draw(config, size_index, trial_index):
    """``TrialConfig.draw`` before blocks: one generator and one draw per
    trial.  Returns the points, the weights at them and the rounds;
    equispaced points carry the configured weight, uniform ones ones."""
    n = config.sizes[size_index]
    if config.sampler == "equispaced":
        points = np.arange(n) / n
        return points, config.weight_fn()(points), 0
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.master_seed, spawn_key=(size_index, trial_index)
    ))
    if config.weight == "uniform":
        return rng.uniform(size=n), np.ones(n), 1
    return per_set_rejection(rng, n, config.weight_fn(), 1.5)


def assert_block_matches_per_trial(config, size_index, trials):
    block = config.draw_block(size_index, trials)
    refs = [per_trial_draw(config, size_index, t) for t in trials]
    assert np.array_equal(block.points, np.stack([points for points, _, _ in refs]))
    assert np.array_equal(block.w_values, np.stack([w for _, w, _ in refs]))
    return max(rounds for _, _, rounds in refs)


@pytest.mark.parametrize("weight, sampler", [
    ("uniform", "random"), ("cosine", "random"),
    ("uniform", "equispaced"), ("cosine", "equispaced"),
])
def test_draw_block_matches_per_trial_draw(weight, sampler):
    config = TrialConfig(band=0.0, kernel_band=1.0, sizes=(1, 2, 3, 4, 5, 256),
                         trials=40, delta=0.25, master_seed=0, weight=weight,
                         sampler=sampler)
    for size_index in range(len(config.sizes)):
        for trials in ([0], [7], range(40), range(32), range(32, 40)):
            assert_block_matches_per_trial(config, size_index, trials)
    # trial 351 of N = 4 at seed 0 falls short in its first round
    for trials in ([351], range(345, 360)):
        rounds = assert_block_matches_per_trial(config, 3, trials)
        if (weight, sampler) == ("cosine", "random"):
            assert rounds == 2


def test_rejection_rounds_of_every_shortfall_match_per_set_loop():
    # acceptance 1/30: rows fall short by different counts, round after round
    seeds = [np.random.SeedSequence((4, row)) for row in range(12)]
    points, w_values = rejection_sample(
        [np.random.default_rng(seed) for seed in seeds], 7, cosine_weight, 30.0
    )
    refs = [per_set_rejection(np.random.default_rng(seed), 7, cosine_weight, 30.0)
            for seed in seeds]
    assert min(rounds for _, _, rounds in refs) > 1
    assert np.array_equal(points, np.stack([p for p, _, _ in refs]))
    assert np.array_equal(w_values, np.stack([w for _, w, _ in refs]))
    single = SampleSet.weighted_random(7, cosine_weight, seeds[0], w_max=30.0)
    assert np.array_equal(single.points, refs[0][0])
    assert np.array_equal(single.w_values, refs[0][1])


@pytest.mark.parametrize("weight, sampler", [
    ("uniform", "random"), ("cosine", "random"), ("cosine", "equispaced"),
])
def test_run_trials_do_not_depend_on_the_row_budget(monkeypatch, weight, sampler):
    config = TrialConfig(band=1.0, kernel_band=4.0, sizes=(300, 9, 64), trials=30,
                         delta=0.25, master_seed=3, weight=weight, sampler=sampler,
                         activation_probes=3)
    constants = bound_constants(config)
    results = []
    for rows in (1, 2048, 8192):  # one trial per block, then 6 and 27 at N = 300
        monkeypatch.setattr(montecarlo, "_TRIAL_ROWS", rows)
        results.append(run_trials(config, constants))
    assert results[0] == results[1] == results[2]
    order = [(si, t) for si in range(len(config.sizes)) for t in range(config.trials)]
    for r, (si, t) in zip(results[0], order, strict=True):
        assert_close((r.laplacian_err, r.gram_err, r.activation_err),
                     dense_trial_errors(config, si, t))


def allocating_tail_constant(config, probes):
    """The activation-tail constant with fresh arrays for every block of
    16 probes, as before its buffers were reused."""
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xAC7)))
    dim = CIRCLE.dim_pw(config.band)
    basis_hi = CIRCLE.basis_matrix(np.arange(4096) / 4096, config.kernel_band)
    worst = 0.0
    for start in range(0, probes, 16):
        block = unit_probes(rng, dim, min(16, probes - start))
        rho = relu(basis_hi[:, :dim] @ block)
        coeffs_hi = basis_hi.T @ rho / 4096
        worst = max(worst, float(np.abs(rho - basis_hi @ coeffs_hi).max()))
    return 1.5 * worst


@pytest.mark.parametrize("seed", [1, 7, 11])
@pytest.mark.parametrize("probes", [40, 500])
def test_tail_constant_matches_allocating_loop_bitwise(seed, probes):
    config = TrialConfig(band=1.0, kernel_band=4.0, sizes=(16,), trials=1,
                         delta=0.25, master_seed=seed)
    assert (estimate_activation_tail_constant(config, probes=probes)
            == allocating_tail_constant(config, probes))
