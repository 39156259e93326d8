"""Randomized verification of the quadrature error bounds.

Random sample sets on the circle turn the band-limited kernel operator into
a Monte-Carlo quadrature; three error terms then admit explicit
high-probability bounds:

* the Laplacian mismatch ``||S L P - D S P||``   <=  C  delta^-1/2 N^-1/2,
* the Gram defect ``||S^H B S - I||_F``          <=  C' delta^-1/2 N^-1/2,
* the activation-commutation excess              <=  C'' (w_min N delta)^-1/4,

each in probability at least 1 - delta, with fully explicit constants.
This module draws seeded trials, measures the three errors, evaluates the
constants, checks empirical failure rates against delta, fits log-log
convergence slopes, and evaluates the non-asymptotic filter transfer bound.

Each trial derives its generator from (master seed, size index, trial
index), so results are bitwise reproducible.  A trial costs O(N K) time and
memory for K = dim PW(kernel band): the sampled kernel is applied through
its rank-K factors, and the activation probes of a size, whose seed depends
on the size alone, are built once and shared by all its trials.

The trials of one size run in blocks of ``max(1, _TRIAL_ROWS // N)``: a
block's sample sets are drawn in one pass and stacked as (trials, N)
points, so its rejection rounds, weights, kernel-band basis, factored
kernels, Gram matrices and norms are each one stacked call, not one small
call per trial.  The row budget bounds the block's temporaries.  Measured
with one BLAS thread on a 2-core host, on the shipped mc-verify config
(800 trials of N = 256): blocks of 32 trials (8192 rows) cut the
benchmark's host-normalised median run time from 0.150 s, with blocks of
8 trials drawn one trial at a time, to 0.111 s.  The CLI process peaks at
41 MB RSS with 8192 rows, 40.5 MB with 2048 or 4096, 43.5 MB with 16384
and 70 MB with all 400 trials of a weight in one block; 4096 and 16384
rows were both slower than 8192.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, SlopeUndefinedError
from .graphs import operator_norm
from .sampling import (
    SampleSet,
    rejection_sample,
    sampled_laplacian_matrix,
    unit_probes,
)
from .spaces import BandlimitedKernel, CircleSpace, bandlimited_kernel
from .transfer import certified

_C_SPHERE_PROBES = 500
#: Size of the uniform grid for the constants and the activation tails.
_GRID = 4096
#: Probe columns activated at once on the quadrature grid.  It sizes the
#: two grid-by-probes buffers that the tail-constant estimate reuses
#: (4096 x 16 doubles = 0.5 MB each); blocks of 64 raised the peak RSS of
#: the shipped mc-verify run by 6 MB.
_PROBE_BLOCK = 16
#: Sample rows of one block of trials (trials times N); a size above it
#: runs one trial per block.
_TRIAL_ROWS = 8192
#: The sphere-sampling estimate of the activation-tail constant is inflated
#: by this factor; the true maximum exists but has no closed form.
C_TAIL_INFLATION = 1.5


def cosine_weight(x):
    """Strictly positive non-uniform density on the circle, integral 1."""
    return 1.0 + 0.5 * np.cos(2.0 * np.pi * np.asarray(x))


def uniform_weight(x):
    return np.ones_like(np.asarray(x, dtype=float))


_WEIGHTS = {"uniform": uniform_weight, "cosine": cosine_weight}


def relu(x):
    return np.maximum(np.asarray(x), 0.0)


@dataclass(frozen=True)
class TrialConfig:
    """One Monte-Carlo verification campaign."""

    band: float
    kernel_band: float
    sizes: tuple
    trials: int
    delta: float
    master_seed: int
    weight: str = "uniform"
    sampler: str = "random"  # random | equispaced
    activation_probes: int = 8

    def __post_init__(self):
        if not self.band < self.kernel_band:
            raise ParameterError("band must be below the kernel band")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta {self.delta} outside (0, 1)")
        if self.weight not in _WEIGHTS:
            raise ParameterError(f"unknown weight {self.weight!r}")
        if self.sampler not in ("random", "equispaced"):
            raise ParameterError(f"unknown sampler {self.sampler!r}")
        space = CircleSpace()
        if space.max_frequency(self.kernel_band) >= _GRID // 2:
            # sin(pi k) = 0 at every grid point: the tail's grid basis is rank-deficient
            raise ParameterError(
                f"kernel band {self.kernel_band:.12g} must be below {(_GRID // 2) ** 2}: the "
                f"{_GRID}-point activation grid resolves frequencies below {_GRID // 2}"
            )
        min_dim = space.dim_pw(self.band)
        if any(n < min_dim for n in self.sizes):
            raise ParameterError(
                f"every sample size must be at least dim PW = {min_dim}"
            )
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))

    @property
    def space(self) -> CircleSpace:
        return CircleSpace()

    @cached_property
    def kernel(self) -> BandlimitedKernel:
        return bandlimited_kernel(self.space, self.kernel_band)

    def weight_fn(self):
        return _WEIGHTS[self.weight]

    def draw_block(self, size_index: int, trial_indices) -> SampleSet:
        """The sample sets of the trials, stacked as (trials, N) points.

        Trial t draws from its own generator, seeded by (master seed,
        size index, t), so a trial's points do not depend on its block.
        Random blocks draw all their trials in one pass: uniform points
        fill the rows in place, and weighted ones come from one stacked
        :func:`rejection_sample`, which also gives their weights.
        """
        n = self.sizes[size_index]
        if self.sampler == "equispaced":
            return SampleSet(np.tile(SampleSet.equispaced(n).points, (len(trial_indices), 1)))
        rngs = [
            np.random.default_rng(np.random.SeedSequence(
                entropy=self.master_seed, spawn_key=(size_index, t)
            ))
            for t in trial_indices
        ]
        if self.weight == "uniform":
            points = np.empty((len(rngs), n))
            for rng, row in zip(rngs, points):
                rng.random(out=row)
            return SampleSet(points)
        return SampleSet(*rejection_sample(rngs, n, self.weight_fn(), w_max=1.5))


@dataclass(frozen=True)
class MCBoundConstants:
    """Explicit constants of the three bounds for one configuration."""

    c_lambda: float
    c_quad1: float
    c_quad2: float
    c_quad3: float
    lambda_l1: float
    kernel_l2: float
    w_min: float
    c_tail_inflation: float = C_TAIL_INFLATION

    def laplacian_bound(self, n: int, delta: float) -> float:
        return float(self.c_quad1 / np.sqrt(n * delta))

    def gram_bound(self, n: int, delta: float) -> float:
        return float(self.c_quad2 / np.sqrt(n * delta))

    def activation_bound(self, n: int, delta: float) -> float:
        return float(self.c_quad3 / (self.w_min * n * delta) ** 0.25)


def exact_c_lambda(space: CircleSpace, band: float) -> float:
    """Optimal constant with ||f||_inf <= C ||f||_2 on the band.

    By Cauchy-Schwarz the supremum over unit-norm band-limited signals at a
    point x is the Euclidean norm of the basis column at x, attained by the
    matching coefficient vector; maximizing over a fine grid is exact up to
    grid resolution (the quantity is constant for the circle basis).
    """
    xs = np.arange(_GRID) / _GRID
    phi = space.basis_matrix(xs, band)
    return float(np.sqrt((phi**2).sum(axis=1).max()))


def estimate_activation_tail_constant(
    config: TrialConfig, probes: int = _C_SPHERE_PROBES,
) -> float:
    """Sphere-sampling surrogate for the worst sup-norm activation tail.

    Measures ``max ||(I - P(band')) rho(f)||_inf`` over seeded unit-sphere
    band-limited probes and inflates the maximum; the inflation factor is
    carried in the constants so reports show the estimate's provenance.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xAC7)))
    dim = config.space.dim_pw(config.band)
    basis_hi = _grid_basis(config)
    buffers = np.empty((2, _GRID * _PROBE_BLOCK))
    worst = 0.0
    for start in range(0, probes, _PROBE_BLOCK):
        block = unit_probes(rng, dim, min(_PROBE_BLOCK, probes - start))
        # contiguous (_GRID, probes) views, so a short last block is laid
        # out as a fresh array would be
        out = buffers[:, : _GRID * block.shape[1]].reshape(2, _GRID, -1)
        _, tail = _activation_tail(basis_hi, block, out)
        worst = max(worst, float(tail.max()), -float(tail.min()))
    return C_TAIL_INFLATION * worst


def _grid_basis(config: TrialConfig) -> np.ndarray:
    """The kernel-band basis at ``_GRID`` equispaced points."""
    return config.space.basis_matrix(np.arange(_GRID) / _GRID, config.kernel_band)


def _activation_tail(basis_hi: np.ndarray, probes: np.ndarray, out=None) -> tuple:
    """Continuous activation tail of band-limited probes on a uniform grid.

    For each coefficient column f of ``probes`` returns the coefficients of
    ``P(kernel_band) rho(f)`` and the values of ``rho(f) - P(kernel_band)
    rho(f)`` at the grid points of ``basis_hi`` (:func:`_grid_basis`), one
    column per probe, with rho the ReLU.  The band basis is the leading
    columns of ``basis_hi``.  ``out``, when given, is a pair of
    (_GRID, probes) arrays that receive ``rho(f)`` and the tail.
    """
    rho, tail = (None, None) if out is None else out
    rho = np.matmul(basis_hi[:, : probes.shape[0]], probes, out=rho)
    np.maximum(rho, 0.0, out=rho)
    coeffs_hi = basis_hi.T @ rho / _GRID
    tail = np.matmul(basis_hi, coeffs_hi, out=tail)
    return coeffs_hi, np.subtract(rho, tail, out=tail)


def bound_constants(config: TrialConfig) -> MCBoundConstants:
    """Evaluate every explicit constant for the configuration.

    ``c_quad3`` is estimated only for a configuration with activation
    probes; without them no activation error is measured and it is 0.
    """
    space = config.space
    w_vals = config.weight_fn()(np.arange(_GRID) / _GRID)
    w_min = float(np.min(w_vals))
    c_lam = min(
        exact_c_lambda(space, config.band),
        float(np.sqrt(space.dim_pw(config.band)))
        * space.sup_norm_of_basis(config.band),
    )
    kernel = config.kernel
    dim = space.dim_pw(config.band)
    max_phi_inf = space.sup_norm_of_basis(config.band)
    return MCBoundConstants(
        c_lambda=float(c_lam),
        c_quad1=float(kernel.l2_norm() * c_lam / w_min),
        c_quad2=float(dim * max_phi_inf**2 / np.sqrt(w_min)),
        c_quad3=(float(estimate_activation_tail_constant(config))
                 if config.activation_probes > 0 else 0.0),
        lambda_l1=kernel.lambda_l1,
        kernel_l2=kernel.l2_norm(),
        w_min=w_min,
    )


@dataclass(frozen=True)
class TrialResult:
    size: int
    trial: int
    laplacian_err: float
    gram_err: float
    activation_err: float
    laplacian_bound: float
    gram_bound: float
    activation_bound: float

    @property
    def violations(self) -> tuple:
        return (
            not certified(self.laplacian_err, self.laplacian_bound),
            not certified(self.gram_err, self.gram_bound),
            not certified(self.activation_err, self.activation_bound),
        )


def mc_trial(config: TrialConfig, size_index: int, trial_indices,
             constants: MCBoundConstants) -> list:
    """Draw the sample sets of a block of trials of one size and measure
    the three errors of each, with their bounds, in trial order.

    The block runs stacked: one kernel-band basis evaluation, one stack of
    factored kernels and one batched norm per error.
    """
    space = config.space
    sample = config.draw_block(size_index, trial_indices)
    n = sample.size
    phi = space.basis_matrix(sample.points, config.kernel_band)
    # a drawn weighted block carries its weights; equispaced points take
    # the configured weight, and uniform ones get ones either way
    weight = config.weight_fn() if sample.w_values is None else None
    delta_op, w_vals = sampled_laplacian_matrix(config.kernel, sample, weight, basis=phi)
    # the band basis is the leading columns of the kernel-band basis
    s_mat = phi[..., : space.dim_pw(config.band)] / np.sqrt(n)
    b_sqrt = 1.0 / np.sqrt(w_vals)

    lams = space.eigenvalues_up_to(config.band)
    mismatch = s_mat * lams - delta_op @ s_mat
    laplacian_errs = operator_norm(mismatch * b_sqrt[..., None])

    gram_mat = s_mat.swapaxes(-1, -2) @ (s_mat / w_vals[..., None])
    gram_errs = np.linalg.norm(
        gram_mat - np.eye(s_mat.shape[-1]), "fro", axis=(-2, -1)
    )

    activation_errs = _activation_excess(config, phi, s_mat, b_sqrt)
    bounds = (
        constants.laplacian_bound(n, config.delta),
        constants.gram_bound(n, config.delta),
        constants.activation_bound(n, config.delta),
    )
    return [
        TrialResult(n, t, float(lap), float(gram), float(act), *bounds)
        for t, lap, gram, act in zip(
            trial_indices, laplacian_errs, gram_errs, activation_errs
        )
    ]


@lru_cache(maxsize=64)
def _size_probes(config: TrialConfig, n: int) -> tuple:
    """The seeded unit probes of sample size ``n``, the coefficients of
    their activated band-kernel projections, and the continuous L2 norms
    of their activation tails; the same for every trial of that size."""
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xF0, n)))
    probes = unit_probes(rng, config.space.dim_pw(config.band), config.activation_probes)
    coeffs_hi, tail = _activation_tail(_grid_basis(config), probes)
    return probes, coeffs_hi, np.sqrt((tail**2).mean(axis=0))


def _activation_excess(config: TrialConfig, phi_hi: np.ndarray, s_mat,
                       b_sqrt) -> np.ndarray:
    """Sampled-minus-continuous tail norm excess over seeded probes.

    For each unit probe f in the band, compares the graph norm of the
    sampled activation tail ``rho(f) - P(band') rho(f)`` at the sample
    points against the continuous L2 norm of the same tail; the Monte-Carlo
    lemma bounds the excess of the first over the second.  ``phi_hi`` is
    the kernel-band basis at the sample points (..., N, K), ``s_mat`` the
    band sampling matrix (..., N, k) and ``b_sqrt`` (..., N) the square
    roots of the inner-product weights; the excess has the leading shape.
    """
    if config.activation_probes == 0:
        return np.zeros(phi_hi.shape[:-2])
    n = phi_hi.shape[-2]
    probes, coeffs_hi, cont_tail = _size_probes(config, n)
    # rho commutes with evaluation: rho(S f) = S rho(f)
    graph_tail_vals = relu(s_mat @ probes) - (phi_hi @ coeffs_hi) / np.sqrt(n)
    graph_tail = np.linalg.norm(graph_tail_vals * b_sqrt[..., None], axis=-2)
    return np.max(graph_tail - cont_tail, axis=-1)


def run_trials(config: TrialConfig, constants: MCBoundConstants):
    """All (size, trial) results, size-major and bitwise reproducible.

    The trials of a size of N points run in blocks of ``max(1,
    _TRIAL_ROWS // N)``, one :func:`mc_trial` call each.
    """
    results = []
    for size_index, n in enumerate(config.sizes):
        step = max(1, _TRIAL_ROWS // n)
        for start in range(0, config.trials, step):
            block = range(start, min(start + step, config.trials))
            results.extend(mc_trial(config, size_index, block, constants))
    return results


@dataclass(frozen=True)
class FailureRates:
    """Observed fraction of trials violating each bound."""

    laplacian: float
    gram: float
    activation: float
    trials: int

    def as_tuple(self):
        return (self.laplacian, self.gram, self.activation)


def check_failure_rate_inputs(config: TrialConfig) -> None:
    """Raise :class:`ParameterError` unless the campaign has the trials
    that :func:`failure_rate` needs."""
    if config.trials * len(config.sizes) < 100:
        raise ParameterError("failure rates need at least 100 trials")


def failure_rate(config: TrialConfig, results) -> FailureRates:
    """Violation fractions of ``results``; each must stay at or below delta."""
    check_failure_rate_inputs(config)
    flags = np.array([r.violations for r in results], dtype=float)
    rates = flags.mean(axis=0)
    return FailureRates(float(rates[0]), float(rates[1]), float(rates[2]), len(results))


@dataclass(frozen=True)
class SlopeFit:
    laplacian: float
    gram: float
    activation: float
    medians: dict = field(repr=False, default=None)


def check_slope_fit_inputs(config: TrialConfig) -> None:
    """Raise :class:`ParameterError` unless the campaign has the sizes and
    trials that :func:`slope_fit` needs."""
    if len(config.sizes) < 3:
        raise ParameterError("slope fit needs at least 3 sample sizes")
    if len(set(config.sizes)) < 3:
        # a repeated size adds no point to the log-log fit
        raise ParameterError("slope fit needs at least 3 distinct sample sizes")
    if config.trials < 30:
        raise ParameterError("slope fit needs at least 30 trials per size")


def slope_fit(config: TrialConfig, results) -> SlopeFit:
    """Least-squares slope of log(median error) against log(N).

    Medians are used because the Markov-style tails are heavy.  Raises
    :class:`SlopeUndefinedError` when a quantity's medians all vanish (as
    with exact-quadrature point sets).
    """
    check_slope_fit_inputs(config)
    by_size = {n: [] for n in config.sizes}
    for r in results:
        by_size[r.size].append(r)
    quantities = ["laplacian_err", "gram_err"]
    if config.activation_probes > 0:
        quantities.append("activation_err")
    medians = {}
    slopes = {"activation_err": None}
    for attr in quantities:
        med = np.array(
            [np.median([getattr(r, attr) for r in by_size[n]]) for n in config.sizes]
        )
        medians[attr] = med
        if np.all(med <= 1e-14):  # vanishes up to roundoff
            raise SlopeUndefinedError(
                f"all {attr} medians vanish; no rate to fit"
            )
        slopes[attr] = float(
            np.polyfit(np.log(np.asarray(config.sizes, dtype=float)), np.log(med), 1)[0]
        )
    return SlopeFit(
        laplacian=slopes["laplacian_err"],
        gram=slopes["gram_err"],
        activation=slopes["activation_err"],
        medians=medians,
    )


def nonasymptotic_filter_bound(
    d_lipschitz: float, g_sup: float, dim_pw: int, max_phi_inf: float,
    w_min: float, n: int, alpha: float, b_const: float, delta: float,
) -> float:
    """High-probability bound on the filter transfer error for random
    sampled Laplacians whose kernel band grows like ``N^{1/2 - alpha}``.

    ``dim_pw (2 D B w_min^-1 max|phi| N^-alpha
              + g_sup w_min^-1/2 max|phi|^2 N^-1/2) delta^-1/2``,
    holding with probability more than 1 - 2 delta.
    """
    if not 0.0 < alpha <= 0.5:
        raise ParameterError(f"alpha {alpha} outside (0, 1/2]")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta {delta} outside (0, 1)")
    if n < 1 or dim_pw < 0 or w_min <= 0:
        raise ParameterError("need n >= 1, dim_pw >= 0, w_min > 0")
    term1 = 2.0 * d_lipschitz * b_const * max_phi_inf / w_min * n ** (-alpha)
    term2 = g_sup * max_phi_inf**2 / np.sqrt(w_min) * n ** (-0.5)
    return float(dim_pw * (term1 + term2) / np.sqrt(delta))

