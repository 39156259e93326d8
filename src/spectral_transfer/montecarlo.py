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
index), so results are bitwise reproducible.  A trial costs O(N K^2) time
and O(N K) memory for K = dim PW(kernel band): both quadrature errors are
read from one K x K weighted Gram of the kernel-band basis (see
:func:`mc_trial`), and the activation probes of a size, whose seed depends
on the size alone, are built once and shared by all its trials.

The trials of one size run in blocks of ``max(1, _TRIAL_ROWS // N)``: a
block's sample sets are drawn in one pass and stacked as (trials, N)
points, so its rejection rounds, weights, kernel-band basis, Grams,
eigensolves and activation tails are each one stacked call, not one small
call per trial.  The row budget bounds the block's temporaries, of which
the kernel-band basis, the sampled Laplacian's factors and the
activation-tail buffers are the only N-row ones: one block of 8192 rows
peaks at about 4.6 arrays of N K doubles (tracemalloc), where the N-row
mismatch and band-sampling products took 9.6.  Measured in-process with
one BLAS thread on one core of a 2-core host, a warm run of the shipped
mc-verify config (800 trials of N = 256) takes no minor page faults and
about 2 ms of system time, where those products, which glibc handed back
between blocks, cost about 18.8 k faults and 45 ms; the CLI process peaks
at 40 MB RSS (42 MB before).  The benchmark's host-normalised mc-verify
median fell from 0.123 to 0.093 s with the Gram route, and from 0.150 s
(blocks of 8 trials drawn one trial at a time) to 0.111 s with 8192-row
blocks before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, SlopeUndefinedError
from .sampling import (
    SampleSet,
    rejection_sample,
    sampled_laplacian_matrix,
    unit_probes,
)
from .spaces import BandlimitedKernel, CircleSpace
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
        if self.space.max_frequency(self.kernel_band) >= _GRID // 2:
            # sin(pi k) = 0 at every grid point: the tail's grid basis is rank-deficient
            raise ParameterError(
                f"kernel band {self.kernel_band:.12g} must be below {(_GRID // 2) ** 2}: the "
                f"{_GRID}-point activation grid resolves frequencies below {_GRID // 2}"
            )
        min_dim = self.space.dim_pw(self.band)
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
        return BandlimitedKernel(self.space, self.kernel_band)

    def weight_fn(self):
        return _WEIGHTS[self.weight]

    def draw_block(self, size_index: int, trial_indices) -> SampleSet:
        """The sample sets of the trials, stacked as (trials, N) points.

        Trial t draws from its own generator, seeded by (master seed,
        size index, t), so a trial's points do not depend on its block.
        Random blocks draw all their trials in one pass: uniform points
        fill the rows in place, and weighted ones come from one stacked
        :func:`rejection_sample`, which also gives their weights.
        Equispaced rows carry the configured weight at their points.
        """
        n = self.sizes[size_index]
        if self.sampler == "equispaced":
            points = np.tile(SampleSet.equispaced(n).points, (len(trial_indices), 1))
            return SampleSet(points, self.weight_fn()(points))
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
    point x is the Euclidean norm of the basis column at x.  On the circle
    its square, ``1 + 2 sum_n (cos^2 + sin^2)(2 pi n x)``, is ``dim PW(band)``
    at every x, so C is its square root.
    """
    return float(np.sqrt(space.dim_pw(band)))


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
    c_lam = exact_c_lambda(space, config.band)
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

    Both quadrature errors are read from one K x K weighted Gram per
    trial, ``G = Phi^T B Phi / N`` with ``B = diag(1/w)`` and ``Phi`` the
    kernel-band basis at the N points (K = dim PW(kernel band)); it is the
    sampled Laplacian's right factor times ``Phi / N``.  With ``S = Phi
    E_k / sqrt(N)`` the band's sampling matrix (its k leading columns),
    ``Lambda_K`` the kernel-band eigenvalues and ``Delta`` the sampled
    Laplacian:

    * ``Delta S = Phi Lambda_K G[:, :k] / sqrt(N)`` and ``S Lambda = Phi
      E_k Lambda_k / sqrt(N)``, so the mismatch is ``Phi C / sqrt(N)``
      with ``C = E_k Lambda_k - Lambda_K G[:, :k]``, and its squared
      B-norm is ``lambda_max(C^T G C)``;
    * ``S^H B S = G[:k, :k]``, so the Gram defect is
      ``||G[:k, :k] - I||_F``.

    No N-row array of the mismatch or of ``S`` is formed.  The block runs
    stacked: one kernel-band basis evaluation, one stack of Grams and one
    batched eigensolve.
    """
    space = config.space
    sample = config.draw_block(size_index, trial_indices)
    n = sample.size
    k = space.dim_pw(config.band)
    phi = space.basis_matrix(sample.points, config.kernel_band)
    gram = sampled_laplacian_matrix(config.kernel, sample, basis=phi).right @ phi / n

    lams = config.kernel.eigenvalues
    # C = E_k Lambda_k - Lambda_K G[:, :k]; the mismatch is Phi C / sqrt(N)
    mismatch = np.eye(len(lams), k) * lams[:k] - lams[:, None] * gram[..., :k]
    squared = np.linalg.eigvalsh(mismatch.swapaxes(-1, -2) @ gram @ mismatch)
    laplacian_errs = np.sqrt(np.maximum(squared[..., -1], 0.0))
    gram_errs = np.linalg.norm(gram[..., :k, :k] - np.eye(k), "fro", axis=(-2, -1))

    activation_errs = _activation_excess(config, phi, sample.w_values)
    bounds = (
        constants.laplacian_bound(n, config.delta),
        constants.gram_bound(n, config.delta),
        constants.activation_bound(n, config.delta),
    )
    return [
        TrialResult(n, t, float(lap), float(defect), float(act), *bounds)
        for t, lap, defect, act in zip(
            trial_indices, laplacian_errs, gram_errs, activation_errs
        )
    ]


@lru_cache(maxsize=64)
def _size_probes(config: TrialConfig, n: int) -> tuple:
    """The seeded unit probes f of sample size ``n`` and the coefficients
    of their activated band-kernel projections ``P(band') rho(f)``, both
    over sqrt(N), and the continuous L2 norms of their activation tails;
    the same for every trial of that size."""
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xF0, n)))
    probes = unit_probes(rng, config.space.dim_pw(config.band), config.activation_probes)
    coeffs_hi, tail = _activation_tail(_grid_basis(config), probes)
    return probes / np.sqrt(n), coeffs_hi / np.sqrt(n), np.sqrt((tail**2).mean(axis=0))


def _activation_excess(config: TrialConfig, phi_hi: np.ndarray,
                       w_values: np.ndarray) -> np.ndarray:
    """Sampled-minus-continuous tail norm excess over seeded probes.

    For each unit probe f in the band, compares the graph norm of the
    sampled activation tail ``rho(f) - P(band') rho(f)`` at the sample
    points against the continuous L2 norm of the same tail; the Monte-Carlo
    lemma bounds the excess of the first over the second.  ``phi_hi`` is
    the kernel-band basis at the sample points (..., N, K) and ``w_values``
    (..., N) the sampling density there; the excess has the leading shape.
    The sampled tails are one (..., N, probes) buffer, worked in place.
    """
    if config.activation_probes == 0:
        return np.zeros(phi_hi.shape[:-2])
    probes, coeffs_hi, cont_tail = _size_probes(config, phi_hi.shape[-2])
    # rho commutes with evaluation: rho(S f) = S rho(f)
    tail = phi_hi[..., : probes.shape[0]] @ probes
    np.maximum(tail, 0.0, out=tail)
    tail -= phi_hi @ coeffs_hi
    # squared B-norms of the columns: (1/w) @ tail^2
    weighted = (1.0 / w_values)[..., None, :] @ np.square(tail, out=tail)
    return np.max(np.sqrt(weighted[..., 0, :]) - cont_tail, axis=-1)


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
    slopes = {}
    for attr in ("laplacian_err", "gram_err"):
        med = np.array(
            [np.median([getattr(r, attr) for r in by_size[n]]) for n in config.sizes]
        )
        if np.all(med <= 1e-14):  # vanishes up to roundoff
            raise SlopeUndefinedError(
                f"all {attr} medians vanish; no rate to fit"
            )
        slopes[attr] = float(
            np.polyfit(np.log(np.asarray(config.sizes, dtype=float)), np.log(med), 1)[0]
        )
    return SlopeFit(laplacian=slopes["laplacian_err"], gram=slopes["gram_err"])


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

