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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, SlopeUndefinedError
from .sampling import SampleSet, sampled_laplacian_matrix, unit_probes
from .spaces import BandlimitedKernel, CircleSpace, bandlimited_kernel

_C_SPHERE_PROBES = 500
#: Size of the uniform grid for the constants and the activation tails.
_GRID = 4096
#: Probe columns activated at once on the quadrature grid.  It bounds the
#: grid-by-probes temporaries (4096 x 16 doubles = 0.5 MB each); blocks of
#: 64 raised the peak RSS of the shipped mc-verify run by 6 MB.
_PROBE_BLOCK = 16
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

    def draw(self, size_index: int, trial_index: int) -> SampleSet:
        n = self.sizes[size_index]
        if self.sampler == "equispaced":
            return SampleSet.equispaced(n)
        seed = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(size_index, trial_index)
        )
        if self.weight == "uniform":
            return SampleSet.uniform_random(n, seed)
        return SampleSet.weighted_random(n, self.weight_fn(), seed, w_max=1.5)


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
    config: TrialConfig, activation=relu, probes: int = _C_SPHERE_PROBES,
) -> float:
    """Sphere-sampling surrogate for the worst sup-norm activation tail.

    Measures ``max ||(I - P(band')) rho(f)||_inf`` over seeded unit-sphere
    band-limited probes and inflates the maximum; the inflation factor is
    carried in the constants so reports show the estimate's provenance.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xAC7)))
    dim = config.space.dim_pw(config.band)
    worst = 0.0
    for start in range(0, probes, _PROBE_BLOCK):
        block = unit_probes(rng, dim, min(_PROBE_BLOCK, probes - start))
        _, tail = _activation_tail(config, block, activation)
        worst = max(worst, float(np.abs(tail).max()))
    return C_TAIL_INFLATION * worst


def _activation_tail(config: TrialConfig, probes: np.ndarray,
                     activation=relu) -> tuple:
    """Continuous activation tail of band-limited probes on a uniform grid.

    For each coefficient column f of ``probes`` returns the coefficients of
    ``P(kernel_band) rho(f)`` and the values of ``rho(f) - P(kernel_band)
    rho(f)`` at ``_GRID`` equispaced points, one column per probe.
    """
    space = config.space
    xs = np.arange(_GRID) / _GRID
    rho = activation(space.basis_matrix(xs, config.band) @ probes)
    basis_hi = space.basis_matrix(xs, config.kernel_band)
    coeffs_hi = basis_hi.T @ rho / _GRID
    return coeffs_hi, rho - basis_hi @ coeffs_hi


def bound_constants(config: TrialConfig) -> MCBoundConstants:
    """Evaluate every explicit constant for the configuration."""
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
        c_quad3=float(estimate_activation_tail_constant(config)),
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
            self.laplacian_err > self.laplacian_bound,
            self.gram_err > self.gram_bound,
            self.activation_err > self.activation_bound,
        )


def mc_trial(config: TrialConfig, size_index: int, trial_index: int,
             constants: MCBoundConstants | None = None) -> TrialResult:
    """Draw one sample set and measure the three errors with their bounds."""
    if constants is None:
        constants = bound_constants(config)
    space = config.space
    sample = config.draw(size_index, trial_index)
    n = sample.size
    weight_fn = config.weight_fn()
    w_vals = (
        sample.w_values
        if sample.w_values is not None
        else np.asarray(weight_fn(sample.points), dtype=float)
    )

    phi = space.basis_matrix(sample.points, config.band)
    s_mat = phi / np.sqrt(n)
    b_sqrt = 1.0 / np.sqrt(w_vals)

    delta_op, _ = sampled_laplacian_matrix(config.kernel, sample, weight_fn)
    lams = space.eigenvalues_up_to(config.band)
    mismatch = s_mat * lams - delta_op @ s_mat
    laplacian_err = float(np.linalg.norm(mismatch * b_sqrt[:, None], 2))

    gram_mat = s_mat.T @ (s_mat / w_vals[:, None])
    gram_err = float(np.linalg.norm(gram_mat - np.eye(s_mat.shape[1]), "fro"))

    activation_err = _activation_excess(config, sample, s_mat, b_sqrt)

    return TrialResult(
        size=n,
        trial=trial_index,
        laplacian_err=laplacian_err,
        gram_err=gram_err,
        activation_err=activation_err,
        laplacian_bound=constants.laplacian_bound(n, config.delta),
        gram_bound=constants.gram_bound(n, config.delta),
        activation_bound=constants.activation_bound(n, config.delta),
    )


@lru_cache(maxsize=64)
def _size_probes(config: TrialConfig, n: int) -> tuple:
    """The seeded unit probes of sample size ``n``, the coefficients of
    their activated band-kernel projections, and the continuous L2 norms
    of their activation tails; the same for every trial of that size."""
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xF0, n)))
    probes = unit_probes(rng, config.space.dim_pw(config.band), config.activation_probes)
    coeffs_hi, tail = _activation_tail(config, probes)
    return probes, coeffs_hi, np.sqrt((tail**2).mean(axis=0))


def _activation_excess(config: TrialConfig, sample: SampleSet, s_mat,
                       b_sqrt) -> float:
    """Sampled-minus-continuous tail norm excess over seeded probes.

    For each unit probe f in the band, compares the graph norm of the
    sampled activation tail ``rho(f) - P(band') rho(f)`` at the sample
    points against the continuous L2 norm of the same tail; the Monte-Carlo
    lemma bounds the excess of the first over the second.
    """
    if config.activation_probes == 0:
        return 0.0
    n = sample.size
    probes, coeffs_hi, cont_tail = _size_probes(config, n)
    phi_hi_sample = config.space.basis_matrix(sample.points, config.kernel_band)
    # rho commutes with evaluation: rho(S f) = S rho(f)
    graph_tail_vals = relu(s_mat @ probes) - (phi_hi_sample @ coeffs_hi) / np.sqrt(n)
    graph_tail = np.linalg.norm(graph_tail_vals * b_sqrt[:, None], axis=0)
    return float(np.max(graph_tail - cont_tail))


def run_trials(config: TrialConfig, constants: MCBoundConstants | None = None):
    """All (size, trial) results, size-major and bitwise reproducible."""
    if constants is None:
        constants = bound_constants(config)
    return [
        mc_trial(config, si, ti, constants)
        for si in range(len(config.sizes))
        for ti in range(config.trials)
    ]


@dataclass(frozen=True)
class FailureRates:
    """Observed fraction of trials violating each bound."""

    laplacian: float
    gram: float
    activation: float
    trials: int

    def as_tuple(self):
        return (self.laplacian, self.gram, self.activation)


def failure_rate(config: TrialConfig, results=None) -> FailureRates:
    """Violation fractions; each must stay at or below delta."""
    if config.trials * len(config.sizes) < 100:
        raise ParameterError("failure rates need at least 100 trials")
    if results is None:
        results = run_trials(config)
    flags = np.array([r.violations for r in results], dtype=float)
    rates = flags.mean(axis=0)
    return FailureRates(float(rates[0]), float(rates[1]), float(rates[2]), len(results))


@dataclass(frozen=True)
class SlopeFit:
    laplacian: float
    gram: float
    activation: float
    medians: dict = field(repr=False, default=None)


def slope_fit(config: TrialConfig, results=None) -> SlopeFit:
    """Least-squares slope of log(median error) against log(N).

    Medians are used because the Markov-style tails are heavy.  Raises
    :class:`SlopeUndefinedError` when a quantity's medians all vanish (as
    with exact-quadrature point sets).
    """
    if len(config.sizes) < 3:
        raise ParameterError("slope fit needs at least 3 sample sizes")
    if config.trials < 30:
        raise ParameterError("slope fit needs at least 30 trials per size")
    if results is None:
        results = run_trials(config)
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


def pointwise_mc_estimate(config: TrialConfig, x0: float, coeffs: np.ndarray,
                          n: int, trials: int):
    """Monte-Carlo estimates of the kernel Laplacian at a fixed point.

    Returns the per-trial quadrature values whose mean is the continuous
    action at x0 (the estimator is unbiased); used by the smoke test
    against the exact diagonal action.
    """
    space = config.space
    weight_fn = config.weight_fn()
    values = np.empty(trials)
    for t in range(trials):
        seed = np.random.SeedSequence(
            entropy=config.master_seed, spawn_key=(0xE5, t)
        )
        if config.weight == "uniform":
            sample = SampleSet.uniform_random(n, seed)
        else:
            sample = SampleSet.weighted_random(n, weight_fn, seed, w_max=1.5)
        w_vals = (
            sample.w_values if sample.w_values is not None
            else weight_fn(sample.points)
        )
        f_vals = space.synthesize(coeffs, sample.points)
        h_row = config.kernel.evaluate(np.array([x0]), sample.points)[0]
        values[t] = float((h_row * f_vals / w_vals).mean())
    return values
