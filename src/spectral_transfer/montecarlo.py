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
A campaign's results are named columns with one entry per trial (see
:func:`mc_trial`); the rates, the slopes and the experiments' trials.csv
are read from them.

Each trial derives its generator from (master seed, size index, trial
index), so results are bitwise reproducible.  A trial costs O(N K^2) time
and O((N + K) K) memory for K = dim PW(kernel band): both quadrature
errors are read from one K x K weighted Gram of the kernel-band basis (see
:func:`mc_trial`), and the activation probes of a size, whose seed depends
on the size alone, are built once and shared by all its trials.

The trials of one size run in blocks of ``max(1, _TRIAL_ROWS // max(N,
K))``: a block's sample sets are drawn in one pass and stacked as (trials,
N) points, so its rejection rounds, weights, kernel-band basis, Grams,
eigensolves and activation tails are each one stacked call, not one small
call per trial.  The row budget bounds the block's temporaries: per trial,
the kernel-band basis, the sampled Laplacian's right factor and the
activation-tail buffers are N x K, the Grams K x K.  With K <= N, one
block of 8192 rows peaks at about 4.6 arrays of N K doubles (tracemalloc).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SpectralTransferError
from .sampling import (
    SampleSet,
    rejection_sample,
    sampled_laplacian_matrix,
    unit_probes,
)
from .spaces import BandlimitedKernel, CircleSpace
from .transfer import certified

#: The quantities of a trial, each with an error, a bound and a violation
#: column (:func:`mc_trial`).
QUANTITIES = ("laplacian", "gram", "activation")
#: Unit probes of the activation-tail constant estimate.
_C_SPHERE_PROBES = 500
#: Size of the uniform grid for the constants and the activation tails.
_GRID = 4096
#: Probe columns activated at once on the quadrature grid.  It sizes the
#: two grid-by-probes buffers that the tail-constant estimate reuses
#: (4096 x 16 doubles = 0.5 MB each); blocks of 64 raised the peak RSS of
#: the shipped mc-verify run by 6 MB.
_PROBE_BLOCK = 16
#: Rows of one block of trials (trials times max(N, K)); a size above it
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
    activation_probes: int = 8

    def __post_init__(self):
        for name, value in (("band", self.band), ("kernel_band", self.kernel_band)):
            if not value >= 0.0:
                raise SpectralTransferError(
                    f"{name.replace('_', ' ')} must be nonnegative, got {value:g}", name)
        if not self.band < self.kernel_band:
            raise SpectralTransferError("band must be below the kernel band", "band")
        if not 0.0 < self.delta < 1.0:
            raise SpectralTransferError(f"delta {self.delta} outside (0, 1)", "delta")
        if self.weight not in _WEIGHTS:
            raise SpectralTransferError(f"unknown weight {self.weight!r}", "weight")
        if self.space.max_frequency(self.kernel_band) >= _GRID // 2:
            # sin(pi k) = 0 at every grid point: the tail's grid basis is rank-deficient
            raise SpectralTransferError(
                f"kernel band {self.kernel_band:.12g} must be below {(_GRID // 2) ** 2}: the "
                f"{_GRID}-point activation grid resolves frequencies below {_GRID // 2}",
                "kernel_band",
            )
        min_dim = self.space.dim_pw(self.band)
        if any(n < min_dim for n in self.sizes):
            raise SpectralTransferError(
                f"every sample size must be at least dim PW = {min_dim}", "sizes"
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
        A block draws all its trials in one pass: uniform points fill the
        rows in place, and weighted ones come from one stacked
        :func:`rejection_sample`, which also gives their weights.
        """
        n = self.sizes[size_index]
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


def estimate_activation_tail_constant(config: TrialConfig) -> float:
    """Sphere-sampling surrogate for the worst sup-norm activation tail.

    Measures ``max ||(I - P(band')) rho(f)||_inf`` over ``_C_SPHERE_PROBES``
    seeded unit-sphere band-limited probes and inflates the maximum; the
    inflation factor is carried in the constants so reports show the
    estimate's provenance.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0xAC7)))
    dim = config.space.dim_pw(config.band)
    basis_hi = _grid_basis(config)
    buffers = np.empty((2, _GRID * _PROBE_BLOCK))
    worst = 0.0
    for start in range(0, _C_SPHERE_PROBES, _PROBE_BLOCK):
        block = unit_probes(rng, dim, min(_PROBE_BLOCK, _C_SPHERE_PROBES - start))
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


def bound_constants(config: TrialConfig) -> dict:
    """The explicit constants of the three bounds, as ``summary.txt``
    holds them under ``constants.<weight>``; :func:`mc_trial` divides
    ``c_quad1`` and ``c_quad2`` by ``sqrt(N delta)`` and ``c_quad3`` by
    ``(w_min N delta)^(1/4)``.

    ``c_lambda``, the optimal C with ``||f||_inf <= C ||f||_2`` on the band,
    is sqrt(dim PW): by Cauchy-Schwarz the supremum over unit band-limited
    signals at x is the norm of the basis column at x, whose square
    ``1 + 2 sum_n (cos^2 + sin^2)(2 pi n x)`` is dim PW.  ``c_quad3`` is the
    inflated activation-tail estimate, 0 without activation probes (no
    activation error is measured).  ``norm_chain_ok`` certifies
    ``kernel_l2 <= lambda_l1``.
    """
    space = config.space
    w_min = float(np.min(config.weight_fn()(np.arange(_GRID) / _GRID)))
    dim = space.dim_pw(config.band)
    c_lam = float(np.sqrt(dim))
    kernel_l2, lambda_l1 = config.kernel.l2_norm(), config.kernel.lambda_l1
    return {
        "c_lambda": c_lam,
        "c_quad1": float(kernel_l2 * c_lam / w_min),
        "c_quad2": float(dim * space.sup_norm_of_basis(config.band)**2 / np.sqrt(w_min)),
        "c_quad3": (float(estimate_activation_tail_constant(config))
                    if config.activation_probes > 0 else 0.0),
        "c_tail_inflation": C_TAIL_INFLATION,
        "kernel_l2": kernel_l2,
        "lambda_l1": lambda_l1,
        "norm_chain_ok": certified(kernel_l2, lambda_l1),
        "w_min": w_min,
    }


def mc_trial(config: TrialConfig, size_index: int, trial_indices, constants: dict) -> dict:
    """Draw the sample sets of a block of trials of one size and measure
    the three errors of each, with their bounds from ``constants``
    (:func:`bound_constants`).

    Returns the block as columns, one entry per trial in trial order:
    ``n``, ``trial`` and, for each q of :data:`QUANTITIES`,
    ``<q>_error``, ``<q>_bound`` and ``<q>_violation``, the trials whose
    error the bound does not certify.

    Both quadrature errors are read from one K x K weighted Gram per
    trial, ``G = Phi^T B Phi / N`` with ``B = diag(1/w)`` and ``Phi`` the
    kernel-band basis at the N points (K = dim PW(kernel band)); it is
    ``right @ phi / N`` for the two arrays of the sampled Laplacian.  With
    ``S = Phi E_k / sqrt(N)`` the band's sampling matrix (its k leading
    columns), ``Lambda_K`` the kernel-band eigenvalues and ``Delta`` the
    sampled Laplacian:

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
    sample = config.draw_block(size_index, trial_indices)
    n = sample.size
    k = config.space.dim_pw(config.band)
    phi, right = sampled_laplacian_matrix(config.kernel, sample)
    gram = right @ phi / n

    lams = config.kernel.eigenvalues
    # C = E_k Lambda_k - Lambda_K G[:, :k]; the mismatch is Phi C / sqrt(N)
    mismatch = np.eye(len(lams), k) * lams[:k] - lams[:, None] * gram[..., :k]
    squared = np.linalg.eigvalsh(mismatch.swapaxes(-1, -2) @ gram @ mismatch)
    delta = config.delta
    measured = {  # quantity: (errors, bound)
        "laplacian": (np.sqrt(np.maximum(squared[..., -1], 0.0)),
                      constants["c_quad1"] / np.sqrt(n * delta)),
        "gram": (np.linalg.norm(gram[..., :k, :k] - np.eye(k), "fro", axis=(-2, -1)),
                 constants["c_quad2"] / np.sqrt(n * delta)),
        "activation": (_activation_excess(config, phi, sample.w_values),
                       constants["c_quad3"] / (constants["w_min"] * n * delta) ** 0.25),
    }
    trials = np.asarray(trial_indices)
    columns = {"n": np.full(trials.shape, n), "trial": trials}
    for q, (errors, bound) in measured.items():
        bounds = np.full(trials.shape, bound)
        columns |= {f"{q}_error": errors, f"{q}_bound": bounds,
                    f"{q}_violation": ~certified(errors, bounds)}
    return columns


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


def run_trials(config: TrialConfig, constants: dict) -> dict:
    """The columns of every (size, trial) result (see :func:`mc_trial`),
    size-major and bitwise reproducible.

    The trials of a size of N points run in blocks of ``max(1,
    _TRIAL_ROWS // max(N, K))``, one :func:`mc_trial` call each; each trial
    holds N-row arrays and K x K Grams, K = dim PW(kernel band).
    """
    blocks = []
    k = len(config.kernel.eigenvalues)
    for size_index, n in enumerate(config.sizes):
        step = max(1, _TRIAL_ROWS // max(n, k))
        for start in range(0, config.trials, step):
            block = range(start, min(start + step, config.trials))
            blocks.append(mc_trial(config, size_index, block, constants))
    if not blocks:
        raise SpectralTransferError("a campaign needs at least one size and one trial")
    return {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}


def check_failure_rate_inputs(config: TrialConfig) -> None:
    """Raise unless the campaign has the trials that :func:`failure_rate`
    needs."""
    if config.trials * len(config.sizes) < 100:
        raise SpectralTransferError("failure rates need at least 100 trials", "trials")


def failure_rate(config: TrialConfig, results) -> dict:
    """The fraction of the trials in the columns ``results`` that violate
    each bound, by quantity, with the trial count; each fraction must stay
    at or below delta."""
    check_failure_rate_inputs(config)
    rates = {q: float(np.mean(results[f"{q}_violation"])) for q in QUANTITIES}
    return {**rates, "trials": len(results["trial"])}


def check_slope_fit_inputs(config: TrialConfig) -> None:
    """Raise unless the campaign has the sizes and trials that
    :func:`slope_fit` needs."""
    if len(config.sizes) < 3:
        raise SpectralTransferError("slope fit needs at least 3 sample sizes", "sizes")
    if len(set(config.sizes)) < 3:
        # a repeated size adds no point to the log-log fit
        raise SpectralTransferError("slope fit needs at least 3 distinct sample sizes",
                                    "sizes")
    if config.trials < 30:
        raise SpectralTransferError("slope fit needs at least 30 trials per size", "trials")


def slope_fit(config: TrialConfig, results) -> dict:
    """Least-squares slope of log(median error) against log(N) for the
    Laplacian and Gram errors of the columns ``results``.

    Medians are used because the Markov-style tails are heavy.  Raises
    when a quantity's medians all vanish (as with exact-quadrature point
    sets).
    """
    check_slope_fit_inputs(config)
    log_sizes = np.log(np.asarray(config.sizes, dtype=float))
    slopes = {}
    for q in ("laplacian", "gram"):
        errors = results[f"{q}_error"]
        med = np.array([np.median(errors[results["n"] == n]) for n in config.sizes])
        if np.all(med <= 1e-14):  # vanishes up to roundoff
            raise SpectralTransferError(f"all {q}_err medians vanish; no rate to fit")
        slopes[q] = float(np.polyfit(log_sizes, np.log(med), 1)[0])
    return slopes


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
        raise SpectralTransferError(f"alpha {alpha} outside (0, 1/2]")
    if not 0.0 < delta < 1.0:
        raise SpectralTransferError(f"delta {delta} outside (0, 1)")
    if n < 1 or dim_pw < 0 or w_min <= 0:
        raise SpectralTransferError("need n >= 1, dim_pw >= 0, w_min > 0")
    term1 = 2.0 * d_lipschitz * b_const * max_phi_inf / w_min * n ** (-alpha)
    term2 = g_sup * max_phi_inf**2 / np.sqrt(w_min) * n ** (-0.5)
    return float(dim_pw * (term1 + term2) / np.sqrt(delta))

