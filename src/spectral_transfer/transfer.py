"""Transfer error measurements and the five certified filter bounds.

Everything is assembled in the band-limited coordinates of the source
space: a setting holds the source eigenvalues, the sampling matrix S
restricted to the band (source Fourier basis in, graph vector out), and the
target operator with its inner product.  Interpolation is always the
adjoint of sampling, so its matrix is ``R = S^H B``.  A filter g reaches a
setting through one cached matrix ``Q = V^H B S``, the band in the target's
B-orthonormal eigenbasis V, and its responses ``g(mu)`` on the target
eigenvalues and ``g(lambda)`` on the source ones: ``g(Delta) S = V (g(mu) Q)``
and ``R g(Delta) S = Q^H diag(g(mu)) Q``.  The graph-side lhs are B-norms of
``V (g(mu) Q) - S g(Lambda)`` on the graph, never norms of
``g(mu) Q - Q g(Lambda)``: a directed target's V is B-orthonormal only to
about cond(B) times machine epsilon.

The five bound variants relate the filter transfer error to the Laplacian
transfer error and the consistency error: per source Fourier mode, for a
fixed signal (evaluated on the graph or back on the source space), and in
operator norm over the whole band (again on either side).  Each is an exact
inequality for any normal target operator, so a violation beyond roundoff
slack indicates a broken build, never an unlucky input.

Every term is taken at the source eigenvalues as stored, complex ones too.
``S L e_m = lambda_m S e_m``, and with P_j the B-orthogonal eigenprojections
of Delta, ``(g(Delta) - g(lambda_m)) S e_m = sum_j (g(mu_j) - g(lambda_m)) P_j S e_m``
and ``(Delta - lambda_m) S e_m = sum_j (mu_j - lambda_m) P_j S e_m``.  So the
per-mode bound with quotients at lambda_m is exact, and a target equal to its
source gives 0 on both sides; at Re lambda_m both would gain a spurious
``lambda_m - Re lambda_m`` part.  Only a mode row's ``eigenvalue`` is Re lambda_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BandError, ParameterError
from .filters import Filter, max_difference_quotient, sup_norm_on_spectrum
from .graphs import OperatorWithInnerProduct, column_norms, hermitian_norm, operator_norm
from .sampling import CoarseningMap, SamplingPair, coarsened_laplacian
from .spaces import GraphSpace

#: A certified inequality passes when lhs <= rhs (1 + REL_SLACK) + ABS_SLACK.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12


def certified(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + REL_SLACK) + ABS_SLACK


@dataclass(frozen=True)
class FilterConstants:
    """Per-eigenvalue quotient bounds, the sup norm over a spectrum, and the
    Lipschitz constant D (declared, else the top quotient)."""

    vg_per_eig: np.ndarray
    sup_norm: float
    lipschitz: float


def filter_constants(filt: Filter, source_eigenvalues,
                     target_spectrum) -> FilterConstants:
    """Per-mode quotient bounds, the source-spectrum sup norm, and D.

    The one rule for D, the Lipschitz constant of every filter, stability
    and network bound: the filter's declared constant, checked against the
    quotients between the two spectra under the same slack as every
    certified inequality (a violation raises :class:`ParameterError`), or
    the largest quotient when the filter declares none.
    """
    source = np.asarray(source_eigenvalues)
    # a repeated target eigenvalue adds no quotient; np.unique would import numpy.ma (+1.5 MB RSS)
    target = np.sort(np.asarray(target_spectrum))
    distinct = np.concatenate([target[:1], target[1:][target[1:] != target[:-1]]])
    vg = max_difference_quotient(filt, source, distinct)
    lip = filt.lipschitz_constant
    if lip is not None and vg.size and not certified(float(vg.max()), lip):
        raise ParameterError(
            f"declared Lipschitz constant {lip:g} is violated on the "
            f"spectra (observed quotient {vg.max():g})"
        )
    if lip is None:
        lip = float(vg.max()) if vg.size else 0.0
    return FilterConstants(vg, sup_norm_on_spectrum(filt, source), lip)


@dataclass(frozen=True)
class TransferSetting:
    """One (source space, sampling, target operator) configuration.

    Interpolation is ``R = S^H B``, so ``K = S^H B S = R S`` is Hermitian
    positive semidefinite, and the spectrum of K gives both band norms
    exactly, with no further product: ``||R|| = ||S|| = sqrt(lambda_max(K))``,
    because K is the Gram matrix of ``B^{1/2} S``, and ``||P - R S|| =
    max |1 - lambda(K)|``, because ``P - R S = I - K`` is Hermitian with
    eigenvalues ``1 - lambda(K)``.
    """

    name: str
    band: float
    source_eigenvalues: np.ndarray
    s_pw: np.ndarray
    target: OperatorWithInnerProduct

    def __post_init__(self):
        lams = np.asarray(self.source_eigenvalues)
        s = np.asarray(self.s_pw)
        if s.shape != (self.target.dim, lams.shape[0]):
            raise BandError(
                f"sampling matrix {s.shape} inconsistent with "
                f"{lams.shape[0]} source modes and {self.target.dim} target vertices"
            )
        object.__setattr__(self, "source_eigenvalues", lams)
        object.__setattr__(self, "s_pw", s)

    @property
    def dim_pw(self) -> int:
        return int(self.source_eigenvalues.shape[0])

    @cached_property
    def r_pw(self) -> np.ndarray:
        """Interpolation as the adjoint of sampling: ``S^H B``."""
        return self.target.inner.apply(self.s_pw).conj().T

    # Q, the per-mode Laplacian errors and the band norms below do not depend
    # on the filter; each is measured once per setting.

    @cached_property
    def q(self) -> np.ndarray:
        """``Q = V^H B S``: the sampled band in the target eigenbasis V."""
        return self.target.eig.basis.conj().T @ self.target.inner.apply(self.s_pw)

    @cached_property
    def laplacian_mode_errors(self) -> np.ndarray:
        """Graph norm of ``Delta S e_m - S e_m lambda_m`` for each mode m."""
        diff = self.target.matrix @ self.s_pw - self.s_pw * self.source_eigenvalues
        return self.target.inner.column_norms(diff)

    @cached_property
    def band_gram_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of ``K = S^H B S``, formed as ``Y^H Y`` for
        ``Y = B^{1/2} S``, the Gram matrix that ``operator_norm(Y)`` forms,
        from numpy's ``eigvalsh`` at any order; empty for an empty band."""
        y = self.target.inner.apply_sqrt(self.s_pw)
        return np.linalg.eigvalsh((y.conj().T if np.iscomplexobj(y) else y.T) @ y)

    @cached_property
    def interpolation_norm(self) -> float:
        """Measured ||R||; equals ||S|| since R is the adjoint of S."""
        return float(np.sqrt(self.band_gram_spectrum.max(initial=0.0)))

    @cached_property
    def laplacian_operator_error(self) -> float:
        """``|| S L P - Delta S P ||`` in operator norm over the band."""
        diff = self.s_pw * self.source_eigenvalues - self.target.matrix @ self.s_pw
        return self.target.inner.weighted_operator_norm(diff)

    @cached_property
    def consistency_operator_error(self) -> float:
        """``|| P - R S P ||`` in operator norm over the band."""
        return float(np.abs(1.0 - self.band_gram_spectrum).max(initial=0.0))

    def target_response(self, filt: Filter) -> np.ndarray:
        """``g(mu)`` on the target eigenvalues, one entry per row of Q."""
        return filt.evaluate(self.target.eig.values)[:, None]

    def filtered_transfer_matrix(self, filt: Filter) -> np.ndarray:
        """Band-coefficient matrix of ``R g(Delta) S``: ``Q^H diag(g(mu)) Q``."""
        return self.q.conj().T @ (self.target_response(filt) * self.q)


def sampling_setting(pair: SamplingPair, delta: OperatorWithInnerProduct,
                     name: str = "sampling") -> TransferSetting:
    """Point-sampling setting: circle modes in the band against ``delta``."""
    return TransferSetting(name, pair.band, pair.space.eigenvalues_up_to(pair.band),
                           pair.s_matrix, delta)


def coarsening_setting(space: GraphSpace, cmap: CoarseningMap,
                       band: float | None = None,
                       name: str = "coarsening") -> TransferSetting:
    """Coarsening setting, S the coarsening map on the band, with the
    collapsed operator ``S L S^T``."""
    delta = coarsened_laplacian(cmap, space.operator)
    return perturbation_setting(space, delta, cmap.s_matrix, band, name)


def perturbation_setting(space: GraphSpace, delta: OperatorWithInnerProduct,
                         restriction: np.ndarray | None = None,
                         band: float | None = None,
                         name: str = "perturbation") -> TransferSetting:
    """Perturbation setting, S = R = I (or ``restriction``, such as a
    vertex selection, on the band)."""
    if band is None:
        band = space.full_band()
    basis = space.pw_basis(band)
    s_pw = basis if restriction is None else restriction @ basis
    return TransferSetting(name, band, space.eigenvalues_up_to(band), s_pw, delta)


@dataclass(frozen=True)
class ModeRow:
    """One per-mode certified inequality."""

    mode: int
    eigenvalue: float
    lhs: float
    rhs: float
    quotient: float
    laplacian_mode_error: float

    @property
    def satisfied(self) -> bool:
        return certified(self.lhs, self.rhs)


def bound_fourier_mode(setting: TransferSetting, filt: Filter,
                       mode: int) -> ModeRow:
    """Per-mode bound: the filtered mismatch of one source eigenvector, on
    the graph, against its Laplacian mismatch times its largest quotient."""
    return _mode_bounds(setting, filt, [mode])[0][0]


def _mode_bounds(setting: TransferSetting, filt: Filter, modes) -> tuple:
    """Per-mode rows for the source modes ``modes`` (any column index).

    Works on all the modes at once: the lhs are the graph-norm column
    norms of the mismatch ``V (g(mu) Q) - S g(Lambda)``.  Also returns
    the modes' filter constants and the mismatch, for the aggregate bounds.
    """
    lams = setting.source_eigenvalues[modes]
    constants = filter_constants(filt, lams, setting.target.eig.values)
    lap = setting.laplacian_mode_errors[modes]
    mismatch = setting.target.eig.basis @ (
        setting.target_response(filt) * setting.q[:, modes]
    )
    mismatch -= setting.s_pw[:, modes] * filt.evaluate(lams)
    lhs = setting.target.inner.column_norms(mismatch)
    rows = tuple(
        ModeRow(int(mode), float(lam.real), float(left), float(q * err), float(q), float(err))
        for mode, lam, left, q, err in zip(
            np.arange(setting.dim_pw)[modes], lams, lhs, constants.vg_per_eig, lap
        )
    )
    return rows, constants, mismatch


def bound_pointwise(vg_values, coeffs, mode_errors, c_norm: float,
                    g_sup: float, consistency: float) -> tuple:
    """Right-hand sides ``(in_G, in_M)`` of the fixed-signal bounds.

    Evaluated in the graph: ``sum_m V_m |c_m| err_m``.  Evaluated back in
    the source space: the same sum scaled by the interpolation norm, plus
    the sup-norm of the filter times the signal's consistency error.
    """
    vg_values = np.asarray(vg_values, dtype=float)
    coeffs = np.asarray(coeffs)
    mode_errors = np.asarray(mode_errors, dtype=float)
    core = float(np.sum(vg_values * np.abs(coeffs) * mode_errors))
    return core, c_norm * core + g_sup * consistency


def bound_worstcase(setting: TransferSetting, constants: FilterConstants) -> tuple:
    """Right-hand sides ``(in_G, in_M)`` of the operator-norm bounds over
    the band: ``D sqrt(dim PW) ||L-error||``, and that scaled by the
    interpolation norm plus ``sup|g|`` times the consistency error.

    Python floats, so a product beyond the float range is a vacuous but
    valid ``inf`` with no overflow warning.
    """
    core = (float(constants.lipschitz) * math.sqrt(setting.dim_pw)
            * float(setting.laplacian_operator_error))
    return core, (float(setting.interpolation_norm) * core
                  + float(constants.sup_norm) * float(setting.consistency_operator_error))


def transfer_errors(setting: TransferSetting, filt: Filter,
                    coeffs: np.ndarray) -> tuple:
    """(filter error, Laplacian error, consistency error) of one signal,
    all measured back in the source space."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != setting.dim_pw:
        raise BandError(
            f"signal has {coeffs.shape[0]} coefficients, band holds {setting.dim_pw}"
        )
    lams = setting.source_eigenvalues
    # R g(Delta) S c, as Q^H diag(g(mu)) Q applied from the right
    filtered_back = setting.q.conj().T @ (
        setting.target_response(filt)[:, 0] * (setting.q @ coeffs)
    )
    graph_signal = setting.s_pw @ coeffs
    errors = np.stack([
        filt.evaluate(lams) * coeffs - filtered_back,
        lams * coeffs - setting.r_pw @ (setting.target.matrix @ graph_signal),
        coeffs - setting.r_pw @ graph_signal,
    ], axis=1)
    return tuple(float(err) for err in column_norms(errors))


@dataclass(frozen=True)
class BoundResult:
    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return certified(self.lhs, self.rhs)


@dataclass(frozen=True)
class TransferReport:
    """Measured errors, every bound value, and pass/fail flags."""

    setting_name: str
    filter_name: str
    band: float
    filter_error: float
    laplacian_error: float
    consistency_error: float
    per_mode: tuple
    bounds: tuple
    interpolation_norm: float
    lipschitz_constant: float
    grouped_spectrum: bool

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.per_mode) and all(
            b.satisfied for b in self.bounds
        )


def evaluate_transfer(setting: TransferSetting, filt: Filter,
                      signal_seed: int = 0) -> TransferReport:
    """Measure the three transfer errors and certify all five bounds; the
    pointwise ones probe a unit-norm signal drawn from ``signal_seed``."""
    m = setting.dim_pw
    rng = np.random.default_rng(np.random.SeedSequence((signal_seed, m)))
    coeffs = rng.normal(size=m)
    coeffs /= np.linalg.norm(coeffs)

    # The source side first, so that its band x band matrix is freed before
    # the graph-side mismatch is formed.
    filter_err, lap_err, cons_err = transfer_errors(setting, filt, coeffs)
    g_vals = filt.evaluate(setting.source_eigenvalues)
    worst_m = np.diag(g_vals) - setting.filtered_transfer_matrix(filt)
    # Hermitian, so no Gram product is needed, when g is real on both spectra
    hermitian = not any(np.iscomplexobj(g) and np.any(g.imag)
                        for g in (g_vals, setting.target_response(filt)))
    lhs_worst_m = hermitian_norm(worst_m) if hermitian else operator_norm(worst_m)

    per_mode, constants, mismatch = _mode_bounds(setting, filt, slice(None))
    lhs_point_g = setting.target.inner.norm(mismatch @ coeffs)
    lhs_worst_g = setting.target.inner.weighted_operator_norm(mismatch)
    del mismatch

    c_norm = setting.interpolation_norm
    rhs_point_g, rhs_point_m = bound_pointwise(
        constants.vg_per_eig, coeffs, setting.laplacian_mode_errors, c_norm,
        constants.sup_norm, cons_err,
    )
    rhs_worst_g, rhs_worst_m = bound_worstcase(setting, constants)

    bounds = (
        BoundResult("pointwise_in_G", lhs_point_g, rhs_point_g),
        BoundResult("worstcase_in_G", lhs_worst_g, rhs_worst_g),
        BoundResult("pointwise_in_M", filter_err, rhs_point_m),
        BoundResult("worstcase_in_M", lhs_worst_m, rhs_worst_m),
    )
    return TransferReport(
        setting_name=setting.name,
        filter_name=filt.name,
        band=setting.band,
        filter_error=filter_err,
        laplacian_error=lap_err,
        consistency_error=cons_err,
        per_mode=per_mode,
        bounds=bounds,
        interpolation_norm=c_norm,
        lipschitz_constant=constants.lipschitz,
        grouped_spectrum=setting.target.eig.grouped,
    )


def two_graph_error(setting1: TransferSetting, setting2: TransferSetting,
                    filt: Filter) -> tuple:
    """Operator-norm gap between the two interpolated filter actions, with
    its triangle bound (the sum of the two source-space worst-case bounds).
    """
    if setting1.dim_pw != setting2.dim_pw or not np.allclose(
        setting1.source_eigenvalues, setting2.source_eigenvalues
    ):
        raise BandError("the two settings must share one source space and band")
    error = operator_norm(
        setting1.filtered_transfer_matrix(filt) - setting2.filtered_transfer_matrix(filt)
    )
    bound = 0.0
    for setting in (setting1, setting2):
        constants = filter_constants(filt, setting.source_eigenvalues,
                                     setting.target.eig.values)
        bound += bound_worstcase(setting, constants)[1]
    return error, bound
