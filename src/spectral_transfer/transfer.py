"""Transfer error measurements and the five certified filter bounds.

Everything is assembled in the band-limited coordinates of the source
space: a setting holds the source eigenvalues, the sampling matrix
restricted to the band (source Fourier basis in, graph vector out), and the
target operator with its inner product.  Interpolation is always the
adjoint of sampling, so its matrix is ``S^H B``.

The five bound variants relate the filter transfer error to the Laplacian
transfer error and the consistency error: per source Fourier mode, for a
fixed signal (evaluated on the graph or back on the source space), and in
operator norm over the whole band (again on either side).  Each is an exact
inequality for any normal target operator, so a violation beyond roundoff
slack indicates a broken build, never an unlucky input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BandError, ParameterError
from .filters import (
    Filter,
    apply_exact,
    max_difference_quotient,
    sup_norm_on_spectrum,
)
from .graphs import OperatorWithInnerProduct, operator_norm
from .sampling import CoarseningMap, SamplingPair, coarsened_laplacian
from .spaces import GraphSpace

#: A certified inequality passes when lhs <= rhs (1 + REL_SLACK) + ABS_SLACK.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12


def certified(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + REL_SLACK) + ABS_SLACK


@dataclass(frozen=True)
class FilterConstants:
    """Per-eigenvalue quotient bounds and the sup norm over a spectrum."""

    vg_per_eig: np.ndarray
    sup_norm: float


def filter_constants(filt: Filter, source_eigenvalues,
                     target_spectrum) -> FilterConstants:
    """Per-mode quotient bounds and the source-spectrum sup norm.

    The quotients must respect the filter's declared Lipschitz constant,
    under the same slack as every certified inequality; a violation raises
    :class:`ParameterError`.
    """
    source = np.asarray(source_eigenvalues)
    vg = max_difference_quotient(filt, source, target_spectrum)
    lip = filt.lipschitz_constant
    if lip is not None and vg.size and not certified(float(vg.max()), lip):
        raise ParameterError(
            f"declared Lipschitz constant {lip:g} is violated on the "
            f"spectra (observed quotient {vg.max():g})"
        )
    return FilterConstants(vg_per_eig=vg, sup_norm=sup_norm_on_spectrum(filt, source))


@dataclass(frozen=True)
class TransferSetting:
    """One (source space, sampling, target operator) configuration."""

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

    # The three band norms below do not depend on the filter; each is
    # measured once per setting.

    @cached_property
    def interpolation_norm(self) -> float:
        """Measured ||R||; equals ||S|| since R is the adjoint of S."""
        return self.target.inner.weighted_operator_norm(self.s_pw)

    @cached_property
    def laplacian_operator_error(self) -> float:
        """``|| S L P - Delta S P ||`` in operator norm over the band."""
        diff = self.s_pw * self.source_eigenvalues - self.target.matrix @ self.s_pw
        return self.target.inner.weighted_operator_norm(diff)

    @cached_property
    def consistency_operator_error(self) -> float:
        """``|| P - R S P ||`` in operator norm over the band."""
        m = self.dim_pw
        return operator_norm(np.eye(m) - self.r_pw @ self.s_pw)

    def filtered_transfer_matrix(self, filt: Filter) -> np.ndarray:
        """Band-coefficient matrix of ``R g(Delta) S``."""
        return self.r_pw @ apply_exact(filt, self.target.eig, self.s_pw)


def sampling_setting(pair: SamplingPair, delta: OperatorWithInnerProduct,
                     name: str = "sampling") -> TransferSetting:
    """Point-sampling setting: circle modes in the band against ``delta``."""
    return TransferSetting(
        name=name,
        band=pair.band,
        source_eigenvalues=pair.space.eigenvalues_up_to(pair.band),
        s_pw=pair.s_matrix,
        target=delta,
    )


def coarsening_setting(space: GraphSpace, cmap: CoarseningMap,
                       band: float | None = None,
                       delta: OperatorWithInnerProduct | None = None,
                       name: str = "coarsening") -> TransferSetting:
    """Coarsening setting with the collapsed operator ``S L S^T`` by default."""
    if band is None:
        band = space.full_band()
    if delta is None:
        delta = coarsened_laplacian(cmap, space.operator)
    return TransferSetting(
        name=name,
        band=band,
        source_eigenvalues=space.eigenvalues_up_to(band),
        s_pw=cmap.s_matrix @ space.pw_basis(band),
        target=delta,
    )


def perturbation_setting(space: GraphSpace, delta: OperatorWithInnerProduct,
                         restriction: np.ndarray | None = None,
                         band: float | None = None,
                         name: str = "perturbation") -> TransferSetting:
    """Perturbation setting, S = R = I (or a vertex restriction)."""
    if band is None:
        band = space.full_band()
    basis = space.pw_basis(band)
    s_pw = basis if restriction is None else restriction @ basis
    return TransferSetting(
        name=name,
        band=band,
        source_eigenvalues=space.eigenvalues_up_to(band),
        s_pw=s_pw,
        target=delta,
    )


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
    """Per-mode bound: the filtered mismatch of one source eigenvector,
    measured on the graph, against its Laplacian mismatch scaled by the
    largest filter difference quotient.
    """
    rows, _, _ = _mode_bounds(setting, filt, [mode])
    return rows[0]


def _mode_bounds(setting: TransferSetting, filt: Filter, modes) -> tuple:
    """Per-mode rows for the source modes ``modes`` (any column index).

    Works on all the modes at once: the lhs are the graph-norm column
    norms of ``g(Delta) S - S diag g(lambda)``.  Also returns the filter
    constants of those modes and the filtered sampling matrix
    ``g(Delta) S``, which the aggregate bounds reuse.
    """
    lams = np.real(setting.source_eigenvalues[modes])
    s_cols = setting.s_pw[:, modes]
    constants = filter_constants(filt, lams, setting.target.eig.eigenvalues())
    g_s = apply_exact(filt, setting.target.eig, s_cols)
    inner = setting.target.inner
    lhs = inner.column_norms(g_s - s_cols * filt.evaluate(lams))
    lap = inner.column_norms(setting.target.matrix @ s_cols - s_cols * lams)
    rows = tuple(
        ModeRow(int(mode), float(lam), float(left), float(q * err), float(q), float(err))
        for mode, lam, left, q, err in zip(
            np.arange(setting.dim_pw)[modes], lams, lhs, constants.vg_per_eig, lap
        )
    )
    return rows, constants, g_s


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


def bound_worstcase(d_lipschitz: float, count: int, lap_op_norm: float,
                    c_norm: float, g_sup: float,
                    consistency_norm: float) -> tuple:
    """Right-hand sides ``(in_G, in_M)`` of the operator-norm bounds over
    the band."""
    core = d_lipschitz * np.sqrt(count) * lap_op_norm
    return float(core), float(c_norm * core + g_sup * consistency_norm)


def transfer_errors(setting: TransferSetting, filt: Filter,
                    coeffs: np.ndarray) -> tuple:
    """(filter error, Laplacian error, consistency error) of one signal,
    all measured back in the source space."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != setting.dim_pw:
        raise BandError(
            f"signal has {coeffs.shape[0]} coefficients, band holds {setting.dim_pw}"
        )
    g_vals = filt.evaluate(setting.source_eigenvalues)
    filtered_src = g_vals * coeffs
    filtered_back = setting.r_pw @ apply_exact(
        filt, setting.target.eig, setting.s_pw @ coeffs
    )
    lap_src = setting.source_eigenvalues * coeffs
    lap_back = setting.r_pw @ (setting.target.matrix @ (setting.s_pw @ coeffs))
    round_trip = setting.r_pw @ (setting.s_pw @ coeffs)
    return (
        float(np.linalg.norm(filtered_src - filtered_back)),
        float(np.linalg.norm(lap_src - lap_back)),
        float(np.linalg.norm(coeffs - round_trip)),
    )


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
                      coeffs: np.ndarray | None = None,
                      signal_seed: int = 0) -> TransferReport:
    """Measure the three transfer errors and certify all five bounds.

    ``coeffs`` fixes the probe signal for the pointwise bounds; by default
    a seeded unit-norm coefficient vector is drawn.
    """
    m = setting.dim_pw
    if coeffs is None:
        rng = np.random.default_rng(np.random.SeedSequence((signal_seed, m)))
        coeffs = rng.normal(size=m)
        coeffs /= np.linalg.norm(coeffs)
    coeffs = np.asarray(coeffs)

    per_mode, constants, g_s = _mode_bounds(setting, filt, slice(None))
    vg = constants.vg_per_eig
    d_lip = filt.lipschitz_constant
    if d_lip is None:
        d_lip = float(vg.max()) if vg.size else 0.0
    g_sup = constants.sup_norm
    c_norm = setting.interpolation_norm
    mode_errors = np.array([row.laplacian_mode_error for row in per_mode])

    # The graph-side lhs of the fixed-signal and operator-norm bounds.  The
    # mismatch is freed before the band x band matrices below are formed.
    g_vals = filt.evaluate(np.real(setting.source_eigenvalues))
    mismatch = g_s - setting.s_pw * g_vals
    lhs_point_g = setting.target.inner.norm(mismatch @ coeffs)
    lhs_worst_g = setting.target.inner.weighted_operator_norm(mismatch)
    del mismatch

    # Fixed-signal bounds, on the graph and back on the source space.
    filter_err, lap_err, cons_err = transfer_errors(setting, filt, coeffs)
    rhs_point_g, rhs_point_m = bound_pointwise(
        vg, coeffs, mode_errors, c_norm, g_sup, cons_err
    )

    # Operator-norm bounds over the whole band.
    lhs_worst_m = operator_norm(np.diag(g_vals) - setting.r_pw @ g_s)
    rhs_worst_g, rhs_worst_m = bound_worstcase(
        d_lip, m, setting.laplacian_operator_error, c_norm, g_sup,
        setting.consistency_operator_error,
    )

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
        lipschitz_constant=d_lip,
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
    mat1 = setting1.filtered_transfer_matrix(filt)
    mat2 = setting2.filtered_transfer_matrix(filt)
    error = operator_norm(mat1 - mat2)
    bound = 0.0
    for setting in (setting1, setting2):
        report = evaluate_transfer(setting, filt)
        bound += report.bounds[3].rhs  # worst-case bound on the source side
    return error, bound
