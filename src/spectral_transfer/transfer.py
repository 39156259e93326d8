"""Transfer error measurements and the five certified filter bounds.

Everything is assembled in the band-limited coordinates of the source
space: a setting holds the source eigenvalues, the sampling matrix S
restricted to the band (source Fourier basis in, graph vector out), and the
target operator with its inner product.  Interpolation is always the
adjoint of sampling, so its matrix is ``R = S^H B``.  A filter g reaches a
setting through one cached matrix ``Q = V^H B S``, the band in the target's
B-orthonormal eigenbasis V, and its responses ``g(mu)`` on the target
eigenvalues and ``g(lambda)`` on the source ones: ``g(Delta) S = V (g(mu) Q)``
and ``R g(Delta) S = Q^H diag(g(mu)) Q``.  V is complete and B-orthonormal
(``V^H B V = I``, as ``eigendecompose`` gives it), so ``S = V Q`` and ``V^H B``
maps B-norms to equal Euclidean ones: each graph-side lhs, a B-norm of
``V (g(mu) Q) - S g(Lambda)``, is the norm of the array
``Q o (g(mu_i) - g(lambda_j))``, formed elementwise.  Every rhs stays
measured on Delta itself, through ``Delta S - S Lambda``.

The band-side operator-norm lhs follows from the same C: with
``K = Q^H Q = S^H B S``,
``Q^H diag(g(mu)) Q - diag(g(lambda)) = Q^H C + (K - I) diag(g(lambda))``.
A setting is *complete* when it is a perturbation that removes no vertex,
takes the whole band and keeps the source's B.  S is then the source's
whole B-orthonormal eigenbasis, so K = I and Q is unitary, and that lhs is
``||Q^H C|| = ||C||``, the graph-side operator-norm lhs: it needs no
band x band matrix and no second Hermitian solve.

``||C||`` costs less than its order when few responses move.  Let f be the
value most entries of ``a = g(mu)`` and ``b = g(lambda)`` share (a lowpass
or highpass is constant above its cutoff), R the rows with ``a_i != f`` and
T the columns with ``b_j != f``; then ``C[~R, ~T] = 0``.  With thin QRs
``C[R, ~T]^H = Q1 R1`` and ``C[~R, T] = Q2 R2``, C is
``diag(I, Q2) [[C[R, T], R1^H], [R2, 0]] diag(I, Q1^H)`` up to a permutation,
and the partial isometries keep its singular values, so ``||C||`` is the
norm of a matrix of order at most ``|R| + |T|``.  The two QRs take about
``2 (m |R|^2 + n |T|^2)`` flops against about ``(7/3) min(n, m)^3`` for the
Gram matrix and eigensolve of ``operator_norm(C)``, so the compressed matrix
is used when ``2 (|R| + |T|) <= min(n, m)`` and C itself otherwise (a heat
filter moves every response).

The five bound variants relate the filter transfer error to the Laplacian
transfer error and the consistency error: per source Fourier mode, for a
fixed signal (evaluated on the graph or back on the source space), and in
operator norm over the whole band (again on either side).  Each is an exact
inequality for a target operator self-adjoint under B, so a violation
beyond roundoff slack indicates a broken build, never an unlucky input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SpectralTransferError
from .filters import Filter, max_difference_quotient, sup_norm_on_spectrum
from .graphs import (
    OperatorWithInnerProduct,
    column_norms,
    hermitian_norm,
    operator_norm,
    unit_scale,
)
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
    certified inequality (a violation raises), or the largest quotient when
    the filter declares none.
    """
    source = np.asarray(source_eigenvalues)
    vg = max_difference_quotient(filt, source, target_spectrum)
    lip = filt.lipschitz_constant
    if lip is not None and vg.size and not certified(float(vg.max()), lip):
        raise SpectralTransferError(
            f"{filt.name}: declared Lipschitz constant {lip:g} is violated "
            f"on the spectra (observed quotient {vg.max():g})"
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

    ``complete`` marks S as the source's whole B-orthonormal eigenbasis
    under the target's own B, so that ``K = I`` and Q is unitary; only
    :func:`perturbation_setting` sets it, from the structure of the setting.
    """

    name: str
    band: float
    source_eigenvalues: np.ndarray
    s_pw: np.ndarray
    target: OperatorWithInnerProduct
    complete: bool = False

    def __post_init__(self):
        lams = np.asarray(self.source_eigenvalues)
        s = np.asarray(self.s_pw)
        if s.shape != (self.target.dim, lams.shape[0]):
            raise SpectralTransferError(
                f"sampling matrix {s.shape} inconsistent with "
                f"{lams.shape[0]} source modes and {self.target.dim} target vertices"
            )
        object.__setattr__(self, "source_eigenvalues", lams)
        object.__setattr__(self, "s_pw", s)

    @property
    def dim_pw(self) -> int:
        return int(self.source_eigenvalues.shape[0])

    # Q, the Laplacian errors and the band norms below do not depend on the
    # filter; each is measured once per setting.

    @cached_property
    def q(self) -> np.ndarray:
        """``Q = V^H B S``: the sampled band in the target eigenbasis V."""
        return self.target.eig.basis.conj().T @ self.target.inner.apply(self.s_pw)

    @cached_property
    def _laplacian_errors(self) -> tuple:
        # both B-norms of Delta S - S Lambda from one product, not kept (peak RSS)
        diff = self.target.inner.apply_sqrt(
            self.target.matrix @ self.s_pw - self.s_pw * self.source_eigenvalues)
        return column_norms(diff), operator_norm(diff)

    @property
    def laplacian_mode_errors(self) -> np.ndarray:
        """Graph norm of ``Delta S e_m - S e_m lambda_m`` for each mode m."""
        return self._laplacian_errors[0]

    @cached_property
    def band_gram_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of ``K = S^H B S``, formed as ``Y^H Y`` for
        ``Y = B^{1/2} S``, the Gram matrix that ``operator_norm(Y)`` forms,
        from numpy's ``eigvalsh`` at any order; empty for an empty band."""
        y = self.target.inner.apply_sqrt(self.s_pw)
        return np.linalg.eigvalsh(y.T @ y)

    @cached_property
    def interpolation_norm(self) -> float:
        """Measured ||R||; equals ||S|| since R is the adjoint of S."""
        return float(np.sqrt(self.band_gram_spectrum.max(initial=0.0)))

    @property
    def laplacian_operator_error(self) -> float:
        """``|| S L P - Delta S P ||`` in operator norm over the band."""
        return self._laplacian_errors[1]

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
    if band is None:
        band = space.full_band()
    return TransferSetting(name, band, space.eigenvalues_up_to(band),
                           cmap.s_matrix @ space.pw_basis(band),
                           coarsened_laplacian(cmap, space.operator))


def perturbation_setting(space: GraphSpace, delta: OperatorWithInnerProduct,
                         kept: tuple | None = None, band: float | None = None,
                         name: str = "perturbation") -> TransferSetting:
    """Perturbation setting, S = R = I on the band, or S the band's rows at
    the ``kept`` vertex indices when vertices were removed; complete when no
    vertex was removed, the band holds every mode and ``delta`` keeps the
    source's B."""
    if band is None:
        band = space.full_band()
    basis = space.pw_basis(band)
    s_pw = basis if kept is None else basis[np.asarray(kept)]
    complete = (kept is None and basis.shape[1] == space.n_vertices
                and np.array_equal(delta.inner.b, space.operator.inner.b))
    return TransferSetting(name, band, space.eigenvalues_up_to(band), s_pw, delta,
                           complete)


class ModeRow(NamedTuple):
    """One per-mode certified inequality, its fields in ``modes.csv`` order."""

    mode: int
    eigenvalue: float
    lhs: float
    rhs: float
    quotient: float
    laplacian_mode_error: float
    satisfied: bool


def bound_fourier_mode(setting: TransferSetting, filt: Filter,
                       mode: int) -> ModeRow:
    """Per-mode bound: the filtered mismatch of one source eigenvector, on
    the graph, against its Laplacian mismatch times its largest quotient."""
    return _mode_bounds(setting, filt, [mode])[0][0]


def _mode_bounds(setting: TransferSetting, filt: Filter, modes) -> tuple:
    """Per-mode rows for the source modes ``modes`` (any column index).

    Works on all the modes at once.  With V complete and B-orthonormal, the
    mismatch ``V (g(mu) Q) - S g(Lambda)`` is ``V C`` for the elementwise
    ``C = Q o (g(mu_i) - g(lambda_j))``, and ``V^H B`` is an isometry, so the
    lhs, its columns' B-norms, are C's column norms; the rhs stay measured on
    Delta.  Also returns the modes' filter constants and C, for the
    aggregate bounds.
    """
    lams = setting.source_eigenvalues[modes]
    constants = filter_constants(filt, lams, setting.target.eig.values)
    lap = setting.laplacian_mode_errors[modes]
    # a response or rhs beyond the float range is inf, with no warning
    with np.errstate(over="ignore"):
        rhs = constants.vg_per_eig * lap
        mismatch = setting.q[:, modes] * (setting.target_response(filt) - filt.evaluate(lams))
        lhs = column_norms(mismatch)
        passed = certified(lhs, rhs)
    columns = (np.arange(setting.dim_pw)[modes], lams, lhs, rhs, constants.vg_per_eig, lap, passed)
    rows = tuple(map(ModeRow._make, zip(*(column.tolist() for column in columns))))
    return rows, constants, mismatch


def _mismatch_norm(mismatch: np.ndarray, target_response, source_response) -> float:
    """``||C||`` for ``C = Q o (a_i - b_j)``, ``a = target_response`` and
    ``b = source_response``: the norm of the compressed matrix of the module
    docstring where ``2 (|R| + |T|) <= min(n, m)``, else, and for a
    non-finite entry, :func:`operator_norm` of C."""
    a, b = np.ravel(target_response), np.ravel(source_response)
    values, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    flat = values[np.argmax(counts)]
    rows, cols = a != flat, b != flat
    if (2 * (np.count_nonzero(rows) + np.count_nonzero(cols)) > min(mismatch.shape)
            or not np.isfinite(mismatch).all()):
        return operator_norm(mismatch)
    # scaled by a power of two as in operator_norm, so no product overflows
    top, side = mismatch[rows], mismatch[np.ix_(~rows, cols)]
    peak = max(np.abs(top).max(initial=0.0), np.abs(side).max(initial=0.0))
    if peak == 0.0:
        return 0.0
    scale = unit_scale(peak)
    top, side = top * scale, side * scale
    r1 = np.linalg.qr(top[:, ~cols].conj().T, mode="r")
    r2 = np.linalg.qr(side, mode="r")
    core = np.block([[top[:, cols], r1.conj().T],
                     [r2, np.zeros((r2.shape[0], r1.shape[0]), dtype=r2.dtype)]])
    with np.errstate(over="ignore"):
        return float(operator_norm(core) / scale)


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
        raise SpectralTransferError(
            f"signal has {coeffs.shape[0]} coefficients, band holds {setting.dim_pw}"
        )
    lams, s, inner = setting.source_eigenvalues, setting.s_pw, setting.target.inner
    # R g(Delta) S c, as Q^H diag(g(mu)) Q applied from the right
    filtered_back = setting.q.conj().T @ (
        setting.target_response(filt)[:, 0] * (setting.q @ coeffs)
    )
    graph_signal = s @ coeffs
    # R = S^H B applied to each of the two graph vectors
    errors = np.stack([
        filt.evaluate(lams) * coeffs - filtered_back,
        lams * coeffs - s.conj().T @ inner.apply(setting.target.matrix @ graph_signal),
        coeffs - s.conj().T @ inner.apply(graph_signal),
    ], axis=1)
    return tuple(float(err) for err in column_norms(errors))


class BoundRow(NamedTuple):
    """One aggregate certified inequality, its fields in ``bounds.csv`` order."""

    bound: str
    lhs: float
    rhs: float
    satisfied: bool


def evaluate_transfer(setting: TransferSetting, filt: Filter,
                      signal_seed: int = 0) -> tuple:
    """Measure the three transfer errors and certify all five bounds; the
    pointwise ones probe a unit-norm signal drawn from ``signal_seed``.

    Returns ``(per_mode, bounds, summary)``: the ``ModeRow`` of each source
    mode, the four ``BoundRow``s, and the filter's ``summary.txt`` entry
    (its three errors, ``||R||``, D, and whether the target spectrum has
    repeated eigenvalues).
    """
    m = setting.dim_pw
    rng = np.random.default_rng(np.random.SeedSequence((signal_seed, m)))
    coeffs = rng.normal(size=m)
    coeffs /= np.linalg.norm(coeffs)

    # The source side first, so that its band x band matrix is freed before
    # the graph-side mismatch is formed.
    filter_err, lap_err, cons_err = transfer_errors(setting, filt, coeffs)
    lhs_worst_m = None
    source_response = filt.evaluate(setting.source_eigenvalues)
    if not setting.complete:
        # Hermitian, so its norm needs no Gram product
        lhs_worst_m = hermitian_norm(np.diag(source_response)
                                     - setting.filtered_transfer_matrix(filt))

    per_mode, constants, mismatch = _mode_bounds(setting, filt, slice(None))
    lhs_point_g = float(column_norms((mismatch @ coeffs)[:, None])[0])
    lhs_worst_g = _mismatch_norm(mismatch, setting.target_response(filt), source_response)
    del mismatch
    if setting.complete:
        lhs_worst_m = lhs_worst_g  # ||Q^H C|| = ||C|| for a unitary Q

    # The fixed-signal rhs: in the graph ``sum_m V_m |c_m| err_m``, back in
    # the source space that sum times ||R|| plus sup|g| times the signal's
    # consistency error; the operator-norm rhs likewise over the band.
    c_norm = setting.interpolation_norm
    rhs_point_g = float(np.sum(constants.vg_per_eig * np.abs(coeffs)
                               * setting.laplacian_mode_errors))
    rhs_point_m = c_norm * rhs_point_g + constants.sup_norm * cons_err
    rhs_worst_g, rhs_worst_m = bound_worstcase(setting, constants)

    bounds = tuple(BoundRow(name, lhs, rhs, certified(lhs, rhs)) for name, lhs, rhs in (
        ("pointwise_in_G", lhs_point_g, rhs_point_g),
        ("worstcase_in_G", lhs_worst_g, rhs_worst_g),
        ("pointwise_in_M", filter_err, rhs_point_m),
        ("worstcase_in_M", lhs_worst_m, rhs_worst_m),
    ))
    return per_mode, bounds, {
        "filter_error": filter_err,
        "laplacian_error": lap_err,
        "consistency_error": cons_err,
        "interpolation_norm": c_norm,
        "lipschitz_constant": constants.lipschitz,
        "grouped_spectrum": setting.target.eig.grouped,
    }


def two_graph_error(setting1: TransferSetting, setting2: TransferSetting,
                    filt: Filter) -> tuple:
    """Operator-norm gap between the two interpolated filter actions, with
    its triangle bound (the sum of the two source-space worst-case bounds).
    """
    if setting1.dim_pw != setting2.dim_pw or not np.allclose(
        setting1.source_eigenvalues, setting2.source_eigenvalues
    ):
        raise SpectralTransferError("the two settings must share one source space and band")
    # a difference of two Hermitian matrices, so its norm needs no Gram product
    error = hermitian_norm(
        setting1.filtered_transfer_matrix(filt) - setting2.filtered_transfer_matrix(filt)
    )
    bound = 0.0
    for setting in (setting1, setting2):
        constants = filter_constants(filt, setting.source_eigenvalues,
                                     setting.target.eig.values)
        bound += bound_worstcase(setting, constants)[1]
    return error, bound
