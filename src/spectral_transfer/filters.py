"""Scalar spectral filters and their application to self-adjoint operators.

A filter is a scalar function g applied to an operator through its
eigendecomposition, ``g(T) s = V g(Lambda) V^H B s`` with the B-orthonormal
eigenbasis V (equivalently ``sum_j g(lambda_j) P_j s`` over the
eigenprojections, which are never formed).  Rational filters
admit a second, algebraically equivalent route through compositions, linear
combinations, and one linear solve; general continuous filters admit a
Chebyshev polynomial route driven purely by matrix-vector products.  The
module also computes the filter-dependent constants used by the transfer
bounds: the per-eigenvalue maximal difference quotient and the sup norm over
an evaluated spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import SpectralTransferError
from .graphs import EigenDecomposition, OperatorWithInnerProduct
from .graphs import eigendecompose  # noqa: F401  (uncalled; bench/test_bench.py reads it)
from .textio import TextFile, finite_float, parse_descriptor

#: Eigenvalues whose difference quotient denominator is below this are
#: excluded from the quotient maximum; the excluded term never contributes
#: to the bound because it carries a vanishing |kappa - lambda|^2 factor.
DEFAULT_EXCLUSION_TOL = 1e-12


@dataclass(frozen=True)
class Filter:
    """A scalar filter with an optional Lipschitz constant.

    ``variant`` is the family that picks the formula (``identity``,
    ``heat``, ``lowpass``, ``highpass``, ``midpass``, ``polynomial``,
    ``rational``, ``table``); ``params`` carries its data, and ``name`` only
    labels reports.  Built-in closed forms ship an analytic Lipschitz
    constant valid on the nonnegative half line where Laplacian spectra live.
    """

    variant: str
    name: str
    params: dict = field(default_factory=dict)
    lipschitz_constant: float | None = None
    scale: float = 1.0

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls) -> "Filter":
        return cls("identity", "identity", {}, lipschitz_constant=0.0)

    @classmethod
    def heat(cls, t: float) -> "Filter":
        # |d/dx e^{-tx}| <= t on x >= 0
        if not float(t) >= 0.0:
            raise SpectralTransferError(f"heat time must be nonnegative, got {t:g}")
        return cls("heat", f"heat({_exact(t)})", {"t": float(t)},
                   lipschitz_constant=float(t))

    @classmethod
    def lowpass(cls, c: float) -> "Filter":
        return cls("lowpass", f"lowpass({_exact(c)})", {"c": float(c)},
                   lipschitz_constant=_declared_lipschitz("lowpass cutoff", c, 1.0))

    @classmethod
    def highpass(cls, c: float) -> "Filter":
        return cls("highpass", f"highpass({_exact(c)})", {"c": float(c)},
                   lipschitz_constant=_declared_lipschitz("highpass cutoff", c, 1.0))

    @classmethod
    def midpass(cls, c: float, sigma: float) -> "Filter":
        # Gaussian bump; max slope of exp(-(x-c)^2 / (2 sigma^2)) is
        # exp(-1/2)/sigma, attained one sigma away from the centre.
        return cls("midpass", f"midpass({_exact(c)},{_exact(sigma)})",
                   {"c": float(c), "sigma": float(sigma)},
                   lipschitz_constant=_declared_lipschitz("midpass width", sigma,
                                                          math.exp(-0.5)))

    @classmethod
    def polynomial(cls, coeffs) -> "Filter":
        coeffs = tuple(float(c) for c in coeffs)
        return cls("polynomial", f"poly{coeffs}", {"coeffs": coeffs})

    @classmethod
    def rational(cls, numerator, denominator) -> "Filter":
        num = tuple(float(c) for c in numerator)
        den = tuple(float(c) for c in denominator)
        if not any(den):
            raise SpectralTransferError("rational filter denominator is zero")
        return cls("rational", f"rational({num},{den})",
                   {"numerator": num, "denominator": den})

    @classmethod
    def from_table(cls, knots, values) -> "Filter":
        """Piecewise-linear filter through (lambda, g(lambda)) knots.

        Linear interpolation between knots, constant extrapolation beyond.
        """
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 1:
            raise SpectralTransferError("table filter needs matching 1-D knot arrays")
        order = np.argsort(knots)
        return cls("table", "table",
                   {"knots": tuple(knots[order]), "values": tuple(values[order])})

    @classmethod
    def from_table_file(cls, path) -> "Filter":
        """Load a (lambda, g(lambda)) two-column text table; '#' comments."""
        source = TextFile(path, "filter table")
        knots, values = [], []
        for lineno, fields in source.records("#"):
            with source.at(lineno):
                if len(fields) != 2:
                    raise ValueError(f"expected two columns, got {len(fields)}")
                knot, value = (finite_float(f) for f in fields)
            knots.append(knot)
            values.append(value)
        if not knots:
            raise source.fail(None, "empty filter table")
        return replace(cls.from_table(knots, values), name=f"table({path})")

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x):
        """Evaluate g at real scalar(s) x."""
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = self._evaluate_raw(x) * self.scale
        if not np.isfinite(out).all():
            raise SpectralTransferError(f"{self.name} is not finite on the spectrum")
        return out[0] if scalar else out

    def _evaluate_raw(self, x: np.ndarray) -> np.ndarray:
        if self.variant == "identity":
            return np.ones(x.shape)
        if self.variant == "heat":
            return np.exp(-self.params["t"] * x)
        if self.variant == "polynomial":
            return np.polynomial.polynomial.polyval(x, self.params["coeffs"])
        if self.variant == "rational":
            num = np.polynomial.polynomial.polyval(x, self.params["numerator"])
            den = np.polynomial.polynomial.polyval(x, self.params["denominator"])
            if np.any(np.abs(den) < 1e-14 * (1.0 + np.abs(num))):
                raise SpectralTransferError(
                    "rational filter denominator vanishes on the spectrum"
                )
            return num / den
        if self.variant == "table":
            return np.interp(x, self.params["knots"], self.params["values"])
        if self.variant == "lowpass":
            return np.maximum(0.0, 1.0 - x / self.params["c"])
        if self.variant == "highpass":
            return np.minimum(1.0, x / self.params["c"])
        if self.variant == "midpass":
            c, sigma = self.params["c"], self.params["sigma"]
            return np.exp(-((x - c) ** 2) / (2.0 * sigma * sigma))
        raise SpectralTransferError(f"unknown filter variant {self.variant!r}")

    # -- helpers --------------------------------------------------------

    def scaled(self, factor: float) -> "Filter":
        """Same filter multiplied by ``factor`` (Lipschitz constant scales)."""
        lip = None if self.lipschitz_constant is None else abs(factor) * self.lipschitz_constant
        return Filter(self.variant, self.name, self.params, lip,
                      self.scale * factor)

    def normalized_on(self, spectrum) -> tuple["Filter", float]:
        """Divide by the measured sup norm on ``spectrum``; returns (filter, factor).

        The returned factor is the measured max, meant to be folded into the
        channel mixing matrix so the network is unchanged.
        """
        sup = sup_norm_on_spectrum(self, spectrum)
        if sup == 0.0:
            raise SpectralTransferError("cannot normalize a filter that vanishes on the spectrum")
        return self.scaled(1.0 / sup), sup


def _exact(value: float) -> str:
    """``repr`` of the float without a trailing ``.0``: distinct parameters
    give distinct names, and ``heat(1)`` stays ``heat(1)``."""
    return repr(float(value)).removesuffix(".0")


def _declared_lipschitz(what: str, value: float, slope: float) -> float:
    """``slope / value``, the declared Lipschitz constant of a filter whose
    argument ``what`` is ``value``; the argument must be positive and the
    constant finite."""
    if not float(value) > 0.0:
        raise SpectralTransferError(f"{what} must be positive, got {value:g}")
    constant = slope / float(value)
    if not math.isfinite(constant):
        raise SpectralTransferError(
            f"{what} {_exact(value)} is too small: its Lipschitz constant overflows"
        )
    return constant


def make_filter(descriptor: str) -> Filter:
    """Parse ``identity``, ``heat(t)``, ``lowpass(c)``, ``highpass(c)``,
    ``midpass(c,sigma)``, ``poly(c0,c1,...)`` (one coefficient or more),
    ``table(path)``; a wrong argument count is an error."""
    base, args = parse_descriptor(descriptor)
    makers = {  # family -> (constructor, number of arguments; None: one or more)
        "identity": (Filter.identity, 0),
        "heat": (Filter.heat, 1),
        "lowpass": (Filter.lowpass, 1),
        "highpass": (Filter.highpass, 1),
        "midpass": (Filter.midpass, 2),
        "poly": (lambda *coeffs: Filter.polynomial(coeffs), None),
        "table": (Filter.from_table_file, 1),
    }
    if base not in makers:
        raise SpectralTransferError(f"unknown filter family {base!r}")
    maker, arity = makers[base]
    if len(args) != arity and not (arity is None and args):
        wanted = "at least 1" if arity is None else arity
        raise SpectralTransferError(
            f"{descriptor.strip()!r}: {base} takes {wanted} argument(s), got {len(args)}"
        )
    try:  # a table takes a path, every other family numbers
        return maker(*(a if base == "table" else finite_float(a) for a in args))
    except ValueError as exc:
        raise SpectralTransferError(f"{descriptor.strip()!r}: {exc}") from None


def apply_exact(filter: Filter, eig: EigenDecomposition, signal: np.ndarray) -> np.ndarray:
    """Spectral synthesis ``V g(Lambda) V^H B signal``.

    ``signal`` is one vector or a matrix whose columns are signals.  Two
    products with the eigenbasis do the work; no n x n filter matrix is
    formed, so a mat-vec costs O(n^2).
    """
    signal = np.asarray(signal)
    if signal.shape[0] != eig.dim:
        raise SpectralTransferError(
            f"signal dimension {signal.shape[0]} != operator dimension {eig.dim}"
        )
    return eig.apply_function_to(filter.evaluate(eig.values), signal)


def filter_matrix(filter: Filter, eig: EigenDecomposition) -> np.ndarray:
    """Dense matrix of g(T)."""
    return eig.apply_function(filter.evaluate(eig.values))


def apply_rational(
    filter: Filter, op: OperatorWithInnerProduct, signal: np.ndarray
) -> np.ndarray:
    """Apply a rational filter through powers, sums, and one linear solve.

    Computes ``(sum_l c_l T^l)(sum_l d_l T^l)^{-1} signal`` without any
    eigendecomposition; agrees with :func:`apply_exact` to roundoff.
    """
    if filter.variant == "polynomial":
        num = filter.params["coeffs"]
        den = (1.0,)
    elif filter.variant == "rational":
        num = filter.params["numerator"]
        den = filter.params["denominator"]
    else:
        raise SpectralTransferError("apply_rational needs a polynomial or rational filter")
    t = op.matrix
    num_mat = _matrix_polynomial(num, t)
    den_mat = _matrix_polynomial(den, t)
    cond = np.linalg.cond(den_mat)
    if not np.isfinite(cond) or cond > 1e10:
        raise SpectralTransferError(
            f"denominator operator condition {cond:.3e} exceeds 1e10"
        )
    return filter.scale * (num_mat @ np.linalg.solve(den_mat, np.asarray(signal)))


def _matrix_polynomial(coeffs, t: np.ndarray) -> np.ndarray:
    # Horner evaluation on the matrix.
    n = t.shape[0]
    out = np.zeros_like(t, dtype=np.result_type(t.dtype, float))
    eye = np.eye(n, dtype=out.dtype)
    for c in reversed(coeffs):
        out = out @ t + c * eye
    return out


def chebyshev_coefficients(filter: Filter, degree: int, interval) -> np.ndarray:
    """Chebyshev interpolation coefficients of g on [a, b] at the Chebyshev
    points of the first kind (degree+1 nodes)."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise SpectralTransferError(f"empty spectral interval [{a}, {b}]")

    def on_unit(x):
        return np.asarray(filter.evaluate(0.5 * (a + b) + 0.5 * (b - a) * x), dtype=float)

    return _cheb.chebinterpolate(on_unit, degree)


def apply_chebyshev(
    filter: Filter,
    op: OperatorWithInnerProduct,
    degree: int,
    interval,
    signal: np.ndarray,
) -> np.ndarray:
    """Apply the degree-k Chebyshev interpolant of g through the three-term
    recurrence on matrix-vector products.

    The operator spectrum must lie inside ``interval`` (checked to 1e-9);
    the operator-norm error is then bounded by the scalar sup-norm
    interpolation error of g on the interval; for normalized Laplacians
    [0, 2] holds the spectrum.
    """
    if degree < 0:
        raise SpectralTransferError("degree must be nonnegative")
    spectrum = op.eig.values
    a, b = float(interval[0]), float(interval[1])
    lo, hi = spectrum.min(), spectrum.max()
    if lo < a - 1e-9 or hi > b + 1e-9:
        raise SpectralTransferError(
            f"spectrum [{lo:g}, {hi:g}] escapes interval [{a:g}, {b:g}]"
        )
    coeffs = chebyshev_coefficients(filter, degree, (a, b))
    t = op.matrix
    signal = np.asarray(signal, dtype=np.result_type(t.dtype, float))
    alpha = 2.0 / (b - a)
    beta = (a + b) / (b - a)

    def shifted(v):
        return alpha * (t @ v) - beta * v

    w_prev = signal
    out = coeffs[0] * w_prev
    if degree >= 1:
        w_curr = shifted(signal)
        out = out + coeffs[1] * w_curr
        for j in range(2, degree + 1):
            w_next = 2.0 * shifted(w_curr) - w_prev
            w_prev, w_curr = w_curr, w_next
            out = out + coeffs[j] * w_curr
    return out


def chebyshev_sup_error(filter: Filter, degree: int, interval) -> float:
    """Scalar sup-norm interpolation error of g on 4097 interval points."""
    a, b = float(interval[0]), float(interval[1])
    coeffs = chebyshev_coefficients(filter, degree, (a, b))
    xs = np.linspace(a, b, 4097)
    unit = (2.0 * xs - (a + b)) / (b - a)
    approx = _cheb.chebval(unit, coeffs)
    exact = np.asarray(filter.evaluate(xs), dtype=float)
    return float(np.abs(exact - approx).max())


def max_difference_quotient(filter: Filter, lambda_m, target_spectrum):
    """Largest |g(kappa) - g(lambda_m)| / |kappa - lambda_m| over the target
    spectrum, excluding points within ``DEFAULT_EXCLUSION_TOL`` of lambda_m.

    This is the per-mode constant multiplying the Laplacian transfer error
    in the mode-wise bound; it never exceeds the filter's Lipschitz
    constant.  It is 0 when every target eigenvalue is excluded.  A scalar
    ``lambda_m`` gives a float; an array of source eigenvalues gives the
    array of their quotients, computed from one source-by-target matrix.
    """
    target = np.asarray(target_spectrum)
    if target.size == 0:
        raise SpectralTransferError("target spectrum is empty")
    source = np.asarray(lambda_m)
    lams = source.reshape(-1)
    dist = np.abs(target[None, :] - lams[:, None])
    keep = dist > DEFAULT_EXCLUSION_TOL
    jump = np.abs(filter.evaluate(target)[None, :] - filter.evaluate(lams)[:, None])
    quotients = np.divide(jump, dist, out=np.zeros(dist.shape), where=keep)
    worst = quotients.max(axis=1)
    return float(worst[0]) if source.ndim == 0 else worst


def sup_norm_on_spectrum(filter: Filter, eigenvalues) -> float:
    """``max_m |g(lambda_m)|`` over the evaluated eigenvalues."""
    vals = filter.evaluate(np.asarray(eigenvalues))
    return float(np.abs(vals).max()) if vals.size else 0.0
