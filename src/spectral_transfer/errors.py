"""Exception types shared across the package."""


class SpectralTransferError(Exception):
    """Base class for all library errors."""


class GraphError(SpectralTransferError):
    """Invalid graph data (self loops, bad indices, non-finite weights)."""


class DegenerateDegreeError(GraphError):
    """Normalized Laplacian requested on a graph with a zero-degree vertex."""


class InvalidInnerProductError(SpectralTransferError):
    """Inner-product weights are not a 1-D array of positive reals."""


class NormalityError(SpectralTransferError):
    """Operator is not self-adjoint under the given inner product."""


class FilterEvaluationError(SpectralTransferError):
    """Filter is undefined at a requested spectral point."""


class SingularFilterError(SpectralTransferError):
    """Rational filter denominator is singular on the operator."""


class SpectralIntervalError(SpectralTransferError):
    """Operator spectrum escapes the polynomial approximation interval."""


class BandError(SpectralTransferError):
    """Signal or operator is inconsistent with the requested frequency band."""


class WeightError(SpectralTransferError):
    """Sampling weight function is nonpositive at a drawn point."""


class DegeneratePerturbationError(SpectralTransferError):
    """Perturbation would leave an empty graph."""


class TopologyError(SpectralTransferError):
    """Channel counts or graph sizes do not chain through the network."""


class ParameterError(SpectralTransferError):
    """Numeric parameter outside its admissible range."""


class TruncationError(SpectralTransferError):
    """Series truncation is not converged to the requested tolerance."""


class SlopeUndefinedError(SpectralTransferError):
    """All medians vanish; a log-log rate cannot be fitted."""


class ParseError(SpectralTransferError):
    """Malformed input file; the message names the offending line when known."""


class ConfigError(SpectralTransferError):
    """Invalid experiment configuration."""
