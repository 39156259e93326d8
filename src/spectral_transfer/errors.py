"""The library's error types.  Every invalid input, config, file or
numerical domain raises :class:`SpectralTransferError` with a message that
names the fault; the CLI turns it into exit code 2.  The one subclass is
the one a caller tells apart: an unconverged series truncation."""


class SpectralTransferError(Exception):
    """Base class for all library errors.  ``key``, when given, names the
    input (a config key or a dataclass field) whose value is at fault, so
    that a config file's loader can name the line that set it."""

    def __init__(self, message: str = "", key: str | None = None):
        super().__init__(message)
        self.key = key


class TruncationError(SpectralTransferError):
    """Series truncation is not converged to the requested tolerance."""
