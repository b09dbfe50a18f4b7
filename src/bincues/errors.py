"""Exception types shared across the package."""


class BincuesError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(BincuesError, ValueError):
    """A parameter or data structure violates its documented contract."""


class WavFormatError(BincuesError):
    """A WAV file is malformed or uses an unsupported encoding."""


class ClippingError(ValidationError):
    """Sample values exceed the representable range of the output encoding."""


class SilentSignalError(BincuesError):
    """A channel carries no usable energy: its Hann-windowed segments' RMS is under the floor."""


class AnalysisError(BincuesError):
    """An analysis step cannot produce a meaningful result."""
