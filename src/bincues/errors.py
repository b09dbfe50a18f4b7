"""Exception types shared across the package, and the one rule for a scalar argument."""

import math
import numbers


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


def check_number(name: str, value, lo: float = -math.inf, hi: float = math.inf, ends: str = "[]",
                 integer: bool | str = False, error: type[Exception] = ValidationError):
    """The one rule for a scalar argument: value is a real number (a Python or numpy int or
    float, not a bool) in lo..hi, each end closed "[]" or open "()" as `ends` has it, so NaN
    never passes, nor an infinity but at a closed end. integer=True asks for an int or a numpy
    integer, and integer="whole" also takes a float of whole value such as 48000.0: both return
    an int, and a real number is returned as it is. Else raises `error` naming the parameter,
    the interval and the value."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ok and integer and not isinstance(value, numbers.Integral):
        ok = integer == "whole" and float(value).is_integer()
    if not (ok and (lo < value if ends[0] == "(" else lo <= value)
            and (value < hi if ends[1] == ")" else value <= hi)):
        infinite = ends[0] == "[" and lo == -math.inf or ends[1] == "]" and hi == math.inf
        noun = "an integer" if integer else "a number" if infinite else "a finite number"
        raise error(f"{name} must be {noun} in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")
    return int(value) if integer else value
