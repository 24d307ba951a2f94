"""Exception hierarchy.

Validation errors (bad inputs, malformed files, broken invariants) derive
from :class:`ValidationError`; genuine I/O failures wrap the OS error in
:class:`IoFailure`. The CLI maps these onto exit codes 2 and 1.

:func:`check_finite` is the package's one NaN/inf rule: it returns the array
it checked, in the caller's own dtype, or raises the caller's error class
with ``index`` set to the first bad value. A value is bad if it is NaN,
infinite, or does not fit the binary64 every caller widens to. Any other
dtype than bool, integer or real float then raises TypeError: a cast to
float would drop an imaginary part, count days or parse text. A pass over
float64 blocks tests each as it reads it, past the gate :func:`check_real`,
and calls check_finite only to name the first bad index.
"""

import numbers

import numpy as np


class SoftEdgeError(Exception):
    """Base class for all library errors."""


class ValidationError(SoftEdgeError):
    """Invalid input data, configuration, or file contents."""


class IoFailure(SoftEdgeError):
    """An underlying OS-level read/write failure."""


# file formats
class BadMagic(ValidationError):
    pass


class VersionMismatch(ValidationError):
    pass


class TruncatedPayload(ValidationError):
    pass


class InvalidConfig(ValidationError):
    pass


# tensor contents
class NonFiniteValue(ValidationError):
    """A NaN or infinity where a finite value is required; carries the index."""


class NonFiniteInput(NonFiniteValue):
    pass


class EmptyTensor(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


# calibration
class PercentileOutOfRange(ValidationError):
    pass


class DegenerateRange(ValidationError):
    pass


# codec
class NonCanonicalCode(ValidationError):
    pass


# metrics
class ZeroSignal(ValidationError):
    pass


# synth / ssm
class InvalidSpec(ValidationError):
    pass


class InvalidParams(ValidationError):
    pass


_BINARY64_MAX = np.finfo(np.float64).max
# The longest float64 array numpy can describe: its bytes, not only its
# length, must fit intp.
SIZE_MAX = int(np.iinfo(np.intp).max) // 8


def check_number(v, error, name: str) -> float:
    """``v`` as a float; ``error`` unless it is a real within binary64, not a bool."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise error(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as e:
        raise error(f"{name} out of range: {e}") from e


def check_integer(v, error, name: str) -> int:
    """``v`` as an int; ``error`` unless it is an integer, not a bool."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise error(f"{name} must be an integer, got {v!r}")
    return int(v)


def check_finite(values, error=NonFiniteInput, where: str = "") -> np.ndarray:
    """``values`` as an array; ``error``, with ``index``, at its first NaN/inf
    or, in a dtype wider than binary64, its first value beyond binary64;
    then TypeError if its dtype is not bool, integer or real float."""
    x = np.asarray(values)
    kind = x.dtype.kind
    # text and objects hold nothing np.isfinite can test: only the TypeError
    bad = ~np.isfinite(x) if kind in "biufcmM" else np.zeros(0, bool)
    wide = kind == "f" and np.finfo(x.dtype).max > _BINARY64_MAX
    if wide:
        bad |= np.abs(x) > _BINARY64_MAX
    if bad.any():
        idx = int(np.argmax(bad))
        what = ("value beyond binary64" if wide and np.isfinite(x.flat[idx])
                else "non-finite value")
        e = error(f"{where}{what} at index {idx}")
        e.index = idx
        raise e
    if kind not in "biuf":
        raise TypeError(f"{where}a tensor must hold bool, integer or real "
                        f"float values, not dtype {x.dtype}")
    return x


def check_real(values) -> np.ndarray:
    """``values`` as an array whose float64 blocks a pass checks as it reads
    them: a dtype not bool, integer or real float up to binary64 is checked
    whole, which raises but for an extended float, then widened."""
    x = np.asarray(values)
    if x.dtype.kind not in "biuf" or x.dtype.itemsize > 8:
        x = check_finite(x).astype(np.float64)
    return x
