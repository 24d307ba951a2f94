"""Exception hierarchy.

Validation errors (bad inputs, malformed files, broken invariants) derive
from :class:`ValidationError`; genuine I/O failures wrap the OS error in
:class:`IoFailure`. The CLI maps these onto exit codes 2 and 1.

:func:`check_finite` is the package's one entry for tensors and one NaN/inf
check: it returns the array it checked, in the caller's own dtype, or raises
the caller's error class with ``index`` set to the first bad value.
"""

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


def check_finite(values, error=NonFiniteInput, where: str = "") -> np.ndarray:
    """``values`` as an array; ``error``, with ``index``, at its first NaN/inf."""
    x = np.asarray(values)
    bad = ~np.isfinite(x)
    if bad.any():
        idx = int(np.argmax(bad))
        e = error(f"{where}non-finite value at index {idx}")
        e.index = idx
        raise e
    return x
