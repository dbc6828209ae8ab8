"""Exception taxonomy shared by the whole package.

Four failure classes cover every error contract in the library: bad
values, physically inapplicable configurations, isolated singular
points, and numerical non-convergence.  The CLI maps the first two to
exit code 2 and the last to exit code 3; singular points are reported
per-point and never abort a scan.

The module also holds the rounding slack every check shares, and the
copy-check-freeze step of the frozen dataclasses' array fields.
"""

import numpy as np

#: slack on conditions exact in exact arithmetic: unit norms, symmetry,
#: vanishing couplings, the unit ball
TOL = 1e-12
#: slack on a complete-positivity verdict
CP_TOL = 1e-10


class FiberpolError(Exception):
    """Base class for all package errors."""


class InvalidInputError(FiberpolError, ValueError):
    """A value violates a documented precondition (wrong range, shape, ...)."""


class ConfigError(InvalidInputError):
    """A run configuration failed to parse or validate."""


class UnsupportedConfigurationError(FiberpolError):
    """The requested operation does not apply to this configuration.

    The message names the violated assumption and, where one exists,
    the general-purpose alternative.
    """


class SingularConfigurationError(FiberpolError):
    """A denominator of an observable vanishes at the requested point."""


class NumericalFailureError(FiberpolError):
    """An iterative numerical procedure failed to reach its tolerance."""


def frozen_array(value, shape=None, message="", dtype=float) -> np.ndarray:
    """A read-only copy of value, checked against shape unless that is None.

    A wrong shape raises InvalidInputError with message and the shape seen.
    """
    arr = np.array(value, dtype=dtype)
    if shape is not None and arr.shape != shape:
        raise InvalidInputError(f"{message}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr
