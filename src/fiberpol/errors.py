"""Exception taxonomy shared by the whole package.

Four failure classes cover every error contract in the library: bad
values, physically inapplicable configurations, isolated singular
points, and numerical non-convergence.  The CLI maps the first two to
exit code 2 and the last to exit code 3; singular points are reported
per-point and never abort a scan.

The module also holds the rounding slack every check shares and the value
rules that the frozen dataclasses declare for their fields: the number
rules, and the array rule, which copies, checks and freezes an array.
"""

import math
import numbers

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


def frozen_array(value, shape=None, what="array", dtype=float, finite=True) -> np.ndarray:
    """The array rule: a read-only copy of value, named what in a refusal.

    InvalidInputError unless its shape is shape (any if None) and, if finite, its entries are.
    """
    arr = np.array(value, dtype=dtype)
    if shape is not None and arr.shape != shape:
        size = f"have {shape[0]} components" if len(shape) == 1 else "be " + "x".join(map(str, shape))
        raise InvalidInputError(f"{what} must {size}, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} must have finite entries")
    arr.setflags(write=False)
    return arr


#: float rule -> (test of the value, what a refusal says it must be); all refuse +-inf
_FLOAT_RULES = {"finite": (math.isfinite, "a finite number"),
                "non-negative": (lambda x: x >= 0.0, "non-negative"),
                "positive": (lambda x: x > 0.0, "positive")}


def _checked(rule: str, value, name: str):
    """value as an int under the rule "integer", else as a float under _FLOAT_RULES.

    A refusal is an InvalidInputError whose message begins with name.  A bool is
    refused, and so is a float, even 5.0, under "integer".  An integer beyond the
    float range counts as infinite; NaN fails the test of a sign rule.
    """
    integer = rule == "integer"
    # builtins first: an ABC check costs about 0.7 us
    kind = (int, numbers.Integral) if integer else (float, int, numbers.Real)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be {'an integer' if integer else 'a finite number'}")
    if integer:
        return int(value)
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    for test, what in (_FLOAT_RULES[rule], _FLOAT_RULES["finite"]):
        if not test(x):
            raise InvalidInputError(f"{name} must be {what}")
    return x


class _Validated:
    """Base of the frozen value types: __post_init__ applies the class's _rules.

    _rules maps each field to a rule of _checked, to a tuple of rules, one
    per component of a tuple field, or to the array rule with its arguments.
    """

    def __post_init__(self):
        for name, rule in self._rules.items():
            value = getattr(self, name)
            if callable(rule):
                value = rule(value)
            elif isinstance(rule, str):
                value = _checked(rule, value, name)
            else:  # a tuple field: one rule per component
                value = tuple(value)
                if len(value) != len(rule):
                    raise InvalidInputError(f"{name} must have {len(rule)} components")
                value = tuple(map(_checked, rule, value, (f"{name}[{i}]" for i in range(len(rule)))))
            object.__setattr__(self, name, value)


def _require_finite(values, what: str):
    """values if all finite; a computed overflow is a NumericalFailureError, not invalid input."""
    if not np.isfinite(values).all():
        raise NumericalFailureError(f"{what} is not finite")
    return values
