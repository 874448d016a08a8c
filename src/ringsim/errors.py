"""Exception and warning types shared across the package."""

import math
import sys


class RingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(RingError, ValueError):
    """A parameter is outside its documented domain."""


def require_finite(owner, *names) -> None:
    """Raise InvalidParameterError for the first set, non-finite field."""
    for name in names:
        value = getattr(owner, name)
        if value is not None and not math.isfinite(value):
            raise InvalidParameterError("%s must be finite" % name)


def _outside_stacklevel() -> int:
    """`warnings.warn` stacklevel of the first frame outside the package.

    Call it in the argument list of `warnings.warn`: level 1 is that
    caller.  Frames of generated code, such as a dataclass `__init__`,
    carry their module's globals and so count as inside.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get(
            "__name__", "").partition(".")[0] == "ringsim":
        frame, level = frame.f_back, level + 1
    return level


class CutoffInsufficientError(InvalidParameterError):
    """The angular-momentum cutoff cannot represent the requested state."""


class StepSizeError(RingError):
    """A split step would advance some phase by more than the stability bound."""


class ConvergenceError(RingError):
    """An iterative solve exhausted its step budget before converging."""


class RevivalNotFoundError(RingError):
    """No revival maximum above the detection floor inside the search window."""


class IndeterminateImbalanceError(RingError):
    """Both readout wedges hold negligible population; the imbalance is undefined."""


class CentroidUndefinedError(RingError):
    """The angular density has no usable first circular moment."""


class NotApplicableError(RingError):
    """The requested quantity does not exist for this scenario (e.g. zero charge)."""


class ConfigError(RingError):
    """A scenario configuration is incomplete, unknown, or inconsistent."""


class PerturbationValidityWarning(UserWarning):
    """A perturbative formula is being evaluated outside its trust region."""


class AttractiveCouplingWarning(UserWarning):
    """The mean-field coupling is attractive; collapse physics is not modelled."""
