"""Exception types and the parameter rules shared across the package.

Every error raised on a contract violation is a subclass of
:class:`PulsehitError`, so callers (notably the CLI) can distinguish
"the inputs were bad" from genuine bugs.
"""

from __future__ import annotations

from fractions import Fraction


class PulsehitError(Exception):
    """Base class for all errors raised by this package."""


class MachineSyntaxError(PulsehitError):
    """A machine document failed to tokenize or a line is malformed."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class MachineSemanticsError(PulsehitError):
    """A machine document parsed but violates a structural rule.

    The message names the offending rule or section.
    """


class IllFormedMachineError(PulsehitError):
    """A non-halt state was entered with no rule for the scanned symbol."""


class LabelError(PulsehitError):
    """An extended basis label is malformed for the given machine."""


class TimeTagError(PulsehitError):
    """A state was used at a point in time its tag does not permit."""


class StateNormError(PulsehitError):
    """A sparse state's squared norm is outside the allowed band."""


class OrbitNotClosedError(PulsehitError):
    """A support label's forward orbit does not close into a finite cycle,
    so the requested mid-pulse state has no finite description."""


class BasisNotClosedError(PulsehitError):
    """The supplied basis does not contain every label the operator needs."""


class PrecisionBudgetError(PulsehitError):
    """A tracked error bound exceeded the requested precision budget."""


class ParameterRangeError(PulsehitError):
    """A numeric parameter is outside its documented range."""


class CorpusBugError(PulsehitError):
    """A corpus entry's recorded ground truth failed re-validation.

    Distinct from a reduction disagreement: this means the corpus itself
    is wrong, not the dynamics.
    """


class SearchRangeExhaustedError(PulsehitError):
    """An adversarial search hit its family cap without finding a witness."""


class NoiseMarginError(PulsehitError):
    """A perturbation bound is too large for the requested threshold gap."""


def is_count(x) -> bool:
    """An int but not a bool, the int subclass JSON true/false load as."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_count(x, what: str, least: int = 0) -> None:
    """A typed error naming ``what`` unless ``x`` is a count >= ``least`` (0 or 1)."""
    if not is_count(x) or x < least:
        kind = "positive" if least else "nonnegative"
        raise ParameterRangeError(f"{what} must be a {kind} integer, got {x!r}")


def as_rational(x, what: str) -> Fraction:
    """``x`` as an exact Fraction, else a typed error naming ``what``; a
    bool is refused, as :func:`as_count` refuses it.  A ``Fraction`` (not a
    subclass) is returned as it is."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, bool):
        try:
            return Fraction(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParameterRangeError(f"{what} must be rational, got {x!r}")


def as_time(x) -> Fraction:
    """``x`` as an exact time t >= 0, else a typed error."""
    t = as_rational(x, "t")
    if t < 0:
        raise ParameterRangeError(f"time must be nonnegative, got {t}")
    return t
