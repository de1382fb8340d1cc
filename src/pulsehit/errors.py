"""Exception types and the integer-parameter rule shared across the package.

Every error raised on a contract violation is a subclass of
:class:`PulsehitError`, so callers (notably the CLI) can distinguish
"the inputs were bad" from genuine bugs.
"""

from __future__ import annotations


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
