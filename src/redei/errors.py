"""Exception types shared across the package."""


class RedeiError(Exception):
    """Base class for all library errors."""


class ZeroInput(RedeiError):
    pass


class FactorLimitExceeded(RedeiError):
    pass


class TrivialClass(RedeiError):
    pass


class NotSquarefree(RedeiError):
    pass


class NotFundamental(RedeiError):
    pass


class NotTwoUnit(RedeiError):
    pass


class WrongDiscriminantClass(RedeiError):
    pass


class NotSolvable(RedeiError):
    pass


class SearchExhausted(RedeiError):
    """Bounded conic search failed on a solvable instance: a bug, never valid input."""


class DegenerateSquareClass(RedeiError):
    pass


class RamificationAssertFailed(RedeiError):
    """A minimal-ramification assumption failed while computing a local part."""


class ProductFormulaViolated(RedeiError):
    """The global Hilbert product came out != +1: an implementation bug."""


class BoundExceeded(RedeiError):
    pass


class InvalidFactorBound(RedeiError):
    """REDEI_FACTOR_BOUND is set to something other than an integer."""


class InvariantViolated(RedeiError):
    """A stated invariant of a value or of an intermediate result failed."""


class InvalidTriple(RedeiError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))
