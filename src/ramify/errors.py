"""Exceptions shared across the package.

Everything raised on purpose derives from RamifyError, so callers can
distinguish "the input was bad" (NotEisenstein, BadTameDegree, ...) from
"the working precision cannot decide this" (PrecisionRefusal, that is
PrecisionExhausted and IndexUnresolved) and from "a proved inequality
failed" (TheoremViolation, which always indicates a bug or a genuine
counterexample and is never swallowed).
"""


class RamifyError(Exception):
    pass


class NotAUnit(RamifyError):
    """Inversion was asked of an element with positive valuation."""


class NotOneUnit(RamifyError):
    """An e-th root was asked of a series whose constant term is not 1 mod pi."""


class NotEisenstein(RamifyError):
    """Polynomial fails the Eisenstein test over its floor."""


class NotDivisible(RamifyError):
    """Division by a power of the uniformizer left a remainder."""


class BadTameDegree(RamifyError):
    """Tame twist degree e shares a factor with p or with the ramification index."""


class NotSeparable(RamifyError):
    """The defining polynomial has vanishing derivative at its root."""


class PrecisionRefusal(RamifyError):
    """The working precision cannot decide the requested quantity.

    The message names ``enough``, when set: a job precision from which
    the digits the computation asked for are tracked.
    """

    enough = None

    def __str__(self):
        if self.enough is None:
            return super().__str__()
        return "%s; they fit from job precision %d on" % (
            super().__str__(), self.enough)


class PrecisionExhausted(PrecisionRefusal):
    """The tracked digits cannot certify the requested quantity.

    ``bound`` is the best certified lower bound on the valuation in
    question at the moment the computation gave up, when one is known.
    """

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class IndexUnresolved(PrecisionRefusal):
    """A ramification index is not determined by the digits within the horizon.

    ``j`` names the offending index when known.
    """

    def __init__(self, message, j=None):
        super().__init__(message)
        self.j = j


class TheoremViolation(RamifyError):
    """An identity or inequality that is proved in general failed on concrete data."""
