"""Exception types shared across the package.

Bad input (a value outside the domain an operation is defined on) raises
ValueError; a factorization that a result needs but could not be completed
raises FactorizationIncomplete.
"""


class PrimpairError(Exception):
    pass


class FactorizationIncomplete(PrimpairError):
    """A complete factorization was required but only a partial one is available."""
