"""Exception types shared across the package."""


class PrimpairError(Exception):
    pass


class FactorizationIncomplete(PrimpairError):
    """A complete factorization was required but only a partial one is available."""


class ZeroElement(PrimpairError):
    """Multiplicative operation applied to the zero element."""


class NotADivisor(PrimpairError):
    """Argument was required to divide the group order (or a given modulus) but does not."""


class BadSubfieldDegree(PrimpairError):
    """Relative trace requested for a degree that does not divide the extension degree."""


class BudgetExceeded(PrimpairError):
    """An iteration or size budget ran out before the operation completed."""


class DegreeZero(PrimpairError):
    """Irreducibility is undefined for constant polynomials."""


class EmptyClass(PrimpairError):
    """A rational-function class contains no members."""


class NotInSubfield(PrimpairError):
    """Element expected to lie in the designated subfield does not."""


class OutOfScope(PrimpairError):
    """Parameters outside the supported survey range."""
