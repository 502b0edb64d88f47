"""Exception types shared across the package."""


class DivisionByZero(ZeroDivisionError):
    """Inversion or evaluation hit a zero denominator."""


class InexactDivision(ArithmeticError):
    """An exact polynomial quotient was asked of a divisor that does not
    divide.  This must never happen; seeing it means a gcd was wrong."""


class ParseError(ValueError):
    """Bad input text; carries the offending position when known."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class InvalidGenerator(ValueError):
    """A generator index or letter is not valid for the given graph."""


class NotFcWord(ValueError):
    """The word contains a redex, so it is not a reduced word of a fully
    commutative element, or a basis-word key is not in canonical form."""


class LengthLimitExceeded(RuntimeError):
    """A basis word grew past the configured hard cap."""


class RankMismatch(ValueError):
    """Operands live over different graphs, or over a graph of the wrong
    kind/size for the operation."""


class SingularSystem(ArithmeticError):
    """A linear slot equation has a vanishing leading coefficient."""
