"""Exception types shared across the package.

All domain errors derive from ``K3WitnessError`` (itself a ``ValueError``),
so callers may catch either the specific class or plain ``ValueError``.
"""


def short_int(n: int) -> str:
    """``n`` in decimal up to 64 bits, else by sign and bit length: str() of
    an int past the interpreter's digit limit raises."""
    bits = n.bit_length()
    return str(n) if bits <= 64 else f"<{'-' if n < 0 else '+'}{bits}-bit integer>"


class K3WitnessError(ValueError):
    """Base class for every domain error raised by this package."""


class NotAUnit(K3WitnessError):
    """mu is not invertible mod 2g-2."""


class CongruenceFailure(K3WitnessError):
    """mu^2 is not congruent to d mod 4(g-1)."""


class NotInLattice(K3WitnessError):
    """(x, y) violates the integrality congruence x = mu*y mod 2g-2."""


class MixedLattices(K3WitnessError):
    """Operands belong to different lattice configurations."""


class SquareInput(K3WitnessError):
    """A Pell operation received a perfect-square d."""


class SquareDiscriminant(K3WitnessError):
    """Family membership was asked for a perfect-square determinant."""


class NoValidMu(K3WitnessError):
    """d has no unit square root mod 4(g-1)."""


class NegativeDimension(K3WitnessError):
    """g < r*s: the moduli space has no interpretation."""


class DegenerateQuery(K3WitnessError):
    """g == r*s: zero-length Hilbert scheme, witness search refused."""


class ThresholdUnreachable(K3WitnessError):
    """The orbit walk cannot reach the threshold.

    Every raise is certified: no block with w != 0 on the constrained orbit
    reaches it (u, hence x, is bounded below there), as the orbit walk has
    no step cap.  ``best`` carries the w != 0 solution with the smallest u,
    when one is known.
    """

    certified = True

    def __init__(self, message, *, best=None):
        super().__init__(message)
        self.best = best
