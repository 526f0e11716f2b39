"""Rank-2 even lattices of polarized K3 type, with exact integer arithmetic.

A genus-g polarization H has H^2 = 2g-2.  For Picard number 2 the lattice is
determined by a determinant -d and a residue mu with

    N = { (x*H + y*G) / (2g-2) : x, y in Z, x = mu*y  (mod 2g-2) },

where G is the primitive class orthogonal to H with G^2 = -(2g-2)*d, mu is a
unit mod 2g-2 and mu^2 = d (mod 4(g-1)).  In the integral basis
{H, (mu*H + G)/(2g-2)} the Gram matrix is

    [ 2g-2   mu                  ]
    [ mu     (mu^2 - d)/(2g-2)   ]

whose determinant is -d identically.  The congruence mod 4(g-1) is exactly
what makes the second diagonal entry even, i.e. the lattice an even lattice.

Intersection numbers of divisors D = (x*H + y*G)/(2g-2):

    D1 . D2 = (x1*x2 - d*y1*y2) / (2g-2)        (always an integer)
    D  . H  = x

All values are unbounded Python integers; orbit iterates produced elsewhere
in the package grow exponentially and overflow is never a concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .errors import CongruenceFailure, MixedLattices, NotAUnit, NotInLattice


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) * isqrt(n) == n


@dataclass(frozen=True)
class LatticeConfig:
    """The validated triple (g, d, mu) plus derived data.

    ``square_disc`` records whether d is a perfect square: lattice arithmetic
    stays valid, but every Pell-based search must reject such a configuration.
    """

    g: int
    d: int
    mu: int
    square_disc: bool

    @property
    def h_square(self) -> int:
        return 2 * self.g - 2

    @property
    def gram(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Gram matrix of the integral basis {H, (mu*H + G)/(2g-2)}."""
        h2 = self.h_square
        b2 = (self.mu * self.mu - self.d) // h2
        return ((h2, self.mu), (self.mu, b2))

    @property
    def H(self) -> "Divisor":
        return Divisor(self.h_square, 0, self)

    def __repr__(self) -> str:  # keep Divisor reprs readable
        return f"LatticeConfig(g={self.g}, d={self.d}, mu={self.mu})"


def make_lattice(g: int, d: int, mu: int) -> LatticeConfig:
    """Validate and normalize (g, d, mu).

    mu is reduced to its least nonnegative residue mod 2g-2.  Raises
    ``NotAUnit`` if gcd(mu, 2g-2) > 1 and ``CongruenceFailure`` if
    mu^2 != d mod 4(g-1).  A perfect-square d is accepted but flagged.
    """
    if g < 3:
        raise ValueError(f"genus must be >= 3, got {g}")
    if d < 1:
        raise ValueError(f"determinant parameter must be >= 1, got {d}")
    h2 = 2 * g - 2
    mu %= h2
    if gcd(mu, h2) != 1:
        raise NotAUnit(f"mu={mu} is not a unit mod {h2}")
    if (mu * mu - d) % (2 * h2) != 0:
        raise CongruenceFailure(f"mu^2={mu * mu} is not {d} mod {2 * h2}")
    return LatticeConfig(g, d, mu, is_perfect_square(d))


@lru_cache(maxsize=None)
def _unit_square_table(g: int) -> dict[int, tuple[int, ...]]:
    # residue of mu^2 mod 4(g-1) -> ascending units mu mod 2g-2
    h2 = 2 * g - 2
    mod = 2 * h2
    table: dict[int, list[int]] = {}
    for mu in range(h2):
        if gcd(mu, h2) == 1:
            table.setdefault(mu * mu % mod, []).append(mu)
    return {k: tuple(v) for k, v in table.items()}


def unit_square_roots(g: int, d: int) -> tuple[int, ...]:
    """All units mu mod 2g-2 with mu^2 = d (mod 4(g-1)), ascending.

    mu^2 mod 4(g-1) depends only on mu mod 2g-2, so this is the complete
    list of admissible residues for the pair (g, d).
    """
    return _unit_square_table(g).get(d % (4 * (g - 1)), ())


@dataclass(frozen=True)
class Divisor:
    """Lattice element (x*H + y*G)/(2g-2), stored as the coordinates (x, y)."""

    x: int
    y: int
    config: LatticeConfig

    def __post_init__(self):
        h2 = self.config.h_square
        if (self.x - self.config.mu * self.y) % h2 != 0:
            raise NotInLattice(
                f"(x, y)=({self.x}, {self.y}) needs x = {self.config.mu}*y mod {h2}"
            )

    def __add__(self, other: "Divisor") -> "Divisor":
        _require_same_lattice(self, other)
        return Divisor(self.x + other.x, self.y + other.y, self.config)

    def __sub__(self, other: "Divisor") -> "Divisor":
        _require_same_lattice(self, other)
        return Divisor(self.x - other.x, self.y - other.y, self.config)

    def __neg__(self) -> "Divisor":
        return Divisor(-self.x, -self.y, self.config)

    def __rmul__(self, k: int) -> "Divisor":
        return Divisor(k * self.x, k * self.y, self.config)

    def __repr__(self) -> str:
        return f"Divisor({self.x}, {self.y})/{self.config.h_square}"


def divisor(cfg: LatticeConfig, x: int, y: int) -> Divisor:
    """Build (x*H + y*G)/(2g-2); raises ``NotInLattice`` on bad congruence."""
    return Divisor(x, y, cfg)


def _require_same_lattice(a: Divisor, b: Divisor) -> None:
    if a.config != b.config:
        raise MixedLattices(f"{a.config} vs {b.config}")


def inner(a: Divisor, b: Divisor) -> int:
    """Intersection number (x_a*x_b - d*y_a*y_b)/(2g-2)."""
    _require_same_lattice(a, b)
    cfg = a.config
    num = a.x * b.x - cfg.d * a.y * b.y
    q, r = divmod(num, cfg.h_square)
    if r:
        raise NotInLattice("intersection number is not an integer")
    return q


def dot_H(a: Divisor) -> int:
    """D . H, which is just the x coordinate."""
    return a.x


def det_check(cfg: LatticeConfig) -> int:
    """Gram determinant of the integral basis; equals -d for every valid cfg."""
    (a, b), (c, e) = cfg.gram
    return a * e - b * c
