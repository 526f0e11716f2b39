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

The admissible mu of (g, d) are the units among the square roots of d mod
4(g-1), reduced mod 2g-2 (``unit_square_roots``).  ``_sqrts_mod`` finds the
roots from the factorisation of the modulus by trial division: Tonelli-Shanks
mod each odd prime, a lift to each prime power one p-adic digit at a time
(which also covers p = 2 and p | d), and the Chinese remainder theorem.  It is
the package's one square-root routine; ``pell`` takes its roots from it too.

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

    A perfect-square d is valid lattice data; the Pell-based searches in
    ``families`` and ``pell`` reject it themselves.
    """

    g: int
    d: int
    mu: int

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


def make_lattice(g: int, d: int, mu: int) -> LatticeConfig:
    """Validate and normalize (g, d, mu).

    mu is reduced to its least nonnegative residue mod 2g-2.  Raises
    ``NotAUnit`` if gcd(mu, 2g-2) > 1 and ``CongruenceFailure`` if
    mu^2 != d mod 4(g-1).  A perfect-square d is accepted.
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
    return LatticeConfig(g, d, mu)


def _factor(n: int) -> list[tuple[int, int]]:
    # (p, k) with n = prod p^k, n >= 1, by trial division
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    # Tonelli-Shanks: a root of z^2 = a (mod p) for an odd prime p not
    # dividing a, or None when a is a non-residue
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrts_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    # every z in [0, p^k) with z^2 = a (mod p^k): the roots mod p, lifted one
    # level at a time by testing z + t*p^j for t in 0..p-1 (covers p = 2 and
    # p | a, where the roots need not lift uniquely)
    if p == 2 or a % p == 0:
        roots = [a % p]
    else:
        r = _sqrt_mod_prime(a % p, p)
        if r is None:
            return []
        roots = [r, p - r]
    pj = p
    for _ in range(k - 1):
        nxt = pj * p
        roots = [c for z in roots for c in range(z, nxt, pj) if (c * c - a) % nxt == 0]
        pj = nxt
    return roots


def _sqrts_mod(a: int, m: int) -> tuple[int, ...]:
    # all z in (-m/2, m/2] with z^2 = a (mod m), ascending in [0, m) before the
    # shift: roots mod each prime power of m, combined by CRT
    roots, n = [0], 1
    for p, k in _factor(m):
        pk = p**k
        local = _sqrts_mod_prime_power(a, p, k)
        inv = pow(n, -1, pk)
        roots = [z + n * ((r - z) * inv % pk) for z in roots for r in local]
        n *= pk
    roots.sort()
    return tuple(z if 2 * z <= m else z - m for z in roots)


# Cached by residue: enumerate asks again for each d and sign at one g (116k
# calls, 260 residues, in one pass of perfbench's grid deck), and a miss costs
# 6-9 us against 0.2 us for a hit.  It keeps at most 4(g-1) entries per g.
@lru_cache(maxsize=None)
def _unit_roots(g: int, a: int) -> tuple[int, ...]:
    h2 = 2 * g - 2
    return tuple(sorted({z % h2 for z in _sqrts_mod(a, 2 * h2) if gcd(z, h2) == 1}))


def unit_square_roots(g: int, d: int) -> tuple[int, ...]:
    """All units mu mod 2g-2 with mu^2 = d (mod 4(g-1)), ascending.

    mu^2 mod 4(g-1) depends only on mu mod 2g-2, so this is the complete
    list of admissible residues for the pair (g, d).
    """
    return _unit_roots(g, d % (4 * (g - 1)))


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
