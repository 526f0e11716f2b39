"""Algebraic Mukai vectors over a rank-2 Picard lattice.

Only the algebraic part Z + N + Z of the full Mukai lattice is modeled; a
vector is v = (r0, c1, s0) with c1 a lattice divisor.  The pairing is

    (v, w) = c1_v . c1_w - (r0_v * s0_w + s0_v * r0_w),

so (r, H, s)^2 = 2g - 2 - 2rs.  Two isometries matter here: the twist by a
divisor D,

    T_D(r, c1, s) = (r, c1 + r*D, s + r*D^2/2 + D.c1),

and the swap of the rank and Euler components, (r, c1, s) -> (s, c1, r).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import K3WitnessError, MixedLattices, NegativeDimension
from .lattice import Divisor, inner


@dataclass(frozen=True)
class MukaiVector:
    r0: int
    c1: Divisor
    s0: int

    def __repr__(self) -> str:
        return f"MukaiVector({self.r0}, ({self.c1.x},{self.c1.y}), {self.s0})"


def pairing(v: MukaiVector, w: MukaiVector) -> int:
    if v.c1.config != w.c1.config:
        raise MixedLattices(f"{v.c1.config} vs {w.c1.config}")
    return inner(v.c1, w.c1) - (v.r0 * w.s0 + v.s0 * w.r0)


def tensorize(v: MukaiVector, D: Divisor) -> MukaiVector:
    """Twist of v by the divisor D; preserves the pairing.

    D^2 is even (the lattice is even), so r*D^2/2 is an integer.
    """
    if v.c1.config != D.config:
        raise MixedLattices(f"{v.c1.config} vs {D.config}")
    d_sq = inner(D, D)
    if d_sq % 2:
        raise K3WitnessError("D^2 is odd; the lattice is not even")
    s_new = v.s0 + v.r0 * (d_sq // 2) + inner(D, v.c1)
    return MukaiVector(v.r0, v.c1 + v.r0 * D, s_new)


def reflect(v: MukaiVector) -> MukaiVector:
    """Swap the rank and Euler components; an involutive isometry."""
    return MukaiVector(v.s0, v.c1, v.r0)


def is_primitive(v: MukaiVector) -> bool:
    """True iff Z*v is a primitive sublattice of Z + N + Z.

    c1 = alpha*H + beta*(mu*H + G)/(2g-2) with alpha = (x - mu*y)/(2g-2) and
    beta = y, so primitivity is gcd(r0, alpha, beta, s0) = 1.
    """
    cfg = v.c1.config
    alpha = (v.c1.x - cfg.mu * v.c1.y) // cfg.h_square
    return gcd(gcd(v.r0, v.s0), gcd(alpha, v.c1.y)) == 1


@dataclass(frozen=True)
class ModuliShape:
    """Numerical shape of the moduli problem for v = (r, H, s)."""

    mukai_square: int  # 2(g - 1 - rs)
    dimension: int  # mukai_square + 2
    hilbert_length: int  # g - rs


def mukai_square_target(g: int, r: int, s: int) -> ModuliShape:
    """Square, dimension and Hilbert length for (r, H, s) on a genus-g surface."""
    if g < r * s:
        raise NegativeDimension(f"g={g} < r*s={r * s}")
    sq = 2 * (g - 1 - r * s)
    return ModuliShape(sq, sq + 2, g - r * s)


def type_vector(cfg, r: int, s: int) -> MukaiVector:
    """The vector (r, H, s) over the given lattice."""
    return MukaiVector(r, cfg.H, s)


__all__ = [
    "ModuliShape",
    "MukaiVector",
    "is_primitive",
    "mukai_square_target",
    "pairing",
    "reflect",
    "tensorize",
    "type_vector",
]
