"""Beauville-Bogomolov pairing on the sublattice N + Z*f of a Hilbert scheme.

For the Hilbert scheme of n points on a K3 surface, the degree-2 lattice is
the surface lattice extended orthogonally by a class f with f^2 = -2(n-1).
Only that rank-3 sublattice matters here, so a class is a surface divisor
plus an integer multiple of f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Divisor, dot_H, inner


@dataclass(frozen=True)
class HilbertClass:
    """F + eps*f on the Hilbert scheme of n points (n >= 1)."""

    f_part: Divisor
    eps: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def exceptional_coefficient(n: int) -> int:
    """The eps rule: 0 on the surface itself (n = 1), 1 for n > 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 0 if n == 1 else 1


def hilbert_class(F: Divisor, n: int) -> HilbertClass:
    """F + eps*f with eps chosen by the n = 1 rule."""
    return HilbertClass(F, exceptional_coefficient(n), n)


def bb_square(h: HilbertClass) -> int:
    """q(F + eps*f) = F^2 - 2(n-1)*eps^2."""
    return inner(h.f_part, h.f_part) - 2 * (h.n - 1) * h.eps * h.eps


def bb_pair_with_H(h: HilbertClass) -> int:
    """b(F + eps*f, H) = F.H; f is orthogonal to the surface lattice."""
    return dot_H(h.f_part)
