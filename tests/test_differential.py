"""Differential tests against an independent solver, skipped without sympy.

The membership decision is re-derived from scratch: sympy's generalized
Pell solver supplies the fundamental unit (checked against
``fundamental_unit``) and the class representatives, the unit orbit is
scanned over one full residue period, and the congruence x = mu*y
(mod 2g-2) plus the divisibility by the rank are checked directly.  Any
disagreement with ``membership`` would expose a defect in either the class
machinery or the period-based emptiness decision.  A second sample at
genus 100..300 reaches right-hand sides near 4g^2, where the residue
period T is often many times the unit's order mod the rank, which is all
that ``constrained_orbit_hits`` scans.
"""

import random
from functools import lru_cache
from math import gcd, isqrt

import pytest

sympy = pytest.importorskip("sympy")
from sympy.solvers.diophantine.diophantine import diop_DN  # noqa: E402

from k3witness import FamilyQuery, fundamental_unit, membership  # noqa: E402
from k3witness.errors import NoValidMu, SquareDiscriminant  # noqa: E402
from k3witness.families import rhs_value  # noqa: E402
from k3witness.lattice import is_perfect_square, unit_square_roots  # noqa: E402


def sympy_unit(d):
    """The fundamental solution of u^2 - d*w^2 = 1, from sympy."""
    ((u0, w0),) = diop_DN(d, 1)
    return int(u0), int(w0)


@lru_cache(maxsize=None)
def sympy_reps(d, rhs):
    """Class representatives of u^2 - d*w^2 = rhs, from sympy."""
    return [(int(a), int(b)) for (a, b) in diop_DN(d, rhs)]


def unit_order(d, M):
    """The order of sympy's unit mod M, M >= 2, found by stepping."""
    u0, w0 = sympy_unit(d)
    u0m, w0m, dm = u0 % M, w0 % M, d % M
    T, a, b = 1, u0m, w0m
    while (a, b) != (1, 0):
        a, b = (a * u0m + b * w0m * dm) % M, (a * w0m + b * u0m) % M
        T += 1
    return T


def independent_membership(g, rr, mu, d, rhs):
    """Decide membership with sympy representatives and a residue-period scan."""
    if rhs == 0:
        return False
    h2 = 2 * g - 2
    reps = sympy_reps(d, rhs)
    u0, w0 = sympy_unit(d)
    M = rr * h2
    u0m, w0m, dm = u0 % M, w0 % M, d % M
    # the period T: the order of the unit mod M (M >= 4)
    T = unit_order(d, M)

    def constrained(u, w):
        if (u - h2) % rr or w % rr:
            return False
        return (u - h2 - mu * w) % M == 0

    for a, b in reps:
        for sgn in (1, -1):
            u, w = (sgn * a) % M, (sgn * b) % M
            for _ in range(T):
                if constrained(u, w):
                    return True
                u, w = (u * u0m + w * w0m * dm) % M, (u * w0m + w * u0m) % M
    return False


def test_membership_agrees_with_independent_decision():
    rng = random.Random(90210)
    agreements = 0
    positives = 0
    while agreements < 250:
        g = rng.randint(3, 10)
        r = rng.randint(1, 4)
        s = rng.randint(1, 4)
        if g <= r * s:
            continue
        sign = rng.choice([1, -1])
        d = rng.randint(2, 600)
        q = FamilyQuery(g, r, s, sign)
        try:
            outcomes = membership(q, d)
        except (SquareDiscriminant, NoValidMu):
            if not is_perfect_square(d):
                assert not unit_square_roots(g, d)
            continue
        unit = fundamental_unit(d)
        assert (unit.u0, unit.w0) == sympy_unit(d), d
        rhs = rhs_value(q)
        for oc in outcomes:
            expected = independent_membership(g, q.r, oc.mu, d, rhs)
            # y = 0 only weakens membership when rhs is a perfect square;
            # the independent scan counts such orbits, ours requires y != 0
            # on some orbit element, which the same orbit always contains
            found = oc.witness is not None
            assert found == expected, (g, r, s, sign, d, oc.mu)
            agreements += 1
            positives += int(found)
    assert positives > 20, "differential test exercised too few members"


def test_membership_agrees_at_large_genus():
    # g in 100..300 with an admissible d <= 4g: the full-period scan above
    # against the library, which scans T_r phases per seed, T_r the unit's
    # order mod r; r = 2, 3, as T_r = 1 for r = 1
    rng = random.Random(300)
    agreements = positives = long_periods = 0
    while agreements < 60:
        g, r, s = rng.randint(100, 300), rng.randint(2, 3), rng.randint(1, 3)
        h2 = 2 * g - 2
        mu = rng.randrange(1, h2, 2)
        d = mu * mu % (2 * h2)
        if gcd(mu, h2) > 1 or is_perfect_square(d):
            continue
        q = FamilyQuery(g, r, s, rng.choice([1, -1]))
        rhs = rhs_value(q)
        for oc in membership(q, d):
            found = oc.witness is not None
            assert found == independent_membership(g, r, oc.mu, d, rhs), (g, r, s, q.sign, d, oc.mu)
            agreements += 1
            positives += found
            long_periods += unit_order(d, r * h2) > unit_order(d, r)
    assert positives >= 10 and long_periods >= 30, (positives, long_periods)
