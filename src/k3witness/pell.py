"""Pell-type equations u^2 - d*w^2 = N with one residue constraint.

Everything is exact integer arithmetic.  One continued-fraction expansion,
the private generator ``_pqa`` (Robertson's PQa recurrences on the quadratic
surd (P + sqrt(d))/Q), serves layers 1 and 2.  The three layers are:

1. Fundamental unit.  ``_pqa`` started at sqrt(d) = (0 + sqrt(d))/1 yields
   the minimal (u0, w0) with u0^2 - d*w0^2 = 1.  The unit acts on solutions by

       (u, w) -> (u*u0 + d*w*w0, u*w0 + w*u0),

   i.e. multiplication by u0 + w0*sqrt(d) in Z[sqrt(d)].

2. Solution classes.  Every solution of u^2 - d*w^2 = N is (+-)(unit^k)
   applied to finitely many representatives.  Primitive representatives for
   the right-hand side m come from ``_pqa`` started at P0 = z, Q0 = |m|
   for each square root z of d mod |m|, from ``lattice._sqrts_mod`` (the
   ``lattice`` docstring says how it finds them).  A candidate is read off
   whenever the expansion reaches Q = +-1 inside the first cycle of its
   (P, Q) states, with the norm-(-1) unit converting a wrong-sign value
   when that unit exists.  Scaling by the square divisors
   of N covers imprimitive solutions.  ``solve_bounded`` exposes the
   classical window: all solutions with 0 <= w and 2*d*w^2 <= N*(u0-1)
   (N > 0) or 2*d*w^2 <= -N*(u0+1) (N < 0), which contains a
   representative of every class.

3. Decidable constrained search.  A ``PellProblem`` asks for u + w*sqrt(d)
   in C = h + r*a, where a = (h, mu + sqrt(d)) is the kernel of the ring
   map Z[sqrt(d)] -> Z/h with sqrt(d) -> -mu (mu^2 = d mod h): that is,
   w = 0 (mod r) and u - mu*w = h (mod r*h).  C is a union of classes mod
   M = r*h, on which the unit acts invertibly with finite order T, so
   constraint satisfaction along an orbit is T-periodic, and walking in
   steps of T ("blocks") moves along a constrained orbit.  The constrained
   phases of a seed orbit form one coset k0 + t*Z with k0 < T_r and
   t | T_r | T, where T_r is the unit's order mod r (T_r = 1 for r = 1).
   Proof: let b, b*e^i and b*e^j lie in C, e the unit.  Then b*(e^i - 1)
   and b*(e^j - 1) lie in the ideal r*a, and so does b*(e^(i+j) - 1) =
   b*(e^i - 1)*e^j + b*(e^j - 1): the phases i of b are closed under
   addition mod T, so they are a subgroup t*Z/T*Z.  If e^k * b lies in C,
   then b lies in a, since C lies in a (h does) and e is a unit; as
   e^T_r - 1 lies in r*Z[sqrt(d)], e^(k + T_r) * b - e^k * b then lies in
   r*a.  So k is a phase iff k + T_r is one: t | T_r, and k0 < t.
   Scanning T_r phases of every class representative thus decides
   emptiness outright, and gives each coset's k0 and t: the gap to the
   second phase below T_r, or T_r itself.  So the scan returns one hit per
   coset with its step exponent t.  The hits are exact by
   construction (see ``constrained_orbit_hits``); on the search path only
   ``push_negative`` checks u^2 - d*w^2 = N, on its input.

   Along the powers of a step unit e the value u is A*e^j + B*e^(-j) with
   A*B = N: convex in j where N > 0 and u > 0, concave where N > 0 and
   u < 0, monotone where N < 0 (rising iff w > 0).  The one walk,
   ``_descend``, yields the w != 0 points with falling u, one step each
   (w = 0 happens at most once per orbit, where u is extremal), and stops
   with a certified minimum where a convex orbit bottoms out; every step
   lowers u, so it needs no step cap.  ``block_descent`` walks it by the
   block unit q = unit^T (``block_unit``), as does ``push_negative``.
   The search and the chain take every power of the unit from one memo,
   ``_power``: the mu of one d share M = r*h, T and q, as does the chain.
   ``constrained_search(problem, u_threshold)`` is the one search: it
   returns T and the best push by q over the block orbits of every coset
   (h, t), one per hit h_j = unit^(j*t) * h, that is the orbit closest to
   the threshold among those that reach it, else the lowest orbit minimum.
   For N > 0, u^2 = N + d*w^2 > 0 keeps the sign of u on an orbit: a u < 0
   orbit reaches every threshold, a u > 0 one none below 0, so under a
   threshold below 0 the u > 0 orbits are walked only when no u < 0 one
   exists.  ``_contenders`` walks up j, by the fine step unit^t, only
   until u falls to the threshold (each later hit is its own, lower, push)
   or rises above it.  On a convex coset u does not fall along j: every
   seed s (a class representative or its negation) has |s'| <= e*|s|, s'
   the conjugate and e the fundamental unit, so for s, s' > 0 (N > 0,
   u > 0) u(e*s) - u(s) = (e - 1)*(s - s'/e)/2 >= 0, and u(e^k * s) is
   convex in k: it does not fall for k >= k0 >= 0.  Proof of the bound for
   R = G + B*sqrt(d) read off ``_pqa`` of xi = (z + sqrt(d))/|m| at Q = +-1
   (scaling by f and negating keep |R'|/|R|): G - B*sqrt(d) = |m|*(A - B*xi)
   and G + B*sqrt(d) = |m|*(A - B*xi'), A/B the convergent of xi, so
   |R'|/|R| = |B*x' + B_|/(B*x + B_), where x = (P + sqrt(d))/Q > 1 is the
   next complete quotient and B_ >= 0 the previous denominator.  For Q = 1
   a ratio above 1 needs P = -p < 0, and x > 1 gives p <= floor(sqrt(d)) - 1:
   the ratio is at most (sqrt(d) + p)/(sqrt(d) - p) < 2*sqrt(d) - 1 < e, as
   e = u0 + w0*sqrt(d) > 2*w0*sqrt(d).  For Q = -1, x > 1 gives p = -P >=
   floor(sqrt(d)) + 2: the ratio is at most (sqrt(d) + p)/(p - sqrt(d)) <=
   1 + 2*sqrt(d)/(2 - frac(sqrt(d))), below 1 + 2*sqrt(d) < e where w0 >= 2,
   and e itself where w0 = 1 (then 2 - frac(sqrt(d)) = 1 + 1/e).  Fixing
   the sign by the norm-(-1) unit eta divides the ratio by eta^2 = e.

This module speaks only (u, w), ordered as pairs.  A caller with its own
coordinates (``families`` has x, y with u = r*x + 2g-2, w = r*y) states its
thresholds in u and maps back the solutions it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import itemgetter
from typing import Optional

from .errors import K3WitnessError, SquareInput, ThresholdUnreachable, short_int
from .lattice import _sqrts_mod, is_perfect_square


@dataclass(frozen=True)
class FundamentalUnit:
    """Minimal (u0, w0) with u0^2 - d*w0^2 = 1, w0 >= 1."""

    d: int
    u0: int
    w0: int


@dataclass(frozen=True, order=True)
class PellSolution:
    """A solution (u, w); solutions order by u, then w."""

    u: int
    w: int


@dataclass(frozen=True)
class PellProblem:
    """u^2 - d*w^2 = rhs with w = 0 (mod r) and u - mu*w = h (mod r*h), that
    is u + w*sqrt(d) = h modulo r*(h, mu + sqrt(d)), an ideal as mu^2 = d
    (mod h).  The defaults r = h = 1 leave the equation unconstrained."""

    d: int
    rhs: int
    mu: int = 0
    r: int = 1
    h: int = 1

    def __post_init__(self):
        if self.d < 2 or is_perfect_square(self.d):
            raise SquareInput(f"d={self.d} must be a non-square >= 2")
        if self.rhs == 0:
            raise ValueError("right-hand side must be nonzero")
        if self.r < 1 or self.h < 1:
            raise ValueError("r and h must be >= 1")
        if (self.mu * self.mu - self.d) % self.h:
            raise ValueError(f"mu={self.mu} is no square root of d={self.d} mod h={self.h}")

    def residual(self, u: int, w: int) -> int:
        return u * u - self.d * w * w - self.rhs

    def meets_constraints(self, u: int, w: int) -> bool:
        return w % self.r == 0 and (u - self.mu * w - self.h) % (self.r * self.h) == 0


def _pqa(d: int, P: int, Q: int):
    """PQa expansion of (P + sqrt(d))/Q, d non-square, Q | d - P^2.

    Yields (G_{i-1}, B_{i-1}, Q_i), i >= 1, with G_{i-1}^2 - d*B_{i-1}^2 =
    (-1)^i * Q_0 * Q_i.  Stops before the first repeated state (P_i, Q_i),
    i >= 1: the return of the first reduced state at an index i >= 1, where
    the surd x_i = (P_i + sqrt(d))/Q_i has x_i > 1 and -1 < x_i' < 0, that
    is, with s = floor(sqrt(d)), Q_i > 0, P_i <= s, P_i + Q_i > s and
    Q_i <= P_i + s.  Proof: the expansion of a quadratic surd is eventually
    periodic, its complete quotients are reduced from some index on, and the
    expansion of a reduced surd is purely periodic (Galois), so the states
    from the first reduced one on repeat with its period L, distinct within
    it.  A state that repeats lies on that cycle, which recurs at arbitrarily
    large indices, so it is reduced; no state before the first reduced one
    repeats, and the first repeat is the first reduced state, L steps on.
    """
    s = isqrt(d)
    g_pp, g_p = -P, Q  # G_{-2}, G_{-1}
    b_pp, b_p = 1, 0  # B_{-2}, B_{-1}
    first = None  # the first reduced state at index >= 1
    while True:
        a = (P + s if Q > 0 else P + s + 1) // Q  # floor, as the surd is irrational
        g_pp, g_p = g_p, a * g_p + g_pp
        b_pp, b_p = b_p, a * b_p + b_pp
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == first:
            return
        if first is None and 0 < Q <= P + s and P <= s < P + Q:
            first = P, Q
        yield g_p, b_p, Q


@lru_cache(maxsize=None)
def _first_unit(d: int) -> tuple[FundamentalUnit, int]:
    """First convergent (p, q) of sqrt(d) with p^2 - d*q^2 = +-1, and that norm.

    It ends the first period (Q = 1).  The norm is -1 exactly when the period
    is odd; the convergent is then the minimal norm-(-1) unit, and its square
    is the fundamental unit.
    """
    if d < 2 or is_perfect_square(d):
        raise SquareInput(f"d={d} must be a non-square >= 2")
    p, q = next((g, b) for g, b, Q in _pqa(d, 0, 1) if Q == 1)
    return FundamentalUnit(d, p, q), p * p - d * q * q


@lru_cache(maxsize=None)
def fundamental_unit(d: int) -> FundamentalUnit:
    """Minimal positive solution of u^2 - d*w^2 = 1 via the sqrt(d) expansion."""
    first, norm = _first_unit(d)
    if norm == 1:
        return first
    t, v = first.u0, first.w0
    return FundamentalUnit(d, t * t + d * v * v, 2 * t * v)


def negative_unit(d: int) -> FundamentalUnit | None:
    """Minimal (t, u) with t^2 - d*u^2 = -1, or None (period even)."""
    first, norm = _first_unit(d)
    return first if norm == -1 else None


def orbit_step(sol: PellSolution, unit: FundamentalUnit, direction: int = 1) -> PellSolution:
    """Multiply by the unit (direction +1) or its inverse (direction -1)."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    u, w = sol.u, sol.w
    u0, w0, d = unit.u0, unit.w0, unit.d
    if direction == 1:
        return PellSolution(u * u0 + d * w * w0, u * w0 + w * u0)
    return PellSolution(u * u0 - d * w * w0, w * u0 - u * w0)


def unit_power(unit: FundamentalUnit, k: int) -> FundamentalUnit:
    """(u0 + w0*sqrt(d))^k for k >= 0, as another norm-1 pair."""
    if k < 0:
        raise ValueError("k must be >= 0")
    d = unit.d
    ra, rb = 1, 0
    ba, bb = unit.u0, unit.w0
    while k:
        if k & 1:
            ra, rb = ra * ba + rb * bb * d, ra * bb + rb * ba
        ba, bb = ba * ba + bb * bb * d, 2 * ba * bb
        k >>= 1
    return FundamentalUnit(d, ra, rb)


def _primitive_class_reps(d: int, m: int) -> tuple[tuple[int, int], ...]:
    """One representative per class of primitive solutions of u^2 - d*w^2 = m.

    ``_pqa`` of (z + sqrt(d))/|m| for each square root z of d mod |m|;
    by G_{i-1}^2 - d*B_{i-1}^2 = (-1)^i * Q_i * |m|, every index with
    Q = +-1 produces a value +-m, and the norm-(-1) unit fixes the sign
    when needed.
    """
    am = abs(m)
    neg = negative_unit(d)
    out: list[tuple[int, int]] = []
    for z in _sqrts_mod(d % am, am):
        for g, b, Q in _pqa(d, z, am):
            if Q in (1, -1):
                val = g * g - d * b * b
                if val == m:
                    out.append((g, b))
                elif val == -m and neg is not None:
                    t, v = neg.u0, neg.w0
                    out.append((g * t + b * v * d, g * v + b * t))
    return tuple(dict.fromkeys(out))


@lru_cache(maxsize=None)
def class_representatives(d: int, rhs: int) -> tuple[PellSolution, ...]:
    """Representatives covering every solution class of u^2 - d*w^2 = rhs.

    Imprimitive classes are reached by scaling the primitive representatives
    of rhs/f^2 by f, over all square divisors f^2 of rhs.  Together with the
    sign images (+-u, +-w) and the unit action these generate all solutions.
    """
    if rhs == 0:
        raise ValueError("right-hand side must be nonzero")
    if d < 2 or is_perfect_square(d):
        raise SquareInput(f"d={d} must be a non-square >= 2")
    found: dict[tuple[int, int], None] = {}
    for f in range(1, isqrt(abs(rhs)) + 1):
        if rhs % (f * f) == 0:
            for a, b in _primitive_class_reps(d, rhs // (f * f)):
                found[(f * a, f * b)] = None
    reps = [PellSolution(u, w) for (u, w) in found]
    reps.sort(key=lambda p: (abs(p.w), p.u, p.w))
    return tuple(reps)


def solve_bounded(d: int, rhs: int) -> tuple[PellSolution, ...]:
    """All solutions (u, w) inside the classical representative window.

    The window is 0 <= w with 2*d*w^2 <= rhs*(u0 - 1) for rhs > 0, or
    2*d*w^2 <= -rhs*(u0 + 1) for rhs < 0; it contains at least one element
    of every solution class, and with the sign images (+-u, +-w) the output
    generates every solution under the unit action.  |w| falls, then rises
    along a unit orbit: each walk stops where it rises past the window.
    """
    unit = fundamental_unit(d)
    cap = rhs * (unit.u0 - 1) if rhs > 0 else -rhs * (unit.u0 + 1)
    w_guard = isqrt(max(cap, 0) // (2 * d)) + 2
    found: set[tuple[int, int]] = set()

    def consider(u: int, w: int) -> None:
        if w >= 0 and 2 * d * w * w <= cap:
            if u * u - d * w * w != rhs:
                raise K3WitnessError(f"orbit point off u^2 - {d}w^2 = {rhs}")
            found.add((u, w))

    for rep in class_representatives(d, rhs):
        for sgn in (1, -1):
            seed = PellSolution(sgn * rep.u, sgn * rep.w)
            consider(seed.u, seed.w)
            for direction in (1, -1):
                cur = seed
                prev_abs = abs(cur.w)
                while True:
                    cur = orbit_step(cur, unit, direction)
                    consider(cur.u, cur.w)
                    aw = abs(cur.w)
                    if aw > w_guard and aw >= prev_abs:
                        break
                    prev_abs = aw
    return tuple(
        PellSolution(u, w) for (u, w) in sorted(found, key=lambda t: (t[1], t[0]))
    )


def _unit_powers_mod(d: int, M: int, m: int):
    # unit^k = e + f*sqrt(d) (mod M) for k = 0, 1, ... until the powers
    # return to 1 mod m, m | M: a norm-1 unit is invertible mod M
    unit = fundamental_unit(d)
    a, b = unit.u0 % M, unit.w0 % M
    e, f = 1 % M, 0
    while True:
        yield e, f
        e, f = (e * a + f * b * d) % M, (e * b + f * a) % M
        if f % m == 0 and e % m == 1 % m:
            return


@lru_cache(maxsize=None)
def _period(d: int, M: int) -> int:
    return sum(1 for _ in _unit_powers_mod(d, M, M))


@lru_cache(maxsize=32)  # one d's T, steps t, phases k0 < T_r; None kept every d's q
def _power(d: int, k: int) -> FundamentalUnit:
    return unit_power(fundamental_unit(d), k)


def residue_period(problem: PellProblem) -> int:
    """Order of the unit action on (u, w) mod r*h."""
    return _period(problem.d, problem.r * problem.h)


def block_unit(problem: PellProblem) -> tuple[FundamentalUnit, int]:
    """The block unit q = unit^T together with T, where T is the residue period.

    Stepping by q preserves the constraint, so it moves along constrained
    sub-orbits.
    """
    T = residue_period(problem)
    return _power(problem.d, T), T


def _seeds(problem: PellProblem) -> list[PellSolution]:
    seeds: dict[tuple[int, int], None] = {}
    for rep in class_representatives(problem.d, problem.rhs):
        seeds[(rep.u, rep.w)] = None
        seeds[(-rep.u, -rep.w)] = None
    return [PellSolution(u, w) for (u, w) in seeds]


def constrained_orbit_hits(problem: PellProblem) -> tuple[tuple[PellSolution, int], ...]:
    """One exact hit h and its step exponent t for every constrained orbit coset.

    The phases k where unit^k * s meets the constraint mod M, s a class
    representative or its negation, are one coset k0 + t*Z with k0 < T_r
    and t | T_r | T, T_r the unit's order mod r (module docstring).  So each
    seed's scan of the unit's first T_r powers mod M, built once per
    problem, stops at its second phase k1: t = k1 - k0, or T_r if k0 is the
    only one.  The pair is (unit^k0 * s, t): the hits
    unit^(j*t) * h, 0 <= j < T/t, start the coset's T/t block orbits.  The
    hits are exact by construction: the seed's norm was compared with rhs
    (or fixed by the norm-(-1) unit) and scaled by f, unit^k has norm 1,
    and the constraint was tested on the exact residues mod M; so they are
    returned unchecked.  The result is empty iff the constrained solution
    set is empty.
    """
    seeds = _seeds(problem)
    if not seeds:
        return ()
    d, mu, r, h, M = problem.d, problem.mu, problem.r, problem.h, problem.r * problem.h
    table = tuple(_unit_powers_mod(d, M, r))
    T_r = len(table)
    hits: list[tuple[PellSolution, int]] = []
    for seed in seeds:
        # unit^k * seed has w = e*sw + f*su and u - mu*w = e*p + f*q (mod M)
        su, sw = seed.u % M, seed.w % M
        p, q = (su - mu * sw) % M, (d * sw - mu * su) % M
        phases = (
            k for k, (e, f) in enumerate(table)
            if (e * sw + f * su) % r == 0 and (e * p + f * q - h) % M == 0
        )
        k0 = next(phases, None)
        if k0 is None:
            continue
        t = next(phases, k0 + T_r) - k0
        hits.append((orbit_step(seed, _power(d, k0), 1) if k0 else seed, t))
    return tuple(sorted(dict.fromkeys(hits), key=lambda p: (abs(p[0].w), p[0].u, p[0].w, p[1])))


def _descend(sol: PellSolution, problem: PellProblem, step: FundamentalUnit):
    """The w != 0 points of the orbit of ``sol`` under ``step``, u falling.

    ``step`` preserves the constraint: the block unit q (one block per
    point, as pushes and chains take it) or a coset's fine step unit^t.  The
    first point is ``sol``, or for w = 0 its lower neighbour; the walk heads
    to the lower neighbour and keeps that direction, passing over a w = 0
    point.  For rhs > 0 and u > 0 the orbit is convex: where the next point
    does not lower u the walk raises ``ThresholdUnreachable`` with that orbit
    minimum as ``best``.  On any other orbit u falls at every step, and a
    step that does not lower u raises ``RuntimeError``.
    """

    def off_axis(p: PellSolution) -> PellSolution:
        return p if p.w else min(orbit_step(p, step, 1), orbit_step(p, step, -1))

    cur = off_axis(sol)
    yield cur
    fwd, bwd = orbit_step(cur, step, 1), orbit_step(cur, step, -1)
    nxt, direction = (fwd, 1) if fwd < bwd else (bwd, -1)
    convex = problem.rhs > 0 and cur.u > 0
    while True:
        if nxt.u >= cur.u:
            if not convex:
                raise RuntimeError(f"u stopped falling on a non-convex orbit, d={problem.d}")
            best = off_axis(cur)
            raise ThresholdUnreachable(
                f"u on the orbit's w != 0 blocks is bounded below by {short_int(best.u)}",
                best=best,
            )
        cur, nxt = nxt, orbit_step(nxt, step, direction)
        if cur.w:
            yield cur


def push_negative(
    sol: PellSolution, problem: PellProblem, u_threshold: int, step: FundamentalUnit
) -> PellSolution:
    """First point on the orbit of ``sol`` under ``step`` with w != 0 and
    u <= u_threshold; ``step`` is the block unit (see ``block_unit``) or a
    coset's fine step.  Where a convex orbit bottoms out above the
    threshold, raises ``ThresholdUnreachable`` with the orbit minimum as
    ``best`` (see ``_descend``).
    """
    if problem.residual(sol.u, sol.w) != 0:
        raise ValueError("not a solution of the problem")
    if not problem.meets_constraints(sol.u, sol.w):
        raise ValueError("solution does not satisfy the problem constraints")
    return next(p for p in _descend(sol, problem, step) if p.u <= u_threshold)


def block_descent(problem: PellProblem, start: PellSolution):
    """The w != 0 points of the block orbit of ``start``, u falling, one
    block each (see ``_descend``); ``start`` meets the constraints."""
    return _descend(start, problem, block_unit(problem)[0])


def _contenders(problem: PellProblem, hit: PellSolution, fine: FundamentalUnit, blocks: int,
                u_thr: int, step: FundamentalUnit) -> list[PellSolution]:
    """The hits h_j = fine^j * hit, 0 <= j < blocks, whose push by ``step``
    can win: the walk stops where every later push is below one kept (on a
    convex coset u does not fall along j, see the module docstring)."""
    rising = problem.rhs < 0 and hit.w > 0  # w keeps its sign where rhs < 0
    if rising and hit.u > u_thr:
        # every hit lands below it: the winner's block orbit holds the first
        # point below the threshold, found by the fine step
        low = next(p for p in _descend(hit, problem, fine) if p.u <= u_thr)
        while low.u < hit.u:
            low = orbit_step(low, step, 1)
        return [low]
    kept: list[PellSolution] = []
    for _ in range(blocks):
        if rising and hit.u > u_thr:
            break  # this and each later hit land below the last one kept
        kept.append(hit)
        if len(kept) > 1 and u_thr >= hit.u < kept[-2].u:
            break  # u falls from here on: each later hit is its own, lower, push
        hit = orbit_step(hit, fine, 1)
    return kept


def constrained_search(
    problem: PellProblem, u_threshold: int
) -> tuple[int, Optional[tuple[PellSolution, PellSolution, bool]]]:
    """T, and the best push (solution, hit, reached) over every constrained
    block orbit (module docstring), or None where the constrained
    solution set is empty.  ``reached`` tells whether the solution has
    u <= u_threshold; if not, it is the lowest orbit minimum."""
    hits = constrained_orbit_hits(problem)
    if not hits:
        return residue_period(problem), None
    if problem.rhs > 0 and u_threshold < 0:
        # the sign of u decides the orbit
        hits = [h for h in hits if h[0].u < 0] or hits
    step, period = block_unit(problem)
    # two cosets can share a hit (two seeds on one unit orbit): push it once
    contenders = dict.fromkeys(
        hit for h, t in hits
        for hit in _contenders(problem, h, _power(problem.d, t), period // t, u_threshold, step)
    )
    reached: list[tuple[PellSolution, PellSolution]] = []
    bounded: list[tuple[PellSolution, PellSolution]] = []
    for hit in contenders:
        try:
            reached.append((push_negative(hit, problem, u_threshold, step), hit))
        except ThresholdUnreachable as exc:
            bounded.append((exc.best, hit))
    # of all orbits that reach the threshold, stay closest to it; when none
    # does, report the lowest orbit minimum; a tie keeps the hit that comes
    # first in (|w|, u, w) order, as the per-phase hits were sorted
    pairs = sorted(reached or bounded, key=lambda p: (abs(p[1].w), p[1].u, p[1].w))
    sol, hit = (max if reached else min)(pairs, key=itemgetter(0))
    return period, (sol, hit, bool(reached))
