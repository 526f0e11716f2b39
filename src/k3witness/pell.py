"""Pell-type equations u^2 - d*w^2 = N with linear residue constraints.

Everything is exact integer arithmetic.  The three layers are:

1. Fundamental unit.  The continued fraction of sqrt(d) (PQa recurrences on
   the quadratic surd (P + sqrt(d))/Q) yields the minimal (u0, w0) with
   u0^2 - d*w0^2 = 1.  The unit acts on solutions by

       (u, w) -> (u*u0 + d*w*w0, u*w0 + w*u0),

   i.e. multiplication by u0 + w0*sqrt(d) in Z[sqrt(d)].

2. Solution classes.  Every solution of u^2 - d*w^2 = N is (+-)(unit^k)
   applied to finitely many representatives.  Primitive representatives for
   the right-hand side m come from the PQa expansion started at
   P0 = z, Q0 = |m| for each square root z of d mod |m|.  The roots come
   from the factorisation of |m| by trial division: Tonelli-Shanks mod each
   odd prime, a lift to each prime power one p-adic digit at a time (which
   also covers p = 2 and p | d), and the Chinese remainder theorem.  A
   candidate is read off whenever the expansion reaches Q = +-1 inside the
   first cycle of its (P, Q) states, with the norm-(-1) unit converting a
   wrong-sign value when that unit exists.  Scaling by the square divisors
   of N covers imprimitive solutions.  ``solve_bounded`` exposes the
   classical window: all solutions with 0 <= w and 2*d*w^2 <= N*(u0-1)
   (N > 0) or 2*d*w^2 <= -N*(u0+1) (N < 0), which contains a
   representative of every class.

3. Decidable constrained search.  A ``PellProblem`` adds congruences
   a*u + b*w = c (mod m).  The unit action on (u, w) mod M (M = lcm of the
   moduli) is invertible of finite order T, so constraint satisfaction along
   an orbit is T-periodic: scanning one full period of every class
   representative decides emptiness outright, and walking in steps of T
   ("blocks") moves along a constrained orbit.  M and T have one formula
   each; the block unit q = unit^T is built by ``block_unit``, once per
   problem by the caller, who passes it down.  On each block-orbit the value u is
   A*q^j + B*q^(-j) with A*B = N, so u (hence the decoded x) is convex,
   concave, or monotone in the block index j depending only on the signs of
   N and u.  The one walk, ``_descend``, yields the w != 0 blocks with
   falling x, one step of q each (w = 0 happens at most once per orbit,
   where x is extremal), and stops with a certified minimum where a convex
   orbit bottoms out; every step lowers x, so it needs no step cap.
   ``push_negative`` and ``families.witness_chain`` both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, lcm

from .errors import K3WitnessError, SquareInput, ThresholdUnreachable
from .lattice import is_perfect_square

_PQA_STEP_CAP = 200_000
_ORDER_CAP = 2_000_000


def _size(n: int) -> str:
    # long values by size only: str() of an int past the digit limit raises
    bits = n.bit_length()
    return str(n) if bits <= 64 else f"<{'-' if n < 0 else '+'}{bits}-bit integer>"


@dataclass(frozen=True)
class FundamentalUnit:
    """Minimal (u0, w0) with u0^2 - d*w0^2 = 1, w0 >= 1."""

    d: int
    u0: int
    w0: int


@dataclass(frozen=True)
class PellSolution:
    u: int
    w: int


@dataclass(frozen=True)
class LinearCongruence:
    """a*u + b*w = c (mod modulus)."""

    a: int
    b: int
    c: int
    modulus: int

    def holds(self, u: int, w: int) -> bool:
        return (self.a * u + self.b * w - self.c) % self.modulus == 0


@dataclass(frozen=True)
class PellProblem:
    """u^2 - d*w^2 = rhs subject to residue constraints.

    ``u_shift`` and ``scale`` record an affine substitution u = scale*x +
    u_shift, w = scale*y used by callers to decode solutions back to their
    own coordinates.
    """

    d: int
    rhs: int
    constraints: tuple[LinearCongruence, ...] = ()
    u_shift: int = 0
    scale: int = 1

    def __post_init__(self):
        if self.d < 2 or is_perfect_square(self.d):
            raise SquareInput(f"d={self.d} must be a non-square >= 2")
        if self.rhs == 0:
            raise ValueError("right-hand side must be nonzero")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if any(c.modulus < 1 for c in self.constraints):
            raise ValueError("constraint moduli must be >= 1")

    def residual(self, u: int, w: int) -> int:
        return u * u - self.d * w * w - self.rhs

    def meets_constraints(self, u: int, w: int) -> bool:
        return all(c.holds(u, w) for c in self.constraints)

    def solution(self, u: int, w: int) -> PellSolution:
        if self.residual(u, w) != 0:
            raise ValueError(
                f"({_size(u)}, {_size(w)}) does not solve u^2 - {self.d}w^2 = {self.rhs}"
            )
        return PellSolution(u, w)

    def decode_x(self, u: int) -> int:
        q, r = divmod(u - self.u_shift, self.scale)
        if r:
            raise K3WitnessError("u does not decode to an integer x")
        return q

    def decode(self, sol: PellSolution) -> tuple[int, int]:
        """Map (u, w) back to (x, y) through the affine substitution."""
        y, r = divmod(sol.w, self.scale)
        if r:
            raise K3WitnessError("w does not decode to an integer y")
        return self.decode_x(sol.u), y


@lru_cache(maxsize=None)
def _first_unit(d: int) -> tuple[FundamentalUnit, int]:
    """First convergent (p, q) of sqrt(d) with p^2 - d*q^2 = +-1, and that norm.

    The norm is -1 exactly when the period of the expansion is odd; the
    convergent is then the minimal norm-(-1) unit, and its square is the
    fundamental unit.
    """
    if d < 2 or is_perfect_square(d):
        raise SquareInput(f"d={d} must be a non-square >= 2")
    s = isqrt(d)
    p_prev, p = 1, s
    q_prev, q = 0, 1
    P, Q = s, d - s * s
    while (norm := p * p - d * q * q) not in (1, -1):
        a = (P + s) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (d - P * P) // Q
    return FundamentalUnit(d, p, q), norm


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


def _cf_floor(P: int, Q: int, s: int) -> int:
    # floor((P + sqrt(d)) / Q) with s = isqrt(d), d non-square; exact for Q of
    # either sign because (P + sqrt(d))/Q is irrational.
    num = P + s if Q > 0 else P + s + 1
    return num // Q


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _primitive_class_reps(d: int, m: int) -> tuple[tuple[int, int], ...]:
    """One representative per class of primitive solutions of u^2 - d*w^2 = m.

    PQa expansion of (z + sqrt(d))/|m| for each square root z of d mod |m|;
    by G_{i-1}^2 - d*B_{i-1}^2 = (-1)^i * Q_i * |m|, every index with
    Q = +-1 produces a value +-m, and the norm-(-1) unit fixes the sign
    when needed.
    """
    am = abs(m)
    s = isqrt(d)
    neg = negative_unit(d)
    out: list[tuple[int, int]] = []
    for z in _sqrts_mod(d % am, am):
        P, Q = z, am
        g_pp, g_p = -z, am  # G_{-2}, G_{-1}
        b_pp, b_p = 1, 0  # B_{-2}, B_{-1}
        seen: set[tuple[int, int]] = set()
        for _ in range(_PQA_STEP_CAP):
            a = _cf_floor(P, Q, s)
            g_cur = a * g_p + g_pp
            b_cur = a * b_p + b_pp
            P = a * Q - P
            Q = (d - P * P) // Q
            if (P, Q) in seen:
                break
            seen.add((P, Q))
            if Q in (1, -1):
                val = g_cur * g_cur - d * b_cur * b_cur
                if val == m:
                    out.append((g_cur, b_cur))
                elif val == -m and neg is not None:
                    t, v = neg.u0, neg.w0
                    out.append((g_cur * t + b_cur * v * d, g_cur * v + b_cur * t))
            g_pp, g_p = g_p, g_cur
            b_pp, b_p = b_p, b_cur
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"PQa expansion for d={d}, m={m} did not cycle")
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


@lru_cache(maxsize=None)
def _unit_order_mod(d: int, u0_mod: int, w0_mod: int, M: int) -> int:
    # multiplicative order of u0 + w0*sqrt(d) in Z[sqrt(d)]/M
    if M == 1:
        return 1
    a, b = u0_mod, w0_mod
    cur = (a, b)
    order = 1
    while cur != (1, 0):
        cur = ((cur[0] * a + cur[1] * b * d) % M, (cur[0] * b + cur[1] * a) % M)
        order += 1
        if order > _ORDER_CAP:  # pragma: no cover - defensive
            raise RuntimeError(f"unit order mod {M} exceeded cap")
    return order


def _modulus_and_period(problem: PellProblem) -> tuple[int, int]:
    # M = lcm of the constraint moduli and the order T of the unit mod M
    unit = fundamental_unit(problem.d)
    M = lcm(*(c.modulus for c in problem.constraints))
    return M, _unit_order_mod(problem.d, unit.u0 % M, unit.w0 % M, M)


def residue_period(problem: PellProblem) -> int:
    """Order of the unit action on (u, w) mod lcm(constraint moduli)."""
    return _modulus_and_period(problem)[1]


def block_unit(problem: PellProblem) -> tuple[FundamentalUnit, int]:
    """The block unit q = unit^T together with T, where T is the residue period.

    Stepping by q preserves every constraint of the problem, so it moves
    along constrained sub-orbits.
    """
    T = residue_period(problem)
    return unit_power(fundamental_unit(problem.d), T), T


def _seeds(problem: PellProblem) -> list[PellSolution]:
    seeds: dict[tuple[int, int], None] = {}
    for rep in class_representatives(problem.d, problem.rhs):
        seeds[(rep.u, rep.w)] = None
        seeds[(-rep.u, -rep.w)] = None
    return [PellSolution(u, w) for (u, w) in seeds]


def constrained_orbit_hits(problem: PellProblem) -> tuple[PellSolution, ...]:
    """One exact solution for every constrained block-orbit.

    Scans a full residue period of each class representative (and its
    negation); each phase k where the constraints hold mod M is realized
    exactly as unit^k applied to the seed.  The result is empty iff the
    constrained solution set is empty.
    """
    unit = fundamental_unit(problem.d)
    M, T = _modulus_and_period(problem)
    u0m, w0m, dm = unit.u0 % M, unit.w0 % M, problem.d % M
    cons = [(c.a, c.b, c.c, c.modulus) for c in problem.constraints]
    powers: dict[int, FundamentalUnit] = {}  # the seeds share phases
    hits: list[PellSolution] = []
    for seed in _seeds(problem):
        a, b = seed.u % M, seed.w % M
        for k in range(T):
            for ca, cb, cc, cm in cons:
                if (ca * a + cb * b - cc) % cm:
                    break
            else:
                if k:
                    if k not in powers:
                        powers[k] = unit_power(unit, k)
                    hits.append(orbit_step(seed, powers[k], 1))
                else:
                    hits.append(seed)
            a, b = (a * u0m + b * w0m * dm) % M, (a * w0m + b * u0m) % M
    unique = dict.fromkeys((h.u, h.w) for h in hits)
    out = [problem.solution(u, w) for (u, w) in unique]
    out.sort(key=lambda p: (abs(p.w), p.u, p.w))
    return tuple(out)


def default_x_threshold(h_square: int, rank: int) -> int:
    """Largest integer x with x < -h_square/max(rank-1, 1) - 1.

    Reading of "very negative" that keeps (H + (rank-1)D).H strictly
    negative for a divisor D with D.H = x.
    """
    m = max(rank - 1, 1)
    return -((h_square + m - 1) // m) - 1


def _descend(sol: PellSolution, problem: PellProblem, step: FundamentalUnit):
    """The w != 0 blocks of the constrained orbit of ``sol``, x falling.

    ``step`` is the problem's block unit q.  The first block is ``sol``, or
    for w = 0 its neighbour with the lower (x, w); the walk heads to the
    neighbour with the lower (x, w) and keeps that direction, passing over a
    w = 0 block.  For rhs > 0 and u > 0 the orbit is convex: where the next
    block does not lower x the walk raises ``ThresholdUnreachable`` with
    ``certified=True`` and that orbit minimum as ``best``.  On any other
    orbit x falls at every step, and a step that does not lower x raises
    ``RuntimeError``.
    """

    def key(p: PellSolution) -> tuple[int, int]:
        return problem.decode_x(p.u), p.w

    def off_axis(p: PellSolution) -> PellSolution:
        if p.w:
            return p
        return min(orbit_step(p, step, 1), orbit_step(p, step, -1), key=key)

    cur = off_axis(sol)
    x = problem.decode_x(cur.u)
    yield cur
    fwd, bwd = orbit_step(cur, step, 1), orbit_step(cur, step, -1)
    nxt, direction = (fwd, 1) if key(fwd) < key(bwd) else (bwd, -1)
    convex = problem.rhs > 0 and cur.u > 0
    while True:
        nxt_x = problem.decode_x(nxt.u)
        if nxt_x >= x:
            if not convex:
                raise RuntimeError(f"x stopped falling on a non-convex orbit, d={problem.d}")
            best = off_axis(cur)
            raise ThresholdUnreachable(
                f"x on the orbit's w != 0 blocks is bounded below by "
                f"{_size(problem.decode_x(best.u))}",
                best=best,
                certified=True,
            )
        cur, x, nxt = nxt, nxt_x, orbit_step(nxt, step, direction)
        if cur.w:
            yield cur


def push_negative(
    sol: PellSolution, problem: PellProblem, x_threshold: int, step: FundamentalUnit
) -> PellSolution:
    """First block on the constrained orbit of ``sol`` with w != 0 and
    decoded x <= x_threshold, walking by the block unit ``step`` (see
    ``block_unit``).  Where a convex orbit bottoms out above the threshold,
    raises ``ThresholdUnreachable`` with ``certified=True`` and the orbit
    minimum as ``best`` (see ``_descend``).
    """
    if problem.residual(sol.u, sol.w) != 0:
        raise ValueError("not a solution of the problem")
    if not problem.meets_constraints(sol.u, sol.w):
        raise ValueError("solution does not satisfy the problem constraints")
    return next(p for p in _descend(sol, problem, step) if problem.decode_x(p.u) <= x_threshold)
