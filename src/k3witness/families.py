"""Determinant families, membership decisions, and verified witnesses.

For a query (g, r, s, sign) the vector (r, H, s) can be twisted by a divisor
D = (x*H + y*G)/(2g-2) into (r, H + r*D, sign*1) exactly when (x, y) solves

    (r*x + 2(g-1))^2 - d*(r*y)^2 = 4(g-1)*(sign*r - r*s + g - 1)

with x = mu*y (mod 2g-2).  The family of a query is the set of non-square d
for which such a solution with y != 0 exists for some admissible mu; the
swapped ("tilde") family exchanges the roles of r and s.  A successful
membership test returns a Witness carrying the divisors D and F = H + r*D
(the solution (x, y) is read off D) and a report re-verifying every
identity.  ``_verify_fields`` is the one checker; ``verify_witness``, the
CLI renderers and the ``hilbert`` command all take their values from it:

  (a) the Pell residual vanishes,
  (b) x = mu*y (mod 2g-2),
  (c) F^2 = (2g-2) + r*(sign*2 - 2s),
  (d) F.H = r*mu*y (mod 2g-2),
  (e) D.H lies below the negativity threshold,
  (f) the twist by D really maps (r, H, s) to (r, F, sign*1),
  (g) (r, H, s) is primitive,
  plus the degree-2 checks on h1 = F + eps*f over the Hilbert scheme of
  n = g - r*s points: q(h1) = F^2 - 2(n-1)*eps^2 = sign*2r, reusing F^2
  from (c), and b(h1, H) = F.H = r*mu*y mod 2g-2, reusing the residue of (d).

Check (e) is special: for some queries every constrained solution class has
u > 0 and D.H is bounded below, so the threshold is provably unreachable.
Membership still holds (it is defined by the equation above); the witness
then carries the orbit minimum with ``threshold_reachable=False`` and check
(e) records the obstruction instead of silently dropping the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .errors import (
    DegenerateQuery,
    NegativeDimension,
    NoValidMu,
    SquareDiscriminant,
    ThresholdUnreachable,
)
from .hilbert import exceptional_coefficient
from .lattice import (
    Divisor,
    LatticeConfig,
    divisor,
    dot_H,
    inner,
    is_perfect_square,
    make_lattice,
    unit_square_roots,
)
from .mukai import MukaiVector, is_primitive, tensorize
from .pell import (
    LinearCongruence,
    PellProblem,
    PellSolution,
    _descend,
    block_unit,
    constrained_orbit_hits,
    default_x_threshold,
    push_negative,
    residue_period,
)

THRESHOLD_CHECK = "dh_threshold"


@dataclass(frozen=True)
class FamilyQuery:
    """(g, r, s) with a sign choice; tilde swaps the roles of r and s."""

    g: int
    r: int
    s: int
    sign: int
    tilde: bool = False

    def __post_init__(self):
        if self.g < 3:
            raise ValueError(f"genus must be >= 3, got {self.g}")
        if self.r < 1 or self.s < 1:
            raise ValueError("r and s must be >= 1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.g < self.r * self.s:
            raise NegativeDimension(f"g={self.g} < r*s={self.r * self.s}")

    @property
    def twist_rank(self) -> int:
        """Rank of the vector being twisted: s for the swapped family."""
        return self.s if self.tilde else self.r

    @property
    def other_rank(self) -> int:
        return self.r if self.tilde else self.s

    @property
    def length(self) -> int:
        return self.g - self.r * self.s


def _require_length(query: FamilyQuery) -> None:
    """Refuse g = r*s, where the Hilbert scheme S^[g-rs] has length 0."""
    if query.length == 0:
        raise DegenerateQuery(f"g={query.g} equals r*s: the Hilbert scheme has length 0")


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    expected: object
    actual: object
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckOutcome, ...]

    def __getitem__(self, name: str) -> CheckOutcome:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def flags(self) -> dict[str, bool]:
        return {c.name: c.passed for c in self.checks}

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return not self.failed

    @property
    def core_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.name != THRESHOLD_CHECK)


@dataclass(frozen=True)
class Witness:
    """A certified family member: the solution plus its verified divisors."""

    d: int
    mu: int
    sign: int
    D: Divisor
    F: Divisor
    seed: tuple[int, int]
    x_threshold: int
    threshold_reachable: bool
    report: VerificationReport

    @property
    def x(self) -> int:
        return self.D.x

    @property
    def y(self) -> int:
        return self.D.y


@dataclass(frozen=True)
class MuOutcome:
    """Per-mu membership result for one determinant."""

    mu: int
    found: bool
    witness: Optional[Witness]
    residue_period: int


def rhs_value(query: FamilyQuery) -> int:
    """Right-hand side 4(g-1)*(sign*rank - rank*other + g - 1)."""
    rr, ss = query.twist_rank, query.other_rank
    return 4 * (query.g - 1) * (query.sign * rr - rr * ss + query.g - 1)


def pell_problem(cfg: LatticeConfig, query: FamilyQuery) -> PellProblem:
    """The constrained Pell problem whose solutions are the family witnesses.

    Substitution u = rank*x + 2(g-1), w = rank*y.  The congruences w = 0
    (mod rank) and u - mu*w = 2(g-1) (mod rank*(2g-2)) imply u = 2(g-1)
    (mod rank), so x, y are integers with x = mu*y mod 2g-2.
    """
    rr = query.twist_rank
    h2 = cfg.h_square
    cons = []
    if rr > 1:
        cons.append(LinearCongruence(0, 1, 0, rr))
    cons.append(LinearCongruence(1, -cfg.mu, h2, rr * h2))
    return PellProblem(
        cfg.d, rhs_value(query), tuple(cons), u_shift=h2, scale=rr
    )


def _verify_fields(
    query: FamilyQuery,
    cfg: LatticeConfig,
    D: Divisor,
    F: Divisor,
    x_threshold: int,
    threshold_reachable: bool,
) -> VerificationReport:
    """The one witness checker: every identity of (D, F), each computed once."""
    rr, ss = query.twist_rank, query.other_rank
    h2 = cfg.h_square
    sign = query.sign
    x, y = D.x, D.y
    checks: list[CheckOutcome] = []

    u = rr * x + h2
    w = rr * y
    res = u * u - cfg.d * w * w - rhs_value(query)
    checks.append(CheckOutcome("pell_residual", res == 0, 0, res))

    cong = (x - cfg.mu * y) % h2
    checks.append(CheckOutcome("mu_congruence", cong == 0, 0, cong))

    f_sq = inner(F, F)
    f_sq_target = h2 + rr * (2 * sign - 2 * ss)
    checks.append(CheckOutcome("f_square", f_sq == f_sq_target, f_sq_target, f_sq))

    # F.H = r*mu*y mod 2g-2, which is also b(h1, H) since f is orthogonal to H
    f_res = (dot_H(F) - rr * cfg.mu * y) % h2
    checks.append(CheckOutcome("f_dot_h", f_res == 0, 0, f_res))

    dh = dot_H(D)
    note = "" if threshold_reachable else "threshold certified unreachable"
    checks.append(CheckOutcome(THRESHOLD_CHECK, dh <= x_threshold, x_threshold, dh, note))

    v = MukaiVector(rr, cfg.H, ss)
    tv = tensorize(v, D)
    tensor_ok = tv.r0 == rr and tv.c1 == F and tv.s0 == sign
    expected, actual = (rr, (F.x, F.y), sign), (tv.r0, (tv.c1.x, tv.c1.y), tv.s0)
    checks.append(CheckOutcome("tensor_type", tensor_ok, expected, actual))

    primitive = is_primitive(v)
    checks.append(CheckOutcome("primitive_vector", primitive, True, primitive))

    eps = exceptional_coefficient(query.length)
    q_val = f_sq - 2 * (query.length - 1) * eps * eps
    q_target = sign * 2 * rr
    checks.append(CheckOutcome("bb_square", q_val == q_target, q_target, q_val))
    checks.append(CheckOutcome("bb_pairing", f_res == 0, 0, f_res))
    return VerificationReport(tuple(checks))


def verify_witness(w: Witness, query: FamilyQuery) -> VerificationReport:
    """Recompute every identity of the witness from scratch."""
    cfg = make_lattice(query.g, w.d, w.mu)
    return _verify_fields(query, cfg, w.D, w.F, w.x_threshold, w.threshold_reachable)


def _resolve_threshold(query: FamilyQuery, x_threshold: Optional[int]) -> int:
    if x_threshold is not None:
        return x_threshold
    return default_x_threshold(2 * query.g - 2, query.twist_rank)


def _build_witness(
    query: FamilyQuery,
    cfg: LatticeConfig,
    problem: PellProblem,
    sol: PellSolution,
    seed: PellSolution,
    x_threshold: int,
    reachable: bool,
) -> Witness:
    D = divisor(cfg, *problem.decode(sol))
    F = cfg.H + query.twist_rank * D
    report = _verify_fields(query, cfg, D, F, x_threshold, reachable)
    return Witness(
        d=cfg.d,
        mu=cfg.mu,
        sign=query.sign,
        D=D,
        F=F,
        seed=problem.decode(seed),
        x_threshold=x_threshold,
        threshold_reachable=reachable,
        report=report,
    )


def membership(
    query: FamilyQuery,
    d: int,
    *,
    x_threshold: Optional[int] = None,
) -> list[MuOutcome]:
    """Membership of d decided separately for every admissible mu.

    Raises ``SquareDiscriminant`` for square d, ``NoValidMu`` when d has no
    unit square root mod 4(g-1), and ``DegenerateQuery`` for g = r*s.
    """
    _require_length(query)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if is_perfect_square(d):
        raise SquareDiscriminant(f"d={d} is a perfect square")
    mus = unit_square_roots(query.g, d)
    if not mus:
        raise NoValidMu(f"no unit square root of {d} mod {4 * (query.g - 1)}")
    thr = _resolve_threshold(query, x_threshold)
    rhs = rhs_value(query)
    outcomes: list[MuOutcome] = []
    for mu in mus:
        if rhs == 0:
            # u^2 = d*w^2 with w != 0 forces square d; empty for every mu
            outcomes.append(MuOutcome(mu, False, None, 0))
            continue
        cfg = make_lattice(query.g, d, mu)
        problem = pell_problem(cfg, query)
        hits = constrained_orbit_hits(problem)
        if not hits:
            outcomes.append(MuOutcome(mu, False, None, residue_period(problem)))
            continue
        step, period = block_unit(problem)
        reached: list[tuple[PellSolution, PellSolution]] = []
        bounded: list[tuple[PellSolution, PellSolution]] = []
        for hit in hits:
            try:
                reached.append((push_negative(hit, problem, thr, step), hit))
            except ThresholdUnreachable as exc:
                bounded.append((exc.best, hit))

        def key(pair: tuple[PellSolution, PellSolution]) -> tuple[int, int]:
            return problem.decode_x(pair[0].u), pair[0].w

        # of all orbits that reach the threshold, stay closest to it; when
        # none does, report the lowest orbit minimum
        sol, seed = max(reached, key=key) if reached else min(bounded, key=key)
        witness = _build_witness(query, cfg, problem, sol, seed, thr, bool(reached))
        outcomes.append(MuOutcome(mu, True, witness, period))
    return outcomes


def member(
    query: FamilyQuery,
    d: int,
    *,
    x_threshold: Optional[int] = None,
) -> Optional[Witness]:
    """Witness for d in the family, or None when no admissible mu works.

    Prefers a witness whose D.H reached the negativity threshold; falls back
    to a threshold-flagged witness when every constrained orbit is bounded.
    """
    return preferred_witness(membership(query, d, x_threshold=x_threshold))


def preferred_witness(outcomes: list[MuOutcome]) -> Optional[Witness]:
    """The first witness that reached the threshold, else the first flagged one."""
    witnesses = [oc.witness for oc in outcomes if oc.witness is not None]
    for w in witnesses:
        if w.threshold_reachable:
            return w
    return witnesses[0] if witnesses else None


def enumerate_family(
    query: FamilyQuery,
    d_max: int,
    *,
    x_threshold: Optional[int] = None,
) -> list[Witness]:
    """All family members d <= d_max, ascending, each with its witness."""
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    _require_length(query)
    out: list[Witness] = []
    for d in range(2, d_max + 1):
        if is_perfect_square(d) or not unit_square_roots(query.g, d):
            continue
        w = member(query, d, x_threshold=x_threshold)
        if w is not None:
            out.append(w)
    return out


def enumerate_direct(query: FamilyQuery, xy_bound: int) -> set[int]:
    """Independent oracle: determinants from the defining formula directly.

    Scans |x|, |y| <= xy_bound, y != 0, computes
    d = ((rank*x + 2(g-1))^2 - rhs) / (rank*y)^2 whenever the division is
    exact, and keeps non-square d admitting a mu with the right congruence.
    """
    if xy_bound < 1:
        raise ValueError(f"xy_bound must be >= 1, got {xy_bound}")
    rr = query.twist_rank
    h2 = 2 * query.g - 2
    rhs = rhs_value(query)
    out: set[int] = set()
    for y in range(-xy_bound, xy_bound + 1):
        if y == 0:
            continue
        den = rr * rr * y * y
        for x in range(-xy_bound, xy_bound + 1):
            t = rr * x + h2
            num = t * t - rhs
            if num <= 0:
                continue
            d, rem = divmod(num, den)
            if rem or d < 2 or d in out or is_perfect_square(d):
                continue
            if any((x - mu * y) % h2 == 0 for mu in unit_square_roots(query.g, d)):
                out.add(d)
    return out


def infinitude(g: int, r: int, s: int) -> tuple[bool, Optional[str]]:
    """Sufficient divisibility criterion for the union of families to be infinite.

    Returns the first satisfied condition among r|g-1, s|g-1, r|2, s|2.
    False means the criterion is inconclusive, not that the family is finite.
    """
    if g < 3 or r < 1 or s < 1:
        raise ValueError("need g >= 3 and r, s >= 1")
    conditions = (
        ((g - 1) % r == 0, "r|g-1"),
        ((g - 1) % s == 0, "s|g-1"),
        (2 % r == 0, "r|2"),
        (2 % s == 0, "s|2"),
    )
    for holds, name in conditions:
        if holds:
            return True, name
    return False, None


def witness_chain(
    query: FamilyQuery,
    d: int,
    count: int,
    *,
    x_threshold: Optional[int] = None,
) -> list[Witness]:
    """Chain of ``count`` witnesses with strictly decreasing x, all verified.

    Realizes the unboundedness of the solution orbit: each element is one
    constrained block further down the orbit of the first witness, one step
    of the block unit each.  Raises a certified ``ThresholdUnreachable``
    where a convex orbit bottoms out first.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    first = member(query, d, x_threshold=x_threshold)
    if first is None:
        raise NoValidMu(f"d={d} is not a member for any admissible mu")
    if not first.threshold_reachable:
        raise ThresholdUnreachable(
            f"d={d}: orbit x values are bounded below; no descending chain",
            certified=True,
        )
    cfg = make_lattice(query.g, d, first.mu)
    problem = pell_problem(cfg, query)
    step, _ = block_unit(problem)
    rr = query.twist_rank
    start = problem.solution(rr * first.x + cfg.h_square, rr * first.y)
    chain = [first]  # the walk's first block is the first witness
    for sol in islice(_descend(start, problem, step), 1, count):
        chain.append(_build_witness(query, cfg, problem, sol, sol, first.x_threshold, True))
    return chain
