"""Determinant families, membership decisions, and verified witnesses.

For a query (g, r, s, sign) the vector (r, H, s) can be twisted by a divisor
D = (x*H + y*G)/(2g-2) into (r, H + r*D, sign*1) exactly when (x, y) solves

    (r*x + 2(g-1))^2 - d*(r*y)^2 = 4(g-1)*(sign*r - r*s + g - 1)

with x = mu*y (mod 2g-2).  The family of a query is the set of non-square d
for which such a solution with y != 0 exists for some admissible mu.  The
swapped family, of (s, H, r), is the family of the query (g, s, r, sign):
the swap (r, H, s) -> (s, H, r) is ``mukai.reflect``.  A successful
membership test returns a Witness carrying the divisors D and F = H + r*D
(the solution (x, y) is read off D) and a report re-verifying every
identity.  ``_verify_fields`` is the one checker; the witness builder, the
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

The substitution u = r*x + 2(g-1), w = r*y belongs to this module: ``pell``
works in (u, w) alone, and every x threshold is handed to it as the u
threshold r*x + 2(g-1).  Since x is exact and strictly increasing in u, the
two orders agree.

Each mu's witness is ``pell.constrained_search``'s solution, decoded; the
search and its walks live in ``pell``, and this module holds none.  Check (e)
is special: for some queries every constrained solution class has u > 0 and
D.H is bounded below, so the threshold is provably unreachable.  Membership
still holds (it is defined by the equation above); the witness then carries
the orbit minimum with ``threshold_reachable=False`` and check (e) records
the obstruction instead of silently dropping the determinant.  ``member``
stops at the first mu that reaches; ``membership`` decides every mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from .errors import (
    DegenerateQuery,
    K3WitnessError,
    NegativeDimension,
    NoValidMu,
    SquareDiscriminant,
    ThresholdUnreachable,
    short_int,
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
from .pell import PellProblem, PellSolution, block_descent, constrained_search

THRESHOLD_CHECK = "dh_threshold"


@dataclass(frozen=True)
class FamilyQuery:
    """(g, r, s) with a sign choice; the vector (r, H, s) is twisted."""

    g: int
    r: int
    s: int
    sign: int

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
    witness: Optional[Witness]
    residue_period: int


def rhs_value(query: FamilyQuery) -> int:
    """Right-hand side 4(g-1)*(sign*r - r*s + g - 1)."""
    r = query.r
    return 4 * (query.g - 1) * (query.sign * r - r * query.s + query.g - 1)


def pell_problem(cfg: LatticeConfig, query: FamilyQuery) -> PellProblem:
    """The constrained Pell problem whose solutions are the family witnesses.

    Substitution u = r*x + 2(g-1), w = r*y.  The constraint w = 0 (mod r)
    and u - mu*w = 2(g-1) (mod r*(2g-2)) implies u = 2(g-1) (mod r), so
    x, y are integers with x = mu*y mod 2g-2 (see ``_decode``).
    """
    h2 = cfg.h_square
    return PellProblem(cfg.d, rhs_value(query), cfg.mu, query.r, h2)


def _decode(query: FamilyQuery, sol: PellSolution) -> tuple[int, int]:
    """(x, y) of the solution (u, w) = (r*x + 2(g-1), r*y)."""
    x, ru = divmod(sol.u - 2 * (query.g - 1), query.r)
    y, rw = divmod(sol.w, query.r)
    if ru or rw:
        raise K3WitnessError(
            f"({short_int(sol.u)}, {short_int(sol.w)}) does not decode to integers x, y"
        )
    return x, y


def _verify_fields(
    query: FamilyQuery,
    cfg: LatticeConfig,
    D: Divisor,
    F: Divisor,
    x_threshold: int,
) -> VerificationReport:
    """The one witness checker: every identity of (D, F), each computed once."""
    r, s = query.r, query.s
    h2 = cfg.h_square
    sign = query.sign
    x, y = D.x, D.y
    checks: list[CheckOutcome] = []

    u = r * x + h2
    w = r * y
    res = u * u - cfg.d * w * w - rhs_value(query)
    checks.append(CheckOutcome("pell_residual", res == 0, 0, res))

    cong = (x - cfg.mu * y) % h2
    checks.append(CheckOutcome("mu_congruence", cong == 0, 0, cong))

    f_sq = inner(F, F)
    f_sq_target = h2 + r * (2 * sign - 2 * s)
    checks.append(CheckOutcome("f_square", f_sq == f_sq_target, f_sq_target, f_sq))

    # F.H = r*mu*y mod 2g-2, which is also b(h1, H) since f is orthogonal to H
    f_res = (dot_H(F) - r * cfg.mu * y) % h2
    checks.append(CheckOutcome("f_dot_h", f_res == 0, 0, f_res))

    dh = dot_H(D)
    checks.append(CheckOutcome(THRESHOLD_CHECK, dh <= x_threshold, x_threshold, dh))

    v = MukaiVector(r, cfg.H, s)
    tv = tensorize(v, D)
    tensor_ok = tv.r0 == r and tv.c1 == F and tv.s0 == sign
    expected, actual = (r, (F.x, F.y), sign), (tv.r0, (tv.c1.x, tv.c1.y), tv.s0)
    checks.append(CheckOutcome("tensor_type", tensor_ok, expected, actual))

    primitive = is_primitive(v)
    checks.append(CheckOutcome("primitive_vector", primitive, True, primitive))

    eps = exceptional_coefficient(query.length)
    q_val = f_sq - 2 * (query.length - 1) * eps * eps
    q_target = sign * 2 * r
    checks.append(CheckOutcome("bb_square", q_val == q_target, q_target, q_val))
    checks.append(CheckOutcome("bb_pairing", f_res == 0, 0, f_res))
    return VerificationReport(tuple(checks))


def default_x_threshold(h_square: int, rank: int) -> int:
    """Largest integer x with x < -h_square/max(rank-1, 1) - 1.

    Reading of "very negative" that keeps (H + (rank-1)D).H strictly
    negative for a divisor D with D.H = x.
    """
    m = max(rank - 1, 1)
    return -((h_square + m - 1) // m) - 1


def _resolve_threshold(query: FamilyQuery, x_threshold: Optional[int]) -> int:
    if x_threshold is not None:
        return x_threshold
    return default_x_threshold(2 * query.g - 2, query.r)


def _build_witness(
    query: FamilyQuery,
    cfg: LatticeConfig,
    x_threshold: int,
    sol: PellSolution,
    seed: PellSolution,
    reachable: bool,
) -> Witness:
    D = divisor(cfg, *_decode(query, sol))
    F = cfg.H + query.r * D
    report = _verify_fields(query, cfg, D, F, x_threshold)
    return Witness(
        d=cfg.d,
        mu=cfg.mu,
        sign=query.sign,
        D=D,
        F=F,
        seed=_decode(query, seed),
        x_threshold=x_threshold,
        threshold_reachable=reachable,
        report=report,
    )


def _mu_outcomes(query: FamilyQuery, d: int, x_threshold: Optional[int]) -> Iterator[MuOutcome]:
    """The one per-mu loop: each admissible mu's outcome, built when asked for."""
    _require_length(query)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if is_perfect_square(d):
        raise SquareDiscriminant(f"d={d} is a perfect square")
    mus = unit_square_roots(query.g, d)
    if not mus:
        raise NoValidMu(f"no unit square root of {d} mod {4 * (query.g - 1)}")
    thr = _resolve_threshold(query, x_threshold)
    u_thr = query.r * thr + 2 * (query.g - 1)
    rhs = rhs_value(query)
    for mu in mus:
        if rhs == 0:
            # u^2 = d*w^2 with w != 0 forces square d; empty for every mu
            yield MuOutcome(mu, None, 0)
            continue
        cfg = make_lattice(query.g, d, mu)
        period, best = constrained_search(pell_problem(cfg, query), u_thr)
        witness = None if best is None else _build_witness(query, cfg, thr, *best)
        yield MuOutcome(mu, witness, period)


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
    return list(_mu_outcomes(query, d, x_threshold))


def member(
    query: FamilyQuery,
    d: int,
    *,
    x_threshold: Optional[int] = None,
) -> Optional[Witness]:
    """Witness for d in the family, or None when no admissible mu works.

    Prefers a witness whose D.H reached the negativity threshold; falls back
    to a threshold-flagged witness when every constrained orbit is bounded.
    Stops at the first mu whose witness reaches; raises as ``membership``.
    """
    return preferred_witness(_mu_outcomes(query, d, x_threshold))


def preferred_witness(outcomes: Iterable[MuOutcome]) -> Optional[Witness]:
    """The first witness that reached the threshold, else the first flagged one
    (``outcomes`` is read lazily, up to the first that reached)."""
    flagged: Optional[Witness] = None
    for oc in outcomes:
        w = oc.witness
        if w is not None and w.threshold_reachable:
            return w
        if flagged is None:
            flagged = w
    return flagged


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
    d = ((r*x + 2(g-1))^2 - rhs) / (r*y)^2 whenever the division is
    exact, and keeps non-square d admitting a mu with the right congruence.
    """
    if xy_bound < 1:
        raise ValueError(f"xy_bound must be >= 1, got {xy_bound}")
    r = query.r
    h2 = 2 * query.g - 2
    rhs = rhs_value(query)
    out: set[int] = set()
    for y in range(-xy_bound, xy_bound + 1):
        if y == 0:
            continue
        den = r * r * y * y
        for x in range(-xy_bound, xy_bound + 1):
            t = r * x + h2
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
    of the block unit each; ``count`` = 1 gives ``member``'s witness.  Raises
    a certified ``ThresholdUnreachable`` where a convex orbit bottoms out
    first: a first witness that is flagged unreachable is its orbit's
    minimum, so the walk raises at the second block.  A first witness that
    failed a core check is returned alone, with its report.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    first = member(query, d, x_threshold=x_threshold)
    if first is None:
        raise NoValidMu(f"d={d} is not a member for any admissible mu")
    if not first.report.core_passed:
        # the walk needs an exact start; from any other it may end in a false bound
        return [first]
    cfg = make_lattice(query.g, d, first.mu)
    start = PellSolution(query.r * first.x + cfg.h_square, query.r * first.y)
    chain = [first]  # the walk's first block is the first witness
    try:
        for sol in islice(block_descent(pell_problem(cfg, query), start), 1, count):
            chain.append(_build_witness(query, cfg, first.x_threshold, sol, sol, True))
    except ThresholdUnreachable as exc:
        x = _decode(query, exc.best)[0]
        raise ThresholdUnreachable(
            f"x on the orbit's w != 0 blocks is bounded below by {short_int(x)}", best=exc.best
        ) from None
    return chain
