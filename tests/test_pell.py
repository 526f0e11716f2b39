import random
import tracemalloc
from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from k3witness import (
    FamilyQuery,
    PellProblem,
    PellSolution,
    class_representatives,
    default_x_threshold,
    fundamental_unit,
    make_lattice,
    orbit_step,
    push_negative,
    solve_bounded,
)
from k3witness.errors import SquareInput, ThresholdUnreachable
import k3witness.pell
from k3witness.families import pell_problem
from k3witness.pell import (
    _pqa,
    block_unit,
    constrained_orbit_hits,
    negative_unit,
    residue_period,
    unit_power,
)
from k3witness.selfcheck import verify_unit_minimal


def brute_solutions(d, n, box):
    out = set()
    for w in range(-box, box + 1):
        t = n + d * w * w
        if t >= 0:
            u = isqrt(t)
            if u * u == t and u <= box:
                out.add((u, w))
                out.add((-u, w))
    return out


class TestFundamentalUnit:
    def test_spot_values(self):
        assert (fundamental_unit(2).u0, fundamental_unit(2).w0) == (3, 2)
        assert (fundamental_unit(5).u0, fundamental_unit(5).w0) == (9, 4)
        assert (fundamental_unit(17).u0, fundamental_unit(17).w0) == (33, 8)
        assert (fundamental_unit(3).u0, fundamental_unit(3).w0) == (2, 1)
        # a 60-term period
        assert (fundamental_unit(991).u0, fundamental_unit(991).w0) == (
            379516400906811930638014896080,
            12055735790331359447442538767,
        )

    def test_square_input(self):
        for d in (-5, 0, 1, 4, 9, 16, 144):
            with pytest.raises(SquareInput):
                fundamental_unit(d)

    def test_brute_force_small_range(self):
        for d in range(2, 60):
            if isqrt(d) ** 2 == d:
                continue
            unit = fundamental_unit(d)
            assert unit.u0 * unit.u0 - d * unit.w0 * unit.w0 == 1
            for w in range(1, unit.w0):
                t = 1 + d * w * w
                assert isqrt(t) ** 2 != t, f"smaller solution for d={d}"

    def test_negative_unit(self):
        nu = negative_unit(2)
        assert (nu.u0, nu.w0) == (1, 1)
        assert negative_unit(3) is None
        nu17 = negative_unit(17)
        assert nu17.u0**2 - 17 * nu17.w0**2 == -1

    def test_negative_unit_iff_odd_period(self):
        for d in range(2, 2001):
            a0 = isqrt(d)
            if a0 * a0 == d:
                continue
            P, Q, a, period = 0, 1, a0, 0
            while a != 2 * a0:
                P = a * Q - P
                Q = (d - P * P) // Q
                a = (a0 + P) // Q
                period += 1
            neg = negative_unit(d)
            assert (neg is not None) == (period % 2 == 1), d
            if neg is not None:
                unit = fundamental_unit(d)
                t, v = neg.u0, neg.w0
                assert (unit.u0, unit.w0) == (t * t + d * v * v, 2 * t * v), d

    def test_minimality_oracle_rejects_powers(self):
        # 10000141: a 16,312-bit unit, past the range of a float
        for d in (2, 17, 61, 10000141):
            u = fundamental_unit(d)
            sq = unit_power(u, 2)
            assert verify_unit_minimal(d, u.u0, u.w0)
            assert not verify_unit_minimal(d, sq.u0, sq.w0)


class TestOrbitStep:
    def test_forward(self):
        unit = fundamental_unit(17)
        stepped = orbit_step(PellSolution(5, 1), unit, 1)
        assert (stepped.u, stepped.w) == (301, 73)
        assert 301**2 - 17 * 73**2 == 8

    def test_roundtrip(self):
        unit = fundamental_unit(17)
        sol = PellSolution(5, 1)
        assert orbit_step(orbit_step(sol, unit, 1), unit, -1) == sol

    def test_unit_acts_on_trivial(self):
        unit = fundamental_unit(17)
        assert orbit_step(PellSolution(1, 0), unit, 1) == PellSolution(33, 8)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            orbit_step(PellSolution(1, 0), fundamental_unit(17), 2)


class TestSolveBounded:
    def test_spot_memberships(self):
        assert PellSolution(5, 1) in solve_bounded(17, 8)
        assert PellSolution(3, 1) in solve_bounded(17, -8)
        assert PellSolution(1, 0) in solve_bounded(17, 1)

    def test_window_equals_brute_force(self):
        # classical-window contract against a naive double loop
        box = 500
        for d in (2, 3, 5, 6, 7, 10, 13, 17, 21, 29):
            unit = fundamental_unit(d)
            for n in (-19, -8, -4, -1, 1, 4, 8, 12, 25):
                cap = n * (unit.u0 - 1) if n > 0 else -n * (unit.u0 + 1)
                brute = {
                    (u, w)
                    for (u, w) in brute_solutions(d, n, box)
                    if w >= 0 and 2 * d * w * w <= cap
                }
                got = {(s.u, s.w) for s in solve_bounded(d, n)}
                got_in_box = {(u, w) for (u, w) in got if abs(u) <= box and w <= box}
                assert got_in_box == brute, (d, n)

    def test_every_output_is_exact(self):
        for d, n in [(17, 32), (17, -32), (13, 36), (61, -12)]:
            for s in solve_bounded(d, n):
                assert s.u * s.u - d * s.w * s.w == n

    def test_canonical_order(self):
        reps = solve_bounded(17, 32)
        assert list(reps) == sorted(reps, key=lambda p: (p.w, p.u))


def problem_through(d, u, w, r, rng, hmax):
    """A PellProblem(d, u^2 - d*w^2, mu, r, h) with h <= hmax whose constraint
    (u, w) meets, drawn from every such (mu, h); None where there is none.
    Needs r | w."""
    shapes = [
        (mu, h)
        for h in range(1, hmax + 1)
        for mu in range(h)
        if (mu * mu - d) % h == 0 and (u - mu * w - h) % (r * h) == 0
    ]
    if not shapes:
        return None
    mu, h = rng.choice(shapes)
    return PellProblem(d, u * u - d * w * w, mu, r, h)


def unit_order_mod(d, m):
    """The least T >= 1 with unit^T = 1 (mod m), by walking the powers."""
    unit = fundamental_unit(d)
    e, f, k = unit.u0 % m, unit.w0 % m, 1
    while (e, f) != (1 % m, 0):
        e, f, k = (e * unit.u0 + d * f * unit.w0) % m, (e * unit.w0 + f * unit.u0) % m, k + 1
    return k


def coset_orbit(problem, hit, t, box):
    """Solutions within |u|, |w| <= box on the orbit of ``hit`` under unit^t,
    both ways; each one meets the constraints."""
    step = unit_power(fundamental_unit(problem.d), t)
    covered = set()
    for direction in (1, -1):
        cur, grace = hit, 3
        while grace:
            assert problem.meets_constraints(cur.u, cur.w)
            if abs(cur.u) <= box and abs(cur.w) <= box:
                covered.add((cur.u, cur.w))
            else:
                grace -= 1
            cur = orbit_step(cur, step, direction)
    return covered


class TestConstrained:
    def _reached(self, prob):
        return {
            (u, w)
            for hit, t in constrained_orbit_hits(prob)
            for (u, w) in coset_orbit(prob, hit, t, 10**4)
        }

    def test_plus_family_seed(self):
        cfg = make_lattice(5, 17, 1)
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, 1))
        assert (10, 2) in self._reached(prob)  # (x, y) = (1, 1): u = 2x + 8, w = 2y

    def test_minus_family_seed(self):
        cfg = make_lattice(5, 17, 1)
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, -1))
        assert (-6, 2) in self._reached(prob)  # (x, y) = (-7, 1)

    def test_certified_empty(self):
        # u^2 - 2w^2 = 1 forces u odd, so u = h = 0 (mod 2) is impossible
        prob = PellProblem(2, 1, 0, 1, 2)
        assert constrained_orbit_hits(prob) == ()
        assert residue_period(prob) >= 1
        assert class_representatives(2, 1)

    def test_large_residue_period(self):
        # p = 2,000,003 = 3 (mod 8) is inert in Z[sqrt(2)]; the unit's order
        # mod p is p + 1, past any fixed step budget of a few million
        prob = PellProblem(2, 1, 0, 2_000_003, 1)
        assert residue_period(prob) == 2_000_004

    def test_residue_period_keeps_no_table(self):
        # p = 200,029 = 5 (mod 8) is inert too, with T = p + 1; a table of the
        # unit's powers mod p would hold about 25 MB, the walk holds a few ints
        prob = PellProblem(2, 1, 0, 200_029, 1)
        k3witness.pell._period.cache_clear()
        tracemalloc.start()
        try:
            assert residue_period(prob) == 200_030
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_empty_matches_brute_force(self):
        rng = random.Random(99)
        nonempty = 0
        for _ in range(150):
            d = rng.choice([2, 3, 5, 6, 7, 8, 10, 11, 13, 17, 19, 23])
            n = rng.choice([k for k in range(-30, 31) if k != 0])
            if rng.random() < 0.7:  # a norm, so that the bare equation is solvable
                n = rng.randint(-9, 9) ** 2 - d * rng.randint(0, 3) ** 2 or n
            r = rng.randint(1, 3)
            sols = [(u, w) for (u, w) in brute_solutions(d, n, 2000) if w % r == 0]
            # half the draws take (mu, h) from a solution, so that many are non-empty
            prob = None
            if sols and rng.random() < 0.5:
                prob = problem_through(d, *rng.choice(sorted(sols)), r, rng, 9)
            if prob is None:
                h = rng.choice([m for m in range(1, 10) if any((z * z - d) % m == 0 for z in range(m))])
                mu = rng.choice([z for z in range(h) if (z * z - d) % h == 0])
                prob = PellProblem(d, n, mu, r, h)
            mu, h = prob.mu, prob.h
            hits = constrained_orbit_hits(prob)
            brute = {
                (u, w)
                for (u, w) in brute_solutions(d, n, 2000)
                if w % r == 0 and (u - mu * w - h) % (r * h) == 0
            }
            if not hits:
                assert not brute, prob
                continue
            nonempty += 1
            covered = set()
            for hit, t in hits:
                assert hit.u * hit.u - d * hit.w * hit.w == n and prob.meets_constraints(hit.u, hit.w)
                covered |= coset_orbit(prob, hit, t, 2000)
            assert brute <= covered, (prob, sorted(brute - covered)[:4])
        assert nonempty >= 60, nonempty

    def test_constrained_phases_form_one_coset(self):
        # the lemma of the module docstring: per seed, the phases k where
        # unit^k * seed meets the constraint, scanned here over all T phases
        # on residues mod M, are one coset k0 + t*Z with k0 < T_r and
        # t | T_r | T, T_r the unit's order mod r, and the hit is
        # (unit^k0 * seed, t)
        rng = random.Random(60000)
        seen = {"t < T": 0, "k0 > 0": 0, "r > 1": 0, "T_r < T": 0}
        for _ in range(300):
            d, r = rng.choice(_NONSQUARE), rng.randint(1, 3)
            # n, and half the time (mu, h), from a point (a, b) with r | b,
            # so that most draws have phases
            a, b = rng.randint(-20, 20), r * rng.randint(0, 2)
            if a * a == d * b * b:
                continue
            prob = problem_through(d, a, b, r, rng, 40) if rng.random() < 0.5 else None
            if prob is None:
                h = rng.randint(1, 40)
                roots = [z for z in range(h) if (z * z - d) % h == 0]
                if not roots:
                    continue
                prob = PellProblem(d, a * a - d * b * b, rng.choice(roots), r, h)
            n, h = prob.rhs, prob.h
            unit, M, T = fundamental_unit(d), r * h, residue_period(prob)
            T_r = unit_order_mod(d, r)
            expected = set()
            for rep in class_representatives(d, n):
                for seed in (rep, PellSolution(-rep.u, -rep.w)):
                    u, w, phases = seed.u % M, seed.w % M, []
                    for k in range(T):
                        if prob.meets_constraints(u, w):
                            phases.append(k)
                        u, w = (u * unit.u0 + d * w * unit.w0) % M, (u * unit.w0 + w * unit.u0) % M
                    if not phases:
                        continue
                    k0 = phases[0]
                    t = phases[1] - k0 if len(phases) > 1 else T
                    assert T % t == 0 and phases == list(range(k0, T, t)), (prob, seed, phases)
                    assert k0 < T_r and T_r % t == 0 and T % T_r == 0, (prob, seed, T_r)
                    expected.add((orbit_step(seed, unit_power(unit, k0), 1), t))
                    seen["t < T"] += t < T
                    seen["k0 > 0"] += k0 > 0
                    seen["r > 1"] += r > 1
                    seen["T_r < T"] += T_r < T
            assert set(constrained_orbit_hits(prob)) == expected, prob
        assert min(seen.values()) >= 20, seen

    def test_scan_walks_t_r_powers(self, monkeypatch):
        # the scan draws the unit's first T_r powers mod M, T_r its order mod
        # r, once per problem; T comes from the cached period, not a walk
        real, drawn = k3witness.pell._unit_powers_mod, []

        def counting(*args):
            for power in real(*args):
                drawn.append(power)
                yield power

        monkeypatch.setattr(k3witness.pell, "_unit_powers_mod", counting)
        rng = random.Random(61)
        problems = [pell_problem(make_lattice(10001, 41, 3821), FamilyQuery(10001, 3, 1, 1))]
        while len(problems) < 100:
            d, r = rng.choice(_NONSQUARE), rng.randint(1, 4)
            a, b = rng.randint(-20, 20), r * rng.randint(0, 2)
            if a * a != d * b * b:
                problems += filter(None, [problem_through(d, a, b, r, rng, 40)])
        ratios = []
        for prob in problems:
            T = residue_period(prob)
            drawn.clear()
            assert constrained_orbit_hits(prob), prob
            T_r = unit_order_mod(prob.d, prob.r)
            assert len(drawn) == T_r, (prob, len(drawn), T_r, T)
            ratios.append(T // T_r)
        assert ratios[0] == 125 and sum(q > 1 for q in ratios) >= 20, ratios

    def test_period_preserves_constraints(self):
        cfg = make_lattice(5, 17, 1)
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, 1))
        step, T = block_unit(prob)
        assert T == residue_period(prob)
        for hit, t in constrained_orbit_hits(prob):
            assert T % t == 0
            for unit in (step, unit_power(fundamental_unit(17), t)):
                moved = orbit_step(hit, unit, 1)
                assert prob.meets_constraints(moved.u, moved.w)
                assert prob.residual(moved.u, moved.w) == 0

    def test_problem_validation(self):
        with pytest.raises(SquareInput):
            PellProblem(4, 8)
        with pytest.raises(ValueError):
            PellProblem(17, 0)
        for r, h in ((0, 1), (1, 0), (-2, 3)):
            with pytest.raises(ValueError):
                PellProblem(17, 8, 0, r, h)
        # h = 5 needs a square root mu of d = 2 mod 5, and there is none
        for mu in range(5):
            with pytest.raises(ValueError):
                PellProblem(2, 1, mu, 1, 5)
        assert PellProblem(17, 8, 2, 1, 13).meets_constraints(2, 1)

    def test_solutions_order_by_u_then_w(self):
        assert PellSolution(-10, 5) < PellSolution(-9, -7) < PellSolution(-9, 2)
        assert min(PellSolution(3, 1), PellSolution(3, -1)) == PellSolution(3, -1)


class TestPushNegative:
    # thresholds are in u; for (5, 2, 2) u = 2x + 8, so x <= t is u <= 2t + 8

    def _plus_problem(self):
        cfg = make_lattice(5, 17, 1)
        return pell_problem(cfg, FamilyQuery(5, 2, 2, 1))

    def test_reaches_threshold(self):
        prob = self._plus_problem()
        # (x, y) = (-9, -1), i.e. (u, w) = (-10, -2), sits at the threshold
        sol = PellSolution(-10, -2)
        pushed = push_negative(sol, prob, -10, block_unit(prob)[0])
        assert pushed == sol
        assert prob.meets_constraints(pushed.u, pushed.w)

    def test_walks_down_from_above(self):
        prob = self._plus_problem()
        sol = PellSolution(-10, -2)
        pushed = push_negative(sol, prob, -192, block_unit(prob)[0])  # x <= -100
        assert pushed.u <= -192
        assert prob.residual(pushed.u, pushed.w) == 0

    def test_already_satisfied_returns_start(self):
        prob = self._plus_problem()
        sol = PellSolution(10, 2)  # x = 1
        assert push_negative(sol, prob, 10, block_unit(prob)[0]) == sol

    def test_certified_unreachable(self):
        # rhs > 0 with every constrained class on a positive-u orbit
        cfg = make_lattice(4, 13, 1)
        prob = pell_problem(cfg, FamilyQuery(4, 3, 1, 1))
        sol = PellSolution(33, 9)  # (x, y) = (9, 3); u = 3x + 6
        with pytest.raises(ThresholdUnreachable) as exc_info:
            push_negative(sol, prob, -6, block_unit(prob)[0])  # x <= -4
        assert exc_info.value.certified
        assert exc_info.value.best is not None

    def test_rejects_non_solution(self):
        prob = self._plus_problem()
        with pytest.raises(ValueError):
            push_negative(PellSolution(11, 2), prob, -10, block_unit(prob)[0])


class TestThresholdDefault:
    def test_values(self):
        assert default_x_threshold(8, 2) == -9
        assert default_x_threshold(8, 1) == -9
        assert default_x_threshold(10, 4) == -5
        assert default_x_threshold(12, 3) == -7

    def test_stability_inequality_strict(self):
        # h2 + (rank-1)*x < 0 must hold at the threshold
        for h2 in range(4, 23, 2):
            for rank in range(1, 5):
                thr = default_x_threshold(h2, rank)
                assert h2 + (rank - 1) * thr < 0 or rank == 1


_NONSQUARE = [d for d in range(2, 80) if isqrt(d) ** 2 != d]


@given(st.sampled_from(_NONSQUARE), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(0, 6))
def test_orbit_step_preserves_norm(d, u, w, k):
    unit = fundamental_unit(d)
    n = u * u - d * w * w
    cur = PellSolution(u, w)
    for _ in range(k):
        cur = orbit_step(cur, unit, 1)
    assert cur.u * cur.u - d * cur.w * cur.w == n
    back = cur
    for _ in range(k):
        back = orbit_step(back, unit, -1)
    assert back == PellSolution(u, w)


@given(st.sampled_from(_NONSQUARE), st.integers(0, 12), st.integers(0, 12))
def test_unit_power_is_a_homomorphism(d, j, k):
    unit = fundamental_unit(d)
    a = unit_power(unit, j)
    b = unit_power(unit, k)
    ab = unit_power(unit, j + k)
    combined = orbit_step(PellSolution(a.u0, a.w0), b, 1)
    assert (combined.u, combined.w) == (ab.u0, ab.w0)
    assert a.u0 * a.u0 - d * a.w0 * a.w0 == 1


def pqa_with_seen_set(d, P, Q):
    """The PQa expansion stopped by a set of the states seen: the reference
    for ``_pqa``'s stop at the return of the first reduced state."""
    s = isqrt(d)
    g_pp, g_p, b_pp, b_p = -P, Q, 1, 0
    seen = set()
    while True:
        a = (P + s if Q > 0 else P + s + 1) // Q
        g_pp, g_p = g_p, a * g_p + g_pp
        b_pp, b_p = b_p, a * b_p + b_pp
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) in seen:
            return
        seen.add((P, Q))
        yield g_p, b_p, Q


def test_pqa_stops_where_the_first_state_repeats():
    starts = 0
    for d in range(2, 400):
        if isqrt(d) ** 2 == d:
            continue
        for Q in [q for q in range(-24, 25) if q]:
            for P in range(-2 * abs(Q), 2 * abs(Q) + 1):
                if (d - P * P) % Q == 0:
                    # one item past the reference, so that a missed stop fails, not hangs
                    ref = list(pqa_with_seen_set(d, P, Q))
                    assert list(islice(_pqa(d, P, Q), len(ref) + 1)) == ref, (d, P, Q)
                    starts += 1
    assert starts > 60_000


def test_constrained_output_order_is_canonical():
    cfg = make_lattice(5, 17, 1)
    for sign in (1, -1):
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, sign))
        key = [(abs(s.w), s.u, s.w) for s, _ in constrained_orbit_hits(prob)]
        assert key == sorted(key)


class TestClassRepresentatives:
    def test_exactness(self):
        for d, n in [(17, 32), (17, -32), (13, 36), (41, -31), (97, 8)]:
            for rep in class_representatives(d, n):
                assert rep.u * rep.u - d * rep.w * rep.w == n

    def test_caches_are_shared(self):
        a = class_representatives(17, 32)
        b = class_representatives(17, 32)
        assert a is b

    def test_completeness_at_scale(self):
        # every brute-force solution must lie on the orbit of some
        # representative, for d and |N| as large as the enumerator uses
        rng = random.Random(2024)
        box = 4000
        exercised = 0
        while exercised < 60:
            d = rng.randint(2, 2000)
            if isqrt(d) ** 2 == d:
                continue
            n = rng.choice([k for k in range(-1400, 1401) if k != 0])
            brute = set()
            for w in range(box + 1):
                t = n + d * w * w
                if t >= 0:
                    u = isqrt(t)
                    if u * u == t and u <= box:
                        for su in {u, -u}:
                            for sw in {w, -w}:
                                brute.add((su, sw))
            if not brute:
                continue
            exercised += 1
            unit = fundamental_unit(d)
            covered = set()
            for rep in class_representatives(d, n):
                for su in (1, -1):
                    for sw in (1, -1):
                        cur = PellSolution(su * rep.u, sw * rep.w)
                        for direction in (1, -1):
                            walker, grace = cur, 2
                            while grace:
                                if abs(walker.u) <= box and abs(walker.w) <= box:
                                    covered.add((walker.u, walker.w))
                                else:
                                    grace -= 1
                                walker = orbit_step(walker, unit, direction)
            assert brute <= covered, (d, n, sorted(brute - covered)[:4])


def test_a_unit_step_never_lowers_a_positive_seed():
    # the bound the module docstring proves, on which _contenders keeps no
    # convex rule: for rhs > 0 every seed s (a class representative or its
    # negation) with u > 0 has u(unit * s) >= u(s); equality needs w0 = 1
    seeds = w_negative = 0
    for d in _NONSQUARE:
        unit = fundamental_unit(d)
        for n in range(1, 400):
            for rep in class_representatives(d, n):
                for s in (rep, PellSolution(-rep.u, -rep.w)):
                    if s.u > 0:
                        assert orbit_step(s, unit, 1).u >= s.u, (d, n, s)
                        seeds += 1
                        w_negative += s.w < 0
    assert seeds >= 10_000 and w_negative >= 1000, (seeds, w_negative)
    # the equality case: d = 8, u0 = 3, w0 = 1
    assert PellSolution(-36, 9) in class_representatives(8, 648)
    assert orbit_step(PellSolution(36, -9), fundamental_unit(8), 1) == PellSolution(36, 9)
