import random
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from k3witness import (
    FamilyQuery,
    LinearCongruence,
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
from k3witness.errors import K3WitnessError, SquareInput, ThresholdUnreachable
import k3witness.pell
from k3witness.families import pell_problem, rhs_value
from k3witness.pell import (
    _primitive_class_reps,
    _sqrts_mod,
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


def block_orbit(problem, hit, box):
    """Solutions within |u|, |w| <= box on the block orbit of ``hit``, both ways."""
    step, _ = block_unit(problem)
    covered = set()
    for direction in (1, -1):
        cur, grace = hit, 3
        while grace:
            if abs(cur.u) <= box and abs(cur.w) <= box:
                covered.add((cur.u, cur.w))
            else:
                grace -= 1
            cur = orbit_step(cur, step, direction)
    return covered


class TestConstrained:
    def _reached(self, prob):
        return {
            prob.decode(PellSolution(u, w))
            for hit in constrained_orbit_hits(prob)
            for (u, w) in block_orbit(prob, hit, 10**4)
        }

    def test_plus_family_seed(self):
        cfg = make_lattice(5, 17, 1)
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, 1))
        assert (1, 1) in self._reached(prob)

    def test_minus_family_seed(self):
        cfg = make_lattice(5, 17, 1)
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, -1))
        assert (-7, 1) in self._reached(prob)

    def test_certified_empty(self):
        # u^2 - 2w^2 = 1 forces u odd, so u = 0 mod 2 is impossible
        prob = PellProblem(2, 1, (LinearCongruence(1, 0, 0, 2),))
        assert constrained_orbit_hits(prob) == ()
        assert residue_period(prob) >= 1
        assert class_representatives(2, 1)

    def test_large_residue_period(self):
        # p = 2,000,003 = 3 (mod 8) is inert in Z[sqrt(2)]; the unit's order
        # mod p is p + 1, past any fixed step budget of a few million
        prob = PellProblem(2, 1, (LinearCongruence(0, 1, 0, 2_000_003),))
        assert residue_period(prob) == 2_000_004

    def test_empty_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(150):
            d = rng.choice([2, 3, 5, 6, 7, 8, 10, 11, 13, 17, 19, 23])
            n = rng.choice([k for k in range(-30, 31) if k != 0])
            con = LinearCongruence(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 5), rng.randint(1, 9))
            prob = PellProblem(d, n, (con,))
            hits = constrained_orbit_hits(prob)
            brute = {
                (u, w)
                for (u, w) in brute_solutions(d, n, 2000)
                if con.holds(u, w)
            }
            if not hits:
                assert not brute, (d, n, con)
            covered = set()
            for hit in hits:
                assert hit.u * hit.u - d * hit.w * hit.w == n and con.holds(hit.u, hit.w)
                covered |= block_orbit(prob, hit, 2000)
            assert brute <= covered, (d, n, con, sorted(brute - covered)[:4])

    def test_period_preserves_constraints(self):
        cfg = make_lattice(5, 17, 1)
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, 1))
        step, T = block_unit(prob)
        assert T == residue_period(prob)
        for hit in constrained_orbit_hits(prob):
            moved = orbit_step(hit, step, 1)
            assert prob.meets_constraints(moved.u, moved.w)
            assert prob.residual(moved.u, moved.w) == 0

    def test_problem_validation(self):
        with pytest.raises(SquareInput):
            PellProblem(4, 8)
        with pytest.raises(ValueError):
            PellProblem(17, 0)

    def test_decode_rejects_non_integral(self):
        # u = 2x + 1, w = 2y: an even u or an odd w decodes to no integer
        prob = PellProblem(17, 8, u_shift=1, scale=2)
        assert prob.decode(PellSolution(5, 2)) == (2, 1)
        with pytest.raises(K3WitnessError):
            prob.decode_x(4)
        with pytest.raises(K3WitnessError):
            prob.decode(PellSolution(5, 1))


class TestPushNegative:
    def _plus_problem(self):
        cfg = make_lattice(5, 17, 1)
        return pell_problem(cfg, FamilyQuery(5, 2, 2, 1))

    def test_reaches_threshold(self):
        prob = self._plus_problem()
        # (x, y) = (-9, -1), i.e. (u, w) = (-10, -2), sits at the threshold
        sol = prob.solution(-10, -2)
        pushed = push_negative(sol, prob, -9, block_unit(prob)[0])
        assert prob.decode_x(pushed.u) <= -9
        assert prob.meets_constraints(pushed.u, pushed.w)

    def test_walks_down_from_above(self):
        prob = self._plus_problem()
        sol = prob.solution(-10, -2)
        pushed = push_negative(sol, prob, -100, block_unit(prob)[0])
        assert prob.decode_x(pushed.u) <= -100
        assert prob.residual(pushed.u, pushed.w) == 0

    def test_already_satisfied_returns_start(self):
        prob = self._plus_problem()
        sol = prob.solution(10, 2)  # x = 1
        assert push_negative(sol, prob, 1, block_unit(prob)[0]) == sol

    def test_certified_unreachable(self):
        # rhs > 0 with every constrained class on a positive-u orbit
        cfg = make_lattice(4, 13, 1)
        prob = pell_problem(cfg, FamilyQuery(4, 3, 1, 1))
        sol = prob.solution(33, 9)  # (x, y) = (9, 3)
        with pytest.raises(ThresholdUnreachable) as exc_info:
            push_negative(sol, prob, -4, block_unit(prob)[0])
        assert exc_info.value.certified
        assert exc_info.value.best is not None

    def test_rejects_non_solution(self):
        prob = self._plus_problem()
        with pytest.raises(ValueError):
            push_negative(PellSolution(11, 2), prob, -9, block_unit(prob)[0])


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


def test_constrained_output_order_is_canonical():
    cfg = make_lattice(5, 17, 1)
    for sign in (1, -1):
        prob = pell_problem(cfg, FamilyQuery(5, 2, 2, sign))
        key = [(abs(s.w), s.u, s.w) for s in constrained_orbit_hits(prob)]
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


def _brute_sqrts_mod(a, m):
    # the oracle: a scan of every residue, mapped into (-m/2, m/2]
    if m == 1:
        return (0,)
    roots = [z for z in range(m) if (z * z - a) % m == 0]
    return tuple(z if 2 * z <= m else z - m for z in roots)


def _brute_sqrts_mod_many(residues, m):
    # the same scan once for several a: {a: _brute_sqrts_mod(a, m)}
    wanted = {a % m: [] for a in residues}
    for z in range(m):
        found = wanted.get(z * z % m)
        if found is not None:
            found.append(z)
    return {a: tuple(z if 2 * z <= m else z - m for z in wanted[a % m]) for a in residues}


def _prime_powers_dividing(m):
    out, n, p = [], m, 2
    while p * p <= n:
        pj = p
        while n % p == 0:
            out.append(pj)
            pj *= p
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class TestSqrtsMod:
    def test_many_agrees_with_single_scan(self):
        for m in (1, 2, 9, 360, 1001):
            residues = range(m + 3)
            many = _brute_sqrts_mod_many(residues, m)
            assert all(many[a] == _brute_sqrts_mod(a, m) for a in residues)

    def test_every_small_modulus(self):
        rng = random.Random(1500)
        for m in range(1, 1501):
            residues = {0, 1, m - 1, m, rng.randrange(m), rng.randrange(m) ** 2 % m}
            residues.update(pj * rng.randrange(1, 50) for pj in _prime_powers_dividing(m))
            expected = _brute_sqrts_mod_many(residues, m)
            for a in residues:
                assert _sqrts_mod(a, m) == expected[a], (a, m)

    def test_seeded_large_moduli(self):
        # 400 pairs over 50 moduli up to 4*10^5, half of them squares mod m
        rng = random.Random(400_000)
        pairs = 0
        for i in range(50):
            m = 400_000 - i if i < 3 else int(1500 * 266 ** rng.random())
            residues = [rng.randrange(m) ** 2 % m for _ in range(4)]
            residues += [rng.randrange(m) for _ in range(4)]
            expected = _brute_sqrts_mod_many(residues, m)
            for a in residues:
                assert _sqrts_mod(a, m) == expected[a], (a, m)
                pairs += 1
        assert pairs == 400

    def test_powers_of_two_and_mixed(self):
        for k in range(1, 11):
            moduli = {2**k: ()}
            for p, j in ((3, 1), (3, 3), (5, 2), (7, 1), (13, 2), (17, 1)):
                moduli[2**k * p**j] = (p, p**j, 2 * p, 2**k * p)
            for m, extra in moduli.items():
                residues = (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 25, 32, m - 1, m // 2 + 1, *extra)
                expected = _brute_sqrts_mod_many(residues, m)
                for a in residues:
                    assert _sqrts_mod(a, m) == expected[a], (a, m)
        assert _sqrts_mod(0, 1) == _sqrts_mod(5, 1) == (0,)

    def test_class_representatives_match_the_scan(self, monkeypatch):
        rng = random.Random(300)
        cases = []
        while len(cases) < 20:
            g = rng.randint(100, 300)
            d = rng.randint(2, 4 * g)
            if isqrt(d) ** 2 != d:
                r, s = rng.choice((1, 2)), rng.choice((1, 2))
                cases.append((d, rhs_value(FamilyQuery(g, r, s, rng.choice((1, -1))))))
        caches = (class_representatives, _primitive_class_reps, _sqrts_mod)

        def clear():
            for cache in caches:
                cache.cache_clear()

        clear()
        fast = [class_representatives(d, rhs) for d, rhs in cases]
        monkeypatch.setattr(k3witness.pell, "_sqrts_mod", _brute_sqrts_mod)
        clear()
        try:
            assert [class_representatives(d, rhs) for d, rhs in cases] == fast
        finally:
            clear()
