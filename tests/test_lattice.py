import random
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from k3witness import (
    CongruenceFailure,
    FamilyQuery,
    MixedLattices,
    NotAUnit,
    NotInLattice,
    class_representatives,
    det_check,
    divisor,
    dot_H,
    inner,
    make_lattice,
    member,
    unit_square_roots,
)
import k3witness.pell
from k3witness.families import rhs_value
from k3witness.lattice import _sqrts_mod
from k3witness.selfcheck import _suite_gamma, _suite_lattice


@st.composite
def configs(draw, g_max=12):
    g = draw(st.integers(3, g_max))
    h2 = 2 * g - 2
    units = [m for m in range(1, h2) if gcd(m, h2) == 1]
    mu = draw(st.sampled_from(units))
    k = draw(st.integers(0, 40))
    return make_lattice(g, mu * mu + 4 * (g - 1) * k, mu)


class TestMakeLattice:
    def test_basic_valid(self):
        cfg = make_lattice(5, 17, 1)
        assert (cfg.g, cfg.d, cfg.mu) == (5, 17, 1)
        assert cfg.h_square == 8

    def test_square_discriminant_flagged_not_fatal(self):
        # a square d is valid lattice data; only the Pell searches reject it
        cfg = make_lattice(5, 9, 3)
        assert (cfg.d, cfg.mu) == (9, 3)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            make_lattice(5, 17, 2)

    def test_congruence_failure(self):
        # 19 = 3 mod 16 while units square to 1 or 9
        with pytest.raises(CongruenceFailure):
            make_lattice(5, 19, 1)

    def test_congruence_checked_mod_4g_minus_4(self):
        # 5 = 1 mod 4 but 5 != 1 mod 8: integral Gram yet an odd diagonal,
        # so the even-lattice congruence must reject it
        with pytest.raises(CongruenceFailure):
            make_lattice(3, 5, 1)

    def test_mu_normalized(self):
        assert make_lattice(5, 17, 9).mu == 1
        assert make_lattice(5, 17, -7).mu == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            make_lattice(2, 17, 1)
        with pytest.raises(ValueError):
            make_lattice(5, 0, 1)


class TestDivisor:
    def test_valid(self):
        cfg = make_lattice(5, 17, 1)
        D = divisor(cfg, 1, 1)
        assert (D.x, D.y) == (1, 1)

    def test_zero(self):
        cfg = make_lattice(5, 17, 1)
        assert divisor(cfg, 0, 0).x == 0

    def test_congruence_rejected(self):
        cfg = make_lattice(5, 17, 1)
        with pytest.raises(NotInLattice):
            divisor(cfg, 2, 1)

    def test_arithmetic_stays_in_lattice(self):
        cfg = make_lattice(5, 17, 1)
        D = divisor(cfg, 1, 1)
        E = divisor(cfg, -7, 1)
        assert (D + E).x == -6
        assert (3 * D).x == 3

    def test_mixed_lattices(self):
        a = divisor(make_lattice(5, 17, 1), 1, 1)
        b = divisor(make_lattice(5, 33, 1), 1, 1)
        with pytest.raises(MixedLattices):
            inner(a, b)


class TestInner:
    def test_polarization_square(self):
        cfg = make_lattice(5, 17, 1)
        assert inner(cfg.H, cfg.H) == 8

    def test_frozen_values(self):
        cfg = make_lattice(5, 17, 1)
        assert inner(divisor(cfg, 1, 1), divisor(cfg, 1, 1)) == -2
        assert inner(divisor(cfg, -7, 1), divisor(cfg, -7, 1)) == 4

    def test_dot_H(self):
        cfg = make_lattice(5, 17, 1)
        assert dot_H(divisor(cfg, -7, 1)) == -7
        assert dot_H(divisor(cfg, 0, 0)) == 0
        assert dot_H(cfg.H) == 8


class TestDetCheck:
    def test_frozen_gram(self):
        cfg = make_lattice(5, 17, 1)
        assert cfg.gram == ((8, 1), (1, -2))
        assert det_check(cfg) == -17

    def test_random_sweep(self):
        ok, detail = _suite_lattice(random.Random(11), 200)
        assert ok, detail


class TestUnitSquareRoots:
    def test_genus_five(self):
        assert unit_square_roots(5, 17) == (1, 7)
        assert unit_square_roots(5, 41) == (3, 5)
        assert unit_square_roots(5, 19) == ()

    def test_genus_three(self):
        assert unit_square_roots(3, 17) == (1, 3)
        assert unit_square_roots(3, 5) == ()

    def test_roots_really_square_to_d(self):
        for g in range(3, 10):
            for d in range(1, 120):
                for mu in unit_square_roots(g, d):
                    assert (mu * mu - d) % (4 * (g - 1)) == 0
                    assert gcd(mu, 2 * g - 2) == 1

    def test_equals_a_table_of_every_unit(self):
        # the former lookup: every unit mu < 2g-2 filed under mu^2 mod 4(g-1)
        cases = 0
        for g in range(3, 201):
            h2 = 2 * g - 2
            table: dict[int, list[int]] = {}
            for mu in range(h2):
                if gcd(mu, h2) == 1:
                    table.setdefault(mu * mu % (2 * h2), []).append(mu)
            for a in range(2 * h2):
                assert unit_square_roots(g, a) == tuple(table.get(a, ())), (g, a)
                cases += 1
            assert unit_square_roots(g, 6 * h2 + 1) == unit_square_roots(g, 1)
        assert cases == 79_596

    # (g, d, roots): 4(g-1) = 2^8 * 5^6, 4 * 2,999,999 (a prime) and 2^10 * 5^8
    LARGE = [
        (1000001, 41, (452429, 703821, 1296179, 1547571)),
        (3000000, 5, (567933, 5432065)),
        (100000001, 41, (41296179, 73547571, 126452429, 158703821)),
        (100000001, 3, ()),
    ]

    @pytest.mark.parametrize("g, d, roots", LARGE)
    def test_large_genus(self, g, d, roots):
        assert unit_square_roots(g, d) == roots

    @pytest.mark.parametrize("g, d, roots", LARGE)
    def test_large_genus_agrees_with_sympy(self, g, d, roots):
        sqrt_mod = pytest.importorskip("sympy.ntheory.residue_ntheory").sqrt_mod
        h2 = 2 * g - 2
        found = sqrt_mod(d, 2 * h2, all_roots=True) or []
        assert tuple(sorted({z % h2 for z in found if gcd(z, h2) == 1})) == roots

    def test_million_genus_member(self):
        w = member(FamilyQuery(1000001, 1, 1, 1), 41)
        assert (w.mu, w.x, w.y, w.threshold_reachable) == (452429, -4018000, -42000, True)
        assert not w.report.failed


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
        clear = class_representatives.cache_clear
        clear()
        fast = [class_representatives(d, rhs) for d, rhs in cases]
        monkeypatch.setattr(k3witness.pell, "_sqrts_mod", _brute_sqrts_mod)
        clear()
        try:
            assert [class_representatives(d, rhs) for d, rhs in cases] == fast
        finally:
            clear()


@given(configs(), st.integers(-25, 25), st.integers(-25, 25))
def test_even_lattice(cfg, y, k):
    D = divisor(cfg, cfg.mu * y + k * cfg.h_square, y)
    assert inner(D, D) % 2 == 0


@given(configs(), st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_inner_symmetric_bilinear(cfg, y1, k1, y2, k2):
    D = divisor(cfg, cfg.mu * y1 + k1 * cfg.h_square, y1)
    E = divisor(cfg, cfg.mu * y2 + k2 * cfg.h_square, y2)
    assert inner(D, E) == inner(E, D)
    assert inner(D + E, D + E) == inner(D, D) + 2 * inner(D, E) + inner(E, E)
    assert inner(3 * D, E) == 3 * inner(D, E)


def test_degree_ideal_is_full():
    # gamma(H) = 1: a divisor with D.H = 1 exists in every configuration
    ok, detail = _suite_gamma(random.Random(5), 100)
    assert ok, detail
