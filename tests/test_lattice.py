import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from k3witness import (
    CongruenceFailure,
    MixedLattices,
    NotAUnit,
    NotInLattice,
    det_check,
    divisor,
    dot_H,
    inner,
    make_lattice,
    unit_square_roots,
)
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
