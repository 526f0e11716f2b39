import random

import pytest

from k3witness import (
    MixedLattices,
    MukaiVector,
    NegativeDimension,
    divisor,
    inner,
    is_primitive,
    make_lattice,
    mukai_square_target,
    pairing,
    reflect,
    tensorize,
    type_vector,
)
from k3witness.selfcheck import _suite_isometries, _suite_twist_pell


def _cfg5():
    return make_lattice(5, 17, 1)


class TestPairing:
    def test_isotropic_octic(self):
        cfg = _cfg5()
        v = type_vector(cfg, 2, 2)
        assert pairing(v, v) == 0

    def test_hyperbolic_pair(self):
        cfg = _cfg5()
        zero = divisor(cfg, 0, 0)
        v = MukaiVector(0, zero, 1)
        w = MukaiVector(1, zero, 0)
        assert pairing(v, w) == -1

    def test_genus_six(self):
        cfg = make_lattice(6, 21, 1)
        v = type_vector(cfg, 2, 2)
        assert pairing(v, v) == 2

    def test_general_formula(self):
        # (r, H, s)^2 = 2g - 2 - 2rs
        for g, d, mu in [(5, 17, 1), (7, 73, 7), (9, 1, 1)]:
            cfg = make_lattice(g, d, mu)
            for r in range(1, 4):
                for s in range(1, 4):
                    v = type_vector(cfg, r, s)
                    assert pairing(v, v) == 2 * g - 2 - 2 * r * s

    def test_mixed_lattices(self):
        v = type_vector(make_lattice(5, 17, 1), 1, 1)
        w = type_vector(make_lattice(5, 33, 1), 1, 1)
        with pytest.raises(MixedLattices):
            pairing(v, w)


class TestTensorize:
    def test_plus_witness(self):
        cfg = _cfg5()
        v = type_vector(cfg, 2, 2)
        tv = tensorize(v, divisor(cfg, 1, 1))
        assert (tv.r0, tv.s0) == (2, 1)
        assert (tv.c1.x, tv.c1.y) == (10, 2)
        assert inner(tv.c1, tv.c1) == 4

    def test_minus_witness(self):
        cfg = _cfg5()
        v = type_vector(cfg, 2, 2)
        tv = tensorize(v, divisor(cfg, -7, 1))
        assert (tv.r0, tv.s0) == (2, -1)
        assert inner(tv.c1, tv.c1) == -4

    def test_zero_divisor_is_identity(self):
        cfg = _cfg5()
        v = type_vector(cfg, 3, 2)
        assert tensorize(v, divisor(cfg, 0, 0)) == v

    def test_isometry_random(self):
        # twists and the rank/Euler swap: isometries, additivity, involution
        ok, detail = _suite_isometries(random.Random(23), 300)
        assert ok, detail

    def test_additive_in_divisor(self):
        ok, detail = _suite_isometries(random.Random(29), 300)
        assert ok, detail


class TestReflect:
    def test_swap(self):
        cfg = _cfg5()
        v = MukaiVector(2, cfg.H, 1)
        assert reflect(v) == MukaiVector(1, cfg.H, 2)

    def test_fixed_point(self):
        cfg = _cfg5()
        v = MukaiVector(3, cfg.H, 3)
        assert reflect(v) == v

    def test_involution_and_isometry(self):
        ok, detail = _suite_isometries(random.Random(31), 200)
        assert ok, detail


class TestPrimitivity:
    def test_polarized_vector_always_primitive(self):
        cfg = _cfg5()
        for r in range(-4, 5):
            for s in range(-4, 5):
                assert is_primitive(MukaiVector(r, cfg.H, s))

    def test_doubled_vector(self):
        cfg = _cfg5()
        assert not is_primitive(MukaiVector(2, 2 * cfg.H, 2))

    def test_unit_component(self):
        cfg = _cfg5()
        assert is_primitive(MukaiVector(0, divisor(cfg, 0, 0), 1))

    def test_zero_vector(self):
        cfg = _cfg5()
        assert not is_primitive(MukaiVector(0, divisor(cfg, 0, 0), 0))


class TestModuliShape:
    def test_surface_case(self):
        shape = mukai_square_target(5, 2, 2)
        assert (shape.mukai_square, shape.dimension, shape.hilbert_length) == (0, 2, 1)

    def test_fourfold_case(self):
        shape = mukai_square_target(6, 2, 2)
        assert (shape.mukai_square, shape.dimension, shape.hilbert_length) == (2, 4, 2)

    def test_isotropic_line(self):
        for r in range(1, 5):
            for s in range(1, 5):
                assert mukai_square_target(r * s + 1, r, s).mukai_square == 0

    def test_negative_dimension(self):
        with pytest.raises(NegativeDimension):
            mukai_square_target(3, 2, 2)


def test_twist_euler_component_matches_pell_relation():
    # T_D(r, H, s) ends in sign*1 exactly when (x, y) solves the quadratic relation
    ok, detail = _suite_twist_pell(random.Random(37), 500)
    assert ok, detail
