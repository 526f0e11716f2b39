import pytest

from k3witness import (
    FamilyQuery,
    HilbertClass,
    bb_pair_with_H,
    bb_square,
    divisor,
    dot_H,
    enumerate_family,
    hilbert_class,
    inner,
    make_lattice,
    member,
    verify_witness,
)
from k3witness.hilbert import exceptional_coefficient


class TestEpsRule:
    def test_rule(self):
        assert exceptional_coefficient(1) == 0
        assert exceptional_coefficient(2) == 1
        assert exceptional_coefficient(7) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            exceptional_coefficient(0)
        with pytest.raises(ValueError):
            HilbertClass(make_lattice(5, 17, 1).H, 1, 0)


class TestBBSquare:
    def test_surface_case(self):
        # n = 1: q is just the intersection square
        q = FamilyQuery(5, 2, 2, 1)
        w = member(q, 17)
        h1 = hilbert_class(w.F, q.length)
        assert h1.eps == 0
        assert bb_square(h1) == 4 == 2 * 2

    def test_fourfold_case(self):
        # g = 6, type +: F^2 = 6 and q = 6 - 2 = 4 = 2r
        q = FamilyQuery(6, 2, 2, 1)
        w = member(q, 21)
        assert inner(w.F, w.F) == 6
        h1 = hilbert_class(w.F, q.length)
        assert h1.eps == 1
        assert bb_square(h1) == 4

    def test_eps_zero_reduces_to_intersection(self):
        cfg = make_lattice(5, 17, 1)
        for coords in [(1, 1), (-7, 1), (8, 0)]:
            F = divisor(cfg, *coords)
            assert bb_square(HilbertClass(F, 0, 3)) == inner(F, F)

    def test_quadratic_scaling(self):
        cfg = make_lattice(5, 17, 1)
        F = divisor(cfg, 1, 1)
        for n in (1, 2, 5):
            for eps in (0, 1, 2):
                for a in (-3, -1, 0, 2, 4):
                    h = HilbertClass(F, eps, n)
                    scaled = HilbertClass(a * F, a * eps, n)
                    assert bb_square(scaled) == a * a * bb_square(h)


class TestBBPairing:
    def test_pairing_is_f_orthogonal(self):
        cfg = make_lattice(5, 17, 1)
        F = divisor(cfg, -7, 1)
        for eps in (0, 1, 5):
            assert bb_pair_with_H(HilbertClass(F, eps, 2)) == -7

    def test_zero_class(self):
        cfg = make_lattice(5, 17, 1)
        zero = divisor(cfg, 0, 0)
        assert bb_pair_with_H(HilbertClass(zero, 1, 4)) == 0

    def test_witness_residue(self):
        # b(h1, H) = F.H = r*mu*y mod 2g-2
        q = FamilyQuery(5, 2, 2, 1)
        w = member(q, 17)
        b = bb_pair_with_H(hilbert_class(w.F, q.length))
        assert b == dot_H(w.F)
        assert (b - 2 * w.mu * w.y) % 8 == 0


class TestCorollary:
    def test_holds_on_enumerated_witnesses(self):
        for g, r, s in [(5, 2, 2), (6, 2, 2), (7, 2, 3)]:
            for sign in (1, -1):
                q = FamilyQuery(g, r, s, sign)
                for w in enumerate_family(q, 150):
                    report = verify_witness(w, q)
                    assert report["bb_square"].passed
                    assert report["bb_pairing"].passed

    def test_tilde_uses_other_rank(self):
        q = FamilyQuery(7, 3, 2, 1, tilde=True)
        for w in enumerate_family(q, 200):
            h1 = hilbert_class(w.F, q.length)
            assert bb_square(h1) == 2 * 2  # sign * 2s with s = 2

    def test_corrupted_class_fails(self):
        q = FamilyQuery(5, 2, 2, 1)
        w = member(q, 17)
        import dataclasses

        cfg = w.F.config
        bad = dataclasses.replace(w, F=w.F + cfg.H)
        assert not verify_witness(bad, q)["bb_square"].passed
