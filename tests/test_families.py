import ast
import dataclasses
import sys

import pytest

from k3witness import (
    DegenerateQuery,
    FamilyQuery,
    K3WitnessError,
    NegativeDimension,
    NoValidMu,
    NotInLattice,
    PellSolution,
    SquareDiscriminant,
    ThresholdUnreachable,
    divisor,
    dot_H,
    enumerate_direct,
    enumerate_family,
    infinitude,
    inner,
    member,
    membership,
    push_negative,
    witness_chain,
)
import k3witness.families
from k3witness.cli import main
from k3witness.families import _decode, _verify_fields
from k3witness.lattice import is_perfect_square, make_lattice, unit_square_roots

KNOWN_GENUS5_DS = {17, 33, 41, 57, 73, 89, 113, 129, 161, 177}


def q522(sign=1):
    return FamilyQuery(5, 2, 2, sign)


class TestMember:
    def test_plus_seventeen(self):
        w = member(q522(1), 17)
        assert w is not None
        assert w.mu == 1
        assert inner(w.F, w.F) == 4
        assert not w.report.failed
        # the witness coordinates solve the quadratic relation exactly
        assert (2 * w.x + 8) ** 2 - 17 * (2 * w.y) ** 2 == 32

    def test_minus_seventeen(self):
        w = member(q522(-1), 17)
        assert inner(w.F, w.F) == -4
        assert not w.report.failed
        assert (2 * w.x + 8) ** 2 - 17 * (2 * w.y) ** 2 == -32

    def test_large_genus_reference_query(self):
        # the first mu reaches, so member walks no other mu (about 1 s; 20 s when
        # every mu was walked)
        w = member(FamilyQuery(800, 1, 1, 1), 3205)
        assert (w.x, w.y, w.mu, w.threshold_reachable) == (-3205, -3, 3, True)
        assert not w.report.failed

    def test_square_discriminant(self):
        with pytest.raises(SquareDiscriminant):
            member(q522(1), 16)

    def test_no_valid_mu(self):
        with pytest.raises(NoValidMu):
            member(q522(1), 19)

    def test_non_member_is_none(self):
        # 65 = 1 mod 16 but u^2 - 65w^2 = +-8 is insoluble mod 5
        assert member(q522(1), 65) is None
        assert member(q522(-1), 65) is None

    def test_degenerate_query_refused(self):
        with pytest.raises(DegenerateQuery):
            member(FamilyQuery(4, 2, 2, 1), 17)

    def test_membership_lists_every_mu(self):
        outcomes = membership(q522(1), 17)
        assert [oc.mu for oc in outcomes] == [1, 7]
        assert all(oc.witness is not None for oc in outcomes)

    def test_zero_rhs_has_no_members(self):
        # sign -, g - 1 = r(s + 1): u^2 = d*w^2 forces square d
        q = FamilyQuery(5, 2, 1, -1)
        from k3witness.families import rhs_value

        assert rhs_value(q) == 0
        assert member(q, 17) is None
        assert enumerate_direct(q, 40) == set()


class TestVerifyWitness:
    def test_passes_and_is_reproducible(self):
        q = q522(1)
        w = member(q, 17)
        rep = _verify_fields(q, make_lattice(q.g, w.d, w.mu), w.D, w.F, w.x_threshold)
        assert not rep.failed
        assert rep.flags() == w.report.flags()

    def test_tampered_y_detected(self):
        q = q522(1)
        w = member(q, 17)
        bad = dataclasses.replace(w, D=w.D + w.D.config.H)
        rep = _verify_fields(q, make_lattice(q.g, bad.d, bad.mu), bad.D, bad.F, bad.x_threshold)
        assert "pell_residual" in rep.failed
        # a Witness carries (x, y) only through D, which stays on the lattice
        with pytest.raises(NotInLattice):
            divisor(w.D.config, w.x, w.y + 1)

    def test_report_carries_compared_integers(self):
        q = q522(-1)
        w = member(q, 33)
        chk = w.report["f_square"]
        assert chk.expected == -4
        assert chk.actual == -4


class TestEnumerate:
    def test_known_determinant_containment(self):
        ds = {w.d for w in enumerate_family(q522(1), 180)}
        ds |= {w.d for w in enumerate_family(q522(-1), 180)}
        assert KNOWN_GENUS5_DS <= ds

    def test_no_members_below_17(self):
        assert enumerate_family(q522(1), 16) == []

    def test_every_enumerated_d_has_admissible_mu(self):
        for sign in (1, -1):
            for w in enumerate_family(q522(sign), 180):
                assert (w.mu * w.mu - w.d) % 16 == 0

    def test_sorted_ascending(self):
        ws = enumerate_family(q522(-1), 180)
        assert [w.d for w in ws] == sorted(w.d for w in ws)

    def test_dmax_validation(self):
        with pytest.raises(ValueError):
            enumerate_family(q522(1), 0)


class TestDirectOracle:
    def test_formula_spot_value(self):
        # (x, y) = (1, 1): ((2 + 8)^2 - 32) / 4 = 17
        assert 17 in enumerate_direct(q522(1), 5)

    def test_agreement_with_enumerator(self):
        enum_ds = {w.d for w in enumerate_family(q522(1), 180)}
        enum_ds |= {w.d for w in enumerate_family(q522(-1), 180)}
        direct = {
            d
            for d in enumerate_direct(q522(1), 500) | enumerate_direct(q522(-1), 500)
            if d <= 180
        }
        assert direct == enum_ds

    def test_direct_subset_general(self):
        for (g, r, s, sign) in [(6, 2, 2, 1), (7, 2, 3, -1), (4, 3, 1, 1)]:
            q = FamilyQuery(g, r, s, sign)
            enum_ds = {w.d for w in enumerate_family(q, 300)}
            direct = {d for d in enumerate_direct(q, 200) if d <= 300}
            assert direct <= enum_ds

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            enumerate_direct(q522(1), 0)


class TestTildeFamily:
    # the tilde family of (g, r, s) is the family of (g, s, r); --tilde builds it

    def test_equal_for_r_equals_s(self, capsys):
        for sign in ("plus", "minus"):
            outs = []
            for tilde in ((), ("--tilde",)):
                argv = ["enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", sign,
                        "--dmax", "180", "--format", "csv", *tilde]
                assert main(argv) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]

    def test_tilde_swaps_roles(self):
        # for r != s the swap changes the family: the tilde family of
        # (10, 3, 2, +) up to 200 is [61, 109, 145, 181]
        assert [w.d for w in enumerate_family(FamilyQuery(10, 2, 3, 1), 200)] == [61, 109, 145, 181]
        assert [w.d for w in enumerate_family(FamilyQuery(10, 3, 2, 1), 200)] == [73, 97, 145, 193]

    def test_tilde_identities(self):
        # the tilde family of (7, 3, 2, -) twists (2, H, 3)
        q = FamilyQuery(7, 2, 3, -1)
        for w in enumerate_family(q, 200):
            # F = H + r*D satisfies F^2 = (2g-2) + r(+-2 - 2s)
            assert inner(w.F, w.F) == 12 + 2 * (-2 - 6)
            assert (dot_H(w.F) - 2 * w.mu * w.y) % 12 == 0


class TestInfinitude:
    def test_first_condition_in_order(self):
        # r = 2 divides g - 1 = 4, which is checked before r|2
        assert infinitude(5, 2, 2) == (True, "r|g-1")

    def test_r_divides_g_minus_one(self):
        assert infinitude(7, 2, 3) == (True, "r|g-1")

    def test_inconclusive(self):
        assert infinitude(8, 3, 5) == (False, None)

    def test_r_divides_two(self):
        assert infinitude(6, 2, 3) == (True, "r|2")

    def test_validation(self):
        with pytest.raises(ValueError):
            infinitude(2, 1, 1)


class TestThresholdFlagging:
    def test_unreachable_membership_still_reported(self):
        # every constrained class for this query has u > 0
        q = FamilyQuery(4, 3, 1, 1)
        w = member(q, 13)
        assert w is not None
        assert not w.threshold_reachable
        assert w.report.core_passed
        assert w.report.failed == ("dh_threshold",)

    def test_unreachable_witness_is_isotropic_valid(self):
        q = FamilyQuery(4, 3, 1, 1)
        w = member(q, 13)
        assert inner(w.F, w.F) == 2 * 3
        assert dot_H(w.F) % 3 == 0

    def test_oracle_still_agrees(self):
        q = FamilyQuery(4, 3, 1, 1)
        enum_ds = {w.d for w in enumerate_family(q, 120)}
        direct = {d for d in enumerate_direct(q, 400) if d <= 120}
        assert direct <= enum_ds
        assert 13 in enum_ds

    def test_user_threshold_witnesses_have_nonzero_y(self):
        # u^2 = 64 puts (x, y) = (0, 0) on a constrained orbit; at threshold 0
        # it must not be reported, since y = 0 makes D a multiple of H
        ws = enumerate_family(FamilyQuery(5, 1, 1, 1), 60, x_threshold=0)
        assert [(w.d, w.x, w.y) for w in ws] == [
            (17, -17, -1), (33, -22, 2), (41, -98, -14), (57, -19, -1)
        ]
        assert all(w.y != 0 and not w.report.failed for w in ws)

    def test_w_zero_orbit_contributes_valid_sibling(self):
        # (6, 0) solves u^2 - 13w^2 = 36 and meets every congruence; the walk
        # from it must report a y != 0 element of its constrained orbit
        from k3witness.families import pell_problem
        from k3witness.lattice import make_lattice
        from k3witness.pell import block_unit

        q = FamilyQuery(4, 3, 1, 1)
        prob = pell_problem(make_lattice(4, 13, 1), q)
        step, _ = block_unit(prob)
        base = PellSolution(6, 0)
        assert prob.meets_constraints(6, 0)
        assert _decode(q, base) == (0, 0)
        # thresholds are in u = 3x + 6: x <= 0 and x <= -4
        for u_thr in (6, -6):
            with pytest.raises(ThresholdUnreachable) as exc_info:
                push_negative(base, prob, u_thr, step)
            assert exc_info.value.certified
            best = exc_info.value.best
            assert best.w != 0
            assert prob.residual(best.u, best.w) == 0
            assert prob.meets_constraints(best.u, best.w)
            assert (best.u, best.w) == (3894, -1080)
        # once that neighbour reaches the threshold, the walk returns it
        assert push_negative(base, prob, 3894, step) == best


    def test_far_threshold_is_reached(self):
        # x falls at every block of a non-convex orbit, so the walk reaches
        # any threshold however many blocks away it is
        w = member(q522(1), 17, x_threshold=-10**300)
        assert w is not None
        assert w.threshold_reachable
        assert w.x <= -10**300
        assert not w.report.failed

    def test_witness_x_as_user_threshold(self):
        # x <= thr is u <= r*thr + 2g-2: a reached witness's own x, given back
        # as the threshold, is reached again by the same solution
        cases = 0
        for g, r, s in ((5, 2, 2), (7, 3, 2), (6, 1, 5), (9, 2, 3), (4, 1, 2)):
            for sign in (1, -1):
                q = FamilyQuery(g, r, s, sign)
                for d in range(2, 201):
                    if is_perfect_square(d) or not unit_square_roots(g, d):
                        continue
                    for oc in membership(q, d):
                        w = oc.witness
                        if w is None or not w.threshold_reachable:
                            continue
                        cases += 1
                        again = {o.mu: o.witness for o in membership(q, d, x_threshold=w.x)}
                        assert again[oc.mu] is not None, (q, d, oc.mu)
                        assert again[oc.mu].threshold_reachable, (q, d, oc.mu)
                        assert again[oc.mu].x == w.x, (q, d, oc.mu)
        assert cases >= 100

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
    )
    def test_certified_minimum_past_the_digit_limit(self):
        # some orbit's certified minimum has more than 640 decimal digits;
        # the walk's messages must not format it
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            w = member(FamilyQuery(5, 1, 1, 1), 314161)
        finally:
            sys.set_int_max_str_digits(old)
        assert w is not None
        assert w.threshold_reachable
        assert not w.report.failed


class TestDecode:
    def test_decode_rejects_non_integral(self):
        # g = 5, r = 2: u = 2x + 8, w = 2y; an odd u or an odd w decodes to no integer
        q = q522(1)
        assert _decode(q, PellSolution(10, 2)) == (1, 1)
        assert _decode(q, PellSolution(-10, -2)) == (-9, -1)
        with pytest.raises(K3WitnessError):
            _decode(q, PellSolution(9, 2))
        with pytest.raises(K3WitnessError):
            _decode(q, PellSolution(10, 1))


class TestWitnessChain:
    def test_descending_chain(self):
        chain = witness_chain(q522(1), 17, 6)
        xs = [w.x for w in chain]
        assert all(a > b for a, b in zip(xs, xs[1:]))
        assert not any(w.report.failed for w in chain)

    def test_long_chain_past_the_digit_limit(self):
        # the last witnesses have x of more than 4300 decimal digits
        chain = witness_chain(q522(1), 17, 1300)
        assert len(chain) == 1300
        assert not any(w.report.failed for w in chain)
        assert abs(chain[-1].x).bit_length() > 14300

    def test_chain_rejects_unreachable(self):
        with pytest.raises(ThresholdUnreachable):
            witness_chain(FamilyQuery(4, 3, 1, 1), 13, 3)

    def test_chain_count_validation(self):
        with pytest.raises(ValueError):
            witness_chain(q522(1), 17, 0)

    def test_member_d_validation(self):
        with pytest.raises(ValueError):
            member(q522(1), 0)


class TestQueryValidation:
    def test_bad_sign(self):
        with pytest.raises(ValueError):
            FamilyQuery(5, 2, 2, 0)

    def test_bad_genus(self):
        with pytest.raises(ValueError):
            FamilyQuery(2, 1, 1, 1)

    def test_g_below_rs(self):
        with pytest.raises(NegativeDimension):
            FamilyQuery(3, 2, 2, 1)

    def test_twist_rank(self):
        # the twisted vector is (r, H, s): F = H + r*D in either order of r, s
        for r, s in ((2, 3), (3, 2)):
            q = FamilyQuery(7, r, s, 1)
            assert q.length == 1
            ws = enumerate_family(q, 200)
            assert ws
            assert all(w.F == w.D.config.H + r * w.D for w in ws)


def test_families_takes_only_the_search_from_pell():
    # the constrained search and its walks live in pell: families imports the
    # two types, the search and the block descent, and no module object
    with open(k3witness.families.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "pell":
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            taken |= {a.name for a in node.names if a.name.rpartition(".")[2] == "pell"}
    allowed = {"PellProblem", "PellSolution", "constrained_search", "block_descent"}
    assert taken and taken <= allowed, sorted(taken - allowed)
