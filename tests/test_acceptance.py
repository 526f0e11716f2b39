"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is exact integer equality; there are no tolerances anywhere.
The witness sweep shared by several criteria covers g in 3..12 and
r, s in 1..4 with g > r*s, both signs, both orderings (plain and swapped),
for all non-square d <= 2000.
"""

import hashlib
import random
import time
from math import isqrt

import pytest

from k3witness import (
    FamilyQuery,
    MukaiVector,
    dot_H,
    enumerate_family,
    fundamental_unit,
    hilbert_class,
    infinitude,
    inner,
    orbit_step,
    solve_bounded,
    tensorize,
    witness_chain,
)
from k3witness.hilbert import bb_square
from k3witness.pell import PellSolution
from k3witness.selfcheck import _suite_isometries, _suite_lattice, verify_unit_minimal

KNOWN_GENUS5_DS = {17, 33, 41, 57, 73, 89, 113, 129, 161, 177}

# SHA-256 over one line per sweep witness, in sweep order; pins every
# (d, mu, x, y, seed, reachability) the grid produces
SWEEP_COUNT = 31492
SWEEP_SHA256 = "91685b52961424d1bbcd1e8ad21f0a596315e4ef9fbaddc53275156cb1839de9"


ACCEPTANCE_LINES: list[str] = []


def report(cid, detail):
    # echoed at the end of the run by the terminal-summary hook in conftest
    line = f"ACCEPTANCE C{cid} PASS: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def sweep():
    """(query, witness) pairs over the full acceptance grid, d <= 2000."""
    items = []
    for g in range(3, 13):
        for r in range(1, 5):
            for s in range(1, 5):
                if g <= r * s:
                    continue
                for sign in (1, -1):
                    for tilde in (False, True):
                        q = FamilyQuery(g, r, s, sign, tilde)
                        for w in enumerate_family(q, 2000):
                            items.append((q, w))
    return items


def test_sweep_digest(sweep):
    h = hashlib.sha256()
    for q, w in sweep:
        line = (
            f"{q.g},{q.r},{q.s},{q.sign},{q.tilde},{w.d},{w.mu},{w.x},{w.y},"
            f"{w.seed},{w.threshold_reachable}\n"
        )
        h.update(line.encode())
    assert len(sweep) == SWEEP_COUNT
    assert h.hexdigest() == SWEEP_SHA256


def test_criterion_1_genus5_determinant_list():
    t0 = time.time()
    ds = set()
    for sign in (1, -1):
        ds |= {w.d for w in enumerate_family(FamilyQuery(5, 2, 2, sign), 180)}
    elapsed = time.time() - t0
    assert KNOWN_GENUS5_DS <= ds, sorted(KNOWN_GENUS5_DS - ds)
    assert elapsed < 10.0
    report(1, f"d-list contains {sorted(KNOWN_GENUS5_DS)} (found {sorted(ds)}) in {elapsed:.2f}s")


def test_criterion_2_witness_identities(sweep):
    assert sweep, "sweep produced no witnesses"
    for q, w in sweep:
        g, rr, ss, sign = q.g, q.twist_rank, q.other_rank, q.sign
        h2 = 2 * g - 2
        cfg = w.D.config
        # pell residual, recomputed from the raw coordinates
        assert (rr * w.x + h2) ** 2 - w.d * (rr * w.y) ** 2 == 4 * (g - 1) * (
            sign * rr - rr * ss + g - 1
        )
        # mu congruence
        assert (w.x - w.mu * w.y) % h2 == 0
        # F identities
        assert inner(w.F, w.F) == h2 + rr * (2 * sign - 2 * ss)
        assert (dot_H(w.F) - rr * w.mu * w.y) % h2 == 0
        # the twist really lands on (rr, F, sign)
        tv = tensorize(MukaiVector(rr, cfg.H, ss), w.D)
        assert tv == MukaiVector(rr, w.F, sign)
    report(2, f"{len(sweep)} witnesses satisfy all identities exactly")


def test_criterion_3_bb_corollary(sweep):
    for q, w in sweep:
        h1 = hilbert_class(w.F, q.length)
        assert h1.eps == (0 if q.length == 1 else 1)
        assert bb_square(h1) == q.sign * 2 * q.twist_rank
    report(3, f"q(h1) = sign*2*rank for all {len(sweep)} witnesses")


def test_criterion_4_isotropic_specialization(sweep):
    iso = [(q, w) for q, w in sweep if q.g == q.r * q.s + 1]
    assert iso, "no isotropic witnesses in sweep"
    for q, w in iso:
        rr = q.twist_rank
        assert inner(w.F, w.F) == q.sign * 2 * rr
        assert dot_H(w.F) % rr == 0
    report(4, f"{len(iso)} isotropic witnesses satisfy F^2 = sign*2*rank, F.H = 0 mod rank")


def _brute_by_rhs(d, box, n_cap):
    """All (u, w) with |u|, |w| <= box and 0 < |u^2 - d w^2| <= n_cap."""
    by_rhs = {}
    for u in range(box + 1):
        uu = u * u
        w_lo = isqrt(max(uu - n_cap, 0) // d)
        w_hi = isqrt((uu + n_cap) // d) + 1
        for w in range(max(w_lo - 1, 0), min(w_hi, box) + 1):
            n = uu - d * w * w
            if n == 0 or abs(n) > n_cap:
                continue
            bucket = by_rhs.setdefault(n, set())
            for su in {u, -u}:
                for sw in {w, -w}:
                    bucket.add((su, sw))
    return by_rhs


def _orbit_expansion_in_box(d, n, box):
    """Window representatives expanded by the unit action, cut to the box."""
    unit = fundamental_unit(d)
    seeds = set()
    for rep in solve_bounded(d, n):
        for su in (1, -1):
            for sw in (1, -1):
                seeds.add(PellSolution(su * rep.u, sw * rep.w))
    out = set()
    for seed in seeds:
        for direction in (1, -1):
            cur = seed
            grace = 2
            while grace:
                if abs(cur.u) <= box and abs(cur.w) <= box:
                    out.add((cur.u, cur.w))
                else:
                    grace -= 1
                cur = orbit_step(cur, unit, direction)
    return out


def test_criterion_5_pell_oracle_equivalence():
    t0 = time.time()
    box, n_cap = 500, 64
    checked = 0
    for d in range(2, 121):
        if isqrt(d) ** 2 == d:
            continue
        brute = _brute_by_rhs(d, box, n_cap)
        for n in range(-n_cap, n_cap + 1):
            if n == 0:
                continue
            expansion = _orbit_expansion_in_box(d, n, box)
            assert expansion == brute.get(n, set()), (d, n)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(5, f"{checked} (d, N) pairs match brute force exactly in {elapsed:.1f}s")


def test_criterion_6_fundamental_units():
    spot = {2: (3, 2), 5: (9, 4), 17: (33, 8)}
    for d, expected in spot.items():
        unit = fundamental_unit(d)
        assert (unit.u0, unit.w0) == expected
    checked = 0
    for d in range(2, 201):
        if isqrt(d) ** 2 == d:
            continue
        unit = fundamental_unit(d)
        assert unit.u0 * unit.u0 - d * unit.w0 * unit.w0 == 1
        assert verify_unit_minimal(d, unit.u0, unit.w0), d
        checked += 1
    report(6, f"units for {checked} non-square d <= 200 verified minimal; spots (3,2), (9,4), (33,8)")


def test_criterion_7_isometry_suite():
    ok, detail = _suite_isometries(random.Random(1000), 3000)
    assert ok, detail
    report(7, "3000 seeded triples: twists and the swap preserve the pairing")


def test_criterion_8_descending_witness_orbit():
    assert infinitude(5, 2, 2)[0]
    chain = witness_chain(FamilyQuery(5, 2, 2, 1), 17, 10)
    xs = [w.x for w in chain]
    assert len(chain) == 10
    assert all(a > b for a, b in zip(xs, xs[1:]))
    for w in chain:
        assert w.report.all_passed
        assert (2 * w.x + 8) ** 2 - 17 * (2 * w.y) ** 2 == 32
    report(8, f"10 verified witnesses with strictly decreasing x, down to {len(str(xs[-1]))}-digit x")


def test_criterion_9_lattice_determinant_and_parity():
    ok, detail = _suite_lattice(random.Random(424242), 1000)
    assert ok, detail
    report(9, "det = -d and D.D even on 1000 random configs")
