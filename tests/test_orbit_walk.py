"""The block-orbit walk: chains and per-mu outcomes against references
that push every orbit, and how often the block unit q = unit^T is built.

``witness_chain`` walks one orbit in one pass, a step of q per element.
The reference below restarts ``push_negative`` at every element with the
threshold one below the current x, which is how a chain was defined before
the walk was shared; both must give the same witnesses.

``membership`` skips the u > 0 orbits where the sign of u decides them (rhs
> 0, u threshold < 0), ``member`` stops at the first mu that reaches, and
of each constrained orbit coset only the hits that can win are pushed.
``reference_search`` builds every constrained phase of every seed orbit as
a hit of its own and pushes them all, and ``reference_outcomes`` reads it
per mu; the answers must be the same.
"""

import random
import time
from math import gcd
from operator import itemgetter

import pytest

import k3witness.pell
from k3witness import (
    FamilyQuery,
    ThresholdUnreachable,
    default_x_threshold,
    member,
    membership,
    witness_chain,
)
from k3witness.families import _decode, pell_problem, preferred_witness, rhs_value
from k3witness.lattice import is_perfect_square, make_lattice, unit_square_roots
from k3witness.pell import (
    PellProblem,
    PellSolution,
    block_unit,
    class_representatives,
    constrained_orbit_hits,
    constrained_search,
    fundamental_unit,
    orbit_step,
    push_negative,
    residue_period,
)
from test_pell import problem_through

# (g, r, s, sign, tilde, d): the chain families of the benchmark deck
# (perfbench/workloads.py), small-genus members with a reachable threshold
CHAIN_FAMILIES = (
    (3, 1, 1, 1, False, 41),
    (3, 1, 2, -1, True, 41),
    (3, 2, 1, 1, False, 41),
    (5, 1, 1, -1, False, 41),
    (5, 1, 3, 1, False, 41),
    (5, 2, 2, -1, True, 41),
    (5, 2, 2, 1, False, 41),
    (5, 1, 2, 1, True, 17),
    (5, 2, 1, 1, False, 17),
    (5, 2, 2, -1, False, 17),
    (5, 2, 2, 1, False, 17),
    (5, 2, 2, 1, True, 17),
)


def reference_chain(query, d, count, x_threshold=None):
    """(mu, x, y) of each element, one full push_negative call per element."""
    first = member(query, d, x_threshold=x_threshold)
    cfg = make_lattice(query.g, d, first.mu)
    problem = pell_problem(cfg, query)
    step, _ = block_unit(problem)
    r = query.r
    cur = PellSolution(r * first.x + cfg.h_square, r * first.y)
    out = [(first.mu, first.x, first.y)]
    while len(out) < count:
        # x <= x_cur - 1 is u <= u_cur - r, as u = r*x + 2g-2
        cur = push_negative(cur, problem, cur.u - r, step)
        out.append((first.mu, *_decode(query, cur)))
    return out


@pytest.mark.parametrize("g, r, s, sign, tilde, d", CHAIN_FAMILIES)
def test_chain_matches_per_element_pushes(g, r, s, sign, tilde, d):
    # the tilde family of (g, r, s) is the family of (g, s, r)
    query = FamilyQuery(g, s, r, sign) if tilde else FamilyQuery(g, r, s, sign)
    chain = witness_chain(query, d, 60)
    assert [(w.mu, w.x, w.y) for w in chain] == reference_chain(query, d, 60)
    assert not any(w.report.failed for w in chain)


def test_chain_stops_at_a_convex_minimum():
    # under a user threshold the first witness sits high on a convex orbit,
    # whose minimum x = 25 ends the chain before its third element
    query = FamilyQuery(5, 2, 2, 1)
    for build in (witness_chain, reference_chain):
        with pytest.raises(ThresholdUnreachable) as exc_info:
            build(query, 17, 3, x_threshold=100000)
        assert exc_info.value.certified
        best = exc_info.value.best
        assert (best.u - 8) // 2 == 25  # u = 2x + 8 for g = 5, rank 2
    # the walk bounds u; witness_chain states the bound in x
    with pytest.raises(ThresholdUnreachable, match="^x on the orbit's w != 0 blocks "
                       "is bounded below by 25$"):
        witness_chain(query, 17, 3, x_threshold=100000)


def per_phase_hits(problem):
    """Every constrained phase of every seed orbit as a hit of its own, sorted
    by (|w|, u, w): one hit per block orbit, as the search once built them."""
    unit = fundamental_unit(problem.d)
    hits = {}
    for rep in class_representatives(problem.d, problem.rhs):
        for cur in (rep, PellSolution(-rep.u, -rep.w)):
            for _ in range(residue_period(problem)):
                if problem.meets_constraints(cur.u, cur.w):
                    hits[cur] = None
                cur = orbit_step(cur, unit, 1)
    return sorted(hits, key=lambda p: (abs(p.w), p.u, p.w))


def constrained_phases(problem, hit):
    """The k in [0, T) where unit^k * hit meets the constraint, on residues mod M."""
    unit, d = fundamental_unit(problem.d), problem.d
    M = problem.r * problem.h
    u, w = hit.u % M, hit.w % M
    out = []
    for k in range(residue_period(problem)):
        if problem.meets_constraints(u, w):
            out.append(k)
        u, w = (u * unit.u0 + d * w * unit.w0) % M, (u * unit.w0 + w * unit.u0) % M
    return out


def coset_check(problem, hits):
    """(cosets, others) over the hits of ``problem``: a hit with step t
    starts the coset of phases tZ, or it does not."""
    T = residue_period(problem)
    counts = [0, 0]
    for hit, t in hits:
        counts[constrained_phases(problem, hit) != list(range(0, T, t))] += 1
    return tuple(counts)


def reference_search(problem, u_threshold):
    """``constrained_search``'s answer from a push of every block orbit: each
    per-phase hit, in (|w|, u, w) order, the first of equal results kept."""
    hits = per_phase_hits(problem)
    if not hits:
        return residue_period(problem), None
    step, period = block_unit(problem)
    reached, bounded = [], []
    for hit in hits:
        try:
            reached.append((push_negative(hit, problem, u_threshold, step), hit))
        except ThresholdUnreachable as exc:
            bounded.append((exc.best, hit))
    key = itemgetter(0)
    sol, seed = max(reached, key=key) if reached else min(bounded, key=key)
    return period, (sol, seed, bool(reached))


def reference_outcomes(query, d, x_threshold=None):
    """(mu, period, (x, y, seed, reachable)) per mu, every block orbit pushed."""
    h2 = 2 * query.g - 2
    thr = default_x_threshold(h2, query.r) if x_threshold is None else x_threshold
    u_thr = query.r * thr + h2
    rhs = rhs_value(query)
    out = []
    for mu in unit_square_roots(query.g, d):
        if rhs == 0:
            out.append((mu, 0, None))
            continue
        problem = pell_problem(make_lattice(query.g, d, mu), query)
        period, best = reference_search(problem, u_thr)
        if best is not None:
            sol, seed, reached = best
            best = (*_decode(query, sol), _decode(query, seed), reached)
        out.append((mu, period, best))
    return out


def _outcome_row(oc):
    w = oc.witness
    found = None if w is None else (w.x, w.y, w.seed, w.threshold_reachable)
    return oc.mu, oc.residue_period, found


def _equivalence_cases():
    """A full small grid (d < 90) and a seeded draw of larger d and genus."""
    thresholds = (None, -(10**6), 0, 7, 10**4)
    for g in (3, 5, 7, 10, 12, 40):
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                for sign in (1, -1):
                    if g > r * s:
                        for d in range(2, 90):
                            for thr in thresholds:
                                yield FamilyQuery(g, r, s, sign), d, thr
    rng = random.Random(23)
    for _ in range(300):
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        query = FamilyQuery(rng.randint(max(3, r * s + 1), 60), r, s, rng.choice((1, -1)))
        admissible = [d for d in range(90, 600) if unit_square_roots(query.g, d)]
        thr = rng.choice((None, rng.randint(-(10**4), 10**4)))
        yield query, rng.choice(admissible), thr


def test_outcomes_match_pushing_every_orbit():
    kinds = {"sign_rule_on": 0, "rhs_negative": 0, "u_threshold_nonnegative": 0}
    compared = 0
    for query, d, thr in _equivalence_cases():
        if is_perfect_square(d) or not unit_square_roots(query.g, d):
            continue
        outcomes = membership(query, d, x_threshold=thr)
        assert [_outcome_row(oc) for oc in outcomes] == reference_outcomes(query, d, thr)
        chosen = member(query, d, x_threshold=thr)
        assert chosen == preferred_witness(outcomes)
        # the rule: the first witness that reached, else the first flagged one
        built = [oc.witness for oc in outcomes if oc.witness is not None]
        reached = [w for w in built if w.threshold_reachable]
        assert chosen == (reached or built or [None])[0]
        compared += 1
        h2 = 2 * query.g - 2
        u_thr = query.r * (default_x_threshold(h2, query.r) if thr is None else thr) + h2
        rhs = rhs_value(query)
        if rhs < 0:
            kinds["rhs_negative"] += 1
        elif rhs > 0 and u_thr >= 0:
            kinds["u_threshold_nonnegative"] += 1
        elif rhs > 0 and reached:
            kinds["sign_rule_on"] += 1
    # every regime is exercised, so the sign rule is tested on and off
    assert compared > 1500
    assert min(kinds.values()) > 100, kinds


# (g, r, s, sign, d, x threshold, (mu, x, y) of the outcome that moves): user
# thresholds under which walking only down from each coset's first hit gives
# another answer than pushing every block orbit; a hit beside the threshold
# (a flank of the hits above it) wins instead
FLANK_CASES = (
    (3, 1, 2, -1, 33, 10**4, (1, 243, 43)),
    (3, 1, 2, -1, 57, 10**4, (3, 2193, 291)),
    (5, 1, 1, 1, 33, -(10**6), (1, -1760929, -306537)),
    (5, 2, 2, -1, 17, 10**4, (1, 2441, 593)),
    (5, 2, 2, -1, 33, 10**4, (1, 243, 43)),
    (5, 2, 2, -1, 57, 10**4, (3, 2193, 291)),
    (12, 1, 1, -1, 5, -(10**6), (15, -1939726, -867462)),
    (12, 1, 1, -1, 45, -(10**6), (1, -1939726, -289154)),
    (12, 1, 3, 1, 5, -(10**6), (15, -1939726, -867462)),
    (12, 1, 3, 1, 45, -(10**6), (1, -1939726, -289154)),
    (12, 1, 3, -1, 53, -(10**6), (3, -4181688, -574396)),
    (12, 3, 3, -1, 37, 10**4, (9, 4427, 729)),
)


@pytest.mark.parametrize(
    "g, r, s, sign, d, thr, moved", FLANK_CASES, ids=lambda v: str(v).replace(" ", "")
)
def test_flank_hits_win(g, r, s, sign, d, thr, moved):
    query = FamilyQuery(g, r, s, sign)
    rows = [_outcome_row(oc) for oc in membership(query, d, x_threshold=thr)]
    assert rows == reference_outcomes(query, d, thr)
    mu, x, y = moved
    assert [row[2][:2] for row in rows if row[0] == mu] == [(x, y)]


def _problems_to_genus_3000(rng, count, ranks=(1, 2, 3)):
    """(query, d, mu, problem) with g log-uniform in 3..3000, s <= 4 and an
    admissible d <= 4g; the reference builds a hit per block orbit, so block
    units stay small."""
    while count:
        g = round(3 * 1000 ** rng.random())
        h2 = 2 * g - 2
        mu = rng.randrange(1, h2, 2)
        d = mu * mu % (2 * h2) + 2 * h2 * rng.randint(0, 1)
        r, s = rng.choice(ranks), rng.randint(1, 4)
        if g <= r * s or gcd(mu, h2) > 1 or is_perfect_square(d):
            continue
        query = FamilyQuery(g, r, s, rng.choice((1, -1)))
        if rhs_value(query) == 0:
            continue
        problem = pell_problem(make_lattice(g, d, mu), query)
        if residue_period(problem) * fundamental_unit(d).u0.bit_length() > 2048:
            continue
        yield query, d, mu, problem
        count -= 1


def test_outcomes_match_pushing_every_orbit_at_large_genus():
    rng = random.Random(3000)
    for query, d, _, _ in _problems_to_genus_3000(rng, 40):
        thr = rng.choice((None, -(10**6), -50, 0, 7, 10**4, rng.randint(-(10**4), 10**4)))
        rows = [_outcome_row(oc) for oc in membership(query, d, x_threshold=thr)]
        assert rows == reference_outcomes(query, d, thr), (query, d, thr)


NONSQUARE = [d for d in range(2, 80) if not is_perfect_square(d)]


def test_search_matches_pushing_every_phase_on_every_shape():
    # constrained_search on problems of every shape (h up to 40, r up to 3,
    # rhs of both signs, each through a drawn point) against
    # reference_search, under thresholds that include ones below a rising
    # coset's first hit
    rng = random.Random(30)
    regimes = dict.fromkeys(("convex", "concave", "falling", "rising", "fine descent"), 0)
    for _ in range(300):
        d, r = rng.choice(NONSQUARE), rng.randint(1, 3)
        a, b = rng.randint(-30, 30), r * rng.randint(0, 2)
        n = a * a - d * b * b
        if n == 0:
            continue
        prob = problem_through(d, a, b, r, rng, 40)
        if prob is None or residue_period(prob) * fundamental_unit(d).u0.bit_length() > 2048:
            continue
        hits = [hit for hit, _ in constrained_orbit_hits(prob)]
        thresholds = [rng.randint(-(10**4), 10**4), rng.choice((-(10**6), 0, 10**6))]
        rising = [hit.u for hit in hits if n < 0 and hit.w > 0]
        if rising:
            thresholds.append(min(rising) - rng.randint(1, 10**3))
        for u_thr in thresholds:
            assert constrained_search(prob, u_thr) == reference_search(prob, u_thr), (prob, u_thr)
            # the cosets that reach the selection: the sign of u decides
            # the u > 0 ones away where some u < 0 one exists
            kept = [hit for hit in hits if n < 0 or u_thr >= 0 or hit.u < 0]
            for hit in kept or hits:
                if n > 0:
                    regimes["convex" if hit.u > 0 else "concave"] += 1
                else:
                    regimes["rising" if hit.w > 0 else "falling"] += 1
                    regimes["fine descent"] += hit.w > 0 and hit.u > u_thr
    assert min(regimes.values()) >= 20, regimes


def test_rank_one_cosets_step_by_the_unit():
    # for r = 1 the map u + w*sqrt(d) -> u - mu*w mod 2g-2 is a ring map, so
    # the constraint holds on every phase of a seed orbit or on none: t = 1
    steps = set()
    for _, _, _, problem in _problems_to_genus_3000(random.Random(1), 60, ranks=(1,)):
        steps |= {t for _, t in constrained_orbit_hits(problem)}
    assert steps == {1}


def test_every_hit_starts_a_coset():
    hits = [
        (p, constrained_orbit_hits(p))
        for *_, p in _problems_to_genus_3000(random.Random(2), 60, ranks=(1, 2, 3, 4))
    ]
    checked = [coset_check(p, h) for p, h in hits]
    assert sum(c[0] for c in checked) == sum(len(h) for _, h in hits)
    assert any(t > 1 for _, h in hits for _, t in h)


def test_large_genus_member_is_fast():
    # building and pushing a hit per block orbit took 4 to 6 s
    start = time.perf_counter()
    w = member(FamilyQuery(3000, 1, 1, 1), 2077)
    assert time.perf_counter() - start < 1.0
    assert (w.mu, w.x, w.y, w.threshold_reachable) == (2269, -13671, 105, True)


@pytest.fixture
def counted(monkeypatch):
    """Record every block_unit, orbit_step, push_negative (with its problem) and
    PellProblem.residual call, wherever made, and the number of hits of every
    constrained scan."""
    calls = {"block_unit": [], "orbit_step": 0, "push_negative": [], "pushed_for": [],
             "residual": 0, "hits": []}
    real_block_unit, real_orbit_step = k3witness.pell.block_unit, k3witness.pell.orbit_step
    real_push_negative, real_residual = k3witness.pell.push_negative, PellProblem.residual
    real_hits = k3witness.pell.constrained_orbit_hits

    def counting_block_unit(problem):
        calls["block_unit"].append(problem)
        return real_block_unit(problem)

    def counting_orbit_step(*args):
        calls["orbit_step"] += 1
        return real_orbit_step(*args)

    def counting_push_negative(sol, *args):
        calls["push_negative"].append(sol)
        calls["pushed_for"].append(args[0])
        return real_push_negative(sol, *args)

    def counting_residual(self, u, w):
        calls["residual"] += 1
        return real_residual(self, u, w)

    def counting_hits(problem):
        hits = real_hits(problem)
        calls["hits"].append(len(hits))
        return hits

    # the search and the walks call these through pell's module globals
    monkeypatch.setattr(k3witness.pell, "block_unit", counting_block_unit)
    monkeypatch.setattr(k3witness.pell, "push_negative", counting_push_negative)
    monkeypatch.setattr(k3witness.pell, "orbit_step", counting_orbit_step)
    monkeypatch.setattr(k3witness.pell, "constrained_orbit_hits", counting_hits)
    monkeypatch.setattr(PellProblem, "residual", counting_residual)
    return calls


def test_membership_builds_the_block_unit_once_per_mu(counted):
    outcomes = membership(FamilyQuery(5, 2, 2, 1), 17)
    built = counted["block_unit"]
    assert 0 < len(built) <= len(outcomes)
    assert len(set(built)) == len(built)


def test_member_stops_at_the_first_mu_that_reaches(counted):
    query = FamilyQuery(5, 2, 2, 1)
    outcomes = membership(query, 17)
    assert sum(oc.witness.threshold_reachable for oc in outcomes) == 2
    counted["block_unit"].clear()
    assert member(query, 17) == outcomes[0].witness
    assert len(counted["block_unit"]) == 1


def test_membership_pushes_only_the_u_negative_orbits(counted):
    # rhs = 32 > 0 under the default threshold; every mu has orbits of both signs
    query = FamilyQuery(5, 2, 2, 1)
    hits = [
        h
        for mu in unit_square_roots(5, 17)
        for h in per_phase_hits(pell_problem(make_lattice(5, 17, mu), query))
    ]
    assert any(h.u > 0 for h in hits)
    outcomes = membership(query, 17)
    assert all(oc.witness.threshold_reachable for oc in outcomes)
    # T = 2 and one coset per seed: both hits of each u < 0 coset can win
    assert counted["push_negative"] == [h for h in hits if h.u < 0]


def test_membership_scans_one_hit_per_seed_and_pushes_few(counted):
    query, d = FamilyQuery(40, 1, 1, 1), 133
    problems = [pell_problem(make_lattice(40, d, mu), query) for mu in unit_square_roots(40, d)]
    membership(query, d)
    # one hit per seed orbit with a constrained phase, where T = 4 phases were built
    seeds = set()
    for rep in class_representatives(d, rhs_value(query)):
        seeds |= {rep, PellSolution(-rep.u, -rep.w)}
    per_mu = [sum(bool(constrained_phases(p, s)) for s in seeds) for p in problems]
    assert counted["hits"] == per_mu == [28, 28, 28, 26]
    phase_hits = [h for p in problems for h in per_phase_hits(p)]
    assert len(phase_hits) == 398
    # 103 pushes where all 199 u < 0 block orbits were pushed; 7 more would
    # push again a hit that two cosets of one mu share
    pushes = list(zip(counted["pushed_for"], counted["push_negative"]))
    assert len(set(pushes)) == len(pushes) == 103
    assert set(counted["push_negative"]) <= {h for h in phase_hits if h.u < 0}


def test_membership_checks_the_identity_once_per_push(counted):
    # the hits are built exact; push_negative's input check is the only residual
    membership(FamilyQuery(5, 2, 2, 1), 17)
    assert counted["push_negative"]
    assert counted["residual"] == len(counted["push_negative"])


def test_chain_builds_the_block_unit_once_and_steps_once_per_element(counted):
    query = FamilyQuery(5, 2, 2, 1)
    member(query, 17)
    by_member = len(counted["block_unit"])
    steps = {}
    for count in (21, 41):
        counted["block_unit"].clear()
        counted["orbit_step"] = 0
        witness_chain(query, 17, count)
        assert len(counted["block_unit"]) == by_member + 1
        steps[count] = counted["orbit_step"]
    assert steps[41] - steps[21] == 20


@pytest.mark.parametrize("g, r, s, d", [(5, 2, 2, 17), (40, 1, 1, 133), (100000, 2, 1, 109993)])
def test_every_mu_and_the_chain_share_one_block_unit(monkeypatch, g, r, s, d):
    # every mu of one d has the same T, so one q = unit^T serves them all and
    # the chain; cleared first, so that no earlier test's memo hides a rebuild
    query = FamilyQuery(g, r, s, 1)
    mu = unit_square_roots(g, d)[0]
    T = residue_period(pell_problem(make_lattice(g, d, mu), query))
    real, exponents = k3witness.pell.unit_power, []

    def counting(unit, k):
        exponents.append(k)
        return real(unit, k)

    monkeypatch.setattr(k3witness.pell, "unit_power", counting)
    k3witness.pell._power.cache_clear()
    outcomes = membership(query, d)
    assert sum(oc.witness is not None for oc in outcomes) > 1
    assert exponents.count(T) == 1
    k3witness.pell._power.cache_clear()
    exponents.clear()
    witness_chain(query, d, 2)
    assert exponents.count(T) == 1
