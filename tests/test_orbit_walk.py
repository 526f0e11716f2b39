"""The block-orbit walk: chains against a per-element reference, and how
often the block unit q = unit^T is built.

``witness_chain`` walks one orbit in one pass, a step of q per element.
The reference below restarts ``push_negative`` at every element with the
threshold one below the current x, which is how a chain was defined before
the walk was shared; both must give the same witnesses.
"""

import pytest

import k3witness.families
import k3witness.pell
from k3witness import FamilyQuery, ThresholdUnreachable, member, membership, witness_chain
from k3witness.families import pell_problem
from k3witness.lattice import make_lattice
from k3witness.pell import block_unit, push_negative

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
    rr = query.twist_rank
    cur = problem.solution(rr * first.x + cfg.h_square, rr * first.y)
    out = [(first.mu, first.x, first.y)]
    while len(out) < count:
        cur = push_negative(cur, problem, problem.decode_x(cur.u) - 1, step)
        out.append((first.mu, *problem.decode(cur)))
    return out


@pytest.mark.parametrize("g, r, s, sign, tilde, d", CHAIN_FAMILIES)
def test_chain_matches_per_element_pushes(g, r, s, sign, tilde, d):
    query = FamilyQuery(g, r, s, sign, tilde)
    chain = witness_chain(query, d, 60)
    assert [(w.mu, w.x, w.y) for w in chain] == reference_chain(query, d, 60)
    assert all(w.report.all_passed for w in chain)


def test_chain_stops_at_a_convex_minimum():
    # under a user threshold the first witness sits high on a convex orbit,
    # whose minimum x = 25 ends the chain before its third element
    query = FamilyQuery(5, 2, 2, 1)
    for build in (witness_chain, reference_chain):
        with pytest.raises(ThresholdUnreachable) as exc_info:
            build(query, 17, 3, x_threshold=100000)
        assert exc_info.value.certified
        assert "bounded below by 25" in str(exc_info.value)
        best = exc_info.value.best
        assert (best.u - 8) // 2 == 25  # u = 2x + 8 for g = 5, rank 2


@pytest.fixture
def counted(monkeypatch):
    """Record every block_unit and orbit_step call, wherever it is made."""
    calls = {"block_unit": [], "orbit_step": 0}
    real_block_unit, real_orbit_step = k3witness.pell.block_unit, k3witness.pell.orbit_step

    def counting_block_unit(problem):
        calls["block_unit"].append(problem)
        return real_block_unit(problem)

    def counting_orbit_step(*args):
        calls["orbit_step"] += 1
        return real_orbit_step(*args)

    for module in (k3witness.pell, k3witness.families):
        monkeypatch.setattr(module, "block_unit", counting_block_unit)
    monkeypatch.setattr(k3witness.pell, "orbit_step", counting_orbit_step)
    return calls


def test_membership_builds_the_block_unit_once_per_mu(counted):
    outcomes = membership(FamilyQuery(5, 2, 2, 1), 17)
    built = counted["block_unit"]
    assert 0 < len(built) <= len(outcomes)
    assert len(set(built)) == len(built)


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
