"""Metamorphic relations of the decision: answers that must agree with other
answers of the same program, at sizes that no independent oracle reaches.

- The per-mu decision and residue period do not depend on ``x_threshold``:
  the threshold only chooses among the solutions, never whether one exists.
- mu and 2g-2-mu agree on decision and period: N(d, mu) and N(d, -mu) are
  isometric through G -> -G, which fixes H, and share M and T.  Both are
  decided here by a full ``membership`` each, not through the mirror.
- ``witness_chain(q, d, m)`` is the first m elements of
  ``witness_chain(q, d, n)`` for m < n.

Each relation is checked on seeded draws with g <= 300 and an admissible
d <= 2000.
"""

import random
from math import gcd

from k3witness import FamilyQuery, ThresholdUnreachable, membership, witness_chain
from k3witness.errors import NoValidMu
from k3witness.lattice import is_perfect_square


def _draws(seed, count):
    """(query, d): g <= 300, r, s <= 4, and d <= 2000 a square mod 4(g-1) of a
    unit mu mod 2g-2, so that some mu is admissible."""
    rng = random.Random(seed)
    while count:
        g = rng.randint(3, 300)
        h2 = 2 * g - 2
        mu = rng.randrange(1, h2, 2)
        base = mu * mu % (2 * h2)
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        if gcd(mu, h2) > 1 or base > 2000 or g <= r * s:
            continue
        d = base + 2 * h2 * rng.randint(0, (2000 - base) // (2 * h2))
        if d < 2 or is_perfect_square(d):
            continue
        yield FamilyQuery(g, r, s, rng.choice((1, -1))), d
        count -= 1


def _decisions(outcomes):
    return [(oc.mu, oc.witness is not None, oc.residue_period) for oc in outcomes]


def test_decision_does_not_depend_on_the_threshold():
    members = 0
    for query, d in _draws(14, 20):
        decided = _decisions(membership(query, d))
        members += any(found for _, found, _ in decided)
        for thr in (-(10**6), -50, 0, 7, 10**4):
            assert _decisions(membership(query, d, x_threshold=thr)) == decided, (query, d, thr)
    assert 5 < members < 20


def test_mu_and_its_mirror_agree():
    for query, d in _draws(15, 60):
        h2 = 2 * query.g - 2
        decided = {mu: (found, period) for mu, found, period in _decisions(membership(query, d))}
        assert all(decided[h2 - mu] == decided[mu] for mu in decided), (query, d)


def test_chain_is_a_prefix_of_a_longer_chain():
    compared = 0
    for query, d in _draws(16, 40):
        try:
            chain = witness_chain(query, d, 5)
        except (NoValidMu, ThresholdUnreachable):
            continue  # not a member, or a convex orbit bottoms out first
        for m in (1, 2, 4):
            assert witness_chain(query, d, m) == chain[:m], (query, d, m)
        compared += 1
    assert compared > 5
