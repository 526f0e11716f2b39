"""Seeded request generators for the benchmark workloads.

Each generator maps a seed to one deck: a list of ``k3witness`` CLI argv
lists.  The same seed always gives the same deck, and the program under test
sees nothing but these argv lists.  A run replays its deck in passes until
its time is up, so every pass does the same work.

The generators use only the standard library.  The arithmetic they need to
shape the inputs (square test, admissible residues, fundamental unit and its
order) is written out here rather than imported from ``k3witness``, so a
defect in the program cannot change which inputs it is given.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, isqrt


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _query_flags(g: int, r: int, s: int, sign: str) -> list[str]:
    return ["--g", str(g), "--r", str(r), "--s", str(s), "--sign", sign]


# --- grid ---------------------------------------------------------------
# The acceptance grid of the test suite (g 3..12, r, s 1..4, g > r*s, plain
# and swapped), one `enumerate --sign both` per query.  dmax is a few hundred
# instead of the suite's 2000 so that a pass takes seconds, not minutes; the
# seed orders the queries and jitters each dmax, which keeps the total work
# of a pass nearly constant across seeds.
GRID_DMAX = 300
GRID_DMAX_JITTER = 20


def grid(seed: int) -> list[list[str]]:
    rng = _rng("grid", seed)
    deck = []
    for g in range(3, 13):
        for r in range(1, 5):
            for s in range(1, 5):
                if g <= r * s:
                    continue
                for tilde in (False, True):
                    dmax = GRID_DMAX + rng.randint(-GRID_DMAX_JITTER, GRID_DMAX_JITTER)
                    argv = ["enumerate", *_query_flags(g, r, s, "both"),
                            "--dmax", str(dmax), "--format", "json"]
                    if tilde:
                        argv.append("--tilde")
                    deck.append(argv)
    rng.shuffle(deck)
    return deck


# --- large_genus --------------------------------------------------------
# Single `member` queries at genus in the low hundreds, where the class
# representatives' square-root scan over |m| ~ 4g^2 and the unit powers of
# the residue scan dominate.  Each query draws (g, d) afresh with d up to 4g;
# (r, s, sign) cycle through all eight combinations with r, s <= 2.
#
# Cost per query is heavy-tailed in the size of the block unit unit^T (T the
# order of the unit modulo the constraint modulus r*(2g-2)): a few draws with
# a block unit of ten thousand bits or more cost seconds each and made the
# pass time of two seeds differ by a factor of two.  Draws whose block unit
# exceeds LG_BLOCK_BITS are therefore redrawn.  The kept queries still raise
# units to powers of up to a thousand bits in the residue scan; beyond the
# cap lies the regime of the g=800 reference query, which is too slow to
# repeat in every run.
LG_QUERIES = 640
LG_GENUS = (100, 300)
LG_BLOCK_BITS = 1024


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


@lru_cache(maxsize=None)
def _unit_squares(g: int) -> frozenset[int]:
    # residues mu^2 mod 4(g-1) over the units mu mod 2g-2
    h2 = 2 * g - 2
    return frozenset(mu * mu % (2 * h2) for mu in range(h2) if gcd(mu, h2) == 1)


def _admissible(g: int, d: int) -> bool:
    return d % (4 * g - 4) in _unit_squares(g)


@lru_cache(maxsize=None)
def _fundamental_unit(d: int) -> tuple[int, int]:
    # continued fraction of sqrt(d), stopping at the first norm-1 convergent
    a0 = isqrt(d)
    P, Q = a0, d - a0 * a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    while p * p - d * q * q != 1:
        a = (P + a0) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (d - P * P) // Q
    return p, q


def _block_unit_fits(d: int, modulus: int, unit: tuple[int, int]) -> bool:
    # unit^T has at most LG_BLOCK_BITS bits, T the order of the unit mod `modulus`
    u0, w0 = unit
    a, b = u0 % modulus, w0 % modulus
    cur = (a, b)
    for _ in range(LG_BLOCK_BITS // u0.bit_length()):
        if cur == (1, 0):
            return True
        cur = ((cur[0] * a + cur[1] * b * d) % modulus, (cur[0] * b + cur[1] * a) % modulus)
    return False


def large_genus(seed: int) -> list[list[str]]:
    rng = _rng("large_genus", seed)
    combos = [(r, s, sign) for r in (1, 2) for s in (1, 2) for sign in ("plus", "minus")]
    deck = []
    for i in range(LG_QUERIES):
        r, s, sign = combos[i % len(combos)]
        while True:
            g = rng.randint(*LG_GENUS)
            d = rng.randint(2, 4 * g)
            if _is_square(d) or not _admissible(g, d):
                continue
            if _block_unit_fits(d, r * (2 * g - 2), _fundamental_unit(d)):
                break
        deck.append(["member", *_query_flags(g, r, s, sign), "--d", str(d), "--format", "json"])
    rng.shuffle(deck)
    return deck


# --- chain --------------------------------------------------------------
# `witness --count N`: one residue scan, then a walk of N constrained blocks
# down one orbit, verifying and rendering witnesses with thousands of digits.
# The families below are small-genus members with a reachable threshold and
# the same cost per step (their witnesses gain about 3.6 digits per step).
#
# A deck has 8 short chains (about 130), 10 long ones (about 650) and one of
# about 1400; the seed jitters each count by at most CHAIN_JITTER and picks
# each request's family.  A chain's cost grows with N^2, so with counts
# spread evenly over the range the median and tail latency each fell between
# two requests of different cost and moved by 20-30% from seed to seed.
# Here both fall inside the long group, whatever the number of passes.  A
# middle group of about 340 was tried as well: on a shared 2-core x86-64 VM
# its latency moved twice as much as the long chains' from run to run, so
# the median is kept on the long chains.  The order is fixed (short and long
# interleaved, the ~1400 one last): the peak RSS depends on what earlier
# requests left on the heap, and with a shuffled order it moved by 25%
# between seeds with the same sizes.
#
# The count near 1400 is past the interpreter's 4300-digit int-to-str limit
# (the first witness over it is number 1183 for d=17 and 1191 for d=41), so
# one request in 19 fails with the program's current handling of that
# limit.  The other counts stay below 1183.
CHAIN_FAMILIES = (
    # (g, r, s, sign, tilde, d)
    (3, 1, 1, "plus", False, 41),
    (3, 1, 2, "minus", True, 41),
    (3, 2, 1, "plus", False, 41),
    (5, 1, 1, "minus", False, 41),
    (5, 1, 3, "plus", False, 41),
    (5, 2, 2, "minus", True, 41),
    (5, 2, 2, "plus", False, 41),
    (5, 1, 2, "plus", True, 17),
    (5, 2, 1, "plus", False, 17),
    (5, 2, 2, "minus", False, 17),
    (5, 2, 2, "plus", False, 17),
    (5, 2, 2, "plus", True, 17),
)
CHAIN_COUNTS = (130, 650) * 8 + (650,) * 2 + (1400,)
CHAIN_JITTER = 0.03


def chain(seed: int) -> list[list[str]]:
    rng = _rng("chain", seed)
    deck = []
    for base in CHAIN_COUNTS:
        count = round(base * (1 + rng.uniform(-CHAIN_JITTER, CHAIN_JITTER)))
        g, r, s, sign, tilde, d = rng.choice(CHAIN_FAMILIES)
        argv = ["witness", *_query_flags(g, r, s, sign), "--d", str(d),
                "--count", str(count), "--format", "json"]
        if tilde:
            argv.append("--tilde")
        deck.append(argv)
    return deck


DECKS = {"grid": grid, "large_genus": large_genus, "chain": chain}
