"""Seeded property suites wiring every module together.

Each suite returns (ok, detail) and takes only what it uses: a seeded
``random.Random`` and a size, the brute-force bound, or nothing.  ``run_all``
drives them with one seed so a run is reproducible and fails a suite that
raises; the tests call the same suites with seeds and counts of their own.
"""

from __future__ import annotations

import random
from math import gcd, isqrt, log2

from .families import FamilyQuery, enumerate_direct, enumerate_family
from .hilbert import bb_square, hilbert_class
from .lattice import det_check, divisor, inner, make_lattice
from .mukai import MukaiVector, pairing, reflect, tensorize
from .pell import FundamentalUnit, fundamental_unit, solve_bounded, unit_power


def _random_config(rng: random.Random, g_max: int = 14, allow_square: bool = False):
    """A uniformly scattered valid (g, d, mu) configuration.

    Any unit mu and d = mu^2 + 4(g-1)k satisfy the defining congruence.
    """
    while True:
        g = rng.randint(3, g_max)
        h2 = 2 * g - 2
        mu = rng.choice([m for m in range(1, h2) if gcd(m, h2) == 1])
        d = mu * mu + 4 * (g - 1) * rng.randint(0, 60)
        if not allow_square and isqrt(d) ** 2 == d:
            continue
        return make_lattice(g, d, mu)


def _random_divisor(rng: random.Random, cfg, span: int = 30):
    y = rng.randint(-span, span)
    k = rng.randint(-span, span)
    return divisor(cfg, cfg.mu * y + k * cfg.h_square, y)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, exactly: Newton's method from a float seed."""
    def newton(x: int) -> int:
        return ((k - 1) * x + n // x ** (k - 1)) // k

    lg = log2(n) / k
    shift = max(0, int(lg) - 52)
    # one step from any x > 0 lands at or above the root; from there x falls to it
    x = newton(max(1, int(2 ** (lg - shift)) << shift))
    while (y := newton(x)) < x:
        x = y
    return x


def verify_unit_minimal(d: int, u0: int, w0: int) -> bool:
    """Independent minimality oracle for a claimed fundamental unit.

    Below the cap, enumerate every smaller w directly.  Above it, a smaller
    solution would make (u0, w0) = eta^k for a norm-1 unit eta = a + b*sqrt(d)
    and a prime k.  Then (2a - 1)^k < 2*u0 = eta^k + eta^-k < (2a)^k, so the
    exact k-th root of 2*u0 gives a, and eta > max(2, sqrt(d)) bounds k.
    """
    if u0 * u0 - d * w0 * w0 != 1 or w0 < 1:
        return False
    if w0 <= 200_000:
        for w in range(1, w0):
            t = 1 + d * w * w
            r = isqrt(t)
            if r * r == t:
                return False
        return True
    two_u, claimed = 2 * u0, FundamentalUnit(d, u0, w0)
    k_max = two_u.bit_length() // max(1, (d.bit_length() - 1) // 2)
    for k in range(2, k_max + 1):
        if any(k % p == 0 for p in range(2, isqrt(k) + 1)):
            continue  # a k-th power with k composite is a p-th power, p | k prime
        a = (_iroot(two_u, k) + 1) // 2
        b = isqrt((a * a - 1) // d)
        if a * a - d * b * b == 1 and unit_power(FundamentalUnit(d, a, b), k) == claimed:
            return False
    return True


def _suite_lattice(rng: random.Random, iterations: int):
    for _ in range(iterations):
        cfg = _random_config(rng, allow_square=True)
        if det_check(cfg) != -cfg.d:
            return False, f"det mismatch at (g,d,mu)=({cfg.g},{cfg.d},{cfg.mu})"
        D = _random_divisor(rng, cfg)
        if inner(D, D) % 2 != 0:
            return False, f"odd square at ({cfg.g},{cfg.d},{cfg.mu}), D=({D.x},{D.y})"
        E = _random_divisor(rng, cfg)
        if inner(D, E) != inner(E, D):
            return False, "inner not symmetric"
    return True, f"{iterations} random configs: det=-d, even squares, symmetry"


def _suite_gamma(rng: random.Random, iterations: int):
    for _ in range(iterations):
        cfg = _random_config(rng, allow_square=True)
        y = pow(cfg.mu, -1, cfg.h_square)
        D = divisor(cfg, 1, y)
        if D.x != 1:
            return False, f"H-degree generator failed for ({cfg.g},{cfg.d},{cfg.mu})"
    return True, f"{iterations} configs admit a divisor with D.H = 1"


def _suite_isometries(rng: random.Random, iterations: int):
    for _ in range(iterations):
        cfg = _random_config(rng, allow_square=True)
        v = MukaiVector(rng.randint(-6, 6), _random_divisor(rng, cfg, 10), rng.randint(-6, 6))
        w = MukaiVector(rng.randint(-6, 6), _random_divisor(rng, cfg, 10), rng.randint(-6, 6))
        D = _random_divisor(rng, cfg, 10)
        E = _random_divisor(rng, cfg, 10)
        if pairing(tensorize(v, D), tensorize(w, D)) != pairing(v, w):
            return False, "twist is not an isometry"
        if pairing(reflect(v), reflect(w)) != pairing(v, w):
            return False, "reflection is not an isometry"
        if tensorize(tensorize(v, D), E) != tensorize(v, D + E):
            return False, "twist is not additive"
        if reflect(reflect(v)) != v:
            return False, "reflection is not an involution"
    return True, f"{iterations} random triples: isometry, additivity, involution"


def _suite_twist_pell(rng: random.Random, iterations: int):
    # third component hits sign*1 exactly when (x, y) solves the Pell relation
    for _ in range(iterations):
        cfg = _random_config(rng)
        r = rng.randint(1, 4)
        s = rng.randint(1, 4)
        D = _random_divisor(rng, cfg, 12)
        tv = tensorize(MukaiVector(r, cfg.H, s), D)
        g1 = cfg.g - 1
        lhs = (r * D.x + 2 * g1) ** 2 - cfg.d * (r * D.y) ** 2
        for sign in (1, -1):
            eq = lhs == 4 * g1 * (sign * r - r * s + g1)
            if eq != (tv.s0 == sign):
                return False, f"twist/pell mismatch ({cfg.g},{cfg.d},{cfg.mu},{r},{s})"
    return True, f"{iterations} random twists match the Pell relation"


def _suite_units():
    checked = 0
    for d in range(2, 121):
        if isqrt(d) ** 2 == d:
            continue
        unit = fundamental_unit(d)
        if not verify_unit_minimal(d, unit.u0, unit.w0):
            return False, f"unit for d={d} is not minimal"
        checked += 1
    return True, f"fundamental units minimal for {checked} non-square d <= 120"


def _suite_bounded(rng: random.Random, iterations: int):
    # compare inside the intersection of the window and the brute-force box,
    # filtering both sides the same way
    box = 400
    for _ in range(max(iterations // 10, 8)):
        d = rng.choice([2, 3, 5, 6, 7, 8, 10, 11, 13, 17, 19, 23, 29])
        n = rng.choice([k for k in range(-36, 37) if k != 0])
        unit = fundamental_unit(d)
        cap = n * (unit.u0 - 1) if n > 0 else -n * (unit.u0 + 1)
        brute = set()
        for w in range(box + 1):
            t = n + d * w * w
            if t >= 0:
                u = isqrt(t)
                if u * u == t and u <= box:
                    for su in {u, -u}:
                        brute.add((su, w))
        window_brute = {(u, w) for (u, w) in brute if 2 * d * w * w <= cap}
        got = {(s.u, s.w) for s in solve_bounded(d, n)}
        got_box = {(u, w) for (u, w) in got if abs(u) <= box and w <= box}
        if window_brute != got_box:
            return False, f"window mismatch d={d}, n={n}"
    return True, "bounded solver matches brute force on random (d, n)"


def _suite_families(xy_bound: int):
    qp = FamilyQuery(5, 2, 2, 1)
    qm = FamilyQuery(5, 2, 2, -1)
    ds = {w.d for w in enumerate_family(qp, 180)} | {w.d for w in enumerate_family(qm, 180)}
    expected = {17, 33, 41, 57, 73, 89, 113, 129, 161, 177}
    if not expected <= ds:
        return False, f"missing determinants: {sorted(expected - ds)}"
    direct = {
        d
        for d in enumerate_direct(qp, xy_bound) | enumerate_direct(qm, xy_bound)
        if d <= 180
    }
    if not direct <= ds:
        return False, f"direct oracle found extras: {sorted(direct - ds)}"
    return True, f"genus-5 families contain the expected 10 determinants ({len(ds)} total)"


def _suite_bb():
    count = 0
    for g, r, s in [(5, 2, 2), (6, 2, 2), (7, 2, 3), (8, 1, 3)]:
        for sign in (1, -1):
            q = FamilyQuery(g, r, s, sign)
            for w in enumerate_family(q, 120):
                h1 = hilbert_class(w.F, q.length)
                if bb_square(h1) != sign * 2 * r:
                    return False, f"q(h1) != {sign * 2 * r} at (g,r,s,d)=({g},{r},{s},{w.d})"
                count += 1
    return True, f"q(h1) = sign*2r for {count} witnesses"


def run_all(seed: int, iterations: int, xy_bound: int):
    if iterations < 1 or xy_bound < 1:
        raise ValueError(f"iterations and xy_bound must be >= 1, got {iterations}, {xy_bound}")
    rng = random.Random(seed)
    suites = [
        ("lattice-arithmetic", _suite_lattice, rng, iterations),
        ("degree-generator", _suite_gamma, rng, max(iterations // 4, 25)),
        ("mukai-isometries", _suite_isometries, rng, iterations),
        ("twist-pell-consistency", _suite_twist_pell, rng, iterations),
        ("fundamental-units", _suite_units),
        ("bounded-solver", _suite_bounded, rng, iterations),
        ("family-enumeration", _suite_families, xy_bound),
        ("hilbert-bb", _suite_bb),
    ]
    results = []
    for name, suite, *args in suites:
        try:
            results.append((name, *suite(*args)))
        except Exception as exc:
            results.append((name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
