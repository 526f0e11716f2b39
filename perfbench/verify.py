"""Correctness gate: re-check each response from its JSON integers alone.

Nothing here imports ``k3witness``.  A witness is accepted only if the
identities the program claims hold when recomputed from the printed
integers, so a check flag that is wrongly true cannot hide a bad witness.
"""

from __future__ import annotations

import json

EXIT_OK = 0
EXIT_REJECTED = 3

# The witness check that may legitimately be false: when every constrained
# orbit is bounded below, the witness carries the orbit minimum and records
# that the D.H threshold is unreachable.
THRESHOLD_CHECK = "dh_threshold"


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _witness_problems(query: dict, w: dict) -> list[str]:
    g = query["g"]
    h2 = 2 * g - 2
    rr, ss = (query["s"], query["r"]) if query["tilde"] else (query["r"], query["s"])
    sign = 1 if w["sign"] == "plus" else -1
    d, mu, x, y = w["d"], w["mu"], w["x"], w["y"]
    rhs = 4 * (g - 1) * (sign * rr - rr * ss + g - 1)
    u, v = rr * x + h2, rr * y
    f_x, f_y = h2 + rr * x, rr * y
    f_num = f_x * f_x - d * f_y * f_y
    n = g - query["r"] * query["s"]
    eps = 0 if n == 1 else 1
    checks = dict(w["checks"])
    threshold_ok = checks.pop(THRESHOLD_CHECK)
    failed = [
        ("pell residual", u * u - d * v * v == rhs and w["pell_residual"] == 0),
        ("y nonzero", y != 0),
        ("mu admissible", (mu * mu - d) % (2 * h2) == 0),
        ("x = mu*y mod 2g-2", (x - mu * y) % h2 == 0),
        ("D coordinates", w["D"] == {"x": x, "y": y} and w["DdotH"] == x),
        ("F = H + r*D", w["F"] == {"x": f_x, "y": f_y} and w["FdotH"] == f_x),
        ("F^2 integral", f_num % h2 == 0),
        ("F^2 value", f_num // h2 == h2 + rr * (2 * sign - 2 * ss) == w["F2"]),
        ("q(h1) = sign*2r", f_num // h2 - 2 * (n - 1) * eps * eps == sign * 2 * rr
         and w["bb"] == {"eps": eps, "q": sign * 2 * rr, "b": f_x}),
        ("check flags", all(checks.values())),
        ("threshold flag", threshold_ok == (x <= w["x_threshold"]) == w["threshold_reachable"]),
    ]
    return [f"d={d} mu={mu}: {name}" for name, ok in failed if not ok]


def check_response(argv: list[str], code, stdout: str) -> tuple[int, list[str]]:
    """Witnesses in one response and the problems found in it.

    Only exit codes 0 and 3 are answers; anything else is a failed request,
    counted by the caller, whose output is not checked here.
    """
    if code == EXIT_REJECTED:
        return 0, [] if stdout == "" else ["rejection wrote to stdout"]
    if code != EXIT_OK:
        return 0, []
    doc = json.loads(stdout)
    command = argv[0]
    query = doc["query"]
    witnesses = doc["witnesses"]
    problems = []
    expected_query = {
        "g": int(_flag(argv, "--g")),
        "r": int(_flag(argv, "--r")),
        "s": int(_flag(argv, "--s")),
        "sign": _flag(argv, "--sign"),
        "tilde": "--tilde" in argv,
    }
    if query != expected_query:
        problems.append(f"query echoed as {query}")
    if command == "enumerate":
        dmax = int(_flag(argv, "--dmax"))
        keys = [(w["d"], w["sign"]) for w in witnesses]
        if len(set(keys)) != len(keys) or any(not 2 <= d <= dmax for d, _ in keys):
            problems.append("enumerate listed a determinant twice or out of range")
    else:
        d = int(_flag(argv, "--d"))
        count = int(_flag(argv, "--count")) if command == "witness" else 1
        xs = [w["x"] for w in witnesses]
        if len(witnesses) != count or any(w["d"] != d for w in witnesses):
            problems.append(f"expected {count} witnesses for d={d}, got {len(witnesses)}")
        if any(a <= b for a, b in zip(xs, xs[1:])):
            problems.append("chain x values are not strictly decreasing")
    for w in witnesses:
        if query["sign"] != "both" and w["sign"] != query["sign"]:
            problems.append(f"d={w['d']}: sign {w['sign']} in a {query['sign']} query")
        problems.extend(_witness_problems(query, w))
    return len(witnesses), problems
