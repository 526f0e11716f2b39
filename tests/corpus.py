"""A seeded corpus of CLI argument lists, and the digest of each run.

Each digest is the SHA-256 of (argv, exit code, stdout, stderr) of one
``cli.main`` call; under ``--out`` the argv holds the placeholder ``OUT`` and
the digest hashes the written file, not its path.  ``test_corpus.py`` checks
every run against ``corpus_digest.json``, so any byte of output that moves
fails it.  Only a change meant to alter output regenerates the file:

    PYTHONPATH=src python tests/corpus.py --write

Every message in the corpus is the program's own: usage errors that argparse
reports, and text the interpreter writes (such as the integer digit limit),
differ between Python versions and are left out.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

from k3witness.cli import main

SEED = 20261020
DIGEST_FILE = Path(__file__).with_name("corpus_digest.json")
OUT = "OUT"

_P522 = ["--g", "5", "--r", "2", "--s", "2", "--sign", "plus"]
_THRESHOLDS = ("7", "10000", "-1000000")


def _fixed() -> list[list[str]]:
    """Argvs that name a regime each: every command and format, the edge cases."""
    cases: list[list[str]] = []
    for fmt in ("table", "json", "csv"):
        cases += [
            ["enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "both", "--dmax", "60",
             "--format", fmt],
            ["enumerate", "--g", "7", "--r", "3", "--s", "2", "--sign", "plus", "--dmax", "80",
             "--tilde", "--format", fmt],
            ["member", *_P522, "--d", "17", "--format", fmt],
            ["witness", *_P522, "--d", "17", "--count", "30", "--format", fmt],
            ["witness", *_P522, "--d", "17", "--count", "3", "--format", fmt, "--out", OUT],
            ["enumerate", *_P522, "--dmax", "40", "--format", fmt, "--out", OUT],
            # a member whose every orbit is bounded: flagged, exit 0
            ["witness", "--g", "4", "--r", "3", "--s", "1", "--sign", "plus", "--d", "13",
             "--format", fmt],
        ]
        for thr in _THRESHOLDS:
            cases += [
                ["enumerate", *_P522, "--dmax", "50", "--x-threshold", thr, "--format", fmt],
                ["member", *_P522, "--d", "41", "--x-threshold", thr, "--format", fmt],
                ["witness", *_P522, "--d", "17", "--count", "4", "--x-threshold", thr,
                 "--format", fmt],
            ]
    for fmt in ("table", "json"):
        cases += [
            ["pell", "--d", "17", "--n", "8", "--format", fmt],
            ["pell", "--d", "991", "--n", "1", "--format", fmt],
            ["pell", "--d", "61", "--n", "-3", "--format", fmt, "--out", OUT],
            ["hilbert", *_P522, "--d", "17", "--mu", "1", "--x", "-9", "--y", "-1",
             "--format", fmt],
            ["hilbert", *_P522, "--d", "17", "--mu", "1", "--x", "-9", "--y", "-1",
             "--format", fmt, "--out", OUT],
            # a failed corollary exits 1
            ["hilbert", *_P522, "--d", "17", "--mu", "1", "--x", "7", "--y", "-1",
             "--format", fmt],
        ]
    cases += [
        # rhs = 0: no solution with y != 0 for a non-square d
        ["member", "--g", "5", "--r", "2", "--s", "1", "--sign", "minus", "--d", "17"],
        ["witness", "--g", "5", "--r", "2", "--s", "1", "--sign", "minus", "--d", "17"],
        ["enumerate", "--g", "5", "--r", "2", "--s", "1", "--sign", "both", "--dmax", "30"],
        # square d
        ["member", *_P522, "--d", "16"],
        ["witness", *_P522, "--d", "49"],
        ["pell", "--d", "16", "--n", "8"],
        # g = r*s: the Hilbert scheme has length 0
        ["member", "--g", "4", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17"],
        ["enumerate", "--g", "6", "--r", "3", "--s", "2", "--sign", "both", "--dmax", "20"],
        ["hilbert", "--g", "4", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
         "--mu", "1", "--x", "-9", "--y", "-1"],
        # a bounded chain: the walk meets a convex orbit's minimum, exit 3
        ["witness", *_P522, "--d", "17", "--x-threshold", "100000", "--count", "3"],
        ["witness", "--g", "4", "--r", "3", "--s", "1", "--sign", "plus", "--d", "13",
         "--count", "2"],
        # no admissible mu, and a non-member
        ["member", *_P522, "--d", "19"],
        ["witness", *_P522, "--d", "19"],
        ["member", *_P522, "--d", "3"],
        # the program's own usage errors
        ["witness", *_P522, "--d", "17", "--count", "0"],
        ["enumerate", *_P522, "--dmax", "0"],
        ["member", *_P522, "--d", "0"],
        ["member", "--g", "2", "--r", "1", "--s", "1", "--sign", "plus", "--d", "17"],
        ["member", "--g", "5", "--r", "3", "--s", "2", "--sign", "plus", "--d", "17"],
        ["pell", "--d", "17", "--n", "0"],
        ["pell", "--d", "-3", "--n", "1"],
        ["hilbert", *_P522, "--d", "17", "--mu", "1", "--x", "-8", "--y", "-1"],
        ["selfcheck", "--iterations", "2", "--xy-bound", "8"],
        ["selfcheck", "--seed", "7", "--iterations", "3", "--xy-bound", "5"],
        ["selfcheck", "--iterations", "0", "--xy-bound", "5"],
    ]
    # user thresholds where a hit beside the threshold wins, not the first
    # point below it on each constrained orbit coset
    for g, r, s, sign, d, thr in (
        (3, 1, 2, "minus", 33, "10000"), (3, 1, 2, "minus", 57, "10000"),
        (5, 1, 1, "plus", 33, "-1000000"), (5, 2, 2, "minus", 17, "10000"),
        (5, 2, 2, "minus", 33, "10000"), (5, 2, 2, "minus", 57, "10000"),
        (12, 1, 1, "minus", 5, "-1000000"), (12, 1, 1, "minus", 45, "-1000000"),
        (12, 1, 3, "plus", 5, "-1000000"), (12, 1, 3, "plus", 45, "-1000000"),
        (12, 1, 3, "minus", 53, "-1000000"), (12, 3, 3, "minus", 37, "10000"),
    ):
        cases.append(["member", "--g", str(g), "--r", str(r), "--s", str(s), "--sign", sign,
                      "--d", str(d), "--x-threshold", thr])
    # large genus, with block units of 21k to 81k bits
    for g, d in ((800, 3205), (3000, 2077)):
        for r in ("1", "2"):
            query = ["--g", str(g), "--r", r, "--s", "1", "--sign", "plus", "--d", str(d)]
            cases += [["member", *query], ["witness", *query, "--count", "1"]]
    # large genus with r = 2..4, where the period T mod r*(2g-2) is 100 to
    # 200 times the unit's order mod r
    for g, r, d in ((3001, 3, 409), (3001, 4, 481), (10001, 2, 41), (10001, 3, 41)):
        query = ["--g", str(g), "--r", str(r), "--s", "1", "--sign", "plus", "--d", str(d)]
        cases += [["member", *query], ["witness", *query, "--count", "1"]]
    # eight mu, every one a member, that share one d and so one block unit
    query = ["--g", "100000", "--r", "2", "--s", "1", "--sign", "plus", "--d", "109993"]
    cases += [["member", *query], ["witness", *query, "--count", "1"]]
    return cases


def _admissible(rng: random.Random, g: int) -> tuple[int, int]:
    """(d, mu) with mu a unit mod 2g-2 and d = mu^2 (mod 4(g-1)), d <= about 300."""
    h2 = 2 * g - 2
    mu = rng.choice([m for m in range(1, h2) if gcd(m, h2) == 1])
    return mu * mu % (2 * h2) + 2 * h2 * rng.randint(0, 300 // (2 * h2)), mu


def _drawn(rng: random.Random, n: int) -> list[list[str]]:
    """n seeded argvs over small queries; sizes stay where answers take milliseconds."""
    cases = []
    for _ in range(n):
        command = rng.choice(("enumerate", "member", "member", "witness", "witness", "pell",
                              "hilbert"))
        if command == "pell":
            argv = [command, "--d", str(rng.randint(2, 300)), "--n", str(rng.randint(-60, 60))]
            cases.append(argv + ["--format", rng.choice(("table", "json"))])
            continue
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        g = rng.randint(max(3, r * s + 1), 12)
        signs = ("plus", "minus", "both") if command == "enumerate" else ("plus", "minus")
        argv = [command, "--g", str(g), "--r", str(r), "--s", str(s),
                "--sign", rng.choice(signs)]
        if rng.random() < 0.3:
            argv.append("--tilde")
        # mostly an admissible d, sometimes any d (no admissible mu, square d)
        d, mu = _admissible(rng, g)
        if rng.random() < 0.15:
            d = rng.randint(2, 300)
        if command == "hilbert":
            y = rng.randint(-3, 3)
            x = mu * y + (2 * g - 2) * rng.randint(-4, 4)
            argv += ["--d", str(d), "--mu", str(mu), "--x", str(x), "--y", str(y),
                     "--format", rng.choice(("table", "json"))]
            cases.append(argv)
            continue
        if command == "enumerate":
            argv += ["--dmax", str(rng.randint(1, 120))]
        else:
            argv += ["--d", str(d)]
        if command == "witness":
            argv += ["--count", str(rng.randint(1, 12))]
        if rng.random() < 0.4:
            argv += ["--x-threshold", rng.choice((*_THRESHOLDS, str(rng.randint(-200, 50))))]
        cases.append(argv + ["--format", rng.choice(("table", "json", "csv"))])
    return cases


def argvs() -> list[list[str]]:
    """The corpus: fixed regimes first, then seeded draws; no argv twice."""
    cases = _fixed() + _drawn(random.Random(SEED), 220)
    return [list(k) for k in dict.fromkeys(tuple(a) for a in cases)]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(argv: list[str], workdir: Path) -> str:
    """SHA-256 of (argv, exit code, stdout, stderr, the --out file's text or None)."""
    path = workdir / "out"
    path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(path) if a == OUT else a for a in argv])
    written = path.read_text(encoding="utf-8") if OUT in argv else None
    record = [argv, rc, out.getvalue(), err.getvalue(), written]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def digests(workdir: Path) -> dict[str, str]:
    return {key(a): digest(a, workdir) for a in argvs()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/corpus.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    DIGEST_FILE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGEST_FILE}")
