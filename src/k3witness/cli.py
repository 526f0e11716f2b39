"""Command-line interface.

Commands:

  enumerate   family members d <= dmax for a query, with verified witnesses
  member      membership of a single d, reported per admissible mu
  witness     like member, plus orbit/push details and descending chains
  pell        fundamental unit and class representatives of u^2 - d*w^2 = N
  hilbert     degree-2 values q(h1), b(h1, H) for supplied witness data
  selfcheck   seeded property suites over all modules

Exit codes: 0 success, 1 internal failure (a failed verification check or
an internal error), 2 usage error (a value out of range, an --out that
cannot be written), 3 mathematically valid rejection (square d, no
admissible mu, non-member, bounded chain).  ``main`` alone turns errors
into exit codes and stderr lines.

Every setting comes from a flag; neither the environment nor any file is
read, so the output depends on the argument list alone.

JSON comes from a small private writer with the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``.  Each response converts each
distinct integer to decimal once: the stderr notes and every format read
one digit memo.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, reduce
from json.encoder import encode_basestring_ascii
from operator import getitem
from typing import Callable, Iterable, Optional

from .errors import (
    DegenerateQuery,
    K3WitnessError,
    NoValidMu,
    SquareDiscriminant,
    SquareInput,
    ThresholdUnreachable,
)
from .families import (
    FamilyQuery,
    Witness,
    _require_length,
    _verify_fields,
    enumerate_family,
    membership,
    preferred_witness,
    rhs_value,
    witness_chain,
)
from .hilbert import exceptional_coefficient
from .lattice import divisor, make_lattice
from .pell import fundamental_unit, solve_bounded
from . import selfcheck

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


def _sign_word(sign: int) -> str:
    return "plus" if sign == 1 else "minus"


def _query_from_args(args, sign: int) -> FamilyQuery:
    """The query of the flags; --tilde is the query with r and s swapped."""
    r, s = (args.s, args.r) if args.tilde else (args.r, args.s)
    return FamilyQuery(args.g, r, s, sign)


def witness_dict(w: Witness, eps: int) -> dict:
    """Flat, JSON-ready view of a witness; eps is the query's exceptional coefficient."""
    rep = w.report
    return {
        "d": w.d,
        "mu": w.mu,
        "sign": _sign_word(w.sign),
        "x": w.x,
        "y": w.y,
        "D": {"x": w.D.x, "y": w.D.y},
        "F": {"x": w.F.x, "y": w.F.y},
        "F2": rep["f_square"].actual,
        "FdotH": w.F.x,
        "DdotH": rep["dh_threshold"].actual,
        "pell_residual": rep["pell_residual"].actual,
        "bb": {"eps": eps, "q": rep["bb_square"].actual, "b": w.F.x},
        "checks": rep.flags(),
        "seed": {"x": w.seed[0], "y": w.seed[1]},
        "x_threshold": w.x_threshold,
        "threshold_reachable": w.threshold_reachable,
    }


# the csv columns: paths into witness_dict, "." between levels, then checks_ok
_CSV_COLUMNS = (
    "d", "mu", "sign", "x", "y", "D.x", "D.y", "F.x", "F.y", "F2", "FdotH", "DdotH",
    "pell_residual", "bb.eps", "bb.q", "bb.b", "x_threshold", "threshold_reachable",
)


def _csv_rows(rows: list[dict], digits: dict[int, str]) -> str:
    lines = [",".join(c.replace(".", "_") for c in _CSV_COLUMNS) + ",checks_ok"]
    for row in rows:
        values = [reduce(getitem, c.split("."), row) for c in _CSV_COLUMNS]
        values.append(all(row["checks"].values()))
        # csv writes str(True) as "True"; the memo, keyed on value, would give "1"
        lines.append(",".join(str(v) if isinstance(v, (bool, str)) else digits[v] for v in values))
    return "\n".join(lines) + "\n"


def _table(rows: list[dict], digits: dict[int, str]) -> str:
    header = f"{'d':>6} {'mu':>4} {'sign':>5} {'x':>12} {'y':>10} {'F^2':>6} {'F.H':>12} {'D.H':>12} {'q':>6}  checks"
    lines = [header, "-" * len(header)]
    for d in rows:
        ok = "ok" if all(d["checks"].values()) else "FLAG:" + ",".join(
            k for k, v in d["checks"].items() if not v
        )
        lines.append(
            f"{digits[d['d']]:>6} {digits[d['mu']]:>4} {d['sign']:>5} "
            f"{_trim(digits[d['x']]):>12} {_trim(digits[d['y']]):>10} {digits[d['F2']]:>6} "
            f"{_trim(digits[d['FdotH']]):>12} {_trim(digits[d['DdotH']]):>12} "
            f"{digits[d['bb']['q']]:>6}  {ok}"
        )
    return "\n".join(lines) + "\n"


def _trim(s: str) -> str:
    """Long decimals as head..tail(N digits); a minus sign is not a digit."""
    return s if len(s) <= 12 else s[:4] + ".." + s[-4:] + f"({len(s.lstrip('-'))}d)"


class _Digits(dict):
    """Digit memo of one response: int -> decimal string, each converted once."""

    def __missing__(self, n: int) -> str:
        # int.__repr__ is what json.dumps writes; it gives "1" for True as well
        s = self[n] = int.__repr__(n)
        return s


def _json(obj, digits: dict[int, str]) -> list[str]:
    """The chunks of json.dumps(obj, indent=2, sort_keys=True), ints read from digits.

    obj is built of dicts with str keys, lists, str, int, bool and None.
    """
    parts: list[str] = []
    _write_json(obj, "", parts.append, digits)
    return parts


def _write_json(o, indent: str, put: Callable[[str], None], digits: dict[int, str]) -> None:
    if o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(digits[o])
    elif isinstance(o, str):
        put(encode_basestring_ascii(o))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(o):
            put(sep)
            put(encode_basestring_ascii(key))
            put(": ")
            _write_json(o[key], inner, put, digits)
            sep = ",\n" + inner
        put("\n" + indent + "}")
    elif isinstance(o, list):
        if not o:
            put("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in o:
            put(sep)
            _write_json(item, inner, put, digits)
            sep = ",\n" + inner
        put("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(args, doc: dict, text: Callable[[], str], digits: dict[int, str]) -> None:
    """Write doc as JSON under --format json, else text(), to --out or stdout,
    only once rendering has finished, so a failed render writes nothing."""
    chunks = _json(doc, digits) + ["\n"] if args.fmt == "json" else [text()]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(chunks)


def _render(
    args,
    witnesses: list[Witness],
    lattice=None,
    notes: Callable[[dict[int, str]], Iterable[str]] = lambda digits: (),
) -> int:
    """Return 1 if a witness failed a core check, with only that failure on stderr.

    Otherwise write notes(digits) to stderr and the witnesses out, and return
    0. The notes and every format read their decimal strings from one memo.
    """
    for w in witnesses:
        if not w.report.core_passed:
            print(f"internal check failure at d={w.d}: {w.report.failed}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    digits = _Digits()
    for line in notes(digits):
        print(line, file=sys.stderr)
    eps = exceptional_coefficient(args.g - args.r * args.s)
    rows = [witness_dict(w, eps) for w in witnesses]
    doc = {
        "query": {"g": args.g, "r": args.r, "s": args.s, "sign": args.sign, "tilde": args.tilde},
        "lattice": lattice,
        "witnesses": rows,
    }
    text = _csv_rows if args.fmt == "csv" else _table
    _emit(args, doc, lambda: text(rows, digits), digits)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.dmax < 1:
        raise ValueError("--dmax must be >= 1")
    signs = [1, -1] if args.sign == "both" else [1 if args.sign == "plus" else -1]
    witnesses: list[Witness] = []
    for sign in signs:
        q = _query_from_args(args, sign)
        witnesses.extend(enumerate_family(q, args.dmax, x_threshold=args.x_threshold))
    witnesses.sort(key=lambda w: (w.d, 0 if w.sign == 1 else 1, w.mu))
    return _render(args, witnesses)


def cmd_member(args) -> int:
    sign = 1 if args.sign == "plus" else -1
    q = _query_from_args(args, sign)
    outcomes = membership(q, args.d, x_threshold=args.x_threshold)
    rhs_zero = rhs_value(q) == 0
    notes = []
    for oc in outcomes:
        if oc.witness is not None:
            state = "member"
        elif rhs_zero:  # nothing is scanned: u^2 = d*w^2 with w != 0 forces a square d
            state = "empty (rhs = 0: no solution with y != 0 for a non-square d)"
        else:
            state = f"empty (period {oc.residue_period} scanned)"
        notes.append(f"mu={oc.mu}: {state}")
    chosen = preferred_witness(outcomes)
    if chosen is None:
        notes.append(f"d={args.d} is not a member for any admissible mu")
        print(*notes, sep="\n", file=sys.stderr)
        return EXIT_REJECTED
    lattice = {"d": chosen.d, "mu": chosen.mu}
    return _render(args, [chosen], lattice, lambda digits: notes)


def cmd_witness(args) -> int:
    sign = 1 if args.sign == "plus" else -1
    q = _query_from_args(args, sign)
    chain = witness_chain(q, args.d, args.count, x_threshold=args.x_threshold)

    def notes(digits: dict[int, str]) -> Iterable[str]:
        for w in chain:
            x0, y0, x, y, thr = (_trim(digits[n]) for n in (*w.seed, w.x, w.y, w.x_threshold))
            yield (
                f"seed (x0,y0)=({x0}, {y0}) -> witness (x,y)=({x},{y}) "
                f"threshold {thr} reachable={w.threshold_reachable}"
            )

    return _render(args, chain, {"d": chain[0].d, "mu": chain[0].mu}, notes)


def cmd_pell(args) -> int:
    if args.n == 0:
        raise ValueError("--n must be nonzero")
    unit = fundamental_unit(args.d)
    reps = solve_bounded(args.d, args.n)
    doc = {
        "d": args.d,
        "n": args.n,
        "fundamental_unit": {"u0": unit.u0, "w0": unit.w0},
        "representatives": [{"u": r.u, "w": r.w} for r in reps],
    }
    lines = [f"fundamental unit: ({unit.u0}, {unit.w0})"]
    lines.append(f"class representatives of u^2 - {args.d}w^2 = {args.n} (window):")
    lines.extend(f"  ({r.u}, {r.w})" for r in reps)
    _emit(args, doc, lambda: "\n".join(lines) + "\n", _Digits())
    return EXIT_OK


def cmd_hilbert(args) -> int:
    sign = 1 if args.sign == "plus" else -1
    q = _query_from_args(args, sign)
    _require_length(q)
    try:
        cfg = make_lattice(args.g, args.d, args.mu)
        D = divisor(cfg, args.x, args.y)
    except K3WitnessError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    F = cfg.H + q.r * D
    # the threshold is arbitrary: its check is not printed
    rep = _verify_fields(q, cfg, D, F, 0)
    q_check, b_check = rep["bb_square"], rep["bb_pairing"]
    ok = q_check.passed and b_check.passed
    doc = {
        "F": {"x": F.x, "y": F.y},
        "n": q.length,
        "eps": exceptional_coefficient(q.length),
        "q": q_check.actual,
        "q_target": q_check.expected,
        "b_with_H": F.x,
        "b_residue": b_check.actual,
        "corollary_ok": ok,
    }
    _emit(args, doc, lambda: "\n".join(f"{k}: {v}" for k, v in doc.items()) + "\n", _Digits())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_selfcheck(args) -> int:
    results = selfcheck.run_all(seed=args.seed, iterations=args.iterations, xy_bound=args.xy_bound)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _add_query_flags(p: argparse.ArgumentParser, with_sign_both: bool) -> None:
    p.add_argument("--g", type=int, required=True, help="genus, H^2 = 2g-2")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    choices = ["plus", "minus"] + (["both"] if with_sign_both else [])
    p.add_argument("--sign", choices=choices, required=True)
    p.add_argument("--tilde", action="store_true", help="swap the roles of r and s")


def _add_output_flags(p: argparse.ArgumentParser, witness_output: bool) -> None:
    """--format and --out; commands that render witnesses add --x-threshold and csv."""
    if witness_output:
        p.add_argument("--x-threshold", dest="x_threshold", type=int, default=None)
    formats = ("table", "json", "csv") if witness_output else ("table", "json")
    p.add_argument("--format", dest="fmt", choices=formats, default="table")
    p.add_argument("--out", dest="out", default=None)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later main() call."""
    parser = argparse.ArgumentParser(
        prog="k3witness",
        description="Pell-type witness search on rank-2 K3 Picard lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="family members up to --dmax")
    _add_query_flags(p, with_sign_both=True)
    p.add_argument("--dmax", type=int, required=True)
    _add_output_flags(p, witness_output=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("member", help="membership of a single d")
    _add_query_flags(p, with_sign_both=False)
    p.add_argument("--d", type=int, required=True)
    _add_output_flags(p, witness_output=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("witness", help="membership with orbit details")
    _add_query_flags(p, with_sign_both=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, default=1, help="length of descending chain")
    _add_output_flags(p, witness_output=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("pell", help="fundamental unit and class representatives")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p, witness_output=False)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("hilbert", help="degree-2 values for witness data")
    _add_query_flags(p, with_sign_both=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    _add_output_flags(p, witness_output=False)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("selfcheck", help="seeded property suites")
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--xy-bound", dest="xy_bound", type=int, default=500)
    p.set_defaults(func=cmd_selfcheck)

    return parser


# (error class, stderr prefix, exit code); the first class that matches wins,
# so the domain errors, all ValueErrors, come before ValueError itself
_EXITS = (
    (SquareDiscriminant, "square discriminant", EXIT_REJECTED),
    (SquareInput, "square input", EXIT_REJECTED),
    ((NoValidMu, DegenerateQuery, ThresholdUnreachable), "rejected", EXIT_REJECTED),
    (ValueError, "error", EXIT_USAGE),
    (RuntimeError, "internal error", EXIT_CHECK_FAILED),
)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the one place where errors become messages and exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        prefix, code = next((p, c) for cls, p, c in _EXITS if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
