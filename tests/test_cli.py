import argparse
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import k3witness.cli
import k3witness.families
import k3witness.selfcheck
from k3witness.cli import main
from k3witness.errors import (
    DegenerateQuery,
    NotInLattice,
    NoValidMu,
    SquareDiscriminant,
    SquareInput,
    ThresholdUnreachable,
)
from k3witness.families import FamilyQuery, _verify_fields, member
from k3witness.lattice import divisor, make_lattice


def run_cli(*argv):
    return main(list(argv))


def test_enumerate_table_contains_known_list(capsys):
    rc = run_cli(
        "enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "both",
        "--dmax", "180",
    )
    out = capsys.readouterr().out
    assert rc == 0
    for d in (17, 33, 41, 57, 73, 89, 113, 129, 161, 177):
        assert f"\n{d:>6} " in out


def test_enumerate_json_schema(capsys):
    rc = run_cli(
        "enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "both",
        "--dmax", "60", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["query"] == {"g": 5, "r": 2, "s": 2, "sign": "both", "tilde": False}
    assert doc["lattice"] is None
    ws = doc["witnesses"]
    assert [w["d"] for w in ws] == sorted(w["d"] for w in ws)
    first = ws[0]
    for key in ("d", "mu", "sign", "x", "y", "D", "F", "F2", "FdotH", "DdotH",
                "pell_residual", "bb", "checks"):
        assert key in first
    assert set(first["bb"]) == {"eps", "q", "b"}


def test_enumerate_csv_header(capsys):
    rc = run_cli(
        "enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus",
        "--dmax", "60", "--format", "csv",
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("d,mu,sign,x,y,D_x,D_y,F_x,F_y,F2")
    assert out.splitlines()[1].startswith("17,1,plus,")


def test_enumerate_dmax_validation(capsys):
    assert run_cli("enumerate", "--g", "5", "--r", "2", "--s", "2",
                   "--sign", "both", "--dmax", "0") == 2


def test_enumerate_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = run_cli(
            "enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "both",
            "--dmax", "120", "--format", "json", "--out", str(path),
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_roundtrip_reverifies(tmp_path):
    out = tmp_path / "doc.json"
    assert run_cli(
        "enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "both",
        "--dmax", "180", "--format", "json", "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["witnesses"], "expected witnesses in the document"
    for wd in doc["witnesses"]:
        sign = 1 if wd["sign"] == "plus" else -1
        q = FamilyQuery(doc["query"]["g"], doc["query"]["r"], doc["query"]["s"], sign)
        cfg = make_lattice(q.g, wd["d"], wd["mu"])
        D = divisor(cfg, wd["D"]["x"], wd["D"]["y"])
        F = divisor(cfg, wd["F"]["x"], wd["F"]["y"])
        rep = _verify_fields(q, cfg, D, F, wd["x_threshold"])
        assert rep.flags() == wd["checks"]
        assert (wd["x"], wd["y"]) == (D.x, D.y)
        h2 = 2 * q.g - 2
        f2 = (wd["F"]["x"] ** 2 - wd["d"] * wd["F"]["y"] ** 2) // h2
        eps = wd["bb"]["eps"]
        assert (wd["F2"], wd["FdotH"], wd["DdotH"], wd["bb"]["q"], wd["bb"]["b"]) == (
            f2, wd["F"]["x"], wd["D"]["x"], f2 - 2 * (q.length - 1) * eps * eps, wd["F"]["x"]
        )


def test_member_ok(capsys):
    rc = run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                 "--sign", "plus", "--format", "json")
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["lattice"] == {"d": 17, "mu": 1}
    assert doc["witnesses"][0]["checks"]["tensor_type"]
    assert "mu=1: member" in captured.err


def test_member_square_discriminant(capsys):
    rc = run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--d", "16",
                 "--sign", "plus")
    assert rc == 3
    assert "square" in capsys.readouterr().err


def test_member_no_valid_mu(capsys):
    rc = run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--d", "19",
                 "--sign", "plus")
    assert rc == 3


def test_member_non_member(capsys):
    rc = run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--d", "65",
                 "--sign", "plus")
    assert rc == 3
    assert "not a member" in capsys.readouterr().err


def test_member_rhs_zero_note(capsys):
    # rhs = 4(g-1)(sign*r - r*s + g - 1) = 0: nothing is scanned for any mu
    rc = run_cli("member", "--g", "5", "--r", "2", "--s", "1", "--d", "17",
                 "--sign", "minus")
    assert rc == 3
    assert capsys.readouterr().err == (
        "mu=1: empty (rhs = 0: no solution with y != 0 for a non-square d)\n"
        "mu=7: empty (rhs = 0: no solution with y != 0 for a non-square d)\n"
        "d=17 is not a member for any admissible mu\n"
    )


def test_witness_chain(capsys):
    rc = run_cli("witness", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                 "--sign", "plus", "--count", "4", "--format", "csv")
    captured = capsys.readouterr()
    assert rc == 0
    rows = captured.out.strip().splitlines()[1:]
    xs = [int(r.split(",")[3]) for r in rows]
    assert len(xs) == 4
    assert all(a > b for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize(
    "command, g, tail",
    [
        ("enumerate", "7", ("--dmax", "200")),
        # d = 61 is a member of (10, 2, 3, +) and not of (10, 3, 2, +)
        ("member", "10", ("--d", "61")),
        ("witness", "10", ("--d", "61", "--count", "3")),
        ("hilbert", "10", ("--d", "61", "--mu", "5", "--x", "-113242", "--y", "-14498")),
    ],
    ids=["enumerate", "member", "witness", "hilbert"],
)
def test_enumerate_tilde_flag(capsys, command, g, tail):
    # --r a --s b --tilde is --r b --s a; only the query block echoes the flags as given
    def run(r, s, *tilde):
        rc = run_cli(command, "--g", g, "--r", r, "--s", s, "--sign", "plus", *tail,
                     "--format", "json", *tilde)
        captured = capsys.readouterr()
        return rc, captured.err, json.loads(captured.out)

    rc_t, err_t, doc_t = run("3", "2", "--tilde")
    rc_p, err_p, doc_p = run("2", "3")
    assert rc_t == rc_p == 0
    assert err_t == err_p
    if command != "hilbert":
        assert doc_t.pop("query") == {"g": int(g), "r": 3, "s": 2, "sign": "plus", "tilde": True}
        assert doc_p.pop("query")["tilde"] is False
    assert doc_t == doc_p


def test_witness_flagged_member_exits_zero(capsys):
    # threshold certified unreachable: still a member, still exit 0
    rc = run_cli("witness", "--g", "4", "--r", "3", "--s", "1", "--d", "13",
                 "--sign", "plus", "--format", "json")
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    w = doc["witnesses"][0]
    assert w["threshold_reachable"] is False
    assert w["checks"]["dh_threshold"] is False
    assert w["checks"]["f_square"] is True
    assert "reachable=False" in captured.err


def test_witness_chain_rejected_when_unreachable(capsys):
    rc = run_cli("witness", "--g", "4", "--r", "3", "--s", "1", "--d", "13",
                 "--sign", "plus", "--count", "3")
    assert rc == 3
    assert capsys.readouterr().err == (
        "rejected: x on the orbit's w != 0 blocks is bounded below by 9\n")


def test_witness_non_member_rejected(capsys):
    for count in ("1", "3"):
        rc = run_cli("witness", "--g", "5", "--r", "2", "--s", "2", "--d", "65",
                     "--sign", "plus", "--count", count)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "rejected: d=65 is not a member for any admissible mu\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_witness_count_below_one_is_usage_error(capsys, count):
    rc = run_cli("witness", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                 "--sign", "plus", "--count", count)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: count must be >= 1\n"


def test_witness_notes_trim_big_integers(capsys):
    rc = run_cli("witness", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                 "--sign", "plus", "--count", "12")
    notes = capsys.readouterr().err.splitlines()
    assert rc == 0 and len(notes) == 12
    assert notes[0] == "seed (x0,y0)=(-9, -1) -> witness (x,y)=(-9,-1) threshold -9 reachable=True"
    # the table's trimmed form: leading and trailing digits, then the number
    # of digits, which leaves out the minus sign
    assert notes[-1] == ("seed (x0,y0)=(-486..6633(41d), -117..1857(41d)) -> "
                         "witness (x,y)=(-486..6633(41d),-117..1857(41d)) "
                         "threshold -9 reachable=True")


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    rc = run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                 "--sign", "plus", "--format", "json", "--out", str(target))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: cannot write {target}: No such file or directory\n")
    assert not target.exists()


def test_pell_command(capsys):
    rc = run_cli("pell", "--d", "17", "--n", "8")
    out = capsys.readouterr().out
    assert rc == 0
    assert "(33, 8)" in out
    assert "(5, 1)" in out


def test_pell_trivial_rhs(capsys):
    rc = run_cli("pell", "--d", "17", "--n", "1")
    out = capsys.readouterr().out
    assert rc == 0
    assert "(1, 0)" in out


def test_pell_square_rejected(capsys):
    assert run_cli("pell", "--d", "4", "--n", "8") == 3


def test_pell_zero_rhs_usage(capsys):
    assert run_cli("pell", "--d", "17", "--n", "0") == 2


def test_pell_negative_d_rejected(capsys):
    assert run_cli("pell", "--d", "-5", "--n", "8") == 3
    assert capsys.readouterr().err.startswith("square input: d=-5")


_HILBERT_ARGV = ("hilbert", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus",
                 "--d", "17", "--mu", "1", "--x", "-9", "--y", "-1")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("pell", "--d", "17", "--n", "8"), ("--x-threshold", "3")),
        (_HILBERT_ARGV, ("--x-threshold", "3")),
        (("pell", "--d", "17", "--n", "8"), ("--format", "csv")),
        (_HILBERT_ARGV, ("--format", "csv")),
        (("selfcheck", "--iterations", "1"), ("--x-threshold", "3")),
        (("selfcheck", "--iterations", "1"), ("--format", "json")),
        (("selfcheck", "--iterations", "1"), ("--out", "report.txt")),
    ],
    ids=["pell-x-threshold", "hilbert-x-threshold", "pell-csv", "hilbert-csv",
         "selfcheck-x-threshold", "selfcheck-format", "selfcheck-out"],
)
def test_ignored_flags_are_usage_errors(capsys, argv, flag):
    # these commands never read the flag, so accepting it would mislead
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *flag)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_hilbert_command(capsys):
    rc = run_cli("hilbert", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus",
                 "--d", "17", "--mu", "1", "--x", "-9", "--y", "-1",
                 "--format", "json")
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["q"] == 4 and doc["eps"] == 0 and doc["corollary_ok"]
    # the same values as the witness report at these (mu, x, y)
    w = member(FamilyQuery(5, 2, 2, 1), 17)
    assert (w.mu, w.x, w.y) == (1, -9, -1)
    assert (doc["q"], doc["b_residue"]) == (
        w.report["bb_square"].actual, w.report["bb_pairing"].actual
    )


def test_hilbert_failed_corollary_exits_one(capsys):
    rc = run_cli("hilbert", "--g", "4", "--r", "1", "--s", "3", "--sign", "plus",
                 "--d", "13", "--mu", "1", "--x", "-5", "--y", "1", "--format", "json")
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert (doc["q"], doc["q_target"], doc["b_residue"]) == (-2, 2, 0)
    assert doc["corollary_ok"] is False


def test_hilbert_bad_divisor_rejected(capsys):
    rc = run_cli("hilbert", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus",
                 "--d", "17", "--mu", "1", "--x", "2", "--y", "1")
    assert rc == 3


def test_hilbert_degenerate_query_rejected(capsys):
    # g = r*s leaves a length-0 Hilbert scheme: a valid rejection, as for member
    argv = ("--g", "4", "--r", "2", "--s", "2", "--sign", "plus", "--d", "13")
    assert run_cli("hilbert", *argv, "--mu", "1", "--x", "1", "--y", "1") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rejected: g=4 equals r*s: the Hilbert scheme has length 0\n"
    assert run_cli("member", *argv) == 3
    assert capsys.readouterr().err == captured.err


def test_selfcheck_passes(capsys):
    rc = run_cli("selfcheck", "--iterations", "25")
    out = capsys.readouterr().out
    assert rc == 0
    assert "8/8 suites passed" in out


_SELFCHECK_TAIL = """\
PASS fundamental-units: fundamental units minimal for 110 non-square d <= 120
PASS bounded-solver: bounded solver matches brute force on random (d, n)
PASS family-enumeration: genus-5 families contain the expected 10 determinants (13 total)
PASS hilbert-bb: q(h1) = sign*2r for 35 witnesses
8/8 suites passed
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        ((), """\
PASS lattice-arithmetic: 200 random configs: det=-d, even squares, symmetry
PASS degree-generator: 50 configs admit a divisor with D.H = 1
PASS mukai-isometries: 200 random triples: isometry, additivity, involution
PASS twist-pell-consistency: 200 random twists match the Pell relation
""" + _SELFCHECK_TAIL),
        (("--seed", "7", "--iterations", "40", "--xy-bound", "120"), """\
PASS lattice-arithmetic: 40 random configs: det=-d, even squares, symmetry
PASS degree-generator: 25 configs admit a divisor with D.H = 1
PASS mukai-isometries: 40 random triples: isometry, additivity, involution
PASS twist-pell-consistency: 40 random twists match the Pell relation
""" + _SELFCHECK_TAIL),
    ],
    ids=["defaults", "seed7"],
)
def test_selfcheck_output_pinned(capsys, argv, expected):
    assert run_cli("selfcheck", *argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv", [("--iterations", "-3"), ("--iterations", "0"), ("--xy-bound", "0")])
def test_selfcheck_sizes_below_one_are_usage_errors(capsys, argv):
    assert run_cli("selfcheck", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: iterations and xy_bound must be >= 1, got ")


def test_selfcheck_fault_injection(monkeypatch, capsys):
    monkeypatch.setattr(k3witness.selfcheck, "det_check", lambda cfg: 0)
    rc = run_cli("selfcheck", "--iterations", "10")
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL lattice-arithmetic" in out

    # a suite that raises is a failed suite, and the others still run
    def raise_not_in_lattice(cfg):
        raise NotInLattice("intersection number is not an integer")

    monkeypatch.setattr(k3witness.selfcheck, "det_check", raise_not_in_lattice)
    rc = run_cli("selfcheck", "--iterations", "10")
    out = capsys.readouterr().out
    assert rc == 1
    assert ("FAIL lattice-arithmetic: raised NotInLattice: "
            "intersection number is not an integer") in out
    assert "7/8 suites passed" in out


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (RuntimeError("walk stalled"), 1, "internal error: walk stalled"),
        (ValueError("bad d"), 2, "error: bad d"),
        (NoValidMu("no mu"), 3, "rejected: no mu"),
        (DegenerateQuery("g=4 equals r*s"), 3, "rejected: g=4 equals r*s"),
        (ThresholdUnreachable("bounded"), 3, "rejected: bounded"),
        (SquareDiscriminant("d=16 is a perfect square"), 3,
         "square discriminant: d=16 is a perfect square"),
        (SquareInput("d=16 must be a non-square >= 2"), 3,
         "square input: d=16 must be a non-square >= 2"),
    ],
)
def test_exit_code_mapping(monkeypatch, capsys, exc, code, prefix):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(k3witness.cli, "membership", fail)
    rc = run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                 "--sign", "plus")
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert captured.err.startswith(prefix)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "both", "--dmax", "60"),
        ("member", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17"),
        ("witness", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
         "--count", "3"),
    ],
    ids=["enumerate", "member", "witness"],
)
def test_failed_core_check_exits_one(monkeypatch, capsys, argv):
    # a witness whose report fails a core check is never rendered
    monkeypatch.setattr(k3witness.families.VerificationReport, "core_passed", False)
    rc = run_cli(*argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("internal check failure at d=17: ")


@pytest.mark.parametrize("shift", [1, 2, 5])
def test_defective_first_witness_exits_one(monkeypatch, capsys, shift):
    # the chain walks from member's witness without checking it again; one
    # that failed its report is an internal failure (1), not a usage error
    # (2), nor a bound that a walk from a non-solution would report (3)
    real_member = k3witness.families.member

    def shifted(query, d, **kwargs):
        w = real_member(query, d, **kwargs)
        D = w.D + shift * w.D.config.H
        F = w.D.config.H + query.r * D
        report = _verify_fields(query, w.D.config, D, F, w.x_threshold)
        return dataclasses.replace(w, D=D, F=F, report=report)

    monkeypatch.setattr(k3witness.families, "member", shifted)
    rc = run_cli("witness", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
                 "--count", "3")
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("internal check failure at d=17: ('pell_residual'")


def test_output_ignores_the_environment(monkeypatch, tmp_path, capsys):
    argv = ("member", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17")
    assert run_cli(*argv) == 0
    clean = capsys.readouterr().out
    stray = tmp_path / "x"
    for key, value in (("K3W_FORMAT", "csv"), ("K3W_X_THRESHOLD", "0"),
                       ("K3W_OUT", str(stray)), ("K3W_SEED", "1")):
        monkeypatch.setenv(key, value)
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == clean
    assert not stray.exists()


def test_config_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "k3w.conf"
    cfg.write_text("fmt = json\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                "--sign", "plus", "--config", str(cfg))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_main_builds_the_parser_once(monkeypatch, capsys):
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for _ in range(3):
        assert run_cli("pell", "--d", "17", "--n", "8") == 0
    assert len(seen) == 3
    assert seen[1] is seen[0] and seen[2] is seen[0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "k3witness.cli", "pell", "--d", "17", "--n", "8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "(33, 8)" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "k3witness.cli", "enumerate", "--g", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


_CHAIN_ARGV = ("witness", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
               "--count", "200")
_EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_CHAIN_ERR_SHA = "27c4221122a9c9da325927dea2cc9c56b8131fbc9d8629bd9f62e3b590b21822"


@pytest.mark.parametrize(
    "argv, out_sha, err_sha",
    [
        (_CHAIN_ARGV + ("--format", "json"),
         "2bec296a4bb218b0c691fe9feedc8b2419d31ffe0bd82fc81e7860b13a6e02d3", _CHAIN_ERR_SHA),
        (_CHAIN_ARGV + ("--format", "csv"),
         "ea1188fef8da32f079889735ebe571f4372596bcdf95a5b7759faa24c1b8f5e1", _CHAIN_ERR_SHA),
        (_CHAIN_ARGV + ("--format", "table"),
         "98aec6d69cd6951ac8ae585c6fcf2460f15f7e24be14b644d26718a141ea075f", _CHAIN_ERR_SHA),
        (("member", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
          "--format", "json"),
         "86c8ae503b495dc6f9ade7155fe0be1858b64ebf16af78706d3719023cd5908b",
         "2a14f1375ff1347b17364367e55f9930f72aca67e9336cc10ab1a237ab958fb6"),
        (("enumerate", "--g", "5", "--r", "2", "--s", "2", "--sign", "both", "--dmax", "60",
          "--format", "json", "--tilde"),
         "ffd14896788eae31f8a30e7dc5cfbf9cdd4f440d3c97357f1fdc93f0128427db", _EMPTY_SHA),
        (("pell", "--d", "991", "--n", "1", "--format", "json"),
         "e9e4303081d344e92a5ccd59b290c7171ad52cbd75a8dbb97891dd119db4ea2c", _EMPTY_SHA),
        (_HILBERT_ARGV + ("--format", "json"),
         "8db4a0fa961479ee28e224f6cc048dfa74044c4aad90d31cebe1d7f7f8ccece2", _EMPTY_SHA),
    ],
    ids=["chain-json", "chain-csv", "chain-table", "member-json", "enumerate-tilde-json",
         "pell-json", "hilbert-json"],
)
def test_rendered_output_pinned(capsys, argv, out_sha, err_sha):
    # the chain's x passes 700 digits; every byte of both streams is pinned
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha


_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\u00e9\u2028\u20ac\U0001f600'))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _TEXT | st.text()
    | st.integers(-5, 5) | st.integers(-10**2000, 10**2000),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=25,
)


@given(_JSON_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}]})
def test_json_writer_matches_json_dumps(obj):
    digits = k3witness.cli._Digits()
    assert "".join(k3witness.cli._json(obj, digits)) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_writer_keeps_bools_apart_from_ints(capsys):
    # True == 1 and False == 0 as dict keys: a shared memo must not mix them up
    doc = {"a": [1, True, 0, False], "b": [True, 1, False, 0], "c": {"t": True, "one": 1}}
    digits = k3witness.cli._Digits()
    for _ in range(2):
        assert "".join(k3witness.cli._json(doc, digits)) == json.dumps(doc, indent=2, sort_keys=True)
    assert digits == {0: "0", 1: "1"}

    # a flagged witness: mu = 1 and eps = 0 next to False and True checks
    flagged = ("witness", "--g", "4", "--r", "3", "--s", "1", "--d", "13", "--sign", "plus")
    assert run_cli(*flagged, "--format", "json") == 0
    w = json.loads(capsys.readouterr().out)["witnesses"][0]
    assert (w["mu"], w["bb"]["eps"], w["threshold_reachable"]) == (1, 0, False)
    assert w["checks"]["f_square"] is True and w["checks"]["dh_threshold"] is False
    assert run_cli(*flagged, "--format", "csv") == 0
    row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
    assert (row["mu"], row["bb_eps"], row["threshold_reachable"], row["checks_ok"]) == (
        "1", "0", "False", "False")
    assert run_cli("member", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
                   "--format", "csv") == 0
    row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
    assert (row["mu"], row["bb_eps"], row["threshold_reachable"], row["checks_ok"]) == (
        "1", "0", "True", "True")


# the exit-code contract: every argv ends in 0, 1, 2 or 3, or in argparse's SystemExit(2)
_UNWRITABLE = str(Path(__file__).parent / "no-such-dir" / "out")


def _upto(lo, hi):
    # uniform, where st.integers would lean on the bounds
    return st.sampled_from(range(lo, hi + 1))


_D = _upto(-3, 200) | _upto(0, 15).map(lambda k: k * k)
# 2000 digits; a non-square d that size would make member or pell compute its unit without end
_HUGE = st.integers(10**1999, 10**2000).flatmap(lambda n: st.sampled_from((n, -n)))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(
        ("enumerate", "member", "witness", "pell", "hilbert", "selfcheck")))

    def flag(name, values):
        return [f"--{name}", str(draw(values))]

    if command == "selfcheck":
        return [command, *flag("iterations", _upto(-1, 3)), *flag("xy-bound", _upto(-1, 3))]
    if command == "pell":
        argv = [command, *flag("d", _D), *flag("n", _upto(-50, 50))]
    else:
        signs = ("plus", "minus", "both") if command == "enumerate" else ("plus", "minus")
        argv = [command, *flag("g", _upto(0, 12)), *flag("r", _upto(0, 3)),
                *flag("s", _upto(0, 3)), *flag("sign", st.sampled_from(signs))]
        if draw(st.booleans()):
            argv.append("--tilde")
        if command == "enumerate":
            argv += flag("dmax", _upto(-2, 50))
        elif command == "hilbert":
            huge = draw(st.sampled_from(("", "", "d", "x", "y")))
            for name in ("d", "mu", "x", "y"):
                argv += flag(name, _HUGE if name == huge else _D)
        else:
            argv += flag("d", _D)
        if command == "witness":
            argv += flag("count", _upto(-1, 50))
        if command != "hilbert" and draw(st.booleans()):
            argv += flag("x-threshold", _upto(-1000, 50))
    witness_output = command in ("enumerate", "member", "witness")
    argv += flag("format", st.sampled_from(("table", "json", "csv")[:3 if witness_output else 2]))
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", _UNWRITABLE]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["witness", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
          "--count", "0"])
@example(["witness", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
          "--count", "-1"])
@example(["member", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
          "--out", _UNWRITABLE])
@example(["witness", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
          "--count", "50", "--format", "json"])
@example(["hilbert", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "17",
          "--mu", "1", "--x", "-9", "--y", "1" + "0" * 1999])
# a 663-digit x fails the JSON render: nothing of it may reach stdout
@example(["member", "--g", "5", "--r", "2", "--s", "2", "--sign", "plus", "--d", "124489",
          "--format", "json"])
def test_exit_code_contract(argv):
    limit = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    sys.set_int_max_str_digits(640)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        rc = 2
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc in (0, 1, 2, 3), argv
    if rc in (2, 3):
        assert out.getvalue() == "" and err.getvalue(), argv
