import argparse
import hashlib
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

import k3witness.cli
import k3witness.families
import k3witness.selfcheck
from k3witness.cli import main
from k3witness.errors import NotInLattice, NoValidMu
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
        rep = _verify_fields(q, cfg, D, F, wd["x_threshold"], wd["threshold_reachable"])
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


def test_witness_chain(capsys):
    rc = run_cli("witness", "--g", "5", "--r", "2", "--s", "2", "--d", "17",
                 "--sign", "plus", "--count", "4", "--format", "csv")
    captured = capsys.readouterr()
    assert rc == 0
    rows = captured.out.strip().splitlines()[1:]
    xs = [int(r.split(",")[3]) for r in rows]
    assert len(xs) == 4
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_enumerate_tilde_flag(capsys):
    # (g, r, s) with --tilde matches (g, s, r) without it
    rc = run_cli("enumerate", "--g", "7", "--r", "3", "--s", "2", "--sign", "plus",
                 "--tilde", "--dmax", "200", "--format", "json")
    doc_t = json.loads(capsys.readouterr().out)
    assert rc == 0
    rc = run_cli("enumerate", "--g", "7", "--r", "2", "--s", "3", "--sign", "plus",
                 "--dmax", "200", "--format", "json")
    doc_p = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc_t["query"]["tilde"] is True
    assert [w["d"] for w in doc_t["witnesses"]] == [w["d"] for w in doc_p["witnesses"]]


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
_CHAIN_ERR_SHA = "7fc770cbb2fb9f98a4b89cb3b194e5ecd3cab2a1f9a5920c578e1ebbed06c284"


@pytest.mark.parametrize(
    "argv, out_sha, err_sha",
    [
        (_CHAIN_ARGV + ("--format", "json"),
         "2bec296a4bb218b0c691fe9feedc8b2419d31ffe0bd82fc81e7860b13a6e02d3", _CHAIN_ERR_SHA),
        (_CHAIN_ARGV + ("--format", "csv"),
         "ea1188fef8da32f079889735ebe571f4372596bcdf95a5b7759faa24c1b8f5e1", _CHAIN_ERR_SHA),
        (_CHAIN_ARGV + ("--format", "table"),
         "6a7b47d979e2eeef23379c09a837e5322dacedc35f3ae52d9dc4068ad9b8adc7", _CHAIN_ERR_SHA),
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
    assert k3witness.cli._json(obj, digits) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_writer_keeps_bools_apart_from_ints(capsys):
    # True == 1 and False == 0 as dict keys: a shared memo must not mix them up
    doc = {"a": [1, True, 0, False], "b": [True, 1, False, 0], "c": {"t": True, "one": 1}}
    digits = k3witness.cli._Digits()
    for _ in range(2):
        assert k3witness.cli._json(doc, digits) == json.dumps(doc, indent=2, sort_keys=True)
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
