import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import affext
from affext import cli
from affext.algebras import find_isomorphism
from affext.congruences import Congruence
from affext.serialization import (InputError, Workspace, algebra_from_json,
                                  algebra_to_json, builtin_equations,
                                  cocycle_from_json, cocycle_to_json,
                                  congruence_from_json, congruence_to_json,
                                  datum_from_json, datum_to_json, dump_json,
                                  equations_from_json, equations_to_json)


# sha256 of `affext verify-paper --format json`: the report is a
# byte-identical contract, the same digest the benchmark checks
PAPER_DIGEST = "a4f840ab5161badb320a65ab35aa53a012d286657b8dedd3f1f33194fb4bfc6f"

# the CLI runs in a temporary directory, so a relative PYTHONPATH would not resolve
ENV = dict(os.environ,
           PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(affext.__file__))))


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "affext.cli"] + args,
                          capture_output=True, text=True, cwd=cwd, env=ENV)


@pytest.fixture()
def files(tmp_path, cat):
    dump_json(algebra_to_json(cat["Z4"]), tmp_path / "z4.json")
    dump_json(congruence_to_json(Congruence.from_blocks(4, [[0, 2], [1, 3]]),
                                 "Z4"), tmp_path / "alpha.json")
    dump_json(algebra_to_json(cat["Z2xZ2"]), tmp_path / "v4.json")
    dump_json(congruence_to_json(Congruence.from_blocks(4, [[0, 1], [2, 3]]),
                                 "Z2xZ2"), tmp_path / "beta.json")
    return tmp_path


def test_algebra_round_trip(cat):
    for name in ("Z4", "D4", "S3"):
        data = algebra_to_json(cat[name])
        back = algebra_from_json(data)
        assert back.size == cat[name].size
        assert back.tables == cat[name].tables


def test_algebra_rejects_garbage():
    with pytest.raises(InputError):
        algebra_from_json({"size": 2})
    with pytest.raises(InputError):
        algebra_from_json({"name": "x", "size": 2,
                           "signature": [{"symbol": "f", "arity": 1}],
                           "operations": {"f": [0, 5]}})
    for bad in (1.7, True):
        with pytest.raises(InputError):
            algebra_from_json({"name": "x", "size": 2,
                               "signature": [{"symbol": "f", "arity": 1}],
                               "operations": {"f": [0, bad]}})


def test_congruence_round_trip(cat):
    c = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    data = congruence_to_json(c, "Z4")
    assert congruence_from_json(data, cat["Z4"]) == c
    with pytest.raises(InputError):
        congruence_from_json({"algebra": "other", "blocks": [[0, 1, 2, 3]]},
                             cat["Z4"])


def test_equations_round_trip():
    eqs = builtin_equations("groups")
    assert equations_from_json(equations_to_json(eqs)) == eqs
    with pytest.raises(InputError):
        from affext.serialization import builtin_equations as be
        be("nope")


def test_datum_and_cocycle_round_trip(z4_datum, cat):
    from affext.datum import validate_datum
    from affext.cocycles import reconstruct
    d, T = z4_datum
    data = datum_to_json(d)
    d2 = datum_from_json(data)
    assert all(r["holds"] for r in validate_datum(d2))
    assert d2.dc.size == d.dc.size
    cdata = cocycle_to_json(d, T)
    T2 = cocycle_from_json(d2, cdata)
    rec = reconstruct(d2, T2)
    assert find_isomorphism(rec.alg, cat["Z4"]) is not None


def test_cli_con_gen(files):
    r = run_cli(["con", "gen", "--alg", "z4.json", "--pairs", "0,2"], files)
    assert r.returncode == 0
    assert "[[0, 2], [1, 3]]" in r.stdout


@pytest.mark.parametrize("pairs", ["1", "0,1,2", "0,2;1", "0,x"])
def test_cli_con_gen_rejects_malformed_pairs(files, monkeypatch, capsys, pairs):
    """A chunk that is not exactly two integers is an input error."""
    monkeypatch.chdir(files)
    code = cli.main(["con", "gen", "--alg", "z4.json", "--pairs", pairs])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "input error: bad --pairs syntax, expected 'a,b;c,d'\n"
    assert "Traceback" not in err


def test_cli_h2_text_and_json(files):
    r = run_cli(["h2", "--alg", "z4.json", "--con", "alpha.json",
                 "--sigma", "builtin:groups"], files)
    assert r.returncode == 0
    assert "H2 = Z/2, classes: [Z2xZ2 (split), Z4]" in r.stdout
    r = run_cli(["h2", "--alg", "z4.json", "--con", "alpha.json",
                 "--sigma", "builtin:groups", "--format", "json"], files)
    data = json.loads(r.stdout)
    assert data["Z2_order"] == 4 and data["B2_order"] == 2
    assert [c["extension_iso_type"] for c in data["classes"]] == ["Z2xZ2", "Z4"]


def test_cli_semidirect(files):
    r = run_cli(["semidirect", "--alg", "z4.json", "--con", "alpha.json"], files)
    assert r.returncode == 0 and "no retraction" in r.stdout
    r = run_cli(["semidirect", "--alg", "v4.json", "--con", "beta.json"], files)
    assert r.returncode == 0 and "retraction" in r.stdout


def test_cli_datum_validate(files):
    r = run_cli(["datum", "validate", "--alg", "z4.json", "--con", "alpha.json"],
                files)
    assert r.returncode == 0
    assert "FAIL" not in r.stdout


def _set_mul_entry(data):
    data["fdelta"]["mul"][0][1] = 5


def _set_e(data):
    data["fdelta"]["e"] = 2  # a class over q = 1, while e^Q = 0


@pytest.mark.parametrize("edit, claim, witness", [
    (_set_mul_entry, "(D1) structure is homomorphic", ["mul", 0, 0, [1]]),
    (_set_e, "(D4) f-delta and action values lie over f^Q", ["e", [], "fdelta"])])
def test_cli_datum_validate_names_the_witness(tmp_path, cat, edit, claim, witness):
    """The datum of D4 over its centre from a file, one f-delta entry
    edited: validate exits 1 and its JSON names the witness.  A nullary
    f-delta off its fiber is caught."""
    from affext.datum import extract_datum, group_extension
    from affext.groups import center
    d, _ = extract_datum(group_extension(cat["D4"], center(cat["D4"])))
    data = datum_to_json(d)
    dump_json(data, tmp_path / "d4datum.json")
    r = run_cli(["datum", "validate", "--datum", "d4datum.json"], tmp_path)
    assert r.returncode == 0, r.stdout
    edit(data)
    dump_json(data, tmp_path / "broken.json")
    r = run_cli(["datum", "validate", "--datum", "broken.json", "--format", "json"],
                tmp_path)
    assert r.returncode == 1, r.stderr
    failed = [c for c in json.loads(r.stdout)["checks"] if not c["holds"]]
    assert {"claim": claim, "holds": False, "witness": witness} in failed


@pytest.mark.parametrize("command", [["h2", "--sigma", "builtin:groups"], ["h1"]],
                         ids=["h2", "h1"])
def test_cli_cohomology_refuses_an_off_fiber_nullary(tmp_path, cat, monkeypatch,
                                                     capsys, command):
    """D4 over its centre with the nullary f-delta on a class over q = 1:
    the trivial cocycle breaks (C1) at e(), and h2, whose Z2 is empty
    there, exits 2 as h1 does."""
    from affext.datum import extract_datum, group_extension
    from affext.groups import center
    d, _ = extract_datum(group_extension(cat["D4"], center(cat["D4"])))
    data = datum_to_json(d)
    _set_e(data)
    dump_json(data, tmp_path / "d4e.json")
    monkeypatch.chdir(tmp_path)
    code = cli.main(command[:1] + ["--datum", "d4e.json"] + command[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert "cocycle violates (C1) at e()" in err


def test_cli_usage_errors(files):
    r = run_cli(["h2", "--alg", "missing.json", "--con", "alpha.json",
                 "--sigma", "builtin:groups"], files)
    assert r.returncode == 2
    r = run_cli(["unknown-command"], files)
    assert r.returncode == 2
    r = run_cli(["h2", "--alg", "z4.json", "--sigma", "builtin:groups"], files)
    assert r.returncode == 2  # missing --con
    bad = files / "bad.json"
    bad.write_text("{not json")
    r = run_cli(["con", "gen", "--alg", "bad.json", "--pairs", "0,1"], files)
    assert r.returncode == 2
    assert "line" in r.stderr


@pytest.mark.parametrize("command", [["h2"], ["cocycle", "check"]])
@pytest.mark.parametrize("equation", [["(mul x0 (foo x1))", "x0"], ["(mul x0)", "x0"]])
def test_cli_rejects_equations_outside_the_signature(files, monkeypatch, capsys,
                                                    command, equation):
    """An unknown symbol or a wrong argument count is an input error."""
    dump_json([equation], files / "eqs.json")
    monkeypatch.chdir(files)
    code = cli.main(command + ["--alg", "z4.json", "--con", "alpha.json",
                               "--sigma", "eqs.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error: bad equations:" in err
    assert "Traceback" not in err


def test_cli_block_outside_universe(files):
    dump_json({"algebra": "Z4", "blocks": [[0, 9]]}, files / "wide.json")
    r = run_cli(["abelian", "--alg", "z4.json", "--con", "wide.json"], files)
    assert r.returncode == 2
    assert "input error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_h1_does_not_load_numpy(files):
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys; from affext.cli import main; "
         "code = main(['h1', '--alg', 'z4.json', '--con', 'alpha.json']); "
         "print('numpy' in sys.modules); sys.exit(code)"],
        capture_output=True, text=True, cwd=files, env=ENV)
    assert r.returncode == 0, r.stderr
    assert "H1 = Z/2" in r.stdout
    assert r.stdout.splitlines()[-1] == "False"


def test_cli_cap_exceeded(files):
    r = run_cli(["h2", "--alg", "z4.json", "--con", "alpha.json",
                 "--sigma", "builtin:groups", "--cap", "2"], files)
    assert r.returncode == 3


def test_cli_json_determinism(files):
    args = ["h2", "--alg", "z4.json", "--con", "alpha.json",
            "--sigma", "builtin:groups", "--format", "json"]
    r1 = run_cli(args, files)
    r2 = run_cli(args, files)
    assert r1.stdout == r2.stdout


def test_cli_oracle(files):
    r = run_cli(["oracle", "h2", "--kernel", "Z2", "--quot", "Z2"], files)
    assert r.returncode == 0
    assert "order 2" in r.stdout


def test_cli_oracle_cap_exceeded(files):
    """2^64 candidate maps Z2xZ2xZ2 x Z2xZ2xZ2 -> Z2 exceed the default cap."""
    r = run_cli(["oracle", "h2", "--kernel", "Z2", "--quot", "Z2xZ2xZ2"], files)
    assert r.returncode == 3
    assert "cap exceeded: classical_h2" in r.stderr
    assert "Traceback" not in r.stderr


def test_verify_paper_json_is_byte_identical():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify-paper", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PAPER_DIGEST


def test_cli_equiv_and_rebuild(files):
    r = run_cli(["datum", "extract", "--alg", "z4.json", "--con", "alpha.json",
                 "--out", "bundle.json"], files)
    assert r.returncode == 0
    bundle = json.loads((files / "bundle.json").read_text())
    dump_json(bundle["cocycle"], files / "t.json")
    d = datum_from_json(bundle["datum"])
    dump_json(cocycle_to_json(d, d.trivial_cocycle()), files / "t0.json")
    r = run_cli(["equiv", "--alg", "z4.json", "--con", "alpha.json",
                 "--cocycle", "t.json", "--cocycle2", "t0.json"], files)
    assert r.returncode == 0 and "False" in r.stdout
    r = run_cli(["rebuild", "--alg", "z4.json", "--con", "alpha.json",
                 "--cocycle", "t0.json", "--format", "json"], files)
    data = json.loads(r.stdout)
    assert data["algebra"]["size"] == 4


def test_cli_stab_and_h1(files):
    r = run_cli(["stab", "--alg", "z4.json", "--con", "alpha.json"], files)
    assert r.returncode == 0 and "2" in r.stdout
    r = run_cli(["h1", "--alg", "z4.json", "--con", "alpha.json"], files)
    assert r.returncode == 0 and "H1 = Z/2" in r.stdout


def test_workspace_duplicate_names(files):
    ws = Workspace()
    ws.load_algebra(str(files / "z4.json"))
    with pytest.raises(InputError):
        ws.load_algebra(str(files / "z4.json"))


def test_cli_non_group_signature(tmp_path):
    """--m is required for non-group signatures; with it the ternary
    pipeline runs end to end."""
    from affext.algebras import FiniteAlgebra, Signature
    sig = Signature([("m", 3)])
    m_flat = tuple((a - b + c) % 4
                   for a in range(4) for b in range(4) for c in range(4))
    alg = FiniteAlgebra(4, sig, {"m": m_flat}, name="M4")
    dump_json(algebra_to_json(alg), tmp_path / "m4.json")
    dump_json(congruence_to_json(Congruence.from_blocks(4, [[0, 2], [1, 3]]),
                                 "M4"), tmp_path / "alpha.json")
    r = run_cli(["datum", "validate", "--alg", "m4.json", "--con", "alpha.json"],
                tmp_path)
    assert r.returncode == 2  # no --m and not group-like
    r = run_cli(["datum", "validate", "--alg", "m4.json", "--con", "alpha.json",
                 "--m", "(m x0 x1 x2)"], tmp_path)
    assert r.returncode == 0, r.stderr


def _cut_fdelta_rows(data):
    data["fdelta"]["mul"] = data["fdelta"]["mul"][:3]


def _cut_action_row(data):
    data["actions"]["mul:2"][1] = data["actions"]["mul:2"][1][:3]


def _lengthen_action_row(data):
    data["actions"]["mul:2"][0].append(0)


def _drop_action_table(data):
    del data["actions"]["mul:2"]


def _fdelta_value_past_the_classes(data):
    data["fdelta"]["mul"][0][1] = 4


def _negative_action_value(data):
    data["actions"]["mul:2"][1][0] = -1


def _bool_nullary_value(data):
    data["fdelta"]["e"] = True


def _action_past_the_arity(data):
    data["actions"]["mul:3"] = data["actions"]["mul:2"]


@pytest.mark.parametrize("mutate", [_cut_fdelta_rows, _cut_action_row,
                                    _lengthen_action_row, _drop_action_table,
                                    _fdelta_value_past_the_classes,
                                    _negative_action_value, _bool_nullary_value,
                                    _action_past_the_arity])
def test_cli_rejects_ragged_datum_tables(z4_datum, tmp_path, mutate):
    """Every action table is present, every level of an f-delta or action
    table has its full length, and every value is a class."""
    data = datum_to_json(z4_datum[0])
    mutate(data)
    dump_json(data, tmp_path / "ragged.json")
    r = run_cli(["h2", "--datum", "ragged.json", "--sigma", "builtin:groups"],
                tmp_path)
    assert r.returncode == 2
    assert "input error: bad datum file:" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_rejects_ragged_cocycle_table(files, z4_datum):
    data = cocycle_to_json(z4_datum[0], z4_datum[1])
    data["tables"]["mul"] = data["tables"]["mul"][:1]
    dump_json(data, files / "ragged.json")
    r = run_cli(["cocycle", "check", "--alg", "z4.json", "--con", "alpha.json",
                 "--cocycle", "ragged.json", "--sigma", "builtin:groups"], files)
    assert r.returncode == 2
    assert "input error: bad cocycle file:" in r.stderr
    assert "Traceback" not in r.stderr


COCYCLE_COMMANDS = {
    "cocycle check": ["cocycle", "check", "--cocycle", "bad.json",
                      "--sigma", "builtin:groups"],
    "rebuild": ["rebuild", "--cocycle", "bad.json"],
    "equiv": ["equiv", "--cocycle", "bad.json", "--cocycle2", "t.json"],
}


@pytest.mark.parametrize("command", sorted(COCYCLE_COMMANDS))
@pytest.mark.parametrize("value", [999, "x", 1.5, None, -1, True],
                         ids=["999", "str", "float", "null", "-1", "true"])
def test_cli_rejects_bad_cocycle_values(files, monkeypatch, capsys, command, value):
    """A cocycle file from `datum extract` with one value of mul replaced by
    something that is no class index: exit 2, no traceback."""
    monkeypatch.chdir(files)
    base = ["--alg", "z4.json", "--con", "alpha.json"]
    assert cli.main(["datum", "extract", "--out", "bundle.json"] + base) == 0
    data = json.loads((files / "bundle.json").read_text())["cocycle"]
    dump_json(data, files / "t.json")
    data["tables"]["mul"][0][1] = value
    dump_json(data, files / "bad.json")
    capsys.readouterr()
    code = cli.main(COCYCLE_COMMANDS[command] + base)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: bad cocycle file:")
    assert "Traceback" not in err


# sha256 of `affext datum extract --format json`: the datum and cocycle
# files it writes are a byte-identical contract
EXTRACT_DIGESTS = [
    ("Z4", [0, 2], "3f0dfced51c36c0b2c41b04ca5d80e21efe186b233a5b9b080127791b4e39f30"),
    ("D4", [0, 4], "e3b22494cf59da14fadc3a41784f31f06f2e4e02e7d7fd9d678a80694e69f435"),
    ("S3", [0, 3, 4], "16c2ad3d964791dc17e6ba096189af22e8e6c63db23fd172af4e550c788e6347"),
]


@pytest.mark.parametrize("name, kernel, digest", EXTRACT_DIGESTS,
                         ids=[name for name, _, _ in EXTRACT_DIGESTS])
def test_datum_extract_json_pinned(cat, tmp_path, monkeypatch, name, kernel, digest):
    """Z4/Z2, D4 over its centre and S3/Z3."""
    from affext.groups import center, congruence_of_subgroup
    if name == "D4":
        assert sorted(center(cat["D4"])) == kernel
    g = cat[name]
    monkeypatch.chdir(tmp_path)
    dump_json(algebra_to_json(g), tmp_path / "g.json")
    dump_json(congruence_to_json(congruence_of_subgroup(g, kernel), g.name),
              tmp_path / "c.json")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["datum", "extract", "--alg", "g.json", "--con", "c.json",
                         "--format", "json"])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_datum_file_with_m_as_term(z4_datum, cat):
    from affext.datum import validate_datum
    d, _ = z4_datum
    data = datum_to_json(d)
    data["m"] = "(mul x0 (mul (inv x1) x2))"
    data["source_algebra"] = algebra_to_json(cat["Z4"])
    d2 = datum_from_json(data)
    assert all(r["holds"] for r in validate_datum(d2))
    assert d2.m_flat == d.m_flat
    data["m"] = "(mul x0 (foo x1))"
    with pytest.raises(InputError, match="symbol 'foo' not in signature"):
        datum_from_json(data)
    data.pop("source_algebra")
    with pytest.raises(InputError):
        datum_from_json(data)


@pytest.mark.parametrize("arity", [-1, 1.5, True])
def test_cli_rejects_bad_arity(files, arity):
    dump_json({"name": "x", "size": 2,
               "signature": [{"symbol": "f", "arity": arity}],
               "operations": {"f": [0, 1]}}, files / "arity.json")
    r = run_cli(["con", "gen", "--alg", "arity.json", "--pairs", "0,1"], files)
    assert r.returncode == 2
    assert "input error:" in r.stderr
    assert "arity" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("content", [{"blocks": [[]]}, [[0, 2], [1, 3]],
                                     {"blocks": [[0, 2], [True, 3]]}])
def test_cli_rejects_malformed_congruence(files, content):
    dump_json(content, files / "bad_con.json")
    r = run_cli(["abelian", "--alg", "z4.json", "--con", "bad_con.json"], files)
    assert r.returncode == 2
    assert "input error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_abelian_on_malcev_reducts(tmp_path, cat):
    """<Z4, x-y+z> is abelian over its full congruence; <S3, x y^-1 z> is not."""
    from affext.algebras import FiniteAlgebra, Signature
    for name, expected in (("Z4", True), ("S3", False)):
        g = cat[name]
        n = g.size
        m = tuple(g.op("mul", g.op("mul", x, g.op("inv", y)), z)
                  for x in range(n) for y in range(n) for z in range(n))
        alg = FiniteAlgebra(n, Signature([("m", 3)]), {"m": m}, name="M" + name)
        dump_json(algebra_to_json(alg), tmp_path / "m.json")
        r = run_cli(["abelian", "--alg", "m.json", "--con", "all",
                     "--format", "json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["abelian"] is expected
