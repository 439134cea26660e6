import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckelab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_multiply_both_routes_agree(capsys):
    code, out = run(capsys, "multiply", "--p", "3", "--a", "1,0", "--b", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["satake_route"] == {"(1, 1)": 4, "(2, 0)": 1}
    assert payload["coset_route"] == payload["satake_route"]
    assert payload["diff"] == {}
    assert payload["version"] == "0.1.0"


def test_multiply_budget_exit_code(capsys):
    code, out = run(
        capsys, "--budget", "100", "multiply", "--p", "5", "--a", "3,0,0", "--b", "3,0,0"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["coset_route"] is None
    assert "budget_exceeded" in payload


def test_amplifier_table(capsys):
    code, out = run(capsys, "amplifier", "--n", "2", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    row = payload["table"][0]
    assert row["(2, 0)"] == "-5/6" and row["(1, 1)"] == "5/6"


def test_cosets_consistency(capsys):
    code, out = run(capsys, "cosets", "--a", "1,0", "--p", "3", "--reps")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 4 == payload["degree_via_satake"]
    assert len(payload["representatives"]) == 4


def test_lem2_table_csv(capsys):
    code, out = run(capsys, "--format", "csv", "lem2", "--n", "2", "--j", "1",
                    "--ladder", "2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "c_0"
    assert len(lines) == 3


def test_count_lembp(capsys):
    code, out = run(capsys, "count", "--mode", "lembp", "--poly", "1,0,1,0,0,-25",
                    "--delta", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["count"] == 12


def test_count_sdelta_witness_file(tmp_path, capsys):
    path = tmp_path / "witnesses.json"
    code, out = run(
        capsys, "count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1",
        "--q", "identity", "--witness-file", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["count"] == 4
    assert sorted(payload["witnesses"]) == sorted(
        [[1, 0, 0, 1], [-1, 0, 0, -1], [0, 1, -1, 0], [0, -1, 1, 0]]
    )


def test_count_sdelta_sign_matrix_witnesses(tmp_path, capsys):
    path = tmp_path / "sign_witnesses.json"
    code, _ = run(
        capsys, "count", "--mode", "sdelta", "--n", "4", "--m", "16", "--l", "2",
        "--q", "identity", "--delta", "1e-6", "--witness-file", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["count"] == 384
    assert all(all(abs(x) == 1 for x in w) for w in payload["witnesses"])


def test_count_corollary_with_file_form(tmp_path, capsys):
    qpath = tmp_path / "form.json"
    qpath.write_text(json.dumps([[2, 1], [1, 3]]))
    code, out = run(
        capsys, "count", "--mode", "corollary", "--n", "2", "--k", "0",
        "--ladder", "4,8", "--q", f"file:{qpath}",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["count"] > 0


def test_scaling_csv_has_a_column_per_rejection_reason(capsys):
    code, out = run(capsys, "--format", "csv", "count", "--mode", "scaling",
                    "--nu", "1", "--ladder", "2")
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["count"] == "384"
    assert (cells["leaf_rejections.det"], cells["leaf_rejections.divisors"]) == ("576", "192")


@pytest.mark.parametrize("argv,needs", [
    (("count", "--mode", "sdelta", "--n", "2"), "--m and --l"),
    (("count", "--mode", "sdelta", "--n", "2", "--m", "1"), "--l"),
    (("count", "--mode", "lembp", "--delta", "0.5"), "--poly"),
], ids=["sdelta-no-m-l", "sdelta-no-l", "lembp-no-poly"])
def test_count_missing_mode_options_is_a_usage_error(capsys, argv, needs):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"needs {needs}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("multiply", "--p", "4", "--a", "1,0", "--b", "1,0"), "p must be a prime"),
    (("cosets", "--a", "1,0", "--p", "0"), "p must be a prime"),
    (("amplifier", "--n", "2", "--ladder", "5,9"), "p must be a prime"),
    (("count", "--mode", "sdelta", "--n", "2", "--m", "0", "--l", "1"),
     "m and l must be positive"),
    (("count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1", "--delta", "abc"),
     "not a rational number"),
    (("count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1", "--q", "bogus"),
     "unknown Q source"),
    (("amplifier", "--n", "0"), "rank must be >= 1"),
    (("lem2", "--n", "3", "--j", "-1"), "negative part"),
    (("lem2", "--n", "1", "--j", "1"), "needs rank n >= 2"),
    (("multiply", "--p", "3", "--a", "1,0", "--b", "1,0,0"), "differ in rank"),
    (("count", "--mode", "corollary", "--x", "0"), "X must be at least 1"),
    (("count", "--mode", "corollary", "--n", "2", "--k", "5", "--x", "4"),
     "need 0 <= k <= n - 2"),
    (("count", "--mode", "corollary", "--n", "0", "--x", "4"), "rank at least 1"),
    (("count", "--mode", "corollary", "--n", "3", "--k", "0", "--x", "4", "--q", "file:{form_2x2}"),
     "Q has rank 2, not n = 3"),
    (("count", "--mode", "scaling", "--nu", "0"), "nu must be at least 1"),
    (("count", "--mode", "corollary", "--n", "0", "--q", "random"), "rank at least 1"),
    (("count", "--mode", "sdelta", "--n", "0", "--m", "1", "--l", "1", "--q", "random"),
     "rank at least 1"),
    (("count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1", "--q", "file:{scalar}"),
     "must hold a list of rows"),
    (("count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1", "--q", "file:{flat}"),
     "must hold a list of rows"),
    (("count", "--mode", "scaling", "--ladder", "4,6"), "p must be a prime"),
    (("count", "--mode", "lembp", "--poly", "1,0,1,0,0,1/0", "--delta", "1"),
     "not a rational number: '1/0'"),
    (("count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1", "--q", "file:{zero_den}"),
     "not a rational number: '1/0'"),
], ids=["composite-p", "zero-p", "composite-ladder", "sdelta-m-zero", "delta-abc",
        "unknown-q", "amplifier-n-zero", "lem2-j-negative", "lem2-n-one",
        "multiply-rank-mismatch", "corollary-x-zero", "corollary-k-above-n",
        "corollary-n-zero", "corollary-q-rank", "scaling-nu-zero",
        "corollary-random-n-zero", "sdelta-random-n-zero", "q-file-scalar",
        "q-file-flat-list", "scaling-composite-ladder", "lembp-poly-zero-denominator",
        "q-file-zero-denominator"])
def test_invalid_values_are_usage_errors(tmp_path, capsys, argv, message):
    files = {"form_2x2": [[1, 0], [0, 1]], "scalar": 5, "flat": [1, 2],
             "zero_den": [[1, 0], [0, "1/0"]]}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    paths = {name: tmp_path / f"{name}.json" for name in files}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_q_file_is_a_usage_error(tmp_path, capsys, name):
    source = f"file:{tmp_path / name}"
    with pytest.raises(SystemExit) as exc:
        main(["count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1", "--q", source])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read Q file" in err and "Traceback" not in err


def test_failed_check_is_not_a_usage_error(monkeypatch):
    # main maps a subcommand's ValueError to exit 2; an ArithmeticError
    # from a failed check must still propagate (exit 1)
    from heckelab import cli

    def failed_check(*args, **kwargs):
        raise ArithmeticError("witness failed re-validation")

    monkeypatch.setattr(cli, "enumerate_S_delta", failed_check)
    with pytest.raises(ArithmeticError):
        main(["count", "--mode", "sdelta", "--n", "2", "--m", "1", "--l", "1"])


def test_reports_are_deterministic(capsys):
    _, out1 = run(capsys, "amplifier", "--n", "2", "--p", "7")
    _, out2 = run(capsys, "amplifier", "--n", "2", "--p", "7")
    assert out1 == out2
    _, c1 = run(capsys, "count", "--mode", "sdelta", "--n", "2", "--m", "4", "--l", "4")
    _, c2 = run(capsys, "count", "--mode", "sdelta", "--n", "2", "--m", "4", "--l", "4")
    assert c1 == c2


def test_seeded_random_form_deterministic(capsys):
    args = ("count", "--mode", "corollary", "--n", "3", "--k", "0",
            "--ladder", "6,12", "--q", "random", "--seed", "11")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_suite(capsys):
    code, out = run(capsys, "verify")
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "PASS"
    assert all(c["ok"] for c in payload["checks"])


def test_verify_check_names_are_unique(capsys):
    _, out = run(capsys, "verify")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert len(names) == len(set(names))
    # at n = 2 the two generators coincide, so the weight <= 2 pairs stand in
    assert sum(name.startswith("cross_oracle_n2_") for name in names) == 2 * 4 * 4


def test_verify_fails_on_the_lem2_functional_equation(monkeypatch, capsys):
    from heckelab import cli, hecke

    def broken(n, j, p):
        rep = hecke.verify_lem2(n, j, p)
        rep.functional_equation_ok = False
        return rep

    monkeypatch.setattr(cli, "verify_lem2", broken)
    code, out = run(capsys, "verify")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert failed == ["lem2_n3_j1_p2"]


def test_verify_fails_on_a_shifted_image_coefficient(monkeypatch, capsys):
    # R_(2,1,0) at p = 2 with its m'_(1,1,1) coefficient shifted by one keeps
    # its support, lead, symmetry and p-power denominators, so only the
    # alternant route can tell
    from heckelab import satake

    honest = satake.satake_image

    def shifted(a, p):
        img = honest(a, p)
        if (tuple(a), p) != ((2, 1, 0), 2):
            return img
        integral = {**img.integral, (1, 1, 1): img.integral[(1, 1, 1)] + 1}
        return satake.SatakeImage(a=img.a, p=p, integral=integral)

    monkeypatch.setattr(satake, "satake_image", shifted)
    code, out = run(capsys, "verify")
    assert code == 1
    checks = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
    assert not checks["satake_alternant_n3_p2_(2, 1, 0)"]
    basic = [name for name in checks if name.startswith("satake_basic_")]
    assert len(basic) == 5 and all(checks[name] for name in basic)


def test_satake_readers_do_not_name_the_spec_polynomials():
    # the production readers take every view of R_a from
    # satake.monomial_coefficients and sympoly.evaluate; SymPoly and the
    # tableau-formula polynomials are the spec route
    banned = {"SymPoly", "hall_littlewood_p", "schur"}
    for name in ("satake.py", "hecke.py", "amplifier.py", "cli.py"):
        tree = ast.parse((SRC / "heckelab" / name).read_text(), filename=name)
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update({node.name, node.asname})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
        assert not named & banned, f"{name} names {sorted(named & banned)}"


def test_verify_holds_without_assert_statements():
    # python -O strips assert statements, so no check in the package may rely
    # on one; the verify suite must still pass with them stripped
    for path in sorted((SRC / "heckelab").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "heckelab.cli", "verify"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "PASS"


# the exact counts on a given form, with numpy importable but never imported
COUNTS_WITHOUT_NUMPY = """
import sys
from fractions import Fraction
from heckelab.diophantine import (
    QuadPoly2, QuadraticForm, corollary_count_experiment, enumerate_S_delta, lembp_count,
)
I4 = QuadraticForm.identity(4)
assert enumerate_S_delta(I4, 16, 2, Fraction(1, 10**6)).count == 384
assert corollary_count_experiment(I4, 1, 2, Fraction(1, 4), [(1, 0, 0, 0)], [2, 1]).count == 45
assert lembp_count(QuadPoly2(1, 0, 1, 0, 0, -25), Fraction(1, 2)).count == 12
print('numpy' in sys.modules)
"""


# every subcommand, each count mode, seeded draws and exponent fits
# included, with numpy made unimportable
EVERY_COMMAND_WITHOUT_NUMPY = """
import contextlib, io, sys
sys.modules["numpy"] = None
from heckelab.cli import main
for argv in (
    ["satake", "--a", "2,0", "--p", "3"],
    ["multiply", "--p", "3", "--a", "1,0", "--b", "1,0"],
    ["cosets", "--a", "1,0", "--p", "3"],
    ["amplifier", "--n", "2", "--p", "5"],
    ["lem2", "--n", "2", "--j", "1", "--ladder", "2,3"],
    ["count", "--mode", "lembp", "--poly", "1,0,1,0,0,-25", "--delta", "1/2"],
    ["count", "--mode", "corollary", "--n", "4", "--k", "1", "--ladder", "4,6"],
    ["count", "--mode", "corollary", "--n", "3", "--ladder", "4,6", "--q", "random", "--seed", "3"],
    ["count", "--mode", "sdelta", "--n", "3", "--m", "4", "--l", "2", "--q", "random",
     "--delta", "1"],
    ["count", "--mode", "scaling", "--q", "random", "--ladder", "2,3", "--delta", "1/3"],
    ["verify"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
print(False)
"""


def test_cli_import_leaves_numpy_unloaded():
    # the package does not use numpy: importing the CLI and the exact counts
    # leave it unloaded, and every subcommand runs where it cannot be imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for script in ("import sys, heckelab.cli; print('numpy' in sys.modules)",
                   COUNTS_WITHOUT_NUMPY, EVERY_COMMAND_WITHOUT_NUMPY):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def test_negative_seed(capsys):
    # the seeded form rejects it with numpy's message; an identity-form
    # ladder draws its targets from seed + 1 = 0 and runs
    with pytest.raises(SystemExit) as exc:
        main(["count", "--mode", "corollary", "--n", "3", "--ladder", "4,6", "--q", "random",
              "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("heckelab: error: expected non-negative integer\n")
    code, out = run(capsys, "count", "--mode", "corollary", "--n", "3", "--ladder", "4,6",
                    "--seed", "-1")
    assert code == 0
    assert json.loads(out)["report"]["notes"]["ladder"] == [
        {"X": 4, "count": 86}, {"X": 6, "count": 120}
    ]


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, "--output", str(path), "satake", "--a", "2,0", "--p", "3")
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["scaled_coefficients"]["(1, 1)"] == "2/3"
    assert payload["checks"]["symmetric"] is True
