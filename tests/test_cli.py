"""Command-line interface: exit codes, JSON/CSV payloads, file output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellcover as ec
import ellcover.cli as cli
import ellcover.coverparam as coverparam
from ellcover.lseries import _transfer_steps


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 0, err
    return json.loads(out)


def test_version_exits_zero(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert out.strip() == ec.__version__


def test_info_json(capsys):
    d = run_json(capsys, "info", "--q", "2", "--ell", "3")
    assert d["regime"] == {"q": 2, "ell": 3, "n_q": 2, "p": 2, "k": 1,
                           "modulus": "1,1,1"}
    assert d["base_modulus"] == "0,1"
    assert d["twist_exponents"] == [1, 2]
    assert d["theoretical"] == [
        {"N": 0, "num": 8, "den": 27},
        {"N": 3, "num": 4, "den": 9},
        {"N": 6, "num": 2, "den": 9},
        {"N": 9, "num": 1, "den": 27},
    ]


def test_info_text_mentions_regime(capsys):
    rc, out, _ = run(capsys, "info", "--q", "5", "--ell", "3")
    assert rc == 0
    assert "q=5, ell=3, n_q=2" in out
    assert "F_25" in out


def test_enumerate_count_only(capsys):
    d = run_json(capsys, "enumerate", "--q", "2", "--ell", "3",
                 "--degree", "4", "--count-only")
    assert d["count"] == 6 and d["tuples"] == []


def test_enumerate_lists_tuples_with_limit(capsys):
    d = run_json(capsys, "enumerate", "--q", "2", "--ell", "3", "--degree", "4",
                 "--limit", "2")
    assert d["count"] == 6 and len(d["tuples"]) == 2
    full = run_json(capsys, "enumerate", "--q", "2", "--ell", "3", "--degree", "2")
    assert sorted(full["tuples"]) == ["1,1,1;1", "1;1,1,1"]


def test_negative_limit_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "enumerate", "--q", "2", "--ell", "3", "--degree", "4",
                       "--limit", "-1")
    assert (rc, out) == (2, "")
    assert "--limit -1 is negative" in err and "Traceback" not in err
    d = run_json(capsys, "enumerate", "--q", "2", "--ell", "3", "--degree", "4",
                 "--limit", "0")
    assert d["count"] == 6 and d["tuples"] == []


def test_count_points_frozen(capsys):
    d = run_json(capsys, "count-points", "--q", "2", "--ell", "3",
                 "--tuple", "1,1,1;1", "--b", "1")
    assert d["twisted"] == "3,2,2,1"
    assert d["fibers"] == [
        {"x": "0", "class": 2, "fiber": 0},
        {"x": "1", "class": 1, "fiber": 0},
        {"x": "inf", "class": 0, "fiber": 3},
    ]
    assert d["total"] == 3 and d["oracle_total"] == 3


def test_count_points_text(capsys):
    rc, out, _ = run(capsys, "count-points", "--q", "2", "--ell", "3",
                     "--tuple", "1,1,1;1")
    assert rc == 0
    assert "total points: 3 (oracle agrees: 3)" in out


def test_lseries_frozen(capsys):
    d = run_json(capsys, "lseries", "--q", "2", "--ell", "3",
                 "--points", "0,1", "--w", "1,1")
    assert d["coefficients"] == [[1, 0], [2, 0]]  # 1 + 2u
    assert d["root_magnitudes"] == [0.5]
    d2 = run_json(capsys, "lseries", "--q", "2", "--ell", "3",
                  "--points", "0,1", "--w", "1,2")
    assert d2["coefficients"] == [[1, 0], [-1, 0]]  # 1 - u
    assert d2["root_magnitudes"] == [1.0]


def test_lseries_three_points_over_f5(capsys):
    d = run_json(capsys, "lseries", "--q", "5", "--ell", "3",
                 "--points", "0,1,2", "--w", "1,1,1")
    assert len(d["coefficients"]) == 3 and d["coefficients"][0] == [1, 0]
    assert d["root_magnitudes"]
    for m in d["root_magnitudes"]:
        assert min(abs(m - 1), abs(m - 0.2)) < 1e-6


def test_lseries_over_budget_is_refused_before_any_field(monkeypatch, capsys):
    # the budget needs only n_q = 11: F_{3^11}, with 177 147 elements, took
    # about 2 s to build before the transfer's budget refused it
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(coverparam, "make_field", no_field)
    monkeypatch.setattr(cli, "make_regime", no_field)
    regime = ("lseries", "--q", "3", "--ell", "23", "--points", "0,1")
    rc, out, err = run(capsys, *regime, "--w", "1,1")
    steps = _transfer_steps(3 ** 11, 2, 2 + 3)
    assert (rc, out) == (1, "")
    assert err == ("error: BudgetExceeded: the Horner transfer over value vectors "
                   f"takes about {steps} table steps, over the cap "
                   f"{coverparam.KERNEL_STEP_CAP}\n")
    # weights that all vanish mod ell, or one weight for two points, are
    # l_polynomial's to name, after the fields, as before
    for w in ("0,23", "1"):
        with pytest.raises(AssertionError, match="a field was built"):
            cli.main([*regime, "--w", w])


@pytest.mark.parametrize("tup, b, rc, err", [
    ("x+1;x", "1", 2,
     "usage error: bad polynomial literal 'x+1': invalid literal for int() with base 10: 'x+1'"),
    ("1,1019;1", "1", 2, "usage error: bad polynomial literal '1,1019': "
     "coefficient literal 1019 out of range"),
    ("1,,1;1", "1", 2,
     "usage error: bad polynomial literal '1,,1': invalid literal for int() with base 10: ''"),
    ("1,1,1;1", "1038361", 2, "usage error: literal 1038361 out of range for order 1038361"),
    ("1,1,1;1", "-1", 2, "usage error: literal -1 out of range for order 1038361"),
    ("1;1;1", "1", 1, "error: InvalidTuple: expected 2 branch polynomials, got 3"),
    # two faults: the first one met, as when the fields came first
    ("1,x;1;1", "-1", 2,
     "usage error: bad polynomial literal '1,x': invalid literal for int() with base 10: 'x'"),
    ("1", "1038361", 2, "usage error: literal 1038361 out of range for order 1038361")])
def test_count_points_faults_are_refused_before_any_field(monkeypatch, capsys, tup, b, rc, err):
    # the tuple's literals, --b and the tuple's length need only (q, ell,
    # n_q): F_{1019^2} took about 3 s to build before a bad literal was named
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(coverparam, "make_field", no_field)
    monkeypatch.setattr(cli, "make_regime", no_field)
    argv = ("count-points", "--q", "1019", "--ell", "3", "--tuple", tup, "--b", b)
    assert run(capsys, *argv) == (rc, "", err + "\n")


def test_count_points_refusals_read_as_the_field_checks(monkeypatch, capsys):
    # each refusal made before the fields reads as the check it stands for:
    # Poly's literal range, FieldCtx.elem's and validate_params' length
    reg = ec.make_regime(2, 3)
    with pytest.raises(ValueError) as poly:
        ec.Poly(reg.base, [1, 2])
    with pytest.raises(ValueError) as elem:
        reg.ext.elem(4)
    with pytest.raises(ec.InvalidTuple) as length:
        ec.validate_params(ec.CoverParams(reg, (ec.Poly.one(reg.base),) * 3, reg.ext.elem(1)))
    regime = ("count-points", "--q", "2", "--ell", "3")
    assert run(capsys, *regime, "--tuple", "1,2;1") == \
        (2, "", f"usage error: bad polynomial literal '1,2': {poly.value}\n")
    assert run(capsys, *regime, "--tuple", "1,1,1;1", "--b", "4") == \
        (2, "", f"usage error: {elem.value}\n")
    assert run(capsys, *regime, "--tuple", "1;1;1") == \
        (1, "", f"error: InvalidTuple: {length.value}\n")

    # a tuple that passes goes on to the fields
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(cli, "make_regime", no_field)
    with pytest.raises(AssertionError, match="a field was built"):
        cli.main(["count-points", "--q", "1019", "--ell", "3", "--tuple", "1,1,1;1"])


def test_log_level_info_writes_the_unit_circle_zero_to_stderr(capsys):
    import logging

    argv = ["lseries", "--q", "2", "--ell", "3", "--points", "0,1", "--w", "1,2"]
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    logger = logging.getLogger("ellcover")
    handlers, level = list(logger.handlers), logger.level
    assert run(capsys, "--log-level", "INFO", *argv) == \
        (0, out, "INFO: unit-circle zero: a root of modulus 1 occurred "
                 "(magnitudes [1.0])\n")
    assert (logger.handlers, logger.level) == (handlers, level)  # left as found
    assert run(capsys, "--log-level", "WARNING", *argv) == (0, out, "")
    assert run(capsys, "--log-level", "LOUD", *argv)[0] == 2


@pytest.mark.parametrize("argv, err", [
    (("ensemble", "--q", "1019", "--ell", "3", "--genus", "58"),
     "counting branch tuples by class sum at 1019 points to degree 60 takes about 2229034"),
    (("ensemble", "--q", "2", "--ell", "3", "--genus", "100000"),
     "counting branch tuples by class sum at 2 points to degree 100002 takes about "
     "40600016081 table steps"),
    (("ensemble", "--q", "2", "--ell", "3", "--genus", "100000", "--mode", "monte-carlo"),
     "the stratum count at degree 100002 takes about 15594022220 table steps"),
    (("enumerate", "--q", "2", "--ell", "3", "--degree", "100000", "--count-only"),
     "the stratum count at degree 100000 takes about 15593373485 table steps"),
    (("enumerate", "--q", "2", "--ell", "3", "--degree", "18"),
     "enumeration at degree 18 exceeds cap 16"),
    (("enumerate", "--q", "1019", "--ell", "3", "--degree", "4"),
     "listing primes of degree 4 over F_1019 exceeds the sieve budget")])
def test_ensemble_and_enumerate_refusals_build_no_field(monkeypatch, capsys, argv, err):
    # the budgets need only (q, ell, n_q, D), and a fresh regime's charge is
    # the run's: the law at genus 58 over (1019, 3) took about 3 s and
    # 145 MiB to build F_{1019^2} before its budget refused it
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(coverparam, "make_field", no_field)
    monkeypatch.setattr(cli, "make_regime", no_field)
    rc, out, got = run(capsys, *argv)
    assert (rc, out) == (1, "") and got.startswith(f"error: BudgetExceeded: {err}")
    # a sample count below 1 is still the run's usage error, after the fields
    with pytest.raises(AssertionError, match="a field was built"):
        cli.main(["ensemble", "--q", "2", "--ell", "3", "--genus", "100000",
                  "--mode", "monte-carlo", "--samples", "0"])


@pytest.mark.parametrize("w, err", [
    ("0,3", "error: TrivialCharacter: all weights vanish mod ell\n"),
    ("1", "error: InvalidTuple: weight vector length must match points\n")])
def test_lseries_weight_faults_keep_their_messages(capsys, w, err):
    assert run(capsys, "lseries", "--q", "5", "--ell", "3", "--points", "0,1",
               "--w", w) == (1, "", err)


def test_ensemble_json_deterministic(capsys):
    args = ("ensemble", "--q", "2", "--ell", "3", "--genus", "4",
            "--mode", "monte-carlo", "--samples", "40", "--seed", "7")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("runtime_ms"), d2.pop("runtime_ms")
    assert d1 == d2
    assert d1["mode"] == "monte-carlo" and d1["ensemble_size"] == 40


def test_ensemble_exhaustive_matches_library(capsys):
    rc, out, _ = run(capsys, "ensemble", "--q", "2", "--ell", "3",
                     "--genus", "0")
    assert rc == 0
    d = json.loads(out)
    rep = ec.exhaustive_distribution(ec.make_regime(2, 3), 0)
    want = rep.to_json_dict()
    d.pop("runtime_ms"), want.pop("runtime_ms")
    assert d == want


def test_ensemble_csv(capsys):
    rc, out, _ = run(capsys, "ensemble", "--q", "2", "--ell", "3",
                     "--genus", "0", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,count,empirical,theoretical"
    assert lines[2] == "3,6,1/1,4/9"


def test_ensemble_json_flag_agrees_with_format(capsys):
    # --json asks for the default JSON report; with --format csv, in either
    # order, it is a usage error rather than a flag silently ignored
    args = ("ensemble", "--q", "2", "--ell", "3", "--genus", "0")
    rc, out, _ = run(capsys, *args)
    rc_json, out_json, _ = run(capsys, *args, "--json")
    assert rc == rc_json == 0
    d, d_json = json.loads(out), json.loads(out_json)
    d.pop("runtime_ms"), d_json.pop("runtime_ms")
    assert d == d_json
    for extra in (("--format", "csv", "--json"), ("--json", "--format", "csv")):
        rc, out, err = run(capsys, *args, *extra)
        assert (rc, out) == (2, "")
        assert err.startswith("usage error: ") and "--format csv" in err


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "info", "--q", "2", "--ell", "3", "--json")
    rc2 = cli.main(["info", "--q", "2", "--ell", "3", "--json",
                    "--out", str(path)])
    capsys.readouterr()
    assert rc == rc2 == 0
    assert path.read_text() == out


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, target):
    # a missing directory, then a directory given as the file: one line on
    # stderr and exit 2, not a traceback
    path = tmp_path / target
    rc, out, err = run(capsys, "info", "--q", "2", "--ell", "3", "--out", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"usage error: cannot write {path}: ")
    assert err.count("\n") == 1


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--q", "2", "--ell", "3",
                     "--max-degree", "4")
    assert rc == 0
    assert "CHECK regime: PASS" in out
    assert "FAIL" not in out
    assert "all checks passed" in out


@pytest.mark.parametrize("argv, fits", [
    (("--q", "29", "--ell", "3"), "--max-degree 2 or less"),
    (("--q", "2", "--ell", "3", "--max-degree", "18"), "--max-degree 16 or less"),
    (("--q", "32", "--ell", "5"), "no --max-degree fits")])
def test_verify_over_budget_exits_1_before_any_row(capsys, monkeypatch, argv, fits):
    # the sieve's product cap at degree 4 over F_29 and F_32, and the
    # enumeration cap at degree 18, are declared limits, not failed checks
    def forbidden(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr("ellcover.verify.check_cover", forbidden)
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: BudgetExceeded: ") and fits in err


def test_verify_below_the_least_branch_degree_exits_2(capsys):
    rc, out, err = run(capsys, "verify", "--q", "3", "--ell", "7")
    assert (rc, out) == (2, "")
    assert "--max-degree 6 or more" in err and "Traceback" not in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "enumerate", "--q", "2", "--ell", "3")[0] == 2  # no degree
    assert run(capsys, "nonsense")[0] == 2
    rc, _, err = run(capsys, "count-points", "--q", "2", "--ell", "3",
                     "--tuple", "1,x;1")
    assert rc == 2 and "bad polynomial literal" in err
    rc, _, err = run(capsys, "count-points", "--q", "2", "--ell", "3",
                     "--tuple", "1,1,1;1", "--b", "99")
    assert rc == 2  # literal out of range for F_4


def test_domain_errors_exit_1(capsys):
    rc, _, err = run(capsys, "info", "--q", "4", "--ell", "3")
    assert rc == 1 and "KummerRegime" in err
    rc, _, err = run(capsys, "info", "--q", "2", "--ell", "2")
    assert rc == 1 and "CharacteristicDividesEll" in err
    # a huge prime ell or q is refused before any trial division
    for q, ell in (("2", "1000000007"), ("1000000000000000003", "5")):
        rc, _, err = run(capsys, "info", "--q", q, "--ell", ell)
        assert rc == 1 and "TooLarge" in err
    rc, _, err = run(capsys, "ensemble", "--q", "2", "--ell", "3",
                     "--genus", "1")
    assert rc == 1 and "EmptyStratum" in err
    # degree-1 branch polynomial is impossible in this regime (n_q = 2)
    rc, _, err = run(capsys, "count-points", "--q", "2", "--ell", "3",
                     "--tuple", "1,1;1")
    assert rc == 1


def test_verify_failure_exits_3(capsys, monkeypatch):
    from ellcover.verify import CheckResult

    monkeypatch.setattr(
        cli, "run_checks",
        lambda q, ell, max_D=4: [CheckResult("regime", False, "forced failure")])
    rc, out, _ = run(capsys, "verify", "--q", "2", "--ell", "3")
    assert rc == 3
    assert "CHECK regime: FAIL" in out
    assert "FAILURES PRESENT" in out


def test_crosscheck_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("ellcover.charsum.fiber_count_oracle", lambda model, x: -1)
    rc, _, err = run(capsys, "count-points", "--q", "2", "--ell", "3",
                     "--tuple", "1,1,1;1")
    assert rc == 3 and "verification failure" in err


def test_count_points_exits_3_on_a_wrong_class_vector(capsys, monkeypatch):
    # the classes at x = 0 and x = 1 swapped: the number of full fibers, and
    # so the total, is unchanged
    import ellcover.charsum as charsum

    vector = charsum.class_vector

    def swapped(regime, prime_mults, b, labeling="least"):
        out = vector(regime, prime_mults, b, labeling)
        return out[1:2] + out[:1] + out[2:]

    monkeypatch.setattr(charsum, "class_vector", swapped)
    rc, out, err = run(capsys, "count-points", "--q", "2", "--ell", "3",
                       "--tuple", "1,1,1;1")
    assert (rc, out) == (3, "")
    assert "model class 2, class vector 1" in err


def _declared_entry_point():
    """The ``module:function`` that ``[project.scripts].ellcover`` names."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["ellcover"]


def _run_python(*args):
    """Run a child interpreter with ``args`` as its arguments.

    The child imports the ``ellcover`` this test process imported, so an
    installed copy elsewhere cannot stand in for the code under test.
    """
    src = str(Path(ec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _run_child(code, *argv):
    """Run ``code`` in a child interpreter with ``argv`` as its arguments."""
    return _run_python("-c", code, *argv)


def _run_console_script(target, *argv):
    """Run ``target`` as the setuptools console-script wrapper would."""
    module, func = target.split(":")
    return _run_child("import sys; from importlib import import_module; "
                      f"sys.exit(getattr(import_module({module!r}), {func!r})())",
                      *argv)


def test_console_script_subprocess():
    target = _declared_entry_point()
    assert target == "ellcover.cli:console_main"
    proc = _run_console_script(target, "info", "--q", "2", "--ell", "3",
                               "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["regime"]["q"] == 2
    bad = _run_console_script(target, "info", "--q", "4", "--ell", "3")
    assert bad.returncode == 1
    assert "KummerRegime" in bad.stderr


@pytest.mark.parametrize("module", ["ellcover", "ellcover.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = _run_python("-m", module, "info", "--q", "2", "--ell", "3", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["regime"] == {"q": 2, "ell": 3, "n_q": 2, "p": 2,
                                                 "k": 1, "modulus": "1,1,1"}
    bad = _run_python("-m", module, "info", "--q", "4", "--ell", "3")
    assert (bad.returncode, bad.stdout) == (1, "")
    assert "KummerRegime" in bad.stderr


def test_cli_runs_without_numpy():
    # a None entry in sys.modules makes every import of numpy fail
    code = ("import sys; sys.modules['numpy'] = None; "
            "from ellcover.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = _run_child(code, "lseries", "--q", "5", "--ell", "3",
                      "--points", "0,1,2", "--w", "1,1,1", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["root_magnitudes"] == [0.2, 1.0]
    proc = _run_child(code, "verify", "--q", "2", "--ell", "3")
    assert proc.returncode == 0, proc.stderr


def _small_regimes():
    """(q, ell, n_q) for every admissible regime with q <= 32, ell <= 13 and
    Q = q**n_q <= 1024."""
    out = []
    for q in range(2, 33):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        rest = q
        while rest % p == 0:
            rest //= p
        if rest != 1:
            continue
        for ell in (3, 5, 7, 11, 13):
            if ell == p:
                continue
            n_q = next(n for n in range(1, ell) if pow(q, n, ell) == 1)
            if n_q > 1 and q ** n_q <= 1024:
                out.append((q, ell, n_q))
    return out


SMALL_REGIMES = _small_regimes()


def test_the_contract_sweep_covers_28_regimes():
    assert len(SMALL_REGIMES) == 28
    assert {q for q, _, _ in SMALL_REGIMES} >= {2, 3, 4, 5, 8, 9, 11, 25, 27, 32}


@pytest.mark.parametrize("q, ell, n_q", SMALL_REGIMES,
                         ids=[f"{q},{ell}" for q, ell, _ in SMALL_REGIMES])
def test_commands_exit_with_a_code_on_every_small_regime(capsys, q, ell, n_q):
    """info, enumerate, count-points, lseries and both ensemble modes at the
    least genus with branch degree D >= 4 end with exit code 0-3 and a
    one-line error, never an exception or a traceback.  count-points puts
    the first prime of degree n_q in slot 1 and 1 in every other slot."""
    D = -(-4 // n_q) * n_q
    genus = str((ell - 1) * (D - 2) // 2)
    regime = ["--q", str(q), "--ell", str(ell)]
    prime = ec.primes_with_degree(ec.make_regime(q, ell).base, n_q)[0]
    tuple_literal = ";".join([",".join(map(str, prime.coeffs))] + ["1"] * (ell - 2))
    commands = [
        ["info"],
        ["enumerate", "--degree", str(n_q), "--count-only"],
        ["count-points", "--tuple", tuple_literal, "--b", "1"],
        ["lseries", "--points", "0,1", "--w", "1,1"],
        ["ensemble", "--genus", genus],
        ["ensemble", "--genus", genus, "--mode", "monte-carlo", "--samples", "5"],
    ]
    for command in commands:
        rc, out, err = run(capsys, command[0], *regime, *command[1:])
        assert rc in (0, 1, 2, 3), (command, rc)
        assert "Traceback" not in err
        if rc:
            assert err.startswith(("error: ", "usage error: ", "verification failure: "))
            assert err.count("\n") == 1, err
        else:
            assert out and not err
