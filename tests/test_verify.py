"""The self-contained consistency battery."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellcover as ec
import ellcover.charsum as charsum
import ellcover.coverparam as coverparam
import ellcover.verify as verify
from ellcover.verify import CheckResult, run_checks

import naive

EXPECTED_CHECKS = [
    "regime",
    "fiber-oracle",
    "labeling-invariance",
    "stratum-count",
    "constrained-crosscheck",
    "sampling",
    "l-polynomial",
    "exact-law",
]


def test_battery_green_on_reference_regime():
    results = run_checks(2, 3, max_D=4)
    assert [r.name for r in results] == EXPECTED_CHECKS
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert isinstance(r, CheckResult) and r.detail
    rows = {r.name: r for r in results}
    assert "24 covers, each under both anchoring rules" in rows["fiber-oracle"].detail
    assert "power r = 2..2 of the first 24" in rows["fiber-oracle"].detail
    # the weights at k = 2 include (1, 0), with a point of weight 0
    assert "4 weights at k=2" in rows["l-polynomial"].detail
    assert rows["l-polynomial"].detail.endswith("at k=2 the Horner transfer through degree 4")


def test_battery_green_on_second_regime():
    results = run_checks(5, 3, max_D=2, tuple_cap=10, unit_cap=4)
    assert all(r.passed for r in results), \
        [(r.name, r.detail) for r in results if not r.passed]


def test_battery_green_on_larger_ell():
    results = run_checks(2, 5, max_D=4, tuple_cap=8, unit_cap=4)
    assert all(r.passed for r in results), \
        [(r.name, r.detail) for r in results if not r.passed]


def test_bad_regime_reported_not_raised():
    results = run_checks(4, 3)
    assert len(results) == 1
    assert results[0].name == "regime" and not results[0].passed
    assert "KummerRegime" in results[0].detail
    results = run_checks(2, 2)
    assert not results[0].passed
    assert "CharacteristicDividesEll" in results[0].detail
    results = run_checks(6, 5)
    assert not results[0].passed


@pytest.mark.parametrize("q, ell, max_D, fits", [
    (32, 5, 4, "no --max-degree fits"), (29, 3, 4, "--max-degree 2 or less"),
    (2, 3, 18, "--max-degree 16 or less")])
def test_budget_refusals_build_no_field(monkeypatch, q, ell, max_D, fits):
    # the budgets need only n_q: F_{2^20}, the extension of (32, 5), took
    # seconds to build before the refusal
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(coverparam, "make_field", no_field)
    monkeypatch.setattr(verify, "make_regime", no_field)
    with pytest.raises(ec.BudgetExceeded, match=fits):
        run_checks(q, ell, max_D=max_D)


def test_max_degree_below_n_q_is_refused_before_any_row(monkeypatch):
    # (3, 7) has n_q = 6: the default max_D = 4 holds no branch degree, so
    # every row would pass on zero covers
    def forbidden(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(verify, "check_cover", forbidden)
    with pytest.raises(ValueError, match="--max-degree 6 or more"):
        run_checks(3, 7)
    with pytest.raises(ValueError, match="--max-degree 2 or more"):
        run_checks(2, 3, max_D=1)


@pytest.mark.parametrize("caps", [{"tuple_cap": 0}, {"unit_cap": 0}, {"tuple_cap": -1}])
def test_caps_below_one_are_refused_before_any_row(monkeypatch, caps):
    # tuple_cap = 0 would divide by zero in stratum-count, unit_cap = 0 would
    # pass the per-cover rows on no cover
    def forbidden(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(verify, "make_regime", forbidden)
    with pytest.raises(ValueError, match="must be 1 or more"):
        run_checks(2, 3, **caps)


def test_fiber_row_compares_every_point_with_the_class_vector(monkeypatch):
    # swapping the classes at the two affine points of F_2 keeps the number
    # of zero classes, and so every point count: only a comparison point by
    # point sees it
    vector = charsum.class_vector

    def swapped(regime, prime_mults, b, labeling="least"):
        out = vector(regime, prime_mults, b, labeling)
        return out[1:regime.q] + out[:1] + out[regime.q:]

    monkeypatch.setattr(charsum, "class_vector", swapped)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["fiber-oracle"].passed
    assert "class vector" in rows["fiber-oracle"].detail
    assert all(r.passed for name, r in rows.items() if name != "fiber-oracle")


def test_fiber_row_fails_on_a_model_scaled_by_a_non_ell_th_power(monkeypatch):
    build = charsum.twisted_model

    def scaled(params, labeling="least"):
        model = build(params, labeling)
        ext = model.regime.ext
        c = next(u for u in (ec.FieldElem(ext, v) for v in range(1, ext.order))
                 if ec.lth_power_class(u, model.regime.ell))
        return ec.TwistedModel(model.regime, params, labeling, model.stable,
                               model.f_v0.scale(c))

    monkeypatch.setattr(charsum, "twisted_model", scaled)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["fiber-oracle"].passed
    assert "class vector" in rows["fiber-oracle"].detail


def test_fiber_row_fails_on_components_that_are_not_a_frobenius_cycle(monkeypatch):
    # (2, 7) has n_q = 3: the last two components swapped keep their product
    from dataclasses import replace

    build = charsum.twisted_model

    def swapped(params, labeling="least"):
        model = build(params, labeling)
        parts = model.stable.parts
        return replace(model, stable=replace(model.stable, parts=parts[:1] + parts[:0:-1]))

    monkeypatch.setattr(charsum, "twisted_model", swapped)
    rows = {r.name: r for r in run_checks(2, 7, max_D=3, tuple_cap=2, unit_cap=1)}
    assert not rows["fiber-oracle"].passed
    assert "component 1 is not conjugate to the next" in rows["fiber-oracle"].detail


@pytest.mark.parametrize("tamper", ["unit", "slots"])
def test_fiber_row_checks_every_power_reindexing(monkeypatch, tamper):
    # a power orbit that keeps b, or that keeps every prime in its slot,
    # moves the classes of a cover off r times its own
    orbit = verify.power_orbit

    def tampered(params, r):
        moved = orbit(params, r)
        if tamper == "unit":
            return ec.CoverParams(params.regime, moved.fs, params.b)
        return ec.CoverParams(params.regime, params.fs, moved.b)

    monkeypatch.setattr(verify, "power_orbit", tampered)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["fiber-oracle"].passed
    assert "power 2 of" in rows["fiber-oracle"].detail
    assert all(r.passed for name, r in rows.items() if name != "fiber-oracle")


def test_fiber_row_reindexes_only_the_first_covers(monkeypatch):
    # no twisted model is built for a power orbit, and only ORBIT_JOBS covers
    # are moved, each by every r = 2..ell-1
    built, moved = [], []
    build, orbit = charsum.twisted_model, verify.power_orbit

    def counting_build(params, labeling="least"):
        built.append(params)
        return build(params, labeling)

    def counting_orbit(params, r):
        moved.append((params, r))
        return orbit(params, r)

    monkeypatch.setattr(charsum, "twisted_model", counting_build)
    monkeypatch.setattr(verify, "power_orbit", counting_orbit)
    monkeypatch.setattr(verify, "ORBIT_JOBS", 7)
    rows = {r.name: r for r in run_checks(2, 5, max_D=4, tuple_cap=8, unit_cap=4)}
    assert rows["fiber-oracle"].passed, rows["fiber-oracle"].detail
    covers = built[::2]
    assert len(covers) > 7 and built[1::2] == covers
    assert moved == [(params, r) for params in covers[:7] for r in (2, 3, 4)]
    assert "power r = 2..4 of the first 7 " in rows["fiber-oracle"].detail


def test_constrained_row_compares_the_least_branch_degree(monkeypatch):
    # (2, 11) has n_q = 10, above the row's usual D <= 6: it still compares
    # D = 10.  The exact-law row, which enumerates every cover of degree
    # 10, is left out of budget to keep the test short.
    def out_of_budget(regime, d):
        raise ec.BudgetExceeded("not run in this test")

    monkeypatch.setattr(verify, "_exact_law", out_of_budget)
    rows = {r.name: r for r in run_checks(2, 11, max_D=10, tuple_cap=2, unit_cap=1)}
    assert all(r.passed for r in rows.values()), rows
    assert rows["constrained-crosscheck"].detail.endswith("(D=10:6)")


def test_constrained_row_notes_a_budget_refusal(monkeypatch):
    # the class-sum count at points 0, 1 over (2, 3), charged as on a fresh
    # regime whatever the row's earlier degrees left held, takes 204 table
    # steps to D = 2, 296 to D = 4 and 412 to D = 6: under a cap between
    # them the row compares D = 2 and 4 and notes the refusal at D = 6, a
    # declared limit and not a disagreement
    reg = coverparam.Regime(2, 3)
    assert [naive.class_sum_steps(reg, 2, D) for D in (2, 4, 6)] == [204, 296, 412]
    monkeypatch.setattr(verify, "make_regime", coverparam.Regime)
    monkeypatch.setattr(coverparam, "KERNEL_STEP_CAP", 300)
    rows = {r.name: r for r in run_checks(2, 3, max_D=6)}
    row = rows["constrained-crosscheck"]
    assert row.passed, row.detail
    assert row.detail.startswith(
        "class-kernel count == direct count (D=2:0, D=4:1); class kernel out of "
        "budget from D=6: counting branch tuples by class sum at 2 points to "
        "degree 6 takes about 412 table steps")


def test_constrained_row_detects_a_tampered_kernel(monkeypatch):
    # move one prime of the highest degree from the line of (1, 2) to the
    # zero line in the kernel the class-sum side reads: it becomes
    # orthogonal to every w that (1, 2) is not.  Demand the mismatch is loud
    import ellcover.lseries as ls

    real = ls._orthogonal_at

    def lying(reg, idx, m_max):
        out = [dict(orth) for orth in real(reg, idx, m_max)]
        top = out[-1]
        for w in top:
            top[w] += (w[0] + 2 * w[1]) % 3 != 0
        return tuple(out)

    monkeypatch.setattr(ls, "_orthogonal_at", lying)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["constrained-crosscheck"].passed
    # the exact law reads the same kernel at the same two points
    assert all(r.passed for name, r in rows.items()
               if name not in ("constrained-crosscheck", "exact-law"))
    # whole counts that are off by one on every line pass the inversion's
    # own checks; the enumeration catches them
    monkeypatch.undo()
    counts = ls._class_sum_counts

    def one_more(regime, idx, D):
        out = dict(counts(regime, idx, D))
        for v in ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2)):
            out[v] = out.get(v, 0) + 1
        return out

    monkeypatch.setattr(ls, "_class_sum_counts", one_more)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["constrained-crosscheck"].passed
    assert rows["constrained-crosscheck"].detail.startswith(
        "CrossCheckMismatch: constrained count disagreement at D=2, least labeling")


def test_check_result_shape():
    r = CheckResult("demo", True, "detail text")
    assert r.name == "demo" and r.passed and r.detail == "detail text"


def test_labeling_row_checks_the_class_functional(monkeypatch):
    classes = verify.prime_classes

    def skewed(regime, prime, labeling="least"):
        out = classes(regime, prime, labeling)
        if labeling == "least":
            return out
        return tuple((c + 1) % regime.ell for c in out)

    monkeypatch.setattr(verify, "prime_classes", skewed)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["labeling-invariance"].passed
    assert "under one anchoring rule" in rows["labeling-invariance"].detail
    assert all(r.passed for name, r in rows.items() if name != "labeling-invariance")


def test_labeling_row_compares_whole_class_lines(monkeypatch):
    # swapping the classes at x = 0 and x = 1 under one rule keeps their sum,
    # so the w = 1 functional vanishes under both rules or neither, yet moves
    # a prime with classes (1, 0) to the line of (0, 1)
    classes = verify.prime_classes

    def swapped(regime, prime, labeling="least"):
        out = classes(regime, prime, labeling)
        return out if labeling == "least" else out[::-1]

    monkeypatch.setattr(verify, "prime_classes", swapped)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["labeling-invariance"].passed
    assert "under one anchoring rule" in rows["labeling-invariance"].detail


def test_stratum_count_row_fails_on_a_repeated_prime(monkeypatch):
    # at D = 4 over (2, 3) the first tuple is replaced by x**2 + x + 1 in two
    # slots: degrees, slots and the stream's count all still hold
    stream = verify._enumerate_full

    def repeating(regime, D):
        tuples = list(stream(regime, D))
        if D == 4:
            quad = ec.primes_with_degree(regime.base, 2)[0]
            tuples[0] = [(quad, 1), (quad, 2)]
        return iter(tuples)

    monkeypatch.setattr(verify, "_enumerate_full", repeating)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["stratum-count"].passed
    assert "D=4: tuple 0 repeats a prime" in rows["stratum-count"].detail


def test_l_polynomial_row_compares_with_the_enumeration(monkeypatch):
    transfer = verify.l_polynomial

    def shifted(regime, points, w, **kwargs):
        coeffs = transfer(regime, points, w, **kwargs)
        return coeffs[:-1] + [coeffs[-1] + 1] if len(coeffs) > 1 else coeffs

    monkeypatch.setattr(verify, "l_polynomial", shifted)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["l-polynomial"].passed
    assert "enumeration gives" in rows["l-polynomial"].detail
    assert all(r.passed for name, r in rows.items() if name != "l-polynomial")


def test_l_polynomial_row_compares_the_sum_with_the_transfer(monkeypatch):
    transfer = verify._transfer_coefficients

    def shifted(*args):
        coeffs = transfer(*args)
        return coeffs[:-1] + [coeffs[-1] + 1]

    monkeypatch.setattr(verify, "_transfer_coefficients", shifted)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["l-polynomial"].passed
    assert "the transfer gives" in rows["l-polynomial"].detail
    assert all(r.passed for name, r in rows.items() if name != "l-polynomial")


def test_exact_law_row_compares_with_the_enumeration(monkeypatch):
    import ellcover.ensemble as ensemble

    kernel = ensemble._class_sum_counts

    def skewed(regime, idx, D):
        # one branch tuple per class sum moved from the line of (1, 2) to
        # the line of (1, 0): the law keeps its size, so only the law itself
        # can differ
        out = dict(kernel(regime, idx, D))
        out[(1, 2)] -= 1
        out[(1, 0)] = out.get((1, 0), 0) + 1
        return out

    monkeypatch.setattr(ensemble, "_class_sum_counts", skewed)
    rows = {r.name: r for r in run_checks(2, 3, max_D=4)}
    assert not rows["exact-law"].passed
    assert "the enumeration gives" in rows["exact-law"].detail
    assert all(r.passed for name, r in rows.items() if name != "exact-law")


OFF_BY_ONE_ORACLE = """
import json
import ellcover.verify as verify
import ellcover.charsum as charsum
oracle = charsum.fiber_count_oracle
charsum.fiber_count_oracle = lambda model, x: oracle(model, x) + 1
rows = {r.name: r.passed for r in verify.run_checks(2, 3)}
print(json.dumps({"debug": __debug__, "rows": rows}))
"""


def test_rows_fail_under_python_O():
    src = str(Path(ec.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-O", "-c", OFF_BY_ONE_ORACLE],
                           capture_output=True, text=True, timeout=120, check=True,
                           env=dict(os.environ, PYTHONPATH=path))
    result = json.loads(child.stdout)
    assert result["debug"] is False
    assert list(result["rows"]) == EXPECTED_CHECKS
    assert result["rows"]["fiber-oracle"] is False
    assert all(passed for name, passed in result["rows"].items()
               if name != "fiber-oracle")
