"""The self-contained consistency battery."""

import ellcover as ec
from ellcover.verify import CheckResult, run_checks

EXPECTED_CHECKS = [
    "regime",
    "fiber-oracle",
    "twisted-degree",
    "stable-factorization",
    "labeling-invariance",
    "power-orbit",
    "stratum-count",
    "constrained-crosscheck",
    "sampling",
    "point-count-oracle",
    "class-kernel",
]


def test_battery_green_on_reference_regime():
    results = run_checks(2, 3, max_D=4)
    assert [r.name for r in results] == EXPECTED_CHECKS
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert isinstance(r, CheckResult) and r.detail


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


def test_check_result_shape():
    r = CheckResult("demo", True, "detail text")
    assert r.name == "demo" and r.passed and r.detail == "detail text"
