"""The class-vector kernel: per-prime classes cached on the regime, the
per-cover class vector checked against the twisted-model oracle, and the
enumerator that hands over each tuple's primes instead of the tuple."""

import hashlib
from random import Random

import pytest

import ellcover as ec
from ellcover.coverparam import (
    ENUM_D_CAP,
    Regime,
    _enumerate_full,
    _sample_full,
    _tuple_from_primes,
)

LABELINGS = ("least", "greatest")

# (q, ell) and a branch degree with a nonempty stratum.
KERNEL_REGIMES = [((2, 3), 8), ((3, 5), 8), ((2, 5), 8), ((5, 3), 6), ((4, 5), 6)]


@pytest.mark.parametrize("qell, D", KERNEL_REGIMES)
@pytest.mark.parametrize("labeling", LABELINGS)
def test_class_vector_matches_the_twisted_model(qell, D, labeling):
    reg = ec.make_regime(*qell)
    points = ec.projective_points(reg)
    for i in range(30):
        prime_mults, b, _ = _sample_full(reg, D, Random(f"kernel:{qell}:{i}"))
        params = ec.CoverParams(reg, _tuple_from_primes(reg, prime_mults), b)
        classes = ec.class_vector(reg, prime_mults, b, labeling)
        model = ec.twisted_model(params, labeling)
        assert len(classes) == reg.q + 1
        assert classes == tuple(ec.chi_class(model, x) for x in points)
        assert reg.ell * classes.count(0) == ec.point_count_oracle(model)


def test_prime_classes_are_cached_per_labeling():
    reg = ec.make_regime(2, 3)
    prime = ec.primes_with_degree(reg.base, 4)[1]
    for labeling in LABELINGS:
        got = ec.prime_classes(reg, prime, labeling)
        assert reg._class_cache[labeling][prime.coeffs] is got
        assert ec.prime_classes(reg, prime, labeling) is got
        anchor = ec.split_prime(reg, prime, labeling)[0]
        assert got == tuple(
            ec.lth_power_class(anchor.eval(x), reg.ell)
            for x in ec.projective_points(reg)[:-1])
    assert set(reg._class_cache) == set(LABELINGS)
    with pytest.raises(ValueError):
        ec.prime_classes(reg, prime, "middle")


def test_vanishing_prime_value_raises_a_typed_error(monkeypatch):
    import ellcover.coverparam as cp

    reg = Regime(3, 5)  # a private regime: the patched split must not be cached
    x = ec.Poly(reg.ext, [0, 1])
    monkeypatch.setattr(cp, "split_prime", lambda *a, **kw: (x,) * reg.n_q)
    prime = ec.primes_with_degree(reg.base, 4)[0]
    with pytest.raises(ec.UnexpectedRoot):
        ec.prime_classes(reg, prime)
    with pytest.raises(ec.UnexpectedRoot):
        ec.class_vector(reg, [(prime, 1)], reg.ext.elem(1))
    assert reg._class_cache["least"] == {}


@pytest.mark.parametrize("labeling", LABELINGS)
def test_vanishing_packed_factor_raises_a_typed_error(monkeypatch, labeling):
    # over (2,3) the classes come from _gf2's packed halves, not from
    # split_prime: x**2 + rho**2*x, or its conjugate x**2 + rho*x, at x = 0
    from ellcover import _gf2

    reg = Regime(2, 3)  # a private regime: the patched factor must not be cached
    monkeypatch.setattr(_gf2, "conjugate_factor_coeffs", lambda p: (0b110, 0b010))
    prime = ec.Poly(reg.base, [1, 1, 1])
    with pytest.raises(ec.UnexpectedRoot):
        ec.prime_classes(reg, prime, labeling)
    with pytest.raises(ec.UnexpectedRoot):
        ec.class_vector(reg, [(prime, 1)], reg.ext.elem(1), labeling)
    assert reg._class_cache == {"least": {}, "greatest": {}}
    assert reg._split_cache == {}


@pytest.mark.parametrize("labeling", LABELINGS)
def test_packed_classes_match_the_split_orbit(labeling):
    # every (2,3) prime of degree <= 14: the classes read off the packed
    # factor are those of the anchored member of split_prime's Poly orbit
    reg = Regime(2, 3)
    points = ec.projective_points(reg)[:-1]
    for d in range(2, 15, 2):
        for prime in ec.primes_with_degree(reg.base, d):
            anchor = ec.split_prime(reg, prime, labeling)[0]
            assert ec.prime_classes(reg, prime, labeling) == tuple(
                ec.lth_power_class(anchor.eval(x), reg.ell) for x in points)


def test_monte_carlo_over_f2_splits_no_prime():
    reg = Regime(2, 3)
    ec.monte_carlo_distribution(reg, 30, 40, seed=1)
    assert len(reg._class_cache["least"]) > 40
    assert reg._split_cache == {}


@pytest.mark.parametrize("labeling", LABELINGS)
def test_exhaustive_genus_8_histogram(labeling):
    rep = ec.exhaustive_distribution(ec.make_regime(2, 3), 8, labeling)
    assert rep.histogram == ((0, 396), (3, 606), (6, 300), (9, 48))
    assert rep.ensemble_size == 1350


# sha256 of the coefficient tuples of list(enumerate_tuples(R, D)), first 16
# hex digits, as produced before enumeration carried the prime lists.
ENUMERATION_DIGESTS = {
    (2, 3): {0: "21c11905c93ca673", 2: "2698eaf3ab82ab57", 4: "a8c80f4192f2bc31",
             6: "e706173ab2e5351c", 8: "2a4b91dc83c78c35"},
    (3, 5): {0: "214af5be044bb3c7", 4: "d71c310ee6b67c23", 8: "4d3204567783be44"},
}


@pytest.mark.parametrize("qell", sorted(ENUMERATION_DIGESTS))
def test_enumeration_order_is_unchanged(qell):
    reg = ec.make_regime(*qell)
    for D in range(9):
        tuples = list(ec.enumerate_tuples(reg, D))
        full = list(_enumerate_full(reg, D))
        assert len(tuples) == len(full)
        digest = ENUMERATION_DIGESTS[qell].get(D)
        if digest is None:
            assert tuples == []
            continue
        coeffs = repr([tuple(f.coeffs for f in fs) for fs in tuples]).encode()
        assert hashlib.sha256(coeffs).hexdigest()[:16] == digest
        for fs, prime_mults in zip(tuples, full):
            factored = sorted((pr.coeffs, i) for i, f in enumerate(fs, start=1)
                              for pr, _ in ec.factor(f))
            assert sorted((pr.coeffs, slot) for pr, slot in prime_mults) == factored


def test_enumerate_full_checks_its_budget():
    reg = ec.make_regime(2, 3)
    with pytest.raises(ec.BudgetExceeded):
        next(_enumerate_full(reg, ENUM_D_CAP + reg.n_q))
    with pytest.raises(ValueError):
        next(_enumerate_full(reg, -2))


def test_enumeration_budget_is_checked_at_the_call():
    reg = ec.make_regime(2, 3)
    with pytest.raises(ec.BudgetExceeded):
        _enumerate_full(reg, ENUM_D_CAP + reg.n_q)
    with pytest.raises(ValueError):
        _enumerate_full(reg, -2)
