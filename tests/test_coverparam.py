"""Regime construction, parameter validation, conjugacy-stable splitting,
twisted models, stratum enumeration/counting/sampling, all against
independent recomputation."""

import copy
import hashlib
import math
import time
from functools import reduce
from itertools import product
from operator import xor
from random import Random

import pytest

import ellcover as ec
from ellcover import _gf2, _gfp, coverparam, ensemble, fqpoly
from ellcover.coverparam import (
    DRAW_SIEVE_CAP,
    LABELINGS,
    Regime,
    _draw_prime,
    _parts_from_primes,
    _sample_full,
)

import naive


R23 = ec.make_regime(2, 3)
R53 = ec.make_regime(5, 3)
R25 = ec.make_regime(2, 5)
R27 = ec.make_regime(2, 7)


def b_unit(regime, v=1):
    return regime.ext.elem(v)


def tuples_with_b(regime, D, b_val=1):
    for fs in ec.enumerate_tuples(regime, D):
        yield ec.CoverParams(regime, fs, b_unit(regime, b_val))


# ---------------------------------------------------------------------------
# Regime.

def test_regime_errors():
    with pytest.raises(ec.KummerRegime):
        ec.make_regime(4, 3)
    with pytest.raises(ec.KummerRegime):
        ec.make_regime(7, 3)
    with pytest.raises(ec.KummerRegime):
        ec.make_regime(11, 5)
    with pytest.raises(ec.CharacteristicDividesEll):
        ec.make_regime(3, 3)
    with pytest.raises(ec.CharacteristicDividesEll):
        ec.make_regime(9, 3)
    with pytest.raises(ec.CharacteristicDividesEll):
        ec.make_regime(2, 2)
    with pytest.raises(ec.NotPrime):
        ec.make_regime(2, 9)
    with pytest.raises(ec.NotPrimePower):
        ec.make_regime(6, 5)
    # q**n_q > ell, so a huge ell needs an extension above the cap, and a huge
    # prime q is above it already: neither waits on a trial division or on
    # the order search (which for ell = 1000003 would run 10**6 steps)
    for q, ell in ((2, 1000000007), (4, 1000000000039), (10 ** 18 + 3, 5),
                   (2, 1000003)):
        with pytest.raises(ec.TooLarge):
            ec.make_regime(q, ell)


def test_regime_multiplicative_order():
    def naive_order(q, ell):
        n, acc = 1, q % ell
        while acc != 1:
            acc = acc * q % ell
            n += 1
        return n

    for reg in (R23, R53, R25, R27, ec.make_regime(3, 5), ec.make_regime(3, 7)):
        assert reg.n_q == naive_order(reg.q, reg.ell)
        assert reg.n_q > 1
        assert reg.ext.order == reg.q ** reg.n_q
        assert pow(reg.q, reg.n_q, reg.ell) == 1


def test_twist_exponents():
    for reg in (R23, R53, R25, R27):
        assert len(reg.v_exps) == reg.n_q
        assert reg.v_exps[0] == 1
        for j, v in enumerate(reg.v_exps, start=1):
            assert v == pow(reg.q, (1 - j) % (reg.ell - 1), reg.ell)
            assert 1 <= v <= reg.ell - 1
        # consecutive relation v_{j+1} * q = v_j mod ell, cyclically
        for j in range(reg.n_q):
            assert (reg.v_exps[(j + 1) % reg.n_q] * reg.q - reg.v_exps[j]) \
                % reg.ell == 0 or (j + 1) == reg.n_q
    assert R23.v_exps == (1, 2)
    assert R53.v_exps == (1, 2)
    assert R25.v_exps == (1, 3, 4, 2)


def test_make_regime_cached():
    assert ec.make_regime(2, 3) is R23


# ---------------------------------------------------------------------------
# Validation, genus, admissible degree.

def test_validate_accepts_canonical_example():
    params = ec.CoverParams(
        R23, (ec.Poly(R23.base, [1, 1, 1]), ec.Poly.one(R23.base)), b_unit(R23))
    ec.validate_params(params)


def test_validate_rejections():
    base = R23.base
    good = ec.Poly(base, [1, 1, 1])
    one = ec.Poly.one(base)
    b = b_unit(R23)

    with pytest.raises(ec.InvalidTuple):  # wrong arity
        ec.validate_params(ec.CoverParams(R23, (good,), b))
    with pytest.raises(ec.InvalidTuple):  # zero entry
        ec.validate_params(ec.CoverParams(R23, (ec.Poly.zero(base), one), b))
    with pytest.raises(ec.InvalidTuple):  # degree-1 prime factor (not n_q-divisible)
        ec.validate_params(ec.CoverParams(R23, (ec.Poly(base, [1, 1]), one), b))
    with pytest.raises(ec.InvalidTuple):  # not squarefree
        ec.validate_params(ec.CoverParams(R23, (good * good, one), b))
    with pytest.raises(ec.InvalidTuple):  # shared factor
        ec.validate_params(ec.CoverParams(R23, (good, good), b))
    with pytest.raises(ec.InvalidTuple):  # zero twisting unit
        ec.validate_params(ec.CoverParams(R23, (good, one), R23.ext.zero))
    with pytest.raises(ec.CtxMismatch):  # b in the wrong field
        ec.validate_params(ec.CoverParams(R23, (good, one), base.elem(1)))
    with pytest.raises(ec.CtxMismatch):  # branch polynomial over wrong field
        ec.validate_params(ec.CoverParams(
            R23, (ec.Poly(R23.ext, [2, 1, 1]), one), b))
    # non-monic
    f5 = R53.base
    with pytest.raises(ec.InvalidTuple):
        ec.validate_params(ec.CoverParams(
            R53, (ec.Poly(f5, [2, 2, 2]), ec.Poly.one(f5)), b_unit(R53)))


def _prime_multiplicities(params):
    """The base primes of a tuple with their slots, one factor call per
    f_i: the oracle for the list validate_params returns."""
    out = []
    for i, f in enumerate(params.fs, start=1):
        for prime, _ in ec.factor(f):
            out.append((prime, i))
    return out


@pytest.mark.parametrize("qell", [(2, 3), (3, 5), (5, 3), (4, 5)])
def test_validate_returns_the_primes_of_the_tuple(qell):
    reg = ec.make_regime(*qell)
    n_tuples = 0
    for d in range(reg.n_q, 5, reg.n_q):
        for params in tuples_with_b(reg, d):
            got = ec.validate_params(params)
            assert [(p.coeffs, i) for p, i in got] == \
                [(p.coeffs, i) for p, i in _prime_multiplicities(params)]
            n_tuples += 1
    assert n_tuples == sum(ec.count_tuples(reg, d) for d in range(reg.n_q, 5, reg.n_q))


def test_validate_rejects_a_prime_shared_by_the_outer_slots():
    reg = ec.make_regime(3, 5)  # ell - 1 = 4 slots, n_q = 4
    p4, q4 = ec.primes_with_degree(reg.base, 4)[:2]
    p8 = ec.primes_with_degree(reg.base, 8)[0]  # degree 2 * n_q
    one = ec.Poly.one(reg.base)
    b = b_unit(reg)
    with pytest.raises(ec.InvalidTuple, match="f_1 and f_4 share a factor"):
        ec.validate_params(ec.CoverParams(reg, (p4, one, q4, p4), b))
    with pytest.raises(ec.InvalidTuple, match="f_2 and f_3 share a factor"):
        ec.validate_params(ec.CoverParams(reg, (p4, p8, p8 * q4, one), b))
    # two shared pairs: the least pair of slots is the one named
    with pytest.raises(ec.InvalidTuple, match="f_1 and f_4 share a factor"):
        ec.validate_params(ec.CoverParams(reg, (p4, p8, p8, p4), b))


def test_validate_makes_no_gcd_call_beyond_factor(monkeypatch):
    # the factorizations decide coprimality: with factor answered from a
    # table, validating 12 pairwise coprime primes over (5, 13) calls no gcd
    # (a pairwise test would make 66)
    reg = ec.make_regime(5, 13)
    fs = ec.primes_with_degree(reg.base, reg.n_q)[:reg.ell - 1]
    table = {f.coeffs: ec.factor(f) for f in fs}
    params = ec.CoverParams(reg, fs, b_unit(reg))

    def no_gcd(self, other):
        raise AssertionError("validate_params called Poly.gcd")

    monkeypatch.setattr(coverparam, "factor", lambda f: table[f.coeffs])
    monkeypatch.setattr(ec.Poly, "gcd", no_gcd)
    assert [p for p, _ in ec.validate_params(params)] == list(fs)


def test_is_n_divisible():
    base = R23.base
    assert ec.is_n_divisible(ec.Poly(base, [1, 1, 1]), 2)
    assert ec.is_n_divisible(ec.Poly.one(base), 2)
    assert not ec.is_n_divisible(ec.Poly(base, [1, 1]), 2)
    assert not ec.is_n_divisible(ec.Poly(R53.base, [1, 2]), 2)  # non-monic
    with pytest.raises(ec.InvalidTuple):
        ec.is_n_divisible(ec.Poly.zero(base), 2)


def test_genus_formula_and_degenerate():
    params = ec.CoverParams(
        R23, (ec.Poly(R23.base, [1, 1, 1]), ec.Poly.one(R23.base)), b_unit(R23))
    assert ec.genus_of(params) == 0
    for D in (2, 4, 6):
        for p2 in tuples_with_b(R23, D):
            assert ec.genus_of(p2) == (R23.ell - 1) * (D - 2) // 2
            break
    degenerate = ec.CoverParams(
        R23, (ec.Poly.one(R23.base), ec.Poly.one(R23.base)), b_unit(R23))
    with pytest.raises(ec.InvalidTuple):
        ec.genus_of(degenerate)


def test_admissible_degree_roundtrip():
    for reg in (R23, R53, R25, R27):
        for g in range(0, 14):
            d = ec.admissible_D(reg, g)
            if d is None:
                continue
            assert d % reg.n_q == 0
            assert (reg.ell - 1) * (d - 2) == 2 * g
    assert ec.admissible_D(R23, 0) == 2
    assert ec.admissible_D(R23, 1) is None   # would need odd degree
    assert ec.admissible_D(R23, 8) == 10
    assert ec.admissible_D(R25, 0) is None   # D=2 not divisible by n_q=4
    assert ec.admissible_D(R25, 4) == 4
    assert ec.admissible_D(R27, 3) == 3
    assert ec.admissible_D(R23, -1) is None


# ---------------------------------------------------------------------------
# Splitting over the extension.

@pytest.mark.parametrize("reg,degs", [(R23, (2, 4, 6)), (R53, (2,)), (R25, (4,)),
                                      (R27, (3,))])
def test_split_prime_invariants(reg, degs):
    for d in degs:
        for prime in ec.primes_with_degree(reg.base, d):
            orbit = ec.split_prime(reg, prime, "least")
            assert len(orbit) == reg.n_q
            prod = orbit[0]
            for part in orbit[1:]:
                prod = prod * part
            assert prod == ec.embed(prime, reg.ext)
            for j in range(reg.n_q - 1):
                assert ec.poly_frobenius(orbit[j], reg.q) == orbit[j + 1]
            assert ec.poly_frobenius(orbit[-1], reg.q) == orbit[0]
            assert orbit[0] == min(orbit, key=ec.Poly.sort_key)
            alt = ec.split_prime(reg, prime, "greatest")
            assert set(alt) == set(orbit)
            assert alt[0] == max(orbit, key=ec.Poly.sort_key)
            for part in orbit:
                assert part.degree == d // reg.n_q
                assert part.is_monic


def test_split_prime_fast_path_agrees_with_generic_factor(monkeypatch):
    # the one-factor split over (2,3) must produce exactly the factors the
    # full factorization finds, and without the packed GF(4) factor that
    # prime_classes reads, so that it checks that factor from outside
    orbits = {}
    for d in (2, 4, 6, 8, 10, 12):
        for prime in ec.primes_with_degree(R23.base, d):
            orbit = ec.split_prime(R23, prime)
            generic = {pr for pr, _ in ec.factor(ec.embed(prime, R23.ext))}
            assert set(orbit) == generic
            orbits[prime] = orbit

    def refuse(p):
        raise RuntimeError("split_prime read the packed factor")

    monkeypatch.setattr(_gf2, "conjugate_factor_coeffs", refuse)
    reg = Regime(2, 3)
    for prime, orbit in orbits.items():
        assert ec.split_prime(reg, prime) == orbit


def _gf4_frobenius(lits):
    return [(0, 1, 3, 2)[c] for c in lits]


def test_conjugate_factor_agrees_with_the_roots_product(monkeypatch):
    # the cube-root-and-Euclid factor is, up to Frobenius, the product of the
    # roots alpha**(4**i), and it is the monic gcd of the prime with the cube
    # root of unity y plus rho: every prime of degree <= 12, then 200 seeded
    # primes of degree 14-32
    primes = [sum(c << i for i, c in enumerate(p.coeffs))
              for d in range(2, 13, 2) for p in ec.primes_with_degree(R23.base, d)]
    rng = Random(20)
    want_total = len(primes) + 200
    while len(primes) < want_total:
        d = rng.randrange(14, 33, 2)
        f = 1 << d | rng.getrandbits(d)
        if _gf2.is_irreducible(f):
            primes.append(f)
    seen = []
    half_remainder = _gf2._half_remainder

    def spy(p, y):
        seen.append((p, y))
        return half_remainder(p, y)

    monkeypatch.setattr(_gf2, "_half_remainder", spy)
    for f in primes:
        seen.clear()
        lo, hi = _gf2.conjugate_factor_coeffs(f)
        m = f.bit_length() // 2
        assert lo >> m == 1 and hi >> m == 0 and hi  # monic of degree m
        got = [(lo >> i & 1) | (hi >> i & 1) << 1 for i in range(m + 1)]
        want = naive.gf4_roots_product([f >> i & 1 for i in range(f.bit_length())])
        assert got in (want, _gf4_frobenius(want)), bin(f)
        [(p, y)] = seen
        assert p == f
        assert naive.gf2_rem(naive.gf2_mul(y, y) ^ y ^ 1, f) == 0
        assert naive.gf4_gcd(f, 0, y, 1) == (lo, hi), bin(f)


def _gf2_prime(rng, d):
    while True:
        f = 1 << d | rng.getrandbits(d)
        if naive.gf2_ben_or(f):
            return f


def test_prime_factor_is_none_exactly_on_the_composites():
    # screen passers of every even degree 18..64, squares of primes of degree
    # 9..32, products of two primes of degree >= 9, and the products that
    # pass the trace checks: None exactly where Ben-Or finds a factor
    rng = Random(31)
    cases = [0b10000100001, 0b1001001001001, 0b100000010000001]
    for d in range(18, 65, 2):
        passers = 0
        while passers < 6:
            f = 1 << d | rng.getrandbits(d)
            if f & 1 and f.bit_count() & 1 and _gf2.passes_screen(f):
                cases.append(f)
                passers += 1
    cases += [naive.gf2_mul(g, g) for g in (_gf2_prime(rng, d) for d in range(9, 33))]
    for _ in range(30):
        a = rng.randrange(9, 24)
        b = rng.randrange(9, 65 - a)
        b += (a + b) % 2  # the product has even degree
        cases.append(naive.gf2_mul(_gf2_prime(rng, a), _gf2_prime(rng, b)))
    primes = 0
    for f in cases:
        prime = naive.gf2_ben_or(f)
        assert (_gf2.prime_factor(f) is not None) == prime, bin(f)
        primes += prime
    assert 40 <= primes <= len(cases) - 60
    for f in (0b1011, 0b1, 0b10):  # odd degree, degree 0 and degree 1
        with pytest.raises(ValueError):
            _gf2.prime_factor(f)


def _prime_factor_cases():
    """Every monic f of even degree 2 to 14 with f(0) = f(1) = 1, then 20
    seeded screen passers of each even degree 34 to 128, whose low halves
    span three bytes or more."""
    for d in range(2, 15, 2):
        for mask in range(1, 1 << d, 2):
            if not mask.bit_count() & 1:
                yield 1 << d | mask
    rng = Random(39)
    for d in range(34, 129, 2):
        passers = 0
        while passers < 20:
            f = 1 << d | rng.getrandbits(d) | 1
            if f.bit_count() & 1 and _gf2.passes_screen(f):
                passers += 1
                yield f


def test_prime_factor_matches_ben_or_and_its_factor_gives_the_input():
    # None exactly where Ben-Or finds a factor, and otherwise a monic A of
    # degree d/2 off GF(2) with A * phi(A) = f, multiplied naively
    count = primes = 0
    for f in _prime_factor_cases():
        d = f.bit_length() - 1
        factor = _gf2.prime_factor(f)
        assert (factor is not None) == naive.gf2_ben_or(f), bin(f)
        count += 1
        if factor is None:
            continue
        lo, hi = factor
        assert hi and max(lo.bit_length(), hi.bit_length()) - 1 == d // 2
        assert (lo >> d // 2, hi >> d // 2) == (1, 0)
        product = (naive.gf2_mul(lo, lo) ^ naive.gf2_mul(lo, hi)
                   ^ naive.gf2_mul(hi, hi))
        assert product == f, bin(f)
        primes += 1
    assert count == sum(1 << d - 2 for d in range(2, 15, 2)) + 20 * 48
    assert 300 < primes < count - 300


def test_prime_factor_raises_when_its_cube_root_of_unity_fails(monkeypatch):
    # trace 1 makes y**2 + y = Tr(z)**2 = 1 in R, so a y that fails
    # y**2 + y + 1 = 0 is a broken orbit, not a composite p
    bits = 1 << 4 | 1 << 1 | 1  # x**4 + x + 1, prime
    assert _gf2.prime_factor(bits) is not None
    sqr = _gf2.sqr
    monkeypatch.setattr(_gf2, "sqr", lambda a: sqr(a) ^ 1)
    with pytest.raises(ec.CrossCheckMismatch, match="cube root of unity"):
        _gf2.prime_factor(bits)


@pytest.mark.parametrize("bits", [1 << 6 | 1 << 3 | 1, 1 << 12 | 1 << 3 | 1,
                                  1 << 18 | 1 << 3 | 1, 1 << 20 | 1 << 5 | 1])
def test_prime_factor_asks_ben_or_when_its_element_lies_in_a_subfield(monkeypatch, bits):
    # x**6 + x**3 + 1, the least such prime, x**12 + x**3 + 1, x**18 + x**3 + 1
    # and x**20 + x**5 + 1 are prime, and the least power x**k of trace 1
    # lies in GF(2**(d/r)) for an odd r > 1, so the orbit cannot prove them
    # prime: is_irreducible decides
    d = bits.bit_length() - 1
    assert naive.gf2_ben_or(bits)

    def orbit(z):  # z**(2**j) modulo bits, j < d
        out = [z]
        for _ in range(1, d):
            out.append(naive.gf2_rem(naive.gf2_mul(out[-1], out[-1]), bits))
        return out

    k = next(k for k in range(1, d) if reduce(xor, orbit(1 << k)) == 1)
    z = orbit(1 << k)
    assert any(z[d // r] == z[0] for r in range(3, d + 1, 2) if d % r == 0)
    asked = []
    is_irreducible = _gf2.is_irreducible
    monkeypatch.setattr(_gf2, "is_irreducible",
                        lambda f: asked.append(f) or is_irreducible(f))
    lo, hi = _gf2.prime_factor(bits)
    assert asked == [bits]
    m = d // 2
    got = [(lo >> i & 1) | (hi >> i & 1) << 1 for i in range(m + 1)]
    want = naive.gf4_roots_product([bits >> i & 1 for i in range(d + 1)])
    assert got in (want, _gf4_frobenius(want))
    monkeypatch.setattr(_gf2, "is_irreducible", lambda f: False)
    assert _gf2.prime_factor(bits) is None


@pytest.mark.parametrize("labeling", LABELINGS)
def test_monte_carlo_proves_each_drawn_prime_once(monkeypatch, labeling):
    # over (2,3) at g = 30 a candidate of degree >= 18 that passes the screen
    # is decided by prime_factor, which asks Ben-Or only from its subfield
    # fallback, and the factor it finds gives the labeling's classes: no
    # prime the draws proved reaches conjugate_factor_coeffs
    inside, ben_or, factored, proved = [], [], [], set()  # inside: callers
    is_irreducible = _gf2.is_irreducible
    prime_factor = _gf2.prime_factor
    conjugate_factor_coeffs = _gf2.conjugate_factor_coeffs

    def spy_is_irreducible(f):
        ben_or.append((f, bool(inside)))
        return is_irreducible(f)

    def spy_prime_factor(f):
        drawn = not inside
        inside.append(f)
        try:
            factor = prime_factor(f)
        finally:
            inside.pop()
        if drawn and factor is not None:
            proved.add(f)
        return factor

    def spy_conjugate_factor_coeffs(f):
        factored.append(f)
        inside.append(f)
        try:
            return conjugate_factor_coeffs(f)
        finally:
            inside.pop()

    samples = []  # each sample as the sampler returned it

    def spy_sample_full(*args):
        samples.append(sample_full(*args))
        return samples[-1]

    sample_full = ensemble._sample_full
    monkeypatch.setattr(_gf2, "is_irreducible", spy_is_irreducible)
    monkeypatch.setattr(_gf2, "prime_factor", spy_prime_factor)
    monkeypatch.setattr(_gf2, "conjugate_factor_coeffs", spy_conjugate_factor_coeffs)
    monkeypatch.setattr(ensemble, "_sample_full", spy_sample_full)
    reg = Regime(2, 3)  # a fresh regime: its class cache starts empty
    rep = ec.monte_carlo_distribution(reg, 30, 150, seed=5, labeling=labeling)
    assert len(proved) > 100
    assert all(inner for f, inner in ben_or if f.bit_length() > 18)
    assert not proved & set(factored)
    assert all(f.bit_length() <= 18 for f in factored)
    # the classes of every drawn prime of degree >= 18 went to its own
    # sample's class vector and were stored nowhere; the store holds the
    # drawn primes below 18, which prime_classes split itself, and every
    # sample's classes are those that prime_classes gives on a fresh regime
    fresh = Regime(2, 3)
    unlabeled = [_sample_full(fresh, rep.D, Random(f"5:{i}")) for i in range(150)]
    assert fresh._class_cache == {lab: {} for lab in LABELINGS}
    assert all(rows is None for _, _, rows in unlabeled)
    drawn = {pr.coeffs for pm, _, _ in unlabeled for pr, _ in pm}
    assert proved == {sum(c << i for i, c in enumerate(cs)) for cs in drawn if len(cs) > 18}
    cache = reg._class_cache
    assert set(cache[labeling]) == {c for c in drawn if len(c) <= 18}
    assert all(not cache[lab] for lab in LABELINGS if lab != labeling)
    assert [[(pr.coeffs, slot) for pr, slot in pm] for pm, _, _ in samples] == [
        [(pr.coeffs, slot) for pr, slot in pm] for pm, _, _ in unlabeled]
    monkeypatch.setattr(_gf2, "conjugate_factor_coeffs", conjugate_factor_coeffs)
    for prime_mults, _, rows in samples:
        assert rows == [ec.prime_classes(fresh, pr, labeling) for pr, _ in prime_mults]


@pytest.mark.parametrize("qell", [(3, 5), (5, 3), (2, 5), (4, 5)], ids=str)
def test_monte_carlo_proves_each_drawn_prime_once_in_every_regime(monkeypatch, qell):
    # a drawn prime is proved by its draw: _split runs no prime test, and
    # split_prime proves each prime it stores once, when it stores it.  At
    # g = 20 the draws of degree 12 over F_3, 8 to 22 over F_5 and 10 to 12
    # over F_4 are the sample's own; (2,5) stores all of its draws.  (4,5)
    # runs on a log base, whose draws decide their candidates by fqpoly's
    # rule, outside either split
    inside, tested_in_split, proved, owned = [], [], [], []
    split, split_prime = coverparam._split, coverparam.split_prime
    irreducible = coverparam.irreducible

    def spy_split(regime, prime):
        if not inside:
            owned.append(prime.degree)
        inside.append(None)
        try:
            return split(regime, prime)
        finally:
            inside.pop()

    def spy_split_prime(regime, prime, labeling="least"):
        inside.append(prime.coeffs)
        try:
            return split_prime(regime, prime, labeling)
        finally:
            inside.pop()

    def spy_irreducible(f):
        if None in inside:
            tested_in_split.append(f)
        elif inside:
            proved.append(inside[-1])
        return irreducible(f)

    samples = []

    def spy_sample_full(*args):
        samples.append(sample_full(*args))
        return samples[-1]

    sample_full = ensemble._sample_full
    monkeypatch.setattr(coverparam, "_split", spy_split)
    monkeypatch.setattr(coverparam, "split_prime", spy_split_prime)
    monkeypatch.setattr(coverparam, "irreducible", spy_irreducible)
    monkeypatch.setattr(ensemble, "_sample_full", spy_sample_full)
    reg = Regime(*qell)
    ec.monte_carlo_distribution(reg, 20, 100, seed=3)
    assert not tested_in_split
    assert sorted(proved) == sorted(reg._split_cache)
    assert bool(owned) == (qell != (2, 5))
    assert all(ec.necklace_count(reg.q, d) > DRAW_SIEVE_CAP for d in owned)
    monkeypatch.undo()
    fresh = Regime(*qell)
    for prime_mults, _, rows in samples:
        assert rows == [ec.prime_classes(fresh, pr) for pr, _ in prime_mults]


@pytest.mark.parametrize("run", [(2, 3, 30, 2000), (3, 5, 20, 600), (5, 3, 20, 600),
                                 (4, 5, 20, 600)], ids=str)
def test_a_long_run_stores_no_drawn_prime_above_the_line(monkeypatch, run):
    # a drawn prime of a degree with more than DRAW_SIEVE_CAP primes is
    # classed for its own sample: after the run neither store holds one.
    # Over (2,3) that line lies between degrees 16 and 18; over (4,5) it
    # lies between 8 (8 160 primes, 4**8 candidates) and 10
    q, ell, g, samples = run
    owned = []
    prime_classes = coverparam._prime_classes

    def spy_prime_classes(regime, prime, labeling, split, factor=None):
        if split is coverparam._split:
            owned.append(prime.degree)
        return prime_classes(regime, prime, labeling, split, factor)

    monkeypatch.setattr(coverparam, "_prime_classes", spy_prime_classes)
    reg = Regime(q, ell)
    ec.monte_carlo_distribution(reg, g, samples, seed=8)
    keys = [c for cache in (*reg._class_cache.values(), reg._split_cache) for c in cache]
    assert all(ec.necklace_count(q, len(c) - 1) <= DRAW_SIEVE_CAP for c in keys)
    assert owned and all(ec.necklace_count(q, d) > DRAW_SIEVE_CAP for d in owned)
    if (q, ell) == (2, 3):
        assert len(keys) > 500
        assert max(map(len, keys)) - 1 <= 2 * _gf2.SCREEN_DEGREE
        assert min(owned) == 2 * _gf2.SCREEN_DEGREE + 2


def _orbit_from_factor(reg, prime, labeling):
    """The orbit built from the full factorization over the extension: the
    oracle for the one-factor split."""
    parts = {pr for pr, _ in ec.factor(ec.embed(prime, reg.ext))}
    orbit = [(min if labeling == "least" else max)(parts, key=ec.Poly.sort_key)]
    for _ in range(reg.n_q - 1):
        orbit.append(ec.poly_frobenius(orbit[-1], reg.q))
    assert set(orbit) == parts
    return tuple(orbit)


def _some_primes(reg, d, limit):
    """The first `limit` primes of degree d (all when limit is None), or,
    where listing them would sieve more than 10**5 polynomials, `limit`
    primes drawn by rejection."""
    if reg.q ** d <= 10 ** 5:
        return ec.primes_with_degree(reg.base, d)[:limit]
    rng = Random(d)
    return [_draw_prime(reg, d, rng)[0] for _ in range(limit)]


@pytest.mark.parametrize("labeling", LABELINGS)
@pytest.mark.parametrize("qell,d,limit", [((3, 5), 4, None), ((3, 5), 8, 100),
                                          ((5, 3), 2, None), ((5, 3), 4, None),
                                          ((2, 5), 4, None), ((4, 5), 2, None),
                                          ((2, 5), 8, None), ((2, 7), 6, None),
                                          ((3, 5), 12, 30), ((4, 5), 4, None),
                                          ((8, 3), 4, 60), ((16, 17), 2, None),
                                          ((2, 31), 5, None)])
def test_split_prime_agrees_with_factor_oracle(qell, d, limit, labeling):
    # a private regime per labeling, so neither labeling reads the orbit the
    # other one split
    reg = Regime(*qell)
    for prime in _some_primes(reg, d, limit):
        assert ec.split_prime(reg, prime, labeling) == \
            _orbit_from_factor(reg, prime, labeling)


def test_split_prime_retries_when_x_is_an_ell_th_power(monkeypatch):
    # over (5,3) x is a cube modulo x**4 + 2x**3 + 2x + 1, so y = x**208 is
    # 1 there; the first seeded draw is z = 0, whose y is 0, and the second
    # gives a primitive cube root of unity
    reg = Regime(5, 3)
    prime = ec.Poly(reg.base, [1, 2, 0, 2, 1])
    power = (5 ** 4 - 1) // 3
    assert ec.irreducible(prime)
    assert ec.Poly.x(reg.base).pow_mod(power, prime) == ec.Poly.one(reg.base)
    draws = []
    pow_mod_coeffs = fqpoly._pow_mod_coeffs

    def spy(ctx, a, e, m):
        y = pow_mod_coeffs(ctx, a, e, m)
        if ctx is reg.base and e == power:
            draws.append((list(a), y))
        return y

    monkeypatch.setattr(fqpoly, "_pow_mod_coeffs", spy)
    assert ec.split_prime(reg, prime) == _orbit_from_factor(reg, prime, "least")
    assert [z for z, _ in draws[:2]] == [[0, 1], []]
    assert [y for _, y in draws[:2]] == [[1], []]
    assert len(draws) == 3 and draws[2][1] not in ([], [1])


def test_monte_carlo_splits_without_cantor_zassenhaus_on_the_prime(monkeypatch):
    # a prime splits by a root of unity modulo it and one gcd per coset of
    # <q> in (Z/ell)*: no Cantor-Zassenhaus draw, on the prime or on
    # anything smaller, runs in a Monte Carlo run
    reg = Regime(3, 5)

    def refuse(f, d, rng):
        raise AssertionError(f"Cantor-Zassenhaus draw on degree {f.degree}")

    monkeypatch.setattr(fqpoly, "_split_draw", refuse)
    ec.monte_carlo_distribution(reg, 20, 20, seed=7)
    assert len(reg._split_cache) > 20


@pytest.mark.parametrize("q,ell,g", [(3, 5, 20), (5, 3, 20), (3, 7, 30)])
def test_monte_carlo_proves_split_primes_without_a_root_scan(q, ell, g, monkeypatch):
    # over a packed base split_prime proves the base prime over F_q by the
    # residue screen, so no degree-m factor's points are scanned over F_Q
    reg = Regime(q, ell)

    def refuse(ctx, cs):
        raise AssertionError(f"has_root on degree {len(cs) - 1} over F_{ctx.order}")

    monkeypatch.setattr(fqpoly, "has_root", refuse)
    ec.monte_carlo_distribution(reg, g, 40, seed=7)
    assert reg._split_cache


@pytest.mark.parametrize("first,second", [
    ((3, 5, 0), (3, 3, 0)), ((3, 1, 0), (3, 3, 0)), ((3, 4, 1), (3, 4, 13)),
    ((2, 4, 0), (2, 4, 1)), ((2, 6, 0), (2, 6, 3)), ((2, 3, 0), (2, 3, 1)),
    ((2, 2, 0), (2, 4, 0)), ((2, 2, 0), (2, 6, 0)), ((2, 5, 0), (2, 5, 1))])
def test_split_prime_rejects_a_reducible_input_quickly(first, second):
    # (q, degree, index) of two primes over F_q, split in the regime (3, 5)
    # or (2, 3).  At a root of a prime of degree a, y lies in F_{q**a}, which
    # holds no w**r unless n_q divides a: (3,5) with a = 5, 1, 3 and (2,3)
    # with two cubics or quintics find a gcd of 1 at every coset, and so
    # does (2,3) with x**2 + x + 1, where y is 1, beside a quartic, where y
    # is a fifth root of unity.  The two quartics over F_3 split into
    # linears over F_81, and the two quartics or sextics over F_2 into
    # quadratics or cubics over F_4: each gcd has the factor's degree m but
    # is not prime.  Beside a sextic, x**2 + x + 1 leaves a gcd whose degree
    # is not m = 4.
    factor_check = {((3, 4, 1), (3, 4, 13)), ((2, 4, 0), (2, 4, 1)),
                    ((2, 6, 0), (2, 6, 3)), ((2, 2, 0), (2, 6, 0))}
    match = "no prime factor of degree" if (first, second) in factor_check \
        else "every coset"
    q = first[0]
    reg = Regime(q, 5 if q == 3 else 3)
    a, b = (ec.primes_with_degree(reg.base, d)[i] for _, d, i in (first, second))
    t0 = time.perf_counter()
    with pytest.raises(ec.CrossCheckMismatch, match=match):
        ec.split_prime(reg, a * b)
    assert time.perf_counter() - t0 < 1.0
    assert reg._split_cache == {}


@pytest.mark.parametrize("bits", [0b10000100001, 0b1001001001001,
                                  0b100000010000001])
def test_split_prime_rejects_a_product_that_passes_the_trace_checks(bits):
    # x**10 + x**5 + 1, x**12 + x**9 + x**6 + x**3 + 1 and x**14 + x**7 + 1
    # are products of three primes of even degree, and x**k with the least
    # k of trace 1 gives a cube root of unity and a GF(4) factor of degree
    # d/2 for each: in the packed factor that prime_classes reads, only the
    # subfield proof that p is prime rejects them.  split_prime rejects the
    # first and the third by the degree of the coset gcd, other than d/2,
    # and the second by a gcd of 1 at every coset, before its prime test.
    reg = Regime(2, 3)
    prime = ec.Poly(reg.base, [bits >> i & 1 for i in range(bits.bit_length())])
    assert not ec.irreducible(prime)
    with pytest.raises(ec.CrossCheckMismatch, match="not prime"):
        ec.split_prime(reg, prime)
    assert reg._split_cache == {}
    with pytest.raises(ec.CrossCheckMismatch, match="the input is not prime"):
        _gf2.conjugate_factor_coeffs(bits)
    with pytest.raises(ec.CrossCheckMismatch, match="the input is not prime"):
        ec.prime_classes(reg, prime)
    assert reg._class_cache == {labeling: {} for labeling in LABELINGS}


@pytest.mark.parametrize("qell", [(3, 5), (5, 3)], ids=str)
def test_a_composite_that_splits_cleanly_is_refused_by_the_prime_test(qell):
    # the product of the quartics at indices 1 and 13 over F_3, and
    # (x**2 + x + 2)(x**2 + x + 1) over F_5: each splits into n_q distinct
    # conjugates of degree m whose orbit closes and multiplies to it, so
    # every structural check of _split passes, and only the prime test
    # that split_prime runs before it stores an orbit refuses it, through
    # split_prime and through prime_classes alike
    reg = Regime(*qell)
    if qell == (3, 5):
        primes = ec.primes_with_degree(reg.base, 4)
        composite = primes[1] * primes[13]
    else:
        composite = ec.Poly(reg.base, [2, 1, 1]) * ec.Poly(reg.base, [1, 1, 1])
    orbit = coverparam._split(reg, composite)
    assert len(set(orbit)) == reg.n_q
    assert reduce(lambda f, g: f * g, orbit) == ec.embed(composite, reg.ext)
    for refuse in (ec.split_prime, ec.prime_classes):
        for labeling in LABELINGS:
            with pytest.raises(ec.CrossCheckMismatch, match="no prime factor of degree"):
                refuse(reg, composite, labeling)
    assert reg._split_cache == {}
    assert reg._class_cache == {labeling: {} for labeling in LABELINGS}


def test_stores_refuse_a_prime_over_another_field():
    # the stores are keyed by literals: over (3,5) a stored quartic over F_3
    # and the quartic over F_9 with the same literals, which is a product of
    # two quadratics there, share a key; over (2,3) x**2 + x + 1 over F_4 is
    # a product of two linears.  Each is refused as a hit and as a miss.
    r35, r23 = Regime(3, 5), Regime(2, 3)
    prime = ec.primes_with_degree(r35.base, 4)[0]
    ec.prime_classes(r35, prime)
    over_f9 = ec.Poly(ec.make_field(3, 2), prime.coeffs)
    over_f4 = ec.Poly(ec.make_field(2, 2), [1, 1, 1])
    for reg, f in ((r35, over_f9), (r23, over_f4)):
        assert not ec.irreducible(f)
        want = (dict(reg._split_cache), copy.deepcopy(reg._class_cache))
        for labeling in LABELINGS:
            with pytest.raises(ec.CtxMismatch, match="not over the base field"):
                ec.prime_classes(reg, f, labeling)
            with pytest.raises(ec.CtxMismatch, match="not over the base field"):
                ec.split_prime(reg, f, labeling)
        with pytest.raises(ec.CtxMismatch, match="not over the base field"):
            ec.class_vector(reg, [(f, 1)], reg.ext.elem(1))
        assert (reg._split_cache, reg._class_cache) == want


def test_split_prime_rejects_an_orbit_that_does_not_close(monkeypatch):
    # the n_q-th Frobenius of the factor is made to stay put, so the walk of
    # n_q distinct conjugates does not return to its first member
    reg = Regime(4, 5)
    prime = ec.primes_with_degree(reg.base, 2)[0]
    frobenius, calls = coverparam.poly_frobenius, []

    def stuck(f, base_order):
        calls.append(f)
        return f if len(calls) == reg.n_q else frobenius(f, base_order)

    monkeypatch.setattr(coverparam, "poly_frobenius", stuck)
    with pytest.raises(ec.CrossCheckMismatch, match="single Frobenius orbit"):
        ec.split_prime(reg, prime)
    assert len(calls) == reg.n_q
    assert reg._split_cache == {}


def test_split_prime_rejects_the_orbit_of_another_prime(monkeypatch):
    # the coset gcd is made to return the factor of another prime of the same
    # degree: it is prime of degree m and has a closed orbit of n_q distinct
    # conjugates, whose product is that other prime
    reg = Regime(4, 5)
    prime, other = ec.primes_with_degree(reg.base, 2)[:2]
    factor = ec.split_prime(Regime(4, 5), other)[0]
    monkeypatch.setattr(ec.Poly, "gcd", lambda f, g: factor)
    with pytest.raises(ec.CrossCheckMismatch, match="orbit product"):
        ec.split_prime(reg, prime)
    assert reg._split_cache == {}


def test_split_prime_compares_the_orbit_with_the_input_itself():
    # a unit multiple of a prime splits as the prime does, but its orbit
    # multiplies to the monic prime, not to the input
    reg = Regime(4, 5)
    prime = ec.primes_with_degree(reg.base, 2)[0]
    with pytest.raises(ec.CrossCheckMismatch, match="orbit product"):
        ec.split_prime(reg, prime.scale(2))
    assert reg._split_cache == {}


def test_split_prime_rejects_a_factor_that_frobenius_fixes(monkeypatch):
    # the Frobenius is made to fix the factor, so the walk holds one
    # conjugate and not n_q
    reg = Regime(4, 7)
    prime = ec.primes_with_degree(reg.base, 3)[0]
    monkeypatch.setattr(coverparam, "poly_frobenius", lambda f, base_order: f)
    with pytest.raises(ec.CrossCheckMismatch, match="n_q conjugates"):
        ec.split_prime(reg, prime)
    assert reg._split_cache == {}
    monkeypatch.undo()
    assert len(set(ec.split_prime(reg, prime))) == reg.n_q


def test_conjugate_factor_divides_the_embedded_prime():
    reg = Regime(5, 3)
    prime = ec.Poly(reg.base, [2, 1, 1])  # x**2 + x + 2, irreducible over F_5
    a = ec.split_prime(reg, prime)[0]
    assert a.degree == 1 and a.is_monic
    assert ec.embed(prime, reg.ext) % a == ec.Poly.zero(reg.ext)
    # Each check on a composite.  3 divides 5**3 + 1, so y = z**5208 is 0 or
    # 1 at the roots of the cubics x**3 + x + 1 and x**3 + 2x + 1, and no
    # seeded draw is divisible by either.  At the roots of x(x + 1), y lies
    # in F_5, which holds no cube root of unity but 1.  Beside x**2 + x + 1,
    # the gcd has degree 2 but is a product of two linears.
    for f, g, msg in (([1, 0, 1, 1], [1, 0, 2, 1], "no root of unity"),
                      ([0, 1], [1, 1], "every coset"),
                      ([2, 1, 1], [1, 1, 1], "no prime factor of degree 2")):
        with pytest.raises(ec.CrossCheckMismatch, match=msg):
            ec.split_prime(reg, ec.Poly(reg.base, f) * ec.Poly(reg.base, g))
    assert list(reg._split_cache) == [prime.coeffs]


@pytest.mark.parametrize("q,ell", [(2, 3), (3, 5), (4, 7), (16, 17), (2, 31), (2, 127)])
def test_regime_cosets_are_the_least_coset_members(q, ell):
    reg = ec.make_regime(q, ell)
    cosets = {frozenset(r * q ** i % ell for i in range(reg.n_q)) for r in range(1, ell)}
    assert reg.cosets == tuple(sorted(min(c) for c in cosets))
    assert len(reg.cosets) == (ell - 1) // reg.n_q


def test_split_prime_rejects_bad_degree():
    with pytest.raises(ec.InvalidTuple):
        ec.split_prime(R23, ec.Poly(R23.base, [1, 1]))
    with pytest.raises(ec.InvalidTuple, match="degree 0 is not a positive multiple"):
        ec.split_prime(R23, ec.Poly.one(R23.base))
    with pytest.raises(ec.InvalidTuple):
        ec.prime_classes(R23, ec.Poly(R23.base, [1, 1, 0, 1]))


def test_split_prime_caches():
    prime = ec.primes_with_degree(R23.base, 2)[0]
    assert ec.split_prime(R23, prime) is ec.split_prime(R23, prime)


@pytest.mark.parametrize("qell", [(2, 3), (3, 5), (4, 5)])
def test_split_cache_holds_one_orbit_per_prime(qell):
    # both labelings, asked in either order, read the one cached orbit
    reg = Regime(*qell)
    primes = [prime for d in range(reg.n_q, 5, reg.n_q)
              for prime in ec.primes_with_degree(reg.base, d)]
    for i, prime in enumerate(primes):
        for labeling in (LABELINGS if i % 2 else LABELINGS[::-1]):
            assert ec.split_prime(reg, prime, labeling) == \
                _orbit_from_factor(reg, prime, labeling)
    assert sorted(reg._split_cache) == sorted(prime.coeffs for prime in primes)


# ---------------------------------------------------------------------------
# Stable factorization and the twisted model.

def test_stable_factorization_invariants_exhaustive():
    for D in (2, 4, 6):
        for params in tuples_with_b(R23, D):
            stable = ec.stable_factorization(params)
            parts = stable.parts
            assert len(parts) == R23.n_q
            for j, part in enumerate(parts):
                assert ec.poly_frobenius(part, 2) == parts[(j + 1) % R23.n_q]
            f_total = params.fs[0]
            for i, f in enumerate(params.fs[1:], start=2):
                f_total = f_total * f ** i
            prod = parts[0]
            for part in parts[1:]:
                prod = prod * part
            assert prod == ec.embed(f_total, R23.ext)


def test_twisted_model_shape_everywhere():
    for reg, D in [(R23, 2), (R23, 4), (R53, 2), (R25, 4), (R27, 3)]:
        units = [reg.ext.elem(v) for v in range(1, min(reg.ext.order, 6))]
        for fs in ec.enumerate_tuples(reg, D):
            weighted = sum(i * f.degree for i, f in enumerate(fs, start=1))
            for b in units:
                model = ec.twisted_model(ec.CoverParams(reg, fs, b))
                assert model.f_v0.degree % reg.ell == 0
                assert model.f_v0.lead == b ** reg.n_q
                assert model.f_v0.degree == \
                    sum(reg.v_exps) * weighted // reg.n_q


def test_twisted_model_frozen_example():
    params = ec.CoverParams(
        R23, (ec.Poly(R23.base, [1, 1, 1]), ec.Poly.one(R23.base)), b_unit(R23))
    model = ec.twisted_model(params)
    assert model.f_v0.coeffs == (3, 2, 2, 1)


def test_twist_normalization_is_class_neutral():
    # multiplying by b**(sum q^{j-1} v_j) instead of b**n_q changes the
    # polynomial but not any power class it takes, because the two scalars
    # differ by an ell-th power
    reg = R53
    raw_exp = sum(reg.q ** j * v for j, v in enumerate(reg.v_exps))
    assert raw_exp % reg.ell == reg.n_q % reg.ell
    g = reg.ext.elem(reg.ext.generator)
    assert g ** raw_exp != g ** reg.n_q  # the normalization genuinely differs
    for fs in ec.enumerate_tuples(reg, 2):
        for b in (g, g * g):
            params = ec.CoverParams(reg, fs, b)
            model = ec.twisted_model(params)
            stable = ec.stable_factorization(params)
            monic = ec.Poly.one(reg.ext)
            for part, v in zip(stable.parts, reg.v_exps):
                monic = monic * part ** v
            raw = monic.scale(b ** raw_exp)
            for xv in range(reg.q):
                x = ec.embed_elem(reg.base.elem(xv), reg.ext)
                c1 = ec.lth_power_class(model.f_v0.eval(x), reg.ell)
                c2 = ec.lth_power_class(raw.eval(x), reg.ell)
                assert c1 == c2
            assert ec.lth_power_class(model.f_v0.lead, reg.ell) == \
                ec.lth_power_class(raw.lead, reg.ell)
        break  # one tuple suffices; the scalar argument is tuple-independent


# ---------------------------------------------------------------------------
# Enumeration, counting, sampling.

def naive_tuples(reg, D):
    """Independent stratum enumeration: all (ell-1)-tuples of monic
    polynomials, filtered by longhand validity checks."""
    p = reg.base.p
    assert reg.base.k == 1, "naive path covers prime base fields"
    ell = reg.ell

    monics = {0: [(1,)]}
    for d in range(1, D + 1):
        monics[d] = [tuple(t) + (1,) for t in product(range(p), repeat=d)]

    def squarefree_and_ndiv(c):
        if len(c) == 1:
            return True
        fac = naive.factor_naive(p, list(c))
        return all(m == 1 for _, m in fac) and \
            all(len(pr) - 1 >= 1 and (len(pr) - 1) % reg.n_q == 0 for pr, m in fac)

    def coprime(a, b):
        if len(a) == 1 or len(b) == 1:
            return True
        fa = {pr for pr, _ in naive.factor_naive(p, list(a))}
        fb = {pr for pr, _ in naive.factor_naive(p, list(b))}
        return not (fa & fb)

    out = set()
    def rec(i, rem, chosen):
        if i == ell - 1:
            if rem == 0:
                out.add(tuple(chosen))
            return
        for d in range(0, rem + 1):
            for c in monics.get(d, []):
                if squarefree_and_ndiv(c) and all(coprime(c, o) for o in chosen):
                    rec(i + 1, rem - d, chosen + [c])

    rec(0, D, [])
    return out


@pytest.mark.parametrize("reg,D", [(R23, 2), (R23, 4), (R53, 2), (R27, 3)])
def test_enumerate_tuples_matches_naive(reg, D):
    got = {tuple(tuple(int(c) for c in f.coeffs) for f in fs)
           for fs in ec.enumerate_tuples(reg, D)}
    assert got == naive_tuples(reg, D)


def test_enumerate_tuples_no_duplicates_and_valid():
    for reg, D in [(R23, 6), (R25, 4), (R53, 2)]:
        seen = set()
        for fs in ec.enumerate_tuples(reg, D):
            key = tuple(f.coeffs for f in fs)
            assert key not in seen
            seen.add(key)
            ec.validate_params(ec.CoverParams(reg, fs, b_unit(reg)))
            assert sum(f.degree for f in fs) == D
        assert len(seen) == ec.count_tuples(reg, D)


def test_enumerate_tuples_empty_when_misaligned():
    assert list(ec.enumerate_tuples(R23, 3)) == []
    assert list(ec.enumerate_tuples(R25, 2)) == []
    assert list(ec.enumerate_tuples(R25, 6)) == []


def test_enumerate_degenerate_degree_zero():
    outs = list(ec.enumerate_tuples(R23, 0))
    assert len(outs) == 1
    assert all(f == ec.Poly.one(R23.base) for f in outs[0])


def test_enumerate_budget():
    with pytest.raises(ec.BudgetExceeded):
        next(ec.enumerate_tuples(R23, 18))


def test_count_tuples_frozen_and_consistent(monkeypatch):
    assert [ec.count_tuples(R23, d) for d in (2, 4, 6, 8, 10)] == \
        [2, 6, 30, 108, 450]
    assert ec.count_tuples(R53, 2) == 20
    assert ec.count_tuples(R53, 4) == 480
    assert ec.count_tuples(R23, 3) == 0
    assert ec.count_tuples(R23, 0) == 1
    for reg, D in [(R25, 4), (R25, 8), (R27, 3), (R27, 6)]:
        assert ec.count_tuples(reg, D) == sum(1 for _ in ec.enumerate_tuples(reg, D))
    # the suffix table at D = 62 is refused one step below its cost, before
    # it is built, and built at its cost; the count is the coefficient of
    # the product of (1 + 2u**d)**N_d over the prime degrees d
    steps = naive.suffix_steps(R23, 62)
    reg = Regime(2, 3)
    monkeypatch.setattr(coverparam, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded, match=f"about {steps} table steps"):
        ec.count_tuples(reg, 62)
    assert reg._suffix == ([], [[1]])  # the degree-0 table: nothing built
    monkeypatch.setattr(coverparam, "KERNEL_STEP_CAP", steps)
    series = [1] + [0] * 62
    for d in range(2, 63, 2):
        n_d = naive.necklace_formula(2, d)
        factor = [math.comb(n_d, r // d) * 2 ** (r // d) if r % d == 0 else 0
                  for r in range(63)]
        series = [sum(series[i] * factor[r - i] for i in range(r + 1)) for r in range(63)]
    assert ec.count_tuples(reg, 62) == series[62]
    # a degree with no tuple costs nothing; a huge one is refused at once
    monkeypatch.undo()
    t0 = time.monotonic()
    assert ec.count_tuples(reg, 100_001) == 0
    with pytest.raises(ec.BudgetExceeded):
        ec.count_tuples(reg, 100_000)
    assert time.monotonic() - t0 < 1 and len(reg._suffix[1]) == 62 // 2 + 1


@pytest.mark.parametrize("q, ell", [(2, 3), (3, 5)])
def test_one_table_counts_every_degree_in_any_order(q, ell):
    # one regime asked every D <= 200 ascending, descending and shuffled
    # counts what a fresh regime counts at each D, and holds one table, of
    # the largest degree asked
    fresh = [ec.count_tuples(Regime(q, ell), D) for D in range(201)]
    for order in (range(201), range(200, -1, -1), Random(7).sample(range(201), 201)):
        reg = Regime(q, ell)
        got = {D: ec.count_tuples(reg, D) for D in order}
        assert [got[D] for D in range(201)] == fresh
        assert len(reg._suffix[1]) == 200 // reg.n_q + 1


def test_a_held_table_charges_nothing_below_it_and_a_fresh_table_above(monkeypatch):
    reg = Regime(2, 3)
    fresh = [coverparam._suffix_steps(reg, D) for D in range(301)]
    assert ec.count_tuples(reg, 200)
    assert [coverparam._suffix_steps(reg, D) for D in range(202)] == [0] * 202
    assert [coverparam._suffix_steps(reg, D) for D in range(202, 301)] == fresh[202:]
    # an extension refused one step below a fresh table's count leaves every
    # held entry as it was, and runs at that count
    held = copy.deepcopy(reg._suffix)
    monkeypatch.setattr(coverparam, "KERNEL_STEP_CAP", fresh[300] - 1)
    for call in (lambda: ec.count_tuples(reg, 300),
                 lambda: ec.sample_params(reg, 300, 7)):
        with pytest.raises(ec.BudgetExceeded, match=f"about {fresh[300]} table steps"):
            call()
        assert reg._suffix == held
    monkeypatch.setattr(coverparam, "KERNEL_STEP_CAP", fresh[300])
    assert ec.count_tuples(reg, 300) == ec.count_tuples(Regime(2, 3), 300)
    weights, suffix = reg._suffix
    assert [row[:len(h)] for row, h in zip(weights, held[0])] == held[0]
    assert [row[:101] for row in suffix[:101]] == held[1]


def test_negative_degrees_are_refused_without_reading_the_table():
    reg = Regime(2, 3)
    reg._suffix = None  # any read of the held table fails with TypeError
    for D in (-2, -1):
        with pytest.raises(ValueError, match="non-negative"):
            ec.count_tuples(reg, D)
    with pytest.raises(ValueError, match="non-negative"):
        ec.sample_params(reg, -2, 7)
    with pytest.raises(ec.EmptyStratum):
        ec.sample_params(reg, -1, 7)


@pytest.mark.parametrize("q, ell, g, samples", [(2, 3, 30, 200), (3, 5, 20, 60),
                                                (5, 3, 20, 60)])
def test_monte_carlo_draws_do_not_depend_on_the_held_table(q, ell, g, samples):
    # every draw walks exactly the classes of its own degree, so a regime
    # that holds a larger table draws the same covers as a fresh one
    def report(reg):
        rep = ec.monte_carlo_distribution(reg, g, samples, 7).to_json_dict()
        del rep["runtime_ms"]
        return rep

    reg = Regime(q, ell)
    D = ec.admissible_D(reg, g)
    assert ec.count_tuples(reg, 2 * D)
    assert report(reg) == report(Regime(q, ell))


def test_sampling_reproducible_and_valid():
    for reg, D in [(R23, 6), (R53, 4), (R25, 4), (R27, 6)]:
        a = ec.sample_params(reg, D, seed=11, index=4)
        b = ec.sample_params(reg, D, seed=11, index=4)
        assert a.fs == b.fs and a.b == b.b
        draws = [ec.sample_params(reg, D, seed=11, index=i) for i in range(8)]
        assert any(d.fs != a.fs or d.b != a.b for d in draws)
        for d in draws:
            ec.validate_params(d)
            assert d.branch_degree == D


def test_sampling_empty_stratum():
    with pytest.raises(ec.EmptyStratum):
        ec.sample_params(R23, 3, seed=0)
    with pytest.raises(ec.EmptyStratum):
        ec.sample_params(R25, 6, seed=0)


def test_sampling_is_uniform_on_small_stratum():
    # D=4 over (2,3): exactly 6 tuples; seeded empirical counts must sit in a
    # generous window around 1/6 each, and the unit must look uniform too
    reg, D, n = R23, 4, 6000
    tuple_counts = {}
    b_counts = {}
    for i in range(n):
        params = ec.sample_params(reg, D, seed=123, index=i)
        key = tuple(f.coeffs for f in params.fs)
        tuple_counts[key] = tuple_counts.get(key, 0) + 1
        b_counts[params.b.val] = b_counts.get(params.b.val, 0) + 1
    assert len(tuple_counts) == 6
    for c in tuple_counts.values():
        assert 850 <= c <= 1150  # 1000 expected, ~5 sigma window
    assert len(b_counts) == 3
    for c in b_counts.values():
        assert 1800 <= c <= 2200  # 2000 expected


def test_sample_full_prime_list_is_faithful():
    for i in range(25):
        prime_mults, b, _ = _sample_full(R23, 8, Random(f"77:{i}"))
        params = ec.sample_params(R23, 8, seed=77, index=i)
        assert b == params.b
        factored = sorted((pr.coeffs, slot) for slot, f in enumerate(params.fs, start=1)
                          for pr, _ in ec.factor(f))
        assert sorted((pr.coeffs, slot) for pr, slot in prime_mults) == factored


RANDBELOW_SIZES = (1, 2, 3, 4, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                   2 ** 64 + 1, 2 ** 200 + 3)


def _walk_sizes(reg, D):
    """Every count suffix[c - 1][rem] below which the walk can draw a class's
    prime count at degree D."""
    _, suffix = coverparam._suffix_table(reg, D)
    M = D // reg.n_q
    return sorted({suffix[c - 1][m] for c in range(1, M + 1) for m in range(M + 1)} - {0})


@pytest.mark.parametrize("seed", [3, 71, 2024])
def test_the_walks_draws_are_randranges(seed):
    # in values and in the generator state after them: the fixed sizes, every
    # count the walk reads for (2,3) at D = 32 and (3,5) at D = 12, and the
    # offset draws of the slots, 1 + (below ell - 1), and of the unit,
    # 1 + (below Q - 1)
    sizes = list(RANDBELOW_SIZES)
    for (q, ell), D in (((2, 3), 32), ((3, 5), 12)):
        sizes += _walk_sizes(ec.make_regime(q, ell), D)
    assert len(sizes) > 80
    ours, theirs = Random(seed), Random(seed)
    for n in sizes:
        got = [coverparam._randbelow(ours.getrandbits, n) for _ in range(7)]
        assert got == [theirs.randrange(n) for _ in range(7)], n
        assert ours.getstate() == theirs.getstate(), n
    for (q, ell) in ((2, 3), (3, 5)):
        Q = ec.make_regime(q, ell).ext.order
        for top in (ell, Q):
            got = [1 + coverparam._randbelow(ours.getrandbits, top - 1) for _ in range(7)]
            assert got == [theirs.randrange(1, top) for _ in range(7)], top
            assert ours.getstate() == theirs.getstate(), top


# sha256 of 200 _sample_full draws, each from the stream keyed (q, ell, D,
# i), first 16 hex digits: every prime with its slot, b and then 32 bits of
# the stream after the sample; the two (2,3) keys add each sample's class
# vector in their labeling.  Produced before the walk drew on raw generator
# words and before the (2,3) draws' classes were handed to their own sample.
# The four keys after them add the class vector too, and each draws primes of
# degrees with more than DRAW_SIEVE_CAP primes, which their samples class
# themselves, on the other draw paths: F_3, F_5, F_9 and F_2 with n_q = 4.
# They were produced while every drawn prime was classed through the regime's
# stores, by class_vector(reg, prime_mults, b, labeling).
SAMPLE_DIGESTS = {(2, 3, 32, "least"): "4c6ed9d3cb577eaf",
                  (2, 3, 32, "greatest"): "1116425dcb982bc5",
                  (3, 5, 12, None): "5fd08f09264fdbe6",
                  (5, 3, 12, None): "820afba4d912d4c7",
                  (2, 5, 32, None): "33af0e9026e90fb2",
                  (4, 5, 12, None): "5d41d48a1930ca08",
                  (9, 5, 12, None): "4c76d9b97e572ade",
                  (3, 5, 12, "least"): "4d4ca3df0820f3d5",
                  (5, 3, 12, "greatest"): "c7236468d0cbb127",
                  (9, 5, 12, "least"): "4cd7fa70b63b587c",
                  (2, 5, 32, "greatest"): "fc902335c9f4dbf9"}


@pytest.mark.parametrize("key", list(SAMPLE_DIGESTS), ids=str)
def test_sample_streams_are_unchanged(key):
    q, ell, D, labeling = key
    reg = Regime(q, ell)
    h = hashlib.sha256()
    for i in range(200):
        rng = Random(f"{q}:{ell}:{D}:{i}")
        prime_mults, b, rows = _sample_full(reg, D, rng, labeling)
        h.update(repr([(pr.coeffs, slot) for pr, slot in prime_mults]).encode())
        h.update(repr(b.val).encode())
        if labeling is not None:
            h.update(repr(ec.class_vector(reg, prime_mults, b, labeling, rows)).encode())
        h.update(repr(rng.getrandbits(32)).encode())
    assert h.hexdigest()[:16] == SAMPLE_DIGESTS[key]


# sha256 of 20 draws per degree 2..12 and then 32 bits of the stream, first
# 16 hex digits.  q = 3 and 5 were produced before Ben-Or's first round was
# decided by evaluation at the points of the field; q = 2, 4 and 9 before small
# degrees were drawn from the sieve and q-th powers computed by spreading;
# q = 7, 11 and 13 before the packed prime fields screened their candidates
# by residues.
DRAW_DIGESTS = {2: "9c43bcb9cf0c7834", 3: "525dd8638e949637",
                4: "1dd8828f905c4a57", 5: "25c7f5062bbcf456",
                7: "62a1408fc5ae95c8", 9: "f45c9ca915acaa94",
                11: "89dd87826d7905f6", 13: "ec3af68e512674ad"}
# The same over F_2 with 10 draws per even degree 18..64, keyed by ell: both
# were produced while every F_2 candidate was decided by Ben-Or, before (2,3)
# draws above the residue screen were decided by the GF(4) factor's proof.
F2_DRAW_DIGESTS = {3: "a9868d62763bc83b", 5: "4dc3ef2db20da525"}
# The same over F_3 with 10 draws per degree 13..30, keyed by ell, where
# Ben-Or's rounds follow the residue screen: produced while every candidate
# there was decided by evaluation and Ben-Or.
F3_DRAW_DIGESTS = {5: "b417865cd57ea2c3"}


def _high_draws_digest(reg, degrees) -> str:
    h = hashlib.sha256()
    for d in degrees:
        rng = Random(f"{reg.q}:{reg.ell}:{d}")
        for _ in range(10):
            h.update(repr(_draw_prime(reg, d, rng)[0].coeffs).encode())
        h.update(repr(rng.getrandbits(32)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("q, ell", [(2, 3), (2, 5), (3, 5), (4, 5), (5, 3), (7, 5),
                                     (9, 5), (11, 3), (13, 7)])
def test_draw_prime_streams_are_unchanged(q, ell):
    reg = ec.make_regime(q, ell)
    h = hashlib.sha256()
    for d in range(2, 13):
        rng = Random(f"{q}:{d}")
        for _ in range(20):
            h.update(repr(_draw_prime(reg, d, rng)[0].coeffs).encode())
        h.update(repr(rng.getrandbits(32)).encode())
    assert h.hexdigest()[:16] == DRAW_DIGESTS[q]
    if q == 2:
        assert _high_draws_digest(reg, range(18, 65, 2)) == F2_DRAW_DIGESTS[ell]
    if q == 3:
        assert _high_draws_digest(reg, range(13, 31)) == F3_DRAW_DIGESTS[ell]


@pytest.mark.parametrize("q, ell", [(3, 5), (4, 5), (5, 3), (9, 5)])
def test_held_decisions_are_irreducible(q, ell, monkeypatch):
    monkeypatch.setattr(coverparam, "_held_decisions", {})
    reg = Regime(q, ell)
    ctx = reg.base
    rng = Random(q)
    d = 1
    while q ** d <= DRAW_SIEVE_CAP:
        for _ in range(100):
            _draw_prime(reg, d, rng)
        held = coverparam._held_decisions[(ctx.p, ctx.k, d)]
        assert all(prime == ec.irreducible(ec.Poly(ctx, cand))
                   for cand, prime in held.items())
        assert set(held.values()) == ({True} if d == 1 else {True, False})
        d += 1
    assert d > 4  # every field above holds decisions beyond degree 4


def test_a_degree_tests_each_distinct_candidate_once(monkeypatch):
    monkeypatch.setattr(coverparam, "_held_decisions", {})
    drawn, tested = [], []
    decode, decide = coverparam._random_literals, _gfp.irreducible

    def literals(rng, q, d):
        drawn.append(decode(rng, q, d))
        return drawn[-1]

    def test(p, f):
        tested.append(f)
        return decide(p, f)

    monkeypatch.setattr(coverparam, "_random_literals", literals)
    monkeypatch.setattr(_gfp, "irreducible", test)
    reg, rng = Regime(3, 5), Random(8)
    for _ in range(2000):
        _draw_prime(reg, 8, rng)
    assert len(tested) == len(set(tested)) == len(set(drawn)) <= 3 ** 8
    assert len(drawn) > 2 * len(tested)  # candidates came back and were not tested


@pytest.mark.parametrize("q, ell, d", [(3, 5, 8), (3, 5, 12), (4, 5, 6), (4, 5, 8),
                                        (257, 3, 2)])
def test_a_draw_decides_each_candidate_by_the_one_rule_once(monkeypatch, q, ell, d):
    # every base field but F_2 draws its literals, bytes below q = 256 and a
    # tuple from 256 on, and meets fqpoly's one decision and no other test:
    # each distinct candidate once where q**d <= DRAW_SIEVE_CAP holds the
    # decisions (F_3 at 8, F_4 at 6), each drawn candidate once above it
    monkeypatch.setattr(coverparam, "_held_decisions", {})
    drawn, decided = [], []
    literals, coeffs = coverparam._random_literals, coverparam._random_coeffs
    rule = fqpoly._monic_irreducible

    def spy_literals(rng, q, d):
        drawn.append(literals(rng, q, d) + b"\1")
        return drawn[-1][:-1]

    def spy_coeffs(rng, q, d):
        drawn.append((*coeffs(rng, q, d), 1))
        return list(drawn[-1][:-1])

    def spy_rule(ctx, lits):
        decided.append(lits)
        return rule(ctx, lits)

    def refuse(*args):
        raise AssertionError("a second primality test")

    monkeypatch.setattr(coverparam, "_random_literals", spy_literals)
    monkeypatch.setattr(coverparam, "_random_coeffs", spy_coeffs)
    monkeypatch.setattr(coverparam, "_monic_irreducible", spy_rule)
    monkeypatch.setattr(fqpoly, "irreducible", refuse)
    monkeypatch.setattr(coverparam, "irreducible", refuse)
    reg, rng = Regime(q, ell), Random(q * d)
    primes = [_draw_prime(reg, d, rng)[0] for _ in range(40)]
    if q ** d <= DRAW_SIEVE_CAP:
        assert len(decided) == len(set(decided)) == len(set(drawn)) < len(drawn)
        assert set(coverparam._held_decisions[(reg.p, reg.k, d)]) == set(drawn)
    else:
        assert decided == drawn and coverparam._held_decisions == {}
    assert all(type(c) is (bytes if q < 256 else tuple) for c in decided)
    monkeypatch.undo()
    assert all(ec.irreducible(prime) and prime.degree == d for prime in primes)


def test_no_f2_primality_runs_on_the_byte_lanes(monkeypatch):
    # F_2 decides by _gf2 alone: verify over (2,5), a (2,7) Monte Carlo run
    # with its split proofs, and the modulus search of F_{2^12} all run with
    # _gfp's byte-lane test refused at p = 2
    from ellcover import gf, verify

    lane_test, bit_test = _gfp.irreducible, _gf2.is_irreducible
    bits = []

    def refuse_f2(p, f):
        if p == 2:
            raise AssertionError("_gfp decided an F_2 candidate")
        return lane_test(p, f)

    monkeypatch.setattr(_gfp, "irreducible", refuse_f2)
    monkeypatch.setattr(_gf2, "is_irreducible", lambda f: bits.append(f) or bit_test(f))
    monkeypatch.setattr(verify, "make_regime", Regime)
    assert all(r.passed for r in verify.run_checks(2, 5))
    reg = Regime(2, 7)
    ec.monte_carlo_distribution(reg, 57, 60, seed=7)
    assert reg._split_cache
    assert gf.FieldCtx(2, 12).modulus == ec.make_field(2, 12).modulus
    assert bits


def test_nothing_is_held_before_the_first_draw_above_the_cap_or_over_f2(monkeypatch):
    monkeypatch.setattr(coverparam, "_held_decisions", {})
    reg = Regime(3, 5)  # a fresh regime, not the cached one
    assert coverparam._held_decisions == {}
    _draw_prime(reg, 12, Random(1))  # 3**12 is above the cap: tested, not held
    _draw_prime(Regime(2, 3), 8, Random(1))  # F_2 keeps its bit-packed test
    assert _draw_prime(Regime(2, 3), 18, Random(1))[1]  # and the orbit proof, with its factor
    _draw_prime(Regime(2, 5), 8, Random(1))
    assert coverparam._held_decisions == {}
    prime, factor = _draw_prime(reg, 8, Random(1))
    assert ec.irreducible(prime) and factor is None
    assert list(coverparam._held_decisions) == [(3, 1, 8)]


def test_a_monte_carlo_op_lists_no_primes(monkeypatch):
    monkeypatch.setattr(fqpoly, "_prime_lists", {})
    monkeypatch.setattr(coverparam, "_held_decisions", {})
    ec.monte_carlo_distribution(Regime(3, 5), 20, 60, 7)
    assert fqpoly._prime_lists == {} and coverparam._held_decisions


def test_parts_builder_matches_stable_factorization():
    for params in tuples_with_b(R23, 6, 2):
        prime_mults = [(pr, i) for i, f in enumerate(params.fs, start=1)
                       for pr, _ in ec.factor(f)]
        parts = _parts_from_primes(R23, prime_mults, "least")
        assert parts == ec.stable_factorization(params).parts


# ---------------------------------------------------------------------------
# Power orbit.

def test_power_orbit_structure():
    params = next(tuples_with_b(R23, 4))
    ident = ec.power_orbit(params, 1)
    assert ident.fs == params.fs and ident.b == params.b
    r2 = ec.power_orbit(params, 2)
    ec.validate_params(r2)
    assert ec.power_orbit(r2, 2).fs == params.fs  # 2*2 = 4 = 1 mod 3
    assert r2.b == params.b ** 2
    with pytest.raises(ValueError):
        ec.power_orbit(params, 0)
    with pytest.raises(ValueError):
        ec.power_orbit(params, 3)


def test_power_orbit_slot_reindexing():
    reg = R27  # ell = 7 gives a nontrivial permutation
    for fs in ec.enumerate_tuples(reg, 6):
        params = ec.CoverParams(reg, fs, b_unit(reg, 3))
        for r in range(1, 7):
            moved = ec.power_orbit(params, r)
            ec.validate_params(moved)
            for i in range(1, 7):
                assert moved.fs[(i * r) % 7 - 1] == params.fs[i - 1]
        break
