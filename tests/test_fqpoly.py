"""Polynomial arithmetic, factorization, prime enumeration, and the
Frobenius/embedding interplay, checked against the naive oracles."""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellcover as ec
from ellcover import _gf2, _gfp
import ellcover.fqpoly as fqp
from ellcover.fqpoly import (
    ROOT_SCREEN_MAX_ORDER,
    SIEVE_CAP,
    SIEVE_PRODUCT_CAP,
    has_root,
)

import naive


F2 = ec.make_field(2)
F3 = ec.make_field(3)
F4 = ec.make_field(2, 2)
F5 = ec.make_field(5)
F9 = ec.make_field(3, 2)
F25 = ec.make_field(5, 2)
F81 = ec.make_field(3, 4)


def all_polys(ctx, degree):
    for tail in product(range(ctx.order), repeat=degree + 1):
        yield ec.Poly(ctx, tail)


def test_construction_trim_and_degree():
    f = ec.Poly(F3, [1, 2, 0, 0])
    assert f.coeffs == (1, 2) and f.degree == 1
    z = ec.Poly.zero(F3)
    assert z.degree == -1 and z.is_zero
    assert ec.Poly.one(F3).degree == 0
    assert ec.Poly.x(F3).coeffs == (0, 1)
    assert str(ec.Poly(F4, [3, 0, 2])) == "3,0,2"
    assert str(z) == "0"


def test_monic_and_lead():
    assert ec.Poly(F3, [1, 2]).is_monic is False
    assert ec.Poly(F3, [2, 1]).is_monic is True
    assert ec.Poly(F3, [1, 2]).lead == F3.elem(2)
    with pytest.raises(ec.ZeroPolynomial):
        ec.Poly.zero(F3).lead
    assert ec.Poly(F3, [1, 2]).monic().coeffs == (2, 1)


def test_ctx_mismatch_rejected():
    with pytest.raises(ec.CtxMismatch):
        ec.Poly(F2, [1, 1]) + ec.Poly(F3, [1, 1])
    with pytest.raises(ec.CtxMismatch):
        ec.Poly(F2, [1, 1]) * ec.Poly(F4, [1, 1])


def extension_polys(ctx, count=24, max_len=5):
    """Every polynomial of degree <= 1 over F_4; seeded random ones, and zero,
    over larger fields."""
    if ctx.order <= 4:
        return [ec.Poly(ctx, t) for t in product(range(ctx.order), repeat=2)]
    rng = Random(ctx.order)
    return [ec.Poly.zero(ctx)] + [
        ec.Poly(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(1, max_len + 1))])
        for _ in range(count)]


@pytest.mark.parametrize("ctx", [F2, F3, F4, F9, F25, F81])
def test_ring_ops_match_naive(ctx):
    if ctx.k == 1:
        def conv(f):
            return [int(c) for c in f.coeffs]

        polys = [ec.Poly(ctx, t) for t in product(range(ctx.order), repeat=3)]
        for f in polys[:30]:
            for g in polys[::7]:
                assert list((f * g).coeffs) == naive.polmul(ctx.p, conv(f), conv(g))
                assert list((f + g).coeffs) == naive.poladd(ctx.p, conv(f), conv(g))
    else:
        # longhand through naive quotient-ring field elements
        nf = naive.NaiveField(ctx.p, ctx.modulus)
        fs = extension_polys(ctx)
        for f in fs:
            for g in fs:
                assert list((f * g).coeffs) == nf.polmul(f.coeffs, g.coeffs)
                assert list((f + g).coeffs) == nf.poladd(f.coeffs, g.coeffs)
                assert f - g + g == f and (f - f).is_zero


@pytest.mark.parametrize("ctx", [F9, F25, F81])
def test_divmod_matches_naive_long_division(ctx):
    nf = naive.NaiveField(ctx.p, ctx.modulus)
    fs = extension_polys(ctx, count=30, max_len=8)
    divisors = [g for g in extension_polys(ctx, count=12) if not g.is_zero]
    for f in fs:
        for g in divisors:
            q, r = divmod(f, g)
            assert (list(q.coeffs), list(r.coeffs)) == nf.poldivmod(f.coeffs, g.coeffs)
            assert q * g + r == f and r.degree < g.degree


def test_divmod_reconstruction_exhaustive_f3():
    divisors = [ec.Poly(F3, t) for t in product(range(3), repeat=3)
                if any(t)]
    for f in (ec.Poly(F3, t) for t in product(range(3), repeat=4)):
        for g in divisors[::5]:
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree
    with pytest.raises(ec.ZeroPolynomial):
        divmod(ec.Poly(F3, [1, 1]), ec.Poly.zero(F3))


def test_gcd_matches_naive_divisor_scan():
    def naive_gcd(p, a, b):
        best = [1]
        d_max = min(len(a), len(b)) - 1
        for d in range(1, d_max + 1):
            for tail in product(range(p), repeat=d):
                div = list(tail) + [1]
                if not naive.poldivmod(p, list(a), div)[1] \
                        and not naive.poldivmod(p, list(b), div)[1]:
                    best = div
        return best

    polys = [t for t in product(range(2), repeat=5) if any(t)]
    for a in polys[::3]:
        for b in polys[::7]:
            f, g = ec.Poly(F2, a), ec.Poly(F2, b)
            got = f.gcd(g)
            want = naive_gcd(2, naive.trim(list(a)), naive.trim(list(b)))
            assert list(got.coeffs) == want


def test_gcd_with_zero():
    f = ec.Poly(F3, [2, 1])
    assert f.gcd(ec.Poly.zero(F3)) == f.monic()
    assert ec.Poly.zero(F3).gcd(f) == f.monic()


def test_derivative_product_rule():
    for ctx in (F3, F5, F9, ec.make_field(2, 3)):
        rng = Random(f"derivative:{ctx.order}")
        polys = [ec.Poly(ctx, [rng.randrange(ctx.order)
                               for _ in range(rng.randrange(1, 9))])
                 for _ in range(12)]
        for f in polys:
            # coefficient i - 1 of f' is c_i added to itself i times
            want = []
            for i, c in enumerate(f.coeffs[1:], start=1):
                acc = 0
                for _ in range(i):
                    acc = ctx.add_i(acc, c)
                want.append(acc)
            assert f.derivative() == ec.Poly(ctx, want)
            for g in polys[::3]:
                assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        # char-p collapse: derivative of x**p is zero
        assert (ec.Poly.x(ctx) ** ctx.p).derivative().is_zero


def test_pow_and_pow_mod():
    f = ec.Poly(F5, [2, 1])
    m = ec.Poly(F5, [1, 0, 0, 1])
    assert f ** 3 == f * f * f
    assert f ** 0 == ec.Poly.one(F5)
    assert f.pow_mod(7, m) == (f ** 7) % m


def plain_pow_mod(f, e, m):
    """Right-to-left square-and-multiply with the ring operators."""
    out, base = ec.Poly.one(f.ctx), f % m
    while e:
        if e & 1:
            out = out * base % m
        base = base * base % m
        e >>= 1
    return out


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_pow_mod_matches_square_and_multiply(data):
    ctx = data.draw(st.sampled_from([F3, F5, F25, F81, F4]))
    lit = st.integers(0, ctx.order - 1)
    m = ec.Poly(ctx, data.draw(st.lists(lit, min_size=1, max_size=8))
                + [data.draw(st.sampled_from([1, ctx.order - 1]))])
    f = ec.Poly(ctx, data.draw(st.lists(lit, max_size=11)))
    e = data.draw(st.one_of(st.integers(0, 40), st.integers(0, (81 ** 5 - 1) // 2)))
    got = f.pow_mod(e, m)
    assert got == plain_pow_mod(f, e, m)
    if e:
        assert got.degree < m.degree
    if ctx.k == 1 and e <= 40:
        # prime fields: e products by the naive oracle, reduced each time
        want = [1]
        for _ in range(e):
            want = naive.poldivmod(ctx.p, naive.polmul(ctx.p, want, f.coeffs), m.coeffs)[1]
        assert list(got.coeffs) == want


@pytest.mark.parametrize("ctx", [F3, F4, F5, F9, ec.make_field(2, 3), ec.make_field(2, 4)])
def test_q_powers_match_square_and_multiply(ctx):
    """a**(q**i) mod m against the naive square-and-multiply over random
    moduli, some of them reducible."""
    nf = naive.NaiveField(ctx.p, ctx.modulus)
    q = ctx.order
    rng = Random(q)
    for _ in range(30):
        dm = rng.randint(1, 7)
        m = [rng.randrange(q) for _ in range(dm)] + [rng.randrange(1, q)]
        if rng.random() < 0.3:  # a square modulus has nilpotent residues
            m = nf.polmul(m, m)
        a = naive.trim([rng.randrange(q) for _ in range(rng.randint(1, len(m) + 2))])
        for i in (1, 2, 3):
            got = fqp._pow_mod_coeffs(ctx, a or [1], q ** i, naive.trim(m))
            assert got == nf.polpowmod(a or [1], q ** i, m)


def test_pow_mod_edge_cases():
    m = ec.Poly(F5, [1, 0, 0, 1])
    f = ec.Poly(F5, [2, 1])
    assert f.pow_mod(0, m) == ec.Poly.one(F5)
    assert ec.Poly.zero(F5).pow_mod(3, m).is_zero
    assert f.pow_mod(2, ec.Poly(F5, [3])).is_zero
    assert f.pow_mod(0, ec.Poly(F5, [3])).is_zero  # 1 mod a unit, like f % m
    x = ec.Poly.x(F81)
    assert x.pow_mod(5, x * x).is_zero  # a nilpotent residue
    with pytest.raises(ec.ZeroPolynomial):
        f.pow_mod(2, ec.Poly.zero(F5))
    with pytest.raises(ValueError):
        f.pow_mod(-1, m)
    with pytest.raises(ec.CtxMismatch):
        f.pow_mod(2, ec.Poly(F3, [1, 1]))


@pytest.mark.parametrize("ctx,max_deg", [(F2, 6), (F3, 4), (F4, 3), (F5, 3), (F9, 2)])
def test_has_root_matches_evaluation(ctx, max_deg):
    points = [ctx.elem(v) for v in range(ctx.order)]
    for d in range(max_deg + 1):
        for f in all_polys(ctx, d):
            assert has_root(ctx, f.coeffs) == any(f.eval(x).val == 0 for x in points)


def test_gf2_is_irreducible_matches_naive():
    for f in range(1 << 13):  # every polynomial of degree <= 12
        bits = [f >> i & 1 for i in range(f.bit_length())]
        assert _gf2.is_irreducible(f) == naive.is_irreducible(2, bits), bin(f)


def test_gf2_is_irreducible_matches_ben_or():
    # every polynomial of degree 13-16, then 3 000 seeded candidates of
    # degree 17-64, against the plain Ben-Or loop
    for f in range(1 << 13, 1 << 17):
        assert _gf2.is_irreducible(f) == naive.gf2_ben_or(f), bin(f)
    rng = Random(21)
    n_prime = 0
    for _ in range(3000):
        d = rng.randrange(17, 65)
        f = 1 << d | rng.getrandbits(d)
        want = naive.gf2_ben_or(f)
        assert _gf2.is_irreducible(f) == want, bin(f)
        n_prime += want
    assert n_prime > 30


def _gf2_primes(d):
    return [sum(c << i for i, c in enumerate(g)) for g in naive.monic_irreducibles(2, d)]


def test_gf2_screen_lanes_are_the_residues_modulo_the_small_primes():
    # lane j of the XOR of f's byte entries is f mod the j-th prime of degree
    # 2..SCREEN_DEGREE, below its guard bit, for seeded f of 2 to 9 bytes
    J, lane = _gf2.SCREEN_DEGREE, _gf2.SCREEN_DEGREE + 1
    primes = [g for d in range(2, J + 1) for g in _gf2_primes(d)]
    _gf2._extend_screen_tables(1)
    assert _gf2._screen_primes == sorted(primes)
    assert _gf2._small_primes == {2, 3, *primes}
    rng = Random(27)
    for _ in range(300):
        d = rng.randrange(J + 1, 72)
        f = 1 << d | rng.getrandbits(d)
        n = d // 8 + 1
        r = 0
        for table, b in zip(_gf2._extend_screen_tables(n), f.to_bytes(n, "little")):
            r ^= table[b]
        lanes = [r >> (lane * j) & ((1 << lane) - 1) for j in range(len(primes))]
        assert r >> (lane * len(primes)) == 0
        assert lanes == [naive.gf2_rem(f, g) for g in _gf2._screen_primes], bin(f)


def test_gf2_is_irreducible_past_the_screen_matches_ben_or():
    # the composites the residue screen cannot see, a product of two primes
    # of degree above SCREEN_DEGREE or the square of one, and those it must
    # see, a prime of degree SCREEN_DEGREE times any polynomial, at every
    # degree SCREEN_DEGREE + 1 to 64, with a seeded prime of that degree; and
    # every prime of degree at most SCREEN_DEGREE itself
    J = _gf2.SCREEN_DEGREE
    rng = Random(27)

    def prime(d):
        while True:
            f = 1 << d | rng.getrandbits(d)
            if naive.gf2_ben_or(f):
                return f

    cases = [g for d in range(1, J + 1) for g in _gf2_primes(d)]
    for n in range(J + 1, 65):
        cases.append(prime(n))
        if n >= 2 * J + 2:
            a = rng.randrange(J + 1, n - J)
            cases.append(naive.gf2_mul(prime(a), prime(n - a)))
        if n % 2 == 0 and n // 2 > J:
            cases.append(naive.gf2_mul(prime(n // 2), prime(n // 2)))
        cases.append(naive.gf2_mul(prime(J), 1 << (n - J) | rng.getrandbits(n - J)))
    for f in cases:
        assert _gf2.is_irreducible(f) == naive.gf2_ben_or(f), bin(f)
    assert sum(map(naive.gf2_ben_or, cases)) == sum(
        len(_gf2_primes(d)) for d in range(1, J + 1)) + 64 - J


def test_eval_matches_naive_and_commutes_with_embedding():
    for tail in product(range(2), repeat=4):
        f = ec.Poly(F2, tail)
        for xv in range(2):
            want = naive.poleval(2, list(tail), xv)
            assert f.eval(F2.elem(xv)).val == want
    # pinned: evaluation commutes with field embedding
    for small, big in [(F2, F4), (F2, ec.make_field(2, 3)), (F5, ec.make_field(5, 2)),
                       (F3, ec.make_field(3, 4))]:
        for tail in list(product(range(small.order), repeat=3))[::7]:
            f = ec.Poly(small, tail)
            fe = ec.embed(f, big)
            for xv in range(small.order):
                x = small.elem(xv)
                assert fe.eval(ec.embed_elem(x, big)) == ec.embed_elem(f.eval(x), big)
                # Poly.eval also auto-embeds subfield arguments
                assert fe.eval(x) == ec.embed_elem(f.eval(x), big)


def test_gcd_commutes_with_embedding():
    big = F4
    polys = [t for t in product(range(2), repeat=5) if any(t)]
    for a in polys[::5]:
        for b in polys[::7]:
            f, g = ec.Poly(F2, a), ec.Poly(F2, b)
            assert ec.embed(f.gcd(g), big) == ec.embed(f, big).gcd(ec.embed(g, big))


@pytest.mark.parametrize("ctx,max_deg", [(F2, 5), (F3, 4), (F4, 3), (F5, 3)])
def test_factor_matches_naive_everywhere(ctx, max_deg):
    if ctx.k == 1:
        for deg in range(1, max_deg + 1):
            for tail in product(range(ctx.order), repeat=deg):
                coeffs = list(tail) + [1]
                fac = ec.factor(ec.Poly(ctx, coeffs))
                got = sorted((tuple(int(c) for c in pr.coeffs), m)
                             for pr, m in fac)
                assert got == naive.factor_naive(ctx.p, coeffs)
    else:
        # no naive factorizer over extension coefficients: verify the
        # defining properties instead (expansion, irreducibility, coprimality)
        for deg in range(1, max_deg + 1):
            for tail in list(product(range(ctx.order), repeat=deg))[::3]:
                f = ec.Poly(ctx, list(tail) + [1])
                fac = ec.factor(f)
                assert fac.expand() == f
                prs = [pr for pr, _ in fac]
                for pr in prs:
                    assert ec.irreducible(pr)
                for i in range(len(prs)):
                    for j in range(i + 1, len(prs)):
                        assert prs[i].gcd(prs[j]).degree == 0


def test_factor_units_and_nonmonic():
    f = ec.Poly(F3, [2, 2])  # 2(x+1)
    fac = ec.factor(f)
    assert fac.unit == F3.elem(2)
    assert fac.expand() == f
    with pytest.raises(ec.ZeroPolynomial):
        ec.factor(ec.Poly.zero(F3))
    assert len(ec.factor(ec.Poly(F3, [2]))) == 0


def test_factor_perfect_powers():
    # derivative-zero paths: p-th powers over F_2 and F_3
    g = ec.Poly(F2, [1, 1, 1])
    assert list(ec.factor(g * g)) == [(g, 2)]
    assert list(ec.factor(g * g * g * g)) == [(g, 4)]
    h = ec.Poly(F3, [1, 1])
    assert list(ec.factor(h ** 9)) == [(h, 9)]
    mixed = (g * g) * ec.Poly(F2, [0, 1]) ** 3
    assert sorted(ec.factor(mixed), key=lambda t: t[0].sort_key()) == sorted(
        [(ec.Poly(F2, [0, 1]), 3), (g, 2)], key=lambda t: t[0].sort_key())


@pytest.mark.parametrize("ctx,max_deg", [(F2, 6), (F3, 4), (F4, 3), (F5, 4),
                                         (ec.make_field(7), 3), (ec.make_field(13), 3)])
def test_irreducible_matches_naive(ctx, max_deg):
    for deg in range(1, max_deg + 1):
        for tail in product(range(ctx.order), repeat=deg):
            f = ec.Poly(ctx, list(tail) + [1])
            if ctx.k == 1:
                want = naive.is_irreducible(ctx.p, list(tail) + [1])
            else:
                want = len(ec.factor(f)) == 1 and next(iter(ec.factor(f)))[1] == 1 \
                    and next(iter(ec.factor(f)))[0].degree == deg
            assert ec.irreducible(f) == want


@pytest.mark.parametrize("p,max_deg", [(3, 4), (5, 4), (7, 3)])
def test_irreducible_and_factor_match_sympy(p, max_deg):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    ctx = ec.make_field(p)
    for deg in range(max_deg + 1):
        for tail in product(range(p), repeat=deg):
            coeffs = list(tail) + [1]
            f = ec.Poly(ctx, coeffs)
            ref = sympy.Poly(coeffs[::-1], x, modulus=p)
            if deg:  # sympy calls the constant 1 irreducible; a unit is no prime here
                assert ec.irreducible(f) == ref.is_irreducible
            _, ref_factors = ref.factor_list()
            # sympy prints residues symmetrically, e.g. -1 for p - 1
            want = sorted((tuple(int(c) % p for c in g.all_coeffs()[::-1]), m)
                          for g, m in ref_factors)
            assert sorted((pr.coeffs, m) for pr, m in ec.factor(f)) == want


def test_irreducible_rejects_a_root_before_any_power(monkeypatch):
    # F_25 runs Ben-Or on literal lists after has_root; F_5 is packed, and
    # its residue screen decides every degree up to 9 with no power at all
    powers = []
    kernel, packed = fqp._pow_mod_coeffs, _gfp.Residues.pow
    monkeypatch.setattr(fqp, "_pow_mod_coeffs",
                        lambda *args: powers.append(args[2]) or kernel(*args))
    monkeypatch.setattr(_gfp.Residues, "pow",
                        lambda ring, r, e: powers.append(e) or packed(ring, r, e))
    for ctx in (F5, F25):
        x = ec.Poly.x(ctx)
        with_root = (x - ec.Poly(ctx, [2])) * ec.Poly(ctx, [2, 0, 0, 0, 0, 1])
        assert not ec.irreducible(with_root) and powers == []
    assert ec.irreducible(ec.Poly(F5, [1, 1, 0, 1])) and powers == []  # cubic, no root
    quartics = [ec.Poly(F5, [2, 0, 0, 0, 1]), ec.Poly(F5, [2, 0, 1]) ** 2]
    assert [ec.irreducible(f) for f in quartics] == [True, False] and powers == []
    quartics = [ec.Poly(F25, [1, 7, 0, 0, 1]), ec.Poly(F25, [7, 0, 1]) ** 2]
    assert [ec.irreducible(f) for f in quartics] == [True, False]
    assert powers == [25, 25, 25, 25]  # x**25 and x**625 for each


@pytest.mark.parametrize("p,k", [(3, 5), (2, 8)])
def test_irreducible_without_the_screen_matches_factor(p, k):
    ctx = ec.make_field(p, k)
    assert ctx.order > ROOT_SCREEN_MAX_ORDER  # Ben-Or's first gcd runs
    rng = Random(ctx.order)
    for d in (2, 3, 4, 5):
        for _ in range(12):
            f = ec.Poly(ctx, [rng.randrange(ctx.order) for _ in range(d)] + [1])
            (prime, mult), *rest = ec.factor(f)
            assert ec.irreducible(f) == (not rest and mult == 1 and prime.degree == d)
            if d <= 3:
                assert ec.irreducible(f) == (not has_root(ctx, f.coeffs))
    quads = [f for f in (ec.Poly(ctx, [c, 1, 1]) for c in range(1, 40)) if not has_root(ctx, f.coeffs)]
    assert not ec.irreducible(quads[0] * quads[1])  # no root, caught in round 2


def test_irreducible_over_f2_decides_by_gf2_alone(monkeypatch):
    # fqpoly's one rule sends F_2 to _gf2's bit-packed test: with _gfp's
    # byte-lane test refused at p = 2, irreducible() agrees with it, with
    # _gf2.is_irreducible and with trial division on every monic of degree
    # <= 12, and with the plain Ben-Or loop on seeded monics to degree 64
    lane_test = _gfp.irreducible

    def refuse_f2(p, f):
        if p == 2:
            raise AssertionError("_gfp decided an F_2 candidate")
        return lane_test(p, f)

    monkeypatch.setattr(_gfp, "irreducible", refuse_f2)
    for f in range(2, 1 << 13):
        lits = _gf2.to_literals(f)
        want = naive.is_irreducible(2, lits)
        assert ec.irreducible(ec.Poly(F2, lits)) == want, bin(f)
        assert _gf2.is_irreducible(f) == lane_test(2, bytes(lits)) == want, bin(f)
    rng = Random(44)
    for _ in range(600):
        d = rng.randrange(13, 65)
        f = 1 << d | rng.getrandbits(d)
        lits = _gf2.to_literals(f)
        want = naive.gf2_ben_or(f)
        assert ec.irreducible(ec.Poly(F2, lits)) == want, bin(f)
        assert _gf2.is_irreducible(f) == lane_test(2, bytes(lits)) == want, bin(f)


def test_gf2_literals_round_trip():
    for f in range(1, 1 << 12):
        lits = _gf2.to_literals(f)
        assert lits == [f >> i & 1 for i in range(f.bit_length())]
        assert _gf2.from_literals(lits) == _gf2.from_literals(bytes(lits)) == \
            _gf2.from_literals(tuple(lits)) == f


def test_irreducible_trivial_degrees():
    assert not ec.irreducible(ec.Poly.one(F2))
    assert not ec.irreducible(ec.Poly.zero(F2))
    assert ec.irreducible(ec.Poly(F2, [1, 1]))


def test_necklace_count_formula_and_brute():
    for q in (2, 3, 4, 5):
        for d in range(1, 9):
            assert ec.necklace_count(q, d) == naive.necklace_formula(q, d)
    for p in (2, 3):
        for d in range(1, 5):
            assert ec.necklace_count(p, d) == len(naive.monic_irreducibles(p, d))
    assert [ec.necklace_count(2, d) for d in (2, 4, 6, 8, 10)] == [1, 3, 9, 30, 99]


@pytest.mark.parametrize("d", [0, -3])
def test_a_prime_degree_below_1_is_a_value_error(d):
    # necklace_count, primes_with_degree and is_n_divisible refuse it alike,
    # and necklace_count's cache keeps no answer: a second call raises again
    for _ in range(2):
        with pytest.raises(ValueError, match="must be positive"):
            ec.necklace_count(3, d)
        with pytest.raises(ValueError, match="must be positive"):
            ec.primes_with_degree(F3, d)
        with pytest.raises(ValueError, match="must be positive"):
            ec.is_n_divisible(ec.Poly(F3, [2, 0, 1]), d)


@pytest.mark.parametrize("ctx,max_deg", [(F2, 8), (F3, 5), (F4, 4), (F5, 4)])
def test_primes_with_degree_matches_naive(ctx, max_deg):
    for d in range(1, max_deg + 1):
        got = ec.primes_with_degree(ctx, d)
        assert len(got) == ec.necklace_count(ctx.order, d)
        assert got == tuple(sorted(got, key=ec.Poly.sort_key))
        assert len(set(got)) == len(got)
        if ctx.k == 1:
            want = {pr for pr in naive.monic_irreducibles(ctx.p, d)}
            assert {tuple(int(c) for c in f.coeffs) for f in got} == want
        else:
            for f in got[::5]:
                assert ec.irreducible(f) and f.is_monic and f.degree == d


def test_primes_with_degree_full_invariant_sweep():
    # every q in 2..5 and every degree up to 8 agrees with the divisor-sum
    # count; the construction itself asserts the match, so building the list
    # is the check.
    for q in (2, 3, 4, 5):
        p, k = ec.gf.prime_power(q)
        ctx = ec.make_field(p, k)
        for d in range(1, 9):
            assert len(ec.primes_with_degree(ctx, d)) == ec.necklace_count(q, d)


def test_primes_with_degree_budget():
    with pytest.raises(ec.BudgetExceeded):
        ec.primes_with_degree(F5, 10)


def test_primes_with_degree_product_budget(monkeypatch):
    # 3**12 fits SIEVE_CAP, but the sieve would multiply 1 173 690 primes
    # by cofactors: refused before the first product
    def no_product(*args):
        raise AssertionError("the sieve multiplied before the budget check")

    monkeypatch.setattr(fqp, "_mul_coeffs", no_product)
    assert 3 ** 12 <= SIEVE_CAP
    with pytest.raises(ec.BudgetExceeded, match="1173690 products"):
        ec.primes_with_degree(F3, 12)


def test_monic_polys_counts():
    for ctx, d in [(F2, 3), (F3, 2), (F4, 2)]:
        polys = list(ec.monic_polys(ctx, d))
        assert len(polys) == ctx.order ** d
        assert all(f.is_monic and f.degree == d for f in polys)
        assert len(set(polys)) == len(polys)


def test_poly_frobenius_properties():
    f16 = ec.make_field(2, 4)
    polys = [ec.Poly(F4, t) for t in list(product(range(4), repeat=3))[::5]]
    for f in polys:
        for g in polys:
            assert ec.poly_frobenius(f * g, 2) == \
                ec.poly_frobenius(f, 2) * ec.poly_frobenius(g, 2)
        # squaring twice is the identity on F_4 coefficients
        assert ec.poly_frobenius(ec.poly_frobenius(f, 2), 2) == f
    assert ec.poly_frobenius(ec.embed(ec.Poly(F2, [1, 1, 1]), F4), 2) == \
        ec.embed(ec.Poly(F2, [1, 1, 1]), F4)
    with pytest.raises(ec.NotASubfield):
        ec.poly_frobenius(ec.Poly(f16, [1, 1]), 8)


@pytest.mark.parametrize("p,k", [(2, 4), (2, 6), (3, 4), (5, 4), (3, 6)])
def test_poly_frobenius_reads_the_power_of_every_literal(p, k):
    """F_16, F_64, F_81, F_625 and F_729 at each subfield order: the table
    gives every literal's power, so a polynomial of all literals is enough."""
    ctx = ec.make_field(p, k)
    f = ec.Poly(ctx, list(range(ctx.order)))
    for d in (d for d in range(1, k + 1) if k % d == 0):
        assert ec.poly_frobenius(f, p ** d).coeffs == \
            tuple(ctx.pow_i(c, p ** d) for c in range(ctx.order))


def test_poly_frobenius_refuses_a_bad_order_on_every_call():
    f = ec.Poly(F81, [1, 2, 3])
    for _ in range(3):
        for order in (27, 243, 6561):
            with pytest.raises(ec.NotASubfield):
                ec.poly_frobenius(f, order)
        for order in (6, 12, 80):
            with pytest.raises(ec.NotPrimePower):
                ec.poly_frobenius(f, order)
    assert ec.poly_frobenius(f, 81) == f


def test_factorization_object():
    f = ec.Poly(F2, [1, 1]) * ec.Poly(F2, [1, 1, 1]) ** 2
    fac = ec.factor(f)
    assert fac.expand() == f
    assert len(fac) == 2
    pairs = list(fac)
    assert pairs == sorted(pairs, key=lambda t: t[0].sort_key())


def test_factor_is_deterministic_across_calls():
    f = ec.Poly(F5, [3, 1]) * ec.Poly(F5, [2, 1]) * ec.Poly(F5, [1, 2, 1, 1])
    assert list(ec.factor(f)) == list(ec.factor(f))


def test_random_literals_are_the_randrange_stream():
    # the bulk decoder returns what d calls of randrange(q) return and leaves
    # the generator where they leave it, for every field order below 256
    orders = [q for q in range(2, 256) if len(ec.gf.factor_int(q)) == 1]
    assert orders[:8] == [2, 3, 4, 5, 7, 8, 9, 11] and orders[-1] == 251
    for q in orders:
        for d in (0, 1, 2, 4, 8, 12, 31, 64):
            for seed in range(3):
                one, bulk = Random(f"{q}:{d}:{seed}"), Random(f"{q}:{d}:{seed}")
                want = bytes(one.randrange(q) for _ in range(d))
                assert fqp._random_literals(bulk, q, d) == want
                assert bulk.getstate() == one.getstate()
                assert fqp._random_coeffs(bulk, q, d) == [one.randrange(q) for _ in range(d)]
                assert bulk.getstate() == one.getstate()
    one, wide = Random(5), Random(5)  # past a byte, randrange itself
    assert fqp._random_coeffs(wide, 257, 9) == [one.randrange(257) for _ in range(9)]


def test_sieve_cap_constant_sanity():
    assert 5 ** 8 <= SIEVE_CAP < 5 ** 10
    # (5, 8) is the largest sieve the tests build, and (2, 16) the one the
    # full enumeration needs at ENUM_D_CAP; (3, 12) is refused
    assert 765_625 <= SIEVE_PRODUCT_CAP < 1_173_690
