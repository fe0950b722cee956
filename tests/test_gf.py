"""Field contexts, canonical choices, element arithmetic, embeddings, and
power classes, checked against the naive longhand oracles."""

import hashlib
import time
from random import Random

import pytest

import ellcover as ec
from ellcover.gf import FIELD_ORDER_CAP, is_prime_int, prime_power

from naive import NaiveField, digit_add, digit_neg, lex_least_irreducible


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(25) == (5, 2)
    assert prime_power(81) == (3, 4)
    assert prime_power(125) == (5, 3)
    for bad in (0, 1, 6, 10, 12, 100, -4):
        with pytest.raises(ec.NotPrimePower):
            prime_power(bad)


def test_field_order_cap():
    assert ec.make_field(2, 20).order == FIELD_ORDER_CAP
    with pytest.raises(ec.TooLarge):
        ec.make_field(2, 21)
    with pytest.raises(ec.TooLarge):
        ec.make_field(3, 13)
    # the cap comes before the primality test, whose trial division of
    # 10**18 + 3 would not finish, and 3**(10**18) is never formed
    for pk in ((10 ** 18 + 3, 1), (3, 10 ** 18)):
        with pytest.raises(ec.TooLarge):
            ec.make_field(*pk)


# sha256 of the canonical tables and embeddings below: a change to any of them
# changes the literals that reports and seeds are written in
PINNED_TABLES = "66e4f0fb995483e6e92a67678c75f050e5807a378867d40a736a6151623558f1"


def test_canonical_tables_are_pinned():
    """Every prime field with p <= 1024 and every field with k >= 2 and
    order <= 4096: modulus, generator, exp, log, Zech and negation tables,
    and the embeddings among them, hashed against a frozen digest.  The
    characteristic-2 Zech and negation slots hash as None, which keeps the
    digest of every other table; test_char2_zech_addition_is_xor checks
    them."""
    fields = [(p, 1) for p in range(2, 1025) if is_prime_int(p)]
    fields += [(p, k) for p in range(2, 65) if is_prime_int(p)
               for k in range(2, 13) if p ** k <= 4096]
    assert len(fields) == 212
    h = hashlib.sha256()
    for p, k in fields:
        ctx = ec.make_field(p, k)
        tables = (ctx.exp, ctx.log) + ((None, None) if p == 2 else (ctx.zech, ctx.neg))
        h.update(repr((p, k, ctx.modulus, ctx.generator)
                      + tuple(t and tuple(t) for t in tables)).encode())
    for p, k in fields:
        for pb, kb in fields:
            if pb == p and kb > k and kb % k == 0:
                table = ec.subfield_table(ec.make_field(p, k), ec.make_field(pb, kb))
                h.update(repr((p, k, kb, table)).encode())
    assert h.hexdigest() == PINNED_TABLES


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8),
                                 (3, 2), (3, 4), (3, 5), (5, 2), (7, 2), (7, 3)])
def test_canonical_modulus_is_lex_least_irreducible(p, k):
    ctx = ec.make_field(p, k)
    assert ctx.modulus == lex_least_irreducible(p, k)


def test_prime_field_modulus_is_t():
    for p in (2, 3, 5, 7, 11):
        assert ec.make_field(p).modulus == (0, 1)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
def test_generator_is_least_full_order_element(p, k):
    ctx = ec.make_field(p, k)
    naive = NaiveField(p, ctx.modulus)
    orders = {v: naive.mult_order(naive.from_literal(v))
              for v in range(1, ctx.order)}
    full = [v for v, o in orders.items() if o == ctx.order - 1]
    # digit-vector lex order equals literal order only for the comparison of
    # digit tuples; recompute explicitly.
    def digit_key(v):
        return naive.from_literal(v)

    assert ctx.generator == min(full, key=digit_key)


def test_prime_field_generator_matches_naive():
    for p in (3, 5, 7, 13):
        ctx = ec.make_field(p)
        gen = ctx.generator
        seen = set()
        cur = 1
        for _ in range(p - 1):
            cur = cur * gen % p
            seen.add(cur)
        assert len(seen) == p - 1
        smaller = [g for g in range(1, gen)
                   if len({pow(g, e, p) for e in range(1, p)}) == p - 1]
        assert not smaller


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 2)])
def test_exp_log_tables(p, k):
    ctx = ec.make_field(p, k)
    naive = NaiveField(p, ctx.modulus)
    g = naive.from_literal(ctx.generator)
    cur = naive.from_literal(1)
    for i in range(ctx.order - 1):
        lit = naive.to_literal(cur)
        assert ctx.exp[i] == lit
        assert ctx.log[lit] == i
        cur = naive.mul(cur, g)
    assert naive.to_literal(cur) == 1  # full cycle


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    ctx = ec.make_field(p, k)
    naive = NaiveField(p, ctx.modulus)
    elems = [ctx.elem(v) for v in range(ctx.order)]
    for a in elems:
        for b in elems:
            na, nb = naive.from_literal(a.val), naive.from_literal(b.val)
            assert (a + b).val == naive.to_literal(naive.add(na, nb))
            assert (a * b).val == naive.to_literal(naive.mul(na, nb))
            assert a + b == b + a
            assert a - b == -(b - a)
            if b.val != 0:
                assert (a / b) * b == a
    one, zero = ctx.one, ctx.zero
    for a in elems:
        assert a + zero == a and a * one == a and a * zero == zero
        if a.val:
            assert a * a**-1 == one


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (3, 4)])
def test_zech_addition_matches_digit_oracle(p, k):
    ctx = ec.make_field(p, k)
    for a in range(ctx.order):
        minus_a = digit_neg(p, a)
        assert ctx.neg_i(a) == minus_a
        assert ctx.add_i(a, minus_a) == 0 and ctx.sub_i(a, a) == 0  # zech's zero mark
        for b in range(ctx.order):
            assert ctx.add_i(a, b) == digit_add(p, a, b)
            assert ctx.sub_i(a, b) == digit_add(p, a, digit_neg(p, b))


@pytest.mark.parametrize("k", range(1, 13))
def test_char2_zech_addition_is_xor(k):
    # the log-domain sum that fqpoly's log kernels form, g**la + g**lb =
    # g**(la + zech[lb - la]), against XOR of the literals, with a negative
    # index wrapping into the doubled table; -1 = 1, so neg is the identity
    ctx = ec.make_field(2, k)
    exp, log, zech, n = ctx.exp, ctx.log, ctx.zech, ctx.order - 1
    assert ctx.neg == list(range(ctx.order))
    assert len(zech) == 2 * n
    for m in range(n):
        assert zech[m] == zech[m + n] == log[exp[m] ^ 1]

    def log_add(a, b):
        z = zech[log[b] - log[a]]
        return 0 if z < 0 else exp[(log[a] + z) % n]

    units = range(1, ctx.order)
    rng = Random(k)
    pairs = [(a, b) for a in units for b in units] if ctx.order <= 64 else \
        [(rng.choice(units), rng.choice(units)) for _ in range(4000)] + \
        [(a, a) for a in units]
    assert all(log_add(a, b) == a ^ b for a, b in pairs)


def test_distributivity_sampled():
    ctx = ec.make_field(3, 2)
    elems = [ctx.elem(v) for v in range(ctx.order)]
    for a in elems:
        for b in elems:
            for c in elems[::2]:
                assert a * (b + c) == a * b + a * c


def test_elem_literal_semantics():
    f4 = ec.make_field(2, 2)
    a = f4.elem(2)
    assert a + a == f4.zero            # char 2
    assert (a + f4.elem(3)).val == 1   # t + (t+1) = 1
    assert a + 1 == f4.elem(3)         # int means literal
    assert a == 2 and a != 3
    assert int(a) == 2
    assert bool(a) and not bool(f4.zero)
    assert a ** -1 * a == f4.one
    with pytest.raises(ValueError):
        f4.elem(4)
    with pytest.raises(ValueError):
        f4.elem(-1)


def test_elem_cross_field_mixing_rejected():
    f4, f8 = ec.make_field(2, 2), ec.make_field(2, 3)
    with pytest.raises(ec.CtxMismatch):
        f4.elem(1) + f8.elem(1)


def test_units_iteration():
    f9 = ec.make_field(3, 2)
    units = list(f9.units())
    assert len(units) == 8
    assert all(u.val != 0 for u in units)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_frobenius_is_additive_and_fixes_prime_field(p, k):
    ctx = ec.make_field(p, k)
    elems = [ctx.elem(v) for v in range(ctx.order)]
    for a in elems:
        for b in elems:
            assert ec.frobenius(a + b, p) == ec.frobenius(a, p) + ec.frobenius(b, p)
    for v in range(p):
        assert ec.frobenius(ctx.elem(v), p) == ctx.elem(v)


def test_frobenius_tower_validation():
    f8 = ec.make_field(2, 3)
    with pytest.raises(ec.NotASubfield):
        ec.frobenius(f8.elem(3), 4)  # F_4 is not inside F_8
    with pytest.raises(ec.NotPrimePower):
        ec.frobenius(f8.elem(3), 6)


def test_frobenius_refuses_a_huge_order_at_once():
    # 10**18 + 3 is prime, and trial division would not finish on it; an
    # order above the field's is refused before any
    t0 = time.perf_counter()
    with pytest.raises(ec.NotASubfield):
        ec.frobenius(ec.make_field(2, 2).elem(2), 10 ** 18 + 3)
    with pytest.raises(ec.NotASubfield):
        ec.poly_frobenius(ec.Poly(ec.make_field(2, 2), [2, 1]), 10 ** 18 + 3)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("small,big", [
    ((2, 1), (2, 2)), ((2, 1), (2, 3)), ((2, 2), (2, 4)), ((2, 2), (2, 6)),
    ((2, 3), (2, 6)), ((5, 1), (5, 2)), ((3, 1), (3, 4)), ((3, 2), (3, 4)),
])
def test_embedding_is_a_field_homomorphism(small, big):
    s, b = ec.make_field(*small), ec.make_field(*big)
    ec.subfield_table(s, b)
    imgs = {}
    for v in range(s.order):
        imgs[v] = ec.embed_elem(s.elem(v), b)
    assert imgs[0].val == 0 and imgs[1].val == 1
    assert len({e.val for e in imgs.values()}) == s.order  # injective
    vals = list(range(s.order))
    sample = vals if s.order <= 16 else vals[::5]
    for x in sample:
        for y in sample:
            ex, ey = imgs[x], imgs[y]
            assert ec.embed_elem(s.elem(x) + s.elem(y), b) == ex + ey
            assert ec.embed_elem(s.elem(x) * s.elem(y), b) == ex * ey


def test_embedding_image_order():
    s, b = ec.make_field(2, 3), ec.make_field(2, 6)
    g_img = ec.embed_elem(s.elem(s.generator), b)
    cur, n = g_img, 1
    while cur != b.one:
        cur = cur * g_img
        n += 1
    assert n == s.order - 1


def test_embedding_identity_and_errors():
    f8 = ec.make_field(2, 3)
    assert ec.embed_elem(f8.elem(5), f8) == f8.elem(5)
    with pytest.raises(ec.NotASubfield):
        ec.subfield_table(ec.make_field(2, 2), f8)
    with pytest.raises(ec.NotASubfield):
        ec.subfield_table(ec.make_field(3, 1), f8)
    with pytest.raises(ec.NotASubfield):
        ec.subfield_table(ec.make_field(2, 4), ec.make_field(2, 6))


@pytest.mark.parametrize("p,k,ell", [(2, 2, 3), (2, 4, 5), (5, 2, 3), (2, 3, 7)])
def test_lth_power_class_against_power_scan(p, k, ell):
    ctx = ec.make_field(p, k)
    assert (ctx.order - 1) % ell == 0
    ell_powers = {v: (ctx.elem(v) ** ell).val for v in range(1, ctx.order)}
    power_set = set(ell_powers.values())
    g = ctx.elem(ctx.generator)
    for v in range(1, ctx.order):
        cls = ec.lth_power_class(ctx.elem(v), ell)
        assert type(cls) is int and 0 <= cls < ell
        # class e means v / g**e is an ell-th power
        shifted = ctx.elem(v) / g**cls
        assert shifted.val in power_set
        assert (cls == 0) == (v in power_set)
    # multiplicativity on all pairs
    units = [ctx.elem(v) for v in range(1, ctx.order)]
    sample = units if len(units) <= 24 else units[::7]
    for a in sample:
        for b in sample:
            assert (ec.lth_power_class(a * b, ell)
                    == (ec.lth_power_class(a, ell) + ec.lth_power_class(b, ell)) % ell)


def test_lth_power_class_errors():
    f4 = ec.make_field(2, 2)
    with pytest.raises(ec.ZeroInput):
        ec.lth_power_class(f4.zero, 3)
    with pytest.raises(ec.OrderMismatch):
        ec.lth_power_class(f4.elem(2), 5)


def test_make_field_is_cached():
    assert ec.make_field(2, 2) is ec.make_field(2, 2)


def test_values_equal_to_an_int_hash_as_that_int():
    # a == b must give hash(a) == hash(b): a field element equals the int of
    # its literal, and a cyclotomic integer with no zeta part its rational
    # integer, so each finds and is found by that int in sets and dicts
    F4, F8 = ec.make_field(2, 2), ec.make_field(2, 3)
    rho = ec.FieldElem(F4, 2)
    assert rho == 2 and rho in {2} and 2 in {rho} and {2: "a"}[rho] == "a"
    assert {rho: "b"}[2] == "b" and len({rho, 2}) == 1
    assert ec.FieldElem(F8, 2) != rho and len({rho, ec.FieldElem(F8, 2)}) == 2
    assert ec.FieldElem(F4, 0) in {0} and ec.FieldElem(F4, 1) in {True}
    five = ec.CycloInt.from_int(3, 5)
    assert five == 5 and five in {5} and 5 in {five} and {5: "c"}[five] == "c"
    assert len({five, 5, ec.CycloInt.from_int(5, 5)}) == 2
    zeta = ec.CycloInt.zeta_pow(3, 1)
    assert zeta != 0 and zeta not in {0, 1} and {zeta: 1}[ec.CycloInt.zeta_pow(3, 4)] == 1
