"""The packed prime-field kernels of _gfp, reached through fqpoly's literal
kernels, against the naive oracles and against the discrete-log kernels
that extension fields keep."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellcover as ec
import ellcover.fqpoly as fqp
from ellcover import _gfp
from ellcover.gf import is_prime_int

import naive

PACKED = [3, 5, 7, 11, 13]
MAX_LEN = 41  # degrees 0 to 40


def test_packed_fields():
    # a byte lane holding a coefficient below p takes one elimination step,
    # of at most (p - 1)**2, exactly up to p = 13
    assert [p for p in range(2, 60) if is_prime_int(p) and _gfp.packs(p)] == PACKED
    assert all(fqp._packed(ec.make_field(p)) for p in PACKED)
    assert not any(fqp._packed(ec.make_field(*pk))
                   for pk in ((2, 1), (17, 1), (3, 2), (5, 2), (2, 3)))


def polys(p, max_size=MAX_LEN, trimmed=True):
    lits = st.lists(st.integers(0, p - 1), max_size=max_size)
    return lits.map(naive.trim) if trimmed else lits


def nonzero(p, max_size=MAX_LEN):
    return st.builds(lambda low, lead: low + [lead],
                     polys(p, max_size=max_size - 1, trimmed=False),
                     st.integers(1, p - 1))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mul_divmod_gcd_match_the_oracles(data):
    p = data.draw(st.sampled_from(PACKED))
    ctx = ec.make_field(p)
    a = data.draw(polys(p, trimmed=data.draw(st.booleans())))
    b = data.draw(nonzero(p))
    prod = fqp._mul_coeffs(ctx, a, b)
    assert naive.trim(prod) == naive.polmul(p, a, b)
    assert len(prod) == (len(a) + len(b) - 1 if a else 0)
    quo, rem = fqp._divmod_coeffs(ctx, a, b)
    want_quo, want_rem = naive.poldivmod(p, a, b)
    assert (naive.trim(quo), naive.trim(rem)) == (want_quo, want_rem)
    # the lengths the callers rely on: neither part is trimmed or padded
    assert len(quo) == max(0, len(a) - len(b) + 1)
    assert len(rem) == min(len(a), len(b) - 1)
    assert fqp._gcd_coeffs(ctx, naive.trim(a), b) == naive.polgcd(p, a, b)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_powers_match_square_and_multiply(data):
    p = data.draw(st.sampled_from(PACKED))
    ctx = ec.make_field(p)
    m = data.draw(nonzero(p, max_size=MAX_LEN).filter(lambda m: len(m) > 1))
    if data.draw(st.booleans()):  # a square modulus has nilpotent residues
        m = naive.polmul(p, m, m)[:MAX_LEN]
        m[-1] = m[-1] or 1
    a = data.draw(nonzero(p, max_size=len(m) + 2))
    e = data.draw(st.one_of(
        st.integers(1, 3).map(lambda i: p ** i),
        st.integers(1, 1 << 20)))
    assert fqp._pow_mod_coeffs(ctx, a, e, m) == naive.polpowmod(p, a, e, m)


def test_empty_and_short_inputs():
    for p in PACKED:
        ctx = ec.make_field(p)
        assert fqp._mul_coeffs(ctx, [], [1, 2 % p]) == []
        assert fqp._mul_coeffs(ctx, [1], []) == []
        assert fqp._mul_coeffs(ctx, [], []) == []
        assert fqp._mul_coeffs(ctx, [2], [3 % p]) == [6 % p]
        # a dividend shorter than the divisor is the remainder, untrimmed
        assert fqp._divmod_coeffs(ctx, [1, 0], [1, 1, 1]) == ([], [1, 0])
        assert fqp._divmod_coeffs(ctx, [], [1, 1]) == ([], [])
        # by a constant: the whole dividend is quotient, the remainder empty
        inv2 = pow(2, -1, p)
        assert fqp._divmod_coeffs(ctx, [1, 0, 1], [2]) == ([inv2, 0, inv2], [])
        # a zero top coefficient of the dividend gives a zero quotient entry
        assert fqp._divmod_coeffs(ctx, [0, 1, 0], [0, 1]) == ([1, 0], [0])
        assert fqp._gcd_coeffs(ctx, [1, 2 % p], []) == [1, 2 % p]
        assert fqp._gcd_coeffs(ctx, [], [2]) == [2]
        assert fqp._pow_mod_coeffs(ctx, [0, 1], p, [0, 0, 1]) == []  # x**p mod x**2
        assert fqp._pow_mod_coeffs(ctx, [2], 7, [1, 1]) == [pow(2, 7, p)]
        assert fqp._pow_mod_coeffs(ctx, [1, 1], 1, [1, 1]) == []


def test_wide_lanes_and_renormalization():
    """Sizes past the random cases: a product in two-byte lanes at p = 3
    and in four-byte lanes at p = 13, divisions whose byte lanes must be
    reduced again between steps, and powers whose residue products need
    the lanes reduced inside one reduction (p = 3, degree 40) or first
    widened (degree 70), and widened lanes renormalized inside one
    reduction (p = 13, degree 300)."""
    rng = Random(1)

    def poly(p, n):
        return [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]

    for p, n in ((3, 100), (13, 500)):
        a, b = poly(p, n), poly(p, n)
        assert _gfp.lane_bytes(p, n * (p - 1) ** 2) == (2 if p == 3 else 4)
        assert fqp._mul_coeffs(ec.make_field(p), a, b) == naive.polmul(p, a, b)
    # every quotient coefficient p - 1 and every divisor coefficient 1: each
    # step adds (p - 1)**2 to len(b) lanes, past a byte unless the lanes are
    # reduced again in between
    for p, lb in ((3, 80), (7, 20), (13, 4)):
        b, quo = [1] * lb, [p - 1] * 100
        rem = poly(p, lb - 1)
        a = naive.poladd(p, naive.polmul(p, quo, b), rem)
        assert fqp._divmod_coeffs(ec.make_field(p), a, b) == (quo, rem)
        assert fqp._gcd_coeffs(ec.make_field(p), a, b) == naive.polgcd(p, a, b)
    for dm in (40, 70):
        m, a = poly(3, dm + 1), poly(3, dm)
        for e in (3, 5, 3 ** 3):
            assert fqp._pow_mod_coeffs(ec.make_field(3), a, e, m) == \
                naive.polpowmod(3, a, e, m)
    # at p = 13 above degree 228, two-byte lanes run out of room inside one
    # reduction and are renormalized there
    m, a = poly(13, 301), poly(13, 300)
    assert fqp._pow_mod_coeffs(ec.make_field(13), a, 13, m) == \
        naive.polpowmod(13, a, 13, m)
    # the largest product lanes a byte holds: a residue of all p - 1 squared
    # modulo the all-ones polynomial, reduced with lanes that start near full
    for p, dm in ((3, 60), (5, 15), (7, 7)):
        m, a = [1] * (dm + 1), [p - 1] * dm
        for e in (2, p, p * p):
            assert fqp._pow_mod_coeffs(ec.make_field(p), a, e, m) == \
                naive.polpowmod(p, a, e, m)


def logs_only(monkeypatch):
    monkeypatch.setattr(fqp, "_packed", lambda ctx: False)


@pytest.mark.parametrize("p", PACKED)
def test_packed_kernels_match_the_log_kernels(p, monkeypatch):
    """The same literal lists from both forms of a prime field, at degrees
    the oracles would take long to reach."""
    ctx = ec.make_field(p)
    rng = Random(p)
    cases = []
    for _ in range(40):
        a = [rng.randrange(p) for _ in range(rng.randrange(MAX_LEN))]
        b = naive.trim([rng.randrange(p) for _ in range(rng.randrange(1, MAX_LEN))]) or [1]
        e = rng.choice([p, p ** 5, rng.randrange(1, p ** 12)])
        cases.append((a, b, e))
    f = [ec.Poly(ctx, [rng.randrange(p) for _ in range(d)] + [1])
         for d in range(1, MAX_LEN) for _ in range(3)]

    def run():
        out = []
        for a, b, e in cases:
            out.append(fqp._mul_coeffs(ctx, a, b))
            out.append(fqp._divmod_coeffs(ctx, a, b))
            out.append(fqp._gcd_coeffs(ctx, naive.trim(a), b))
            if len(b) > 1:
                out.append(fqp._pow_mod_coeffs(ctx, naive.trim(a) or [1], e, b))
        out.append([fqp.irreducible(g) for g in f])
        return out

    packed = run()
    logs_only(monkeypatch)
    assert packed == run()


@pytest.mark.parametrize("p,degrees", [(3, range(5, 9)), (5, (5, 6)), (7, (4, 5)),
                                       (11, (4,)), (13, (4,))])
def test_irreducible_matches_trial_division(p, degrees):
    """Random monic f past the degrees that test_fqpoly sweeps exhaustively,
    where Ben-Or runs two rounds or more on packed residues."""
    ctx = ec.make_field(p)
    rng = Random(p)
    for d in degrees:
        for _ in range(40):
            tail = [rng.randrange(p) for _ in range(d)]
            f = ec.Poly(ctx, tail + [1])
            assert fqp.irreducible(f) == naive.is_irreducible(p, tail + [1])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_factorization_multiplies_back(data):
    """The product of factor(f) gives back f, every factor monic and prime,
    over packed prime fields, a prime field above them, extension fields
    and F_2."""
    ctx = ec.make_field(*data.draw(st.sampled_from(
        [(p, 1) for p in PACKED] + [(17, 1), (2, 1), (3, 2), (2, 3), (5, 2)])))
    lits = st.integers(0, ctx.order - 1)
    f = ec.Poly(ctx, data.draw(st.lists(lits, max_size=13)) + [data.draw(
        st.integers(1, ctx.order - 1))])
    fac = ec.factor(f)
    assert fac.expand() == f
    for prime, mult in fac:
        assert prime.is_monic and mult >= 1 and ec.irreducible(prime)
