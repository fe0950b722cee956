"""The packed prime-field kernels of _gfp, reached through fqpoly's literal
kernels, against the naive oracles and against the discrete-log kernels
that extension fields keep."""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellcover as ec
import ellcover.fqpoly as fqp
from ellcover import _gf2, _gfp
from ellcover.gf import is_prime_int

import naive

PACKED = [2, 3, 5, 7, 11, 13]
MAX_LEN = 41  # degrees 0 to 40


def test_packed_fields():
    # a byte lane holding a coefficient below p takes one elimination step,
    # of at most (p - 1)**2, exactly up to p = 13: F_2 packs too
    assert [p for p in range(2, 60) if is_prime_int(p) and _gfp.packs(p)] == PACKED
    assert all(fqp._packed(ec.make_field(p)) for p in PACKED)
    assert not any(fqp._packed(ec.make_field(*pk))
                   for pk in ((17, 1), (3, 2), (5, 2), (2, 3), (2, 4)))


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


# the ell of the regimes that CI runs over each packed prime q
CI_ELLS = {2: (3, 5, 7, 11, 13, 17, 31, 127), 3: (5, 7, 11, 13), 5: (3, 31),
           7: (5,), 11: (3,), 13: (7,)}


@pytest.mark.parametrize("p", PACKED)
def test_powers_of_x_match_square_and_multiply(p):
    """x**e through Residues.pow, whose multiply steps are a lane shift when
    the base is x, against the oracle: moduli of degree 1 to 40, not monic,
    squares among them, and the exponents of the split's root of unity."""
    rng = Random(p)
    for d in range(1, MAX_LEN):
        mods = [[rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]]
        if d % 2 == 0:  # a square modulus has nilpotent residues
            half = [rng.randrange(p) for _ in range(d // 2)] + [rng.randrange(1, p)]
            mods.append(naive.polmul(p, half, half))
        exps = {1, 2, p} | {(p ** d - 1) // ell for ell in CI_ELLS[p]
                            if (p ** d - 1) % ell == 0}
        for m in mods:
            want = {e: naive.polpowmod(p, [0, 1], e, m) for e in exps}
            assert {e: fqp._pow_mod_coeffs(ec.make_field(p), [0, 1], e, m)
                    for e in exps} == want
            if d > 1:
                ring = _gfp.Residues(p, m)
                assert {e: naive.trim(ring.pow(ring.residue([0, 1]), e))
                        for e in exps} == want


def test_empty_and_short_inputs():
    for p in PACKED:
        ctx = ec.make_field(p)
        m = p - 1  # the literal -1, a unit of every field
        assert fqp._mul_coeffs(ctx, [], [1, m]) == []
        assert fqp._mul_coeffs(ctx, [1], []) == []
        assert fqp._mul_coeffs(ctx, [], []) == []
        assert fqp._mul_coeffs(ctx, [m], [m]) == [1]
        # a dividend shorter than the divisor is the remainder, untrimmed
        assert fqp._divmod_coeffs(ctx, [1, 0], [1, 1, 1]) == ([], [1, 0])
        assert fqp._divmod_coeffs(ctx, [], [1, 1]) == ([], [])
        # by a constant: the whole dividend is quotient, the remainder empty
        assert fqp._divmod_coeffs(ctx, [1, 0, 1], [m]) == ([m, 0, m], [])
        # a zero top coefficient of the dividend gives a zero quotient entry
        assert fqp._divmod_coeffs(ctx, [0, 1, 0], [0, 1]) == ([1, 0], [0])
        assert fqp._gcd_coeffs(ctx, [1, m], []) == [1, m]
        assert fqp._gcd_coeffs(ctx, [], [m]) == [m]
        assert fqp._pow_mod_coeffs(ctx, [0, 1], p, [0, 0, 1]) == []  # x**p mod x**2
        assert fqp._pow_mod_coeffs(ctx, [m], 7, [1, 1]) == [m]
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
        [(p, 1) for p in PACKED] + [(17, 1), (3, 2), (2, 3), (5, 2)])))
    lits = st.integers(0, ctx.order - 1)
    f = ec.Poly(ctx, data.draw(st.lists(lits, max_size=13)) + [data.draw(
        st.integers(1, ctx.order - 1))])
    fac = ec.factor(f)
    assert fac.expand() == f
    for prime, mult in fac:
        assert prime.is_monic and mult >= 1 and ec.irreducible(prime)


# ---------------------------------------------------------------------------
# The residue screen.

TOPS = {2: 9, 3: 6, 5: 4, 7: 3, 11: 2, 13: 2}


def test_screen_tops():
    # the largest degree whose primes hold about 1 100 residue coefficients
    assert {p: _gfp.screen(p).top for p in PACKED} == TOPS
    for p in PACKED:
        held = [d * ec.necklace_count(p, d) for d in range(1, TOPS[p] + 2)]
        assert sum(held[:-1]) <= _gfp.SCREEN_LANES < sum(held)


@pytest.mark.parametrize("p", PACKED)
def test_screen_passes_exactly_the_primes(p):
    """At every degree d with p**d <= 2**16 the monics that pass the screen
    of level min(top, d // 2) are the primes of degree d, with the screen
    first raised to its top level: a prime of degree at most top must not be
    caught by its own lane."""
    screen = _gfp.screen(p)
    screen.passes(bytes(2 * screen.top) + b"\1", screen.top)
    assert screen.level == screen.top
    ctx = ec.make_field(p)
    d = 1
    while p ** d <= 1 << 16:
        e = min(screen.top, d // 2)
        passed = {tuple(f) for f in (bytes(low) + b"\1" for low in product(range(p), repeat=d))
                  if not e or screen.passes(f, e)}
        assert passed == {f.coeffs for f in fqp.primes_with_degree(ctx, d)}, d
        d += 1


def ben_or_after_roots(f):
    """The decision by evaluation at every point and Ben-Or's rounds 2 to
    d // 2 on packed residues, the path before the residue screen."""
    d = f.degree
    return not fqp.has_root(f.ctx, f.coeffs) and (d < 4 or _gfp.Residues(f.ctx.p, f.coeffs).ben_or(2, d // 2))


@pytest.mark.parametrize("p", PACKED)
def test_screen_decisions_match_ben_or(p):
    """Random monics at degrees top, top + 1, 2 top + 1, 2 top + 2 and 40 to
    64, with primes, and composites whose least prime factor has degree top
    (the screen's last lane) or top + 1 (Ben-Or's first round), against
    evaluation and Ben-Or, and against trial division or naive Ben-Or."""
    top = TOPS[p]
    ctx = ec.make_field(p)
    rng = Random(p)

    def monic(d):
        return ec.Poly(ctx, [rng.randrange(p) for _ in range(d)] + [1])

    def prime(d):
        while True:
            f = monic(d)
            if ben_or_after_roots(f):
                return f

    small = (top, top + 1, 2 * top + 1, 2 * top + 2)
    cases = [monic(d) for d in small for _ in range(25)]
    cases += [prime(d) for d in small]
    cases += [prime(top) * prime(top + 2), prime(top + 1) * prime(top + 1)]
    large = [rng.randrange(40, 65) for _ in range(6)]
    cases += [monic(d) for d in large] + [prime(d) for d in large[:2]]
    cases += [prime(top) * prime(40 - top), prime(top + 1) * prime(63 - top)]
    decided = [fqp.irreducible(f) for f in cases]
    assert decided == [ben_or_after_roots(f) for f in cases]
    assert 0 < sum(decided) < len(cases)
    for f, prime_ in zip(cases, decided):
        if f.degree <= 2 * top + 2:
            assert prime_ == naive.is_irreducible(p, list(f.coeffs)), f.coeffs
    for f, want in zip(cases[-4:], (True, True, False, False)):  # past degree 40
        assert naive.ben_or(p, list(f.coeffs)) == want


def test_screen_reduces_its_lanes_before_they_overflow():
    """At p = 13 a byte holds 21 reduced entries.  A candidate of degree 80
    with a root a != 0 sums 81 entries in the lane of x - a, over 255 for
    each of these, so the screen must reduce the lanes on the way to find
    the root."""
    p = 13
    ctx = ec.make_field(p)
    rng = Random(13)
    screen = _gfp.screen(p)
    for a in range(1, p):
        f = [rng.randrange(p) for _ in range(80)] + [1]
        f[0] = -sum(c * pow(a, i, p) for i, c in enumerate(f[1:], start=1)) % p
        assert naive.poleval(p, f, a) == 0
        assert sum(c * pow(a, i, p) % p for i, c in enumerate(f)) > 255
        assert not screen.passes(bytes(f), 2)
        assert not fqp.irreducible(ec.Poly(ctx, f))
    # the largest sums: every entry of the lane of x - 1 is 12, so a reduced
    # sum of up to 12 and 21 more entries would pass a byte
    f = [12] * 53 + [1]
    assert naive.poleval(p, f, 1) == 0 and not screen.passes(bytes(f), 2)
    # and one with no factor of degree 1 or 2 passes
    while True:
        f = [rng.randrange(p) for _ in range(80)] + [1]
        if all(naive.poldivmod(p, f, list(t) + [1])[1]
               for e in (1, 2) for t in product(range(p), repeat=e)):
            break
    assert screen.passes(bytes(f), 2)


def test_screen_is_built_by_degree():
    """A screen holds the primes of the levels asked for and the tables of
    the chunk positions read, and decides every degree up to 2 top + 1
    without a modular power; Ben-Or's rounds start at top + 1."""
    screen = _gfp.Screen(3)  # a fresh screen, not the shared one
    assert screen.top == 6 and screen.chunk == 3
    assert screen.passes(bytes([2, 2, 0, 0, 1]), 2)  # x**4 + 2x + 2, F_81's modulus
    # 3 + 3 primes of degree 1 and 2, 7 bytes a slot, two chunk positions
    assert (screen.level, screen.ends, len(screen.tables)) == (2, [0, 21, 42], 2)
    assert not screen.passes(bytes([1, 0, 1] + [0] * 9 + [1]), 6)  # roots 1 and 2
    assert screen.level == 6 and len(screen.tables) == 5
    assert [b - a for a, b in zip(screen.ends, screen.ends[1:])] == \
        [7 * ec.necklace_count(3, d) for d in range(1, 7)]
    assert len(screen.cols) == 15 and {len(c) for c in screen.cols} == {196 * 7}


def test_irreducible_takes_the_screen_over_packed_fields(monkeypatch):
    # over F_3 to F_13 the residue screen decides every degree up to
    # 2 top + 1 with no power; F_2 takes _gf2's bit-packed test, and reads no
    # _gfp screen
    calls, screens, bits = [], [], []
    monkeypatch.setattr(fqp, "has_root", lambda ctx, cs: calls.append("has_root"))
    screen, bit_test = _gfp.screen, _gf2.is_irreducible
    monkeypatch.setattr(_gfp, "screen", lambda p: screens.append(p) or screen(p))
    monkeypatch.setattr(_gf2, "is_irreducible", lambda f: bits.append(f) or bit_test(f))
    pow_ = _gfp.Residues.pow
    monkeypatch.setattr(_gfp.Residues, "pow",
                        lambda ring, r, e: calls.append("pow") or pow_(ring, r, e))
    ben_or = _gfp.Residues.ben_or
    monkeypatch.setattr(_gfp.Residues, "ben_or",
                        lambda ring, first, last: calls.append((first, last))
                        or ben_or(ring, first, last))
    rng = Random(2)
    for p in PACKED:
        ctx = ec.make_field(p)
        for d in range(2, 2 * TOPS[p] + 2):
            for _ in range(5):
                fqp.irreducible(ec.Poly(ctx, [rng.randrange(p) for _ in range(d)] + [1]))
    assert calls == [] and set(screens) == set(PACKED) - {2}
    assert len(bits) == 5 * 2 * TOPS[2]
    f3 = ec.make_field(3)
    f = ec.Poly(f3, [2, 1] + [0] * 12 + [1])  # x**14 + x + 2, past every lane
    assert fqp.irreducible(f) == naive.is_irreducible(3, list(f.coeffs))
    assert calls[0] == (7, 7) and "has_root" not in calls


def test_irreducible_rejects_a_root_at_0_1_or_minus_1_first(monkeypatch):
    """A candidate of degree >= 2 with f(0), f(1) or f(-1) = 0 is rejected
    before the residue screen is read; a linear one is still prime."""
    def no_screen(p):
        raise AssertionError("the screen was read")

    monkeypatch.setattr(_gfp, "screen", no_screen)
    rng = Random(5)
    for p in PACKED:
        for d in range(2, 14):
            for root in {0, 1, p - 1}:
                for _ in range(3):
                    cof = [rng.randrange(p) for _ in range(d - 1)] + [1]
                    f = naive.polmul(p, [-root % p, 1], cof)
                    assert naive.poleval(p, f, root) == 0
                    assert not _gfp.irreducible(p, bytes(f))
    monkeypatch.undo()
    assert all(_gfp.irreducible(p, bytes([c, 1])) for p in PACKED for c in range(p))
