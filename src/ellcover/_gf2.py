"""Bit-packed polynomials over GF(2).

A polynomial over GF(2) is encoded as a Python int whose bit i is the
coefficient of x**i, so the zero polynomial is 0 and x**3 + x + 1 is 0b1011.
This is the workhorse behind characteristic-2 table construction and the
rejection sampling of irreducibles of large degree.  It also splits an
even-degree prime over the field with four elements: a cube root of unity
modulo the prime, built from a Frobenius orbit, and one gcd over GF(4),
whose polynomials are held as pairs of such ints.  The generic coefficient
arithmetic would dominate the runtime of both.

Most random candidates that a rejection draw rejects have a small factor,
so is_irreducible screens the factors of degree 1 to 4 exactly before it
runs Ben-Or's gcds: x and x + 1 from the bits, and the primes of degree 2,
3 and 4 from the residues modulo x**15 - 1 and x**7 - 1, which those primes
divide.  Its squaring, reduction and gcd loops, and the orbit squarings of
conjugate_factor_coeffs, are written out inline, since the calls would cost
as much as the work.

Only internal callers use this module; everything here is cross-checked
against the generic polynomial layer and the naive oracles in the test suite.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from .errors import CrossCheckMismatch

# _SPREAD[b] doubles the gaps between the bits of the byte b, so squaring a
# GF(2) polynomial is a byte-wise table lookup.
_SPREAD = []
for _b in range(256):
    _s = 0
    for _i in range(8):
        if _b >> _i & 1:
            _s |= 1 << (2 * _i)
    _SPREAD.append(_s)
del _b, _s, _i


def mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def sqr(a: int) -> int:
    """Square of a GF(2) polynomial (coefficient spreading)."""
    acc = 0
    shift = 0
    while a:
        acc |= _SPREAD[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return acc


def mod(a: int, m: int) -> int:
    """Remainder of a modulo m (m nonzero)."""
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def mulmod(a: int, b: int, m: int) -> int:
    return mod(mul(a, b), m)


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


# The primes of degree 2 and 4 divide x**15 - 1 and those of degree 3 divide
# x**7 - 1, so a polynomial has such a factor exactly when its residue modulo
# x**15 - 1 (or x**7 - 1) does.  _screens holds one bytearray per modulus,
# indexed by the residue and marking the multiples of those primes; they take
# about 1.5 ms and 32 KiB, built on the first call that reads them.
_SCREEN_DIVISORS = ((15, (0b111, 0b10011, 0b11001, 0b11111)),
                    (7, (0b1011, 0b1101)))
_screens: tuple[bytearray, ...] = ()


def _build_screens() -> tuple[bytearray, ...]:
    global _screens
    tables = []
    for n, divisors in _SCREEN_DIVISORS:
        table = bytearray(1 << n)
        for g in divisors:
            span = [0]  # the multiples of g of degree < n, a GF(2) span
            for i in range(n - g.bit_length() + 1):
                step = g << i
                span += [v ^ step for v in span]
            for v in span:
                table[v] = 1
        tables.append(table)
    _screens = tuple(tables)
    return _screens


def is_irreducible(f: int) -> bool:
    """Irreducibility over GF(2): a small-factor screen, then Ben-Or.

    f is composite iff it has an irreducible factor of degree <= deg(f)//2.
    The roots 0 and 1 are screened first: f(0) is bit 0, and f(1) is the
    parity of the number of set bits.  Of degree <= 4 and without a root, f
    is composite only as (x**2 + x + 1)**2.  Above degree 4 the residue
    tables catch every factor of degree 2, 3 or 4, so Ben-Or's rounds, where
    gcd(x**(2**i) - x, f) catches every factor of degree dividing i, start at
    i = 5.
    """
    d = f.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if not f & 1 or not f.bit_count() & 1:
        return False  # divisible by x or by x + 1
    if d <= 4:
        return f != 0b10101
    screen15, screen7 = _screens or _build_screens()
    r = f
    while r >> 15:
        r = (r & 0x7FFF) ^ (r >> 15)
    if screen15[r]:
        return False
    r = f
    while r >> 7:
        r = (r & 0x7F) ^ (r >> 7)
    if screen7[r]:
        return False
    if d < 10:
        return True  # no round: every factor of degree <= d//2 is screened
    spread = _SPREAD
    t, dt = 1 << 16, 16  # x**(2**4) modulo f
    while dt >= d:
        t ^= f << (dt - d)
        dt = t.bit_length() - 1
    for _ in range(5, d // 2 + 1):
        s = shift = 0  # s = t**2 modulo f
        while t:
            s |= spread[t & 0xFF] << shift
            t >>= 8
            shift += 16
        ds = s.bit_length() - 1
        while ds >= d:
            s ^= f << (ds - d)
            ds = s.bit_length() - 1
        t = s
        a, b = f, t ^ 2  # gcd(f, t - x)
        while b:
            db = b.bit_length()
            da = a.bit_length()
            while da >= db:
                a ^= b << (da - db)
                da = a.bit_length()
            a, b = b, a
        if a != 1:
            return False
    return True


def conjugate_factor_coeffs(p: int) -> list[int]:
    """One of the two conjugate factors of an even-degree GF(2)-prime over
    the field with four elements.

    p must be irreducible over GF(2) of even degree d.  Over GF(4) =
    {0, 1, rho, rho + 1}, with rho**2 = rho + 1, it splits as A * phi(A),
    phi the coefficient-wise squaring map and deg A = d/2.  The returned list
    holds the ascending GF(4) coefficient literals of the monic A under
    rho -> 2; the caller recovers phi(A) by a coefficient-wise Frobenius.

    In R = GF(2)[x]/(p), a field with 2**d elements, y = sum_{j odd, j < d}
    z**(2**j) satisfies y**2 + y = Tr(z), the absolute trace.  Taking z = x**k
    with the least k whose trace is 1 makes y = Y(x) a cube root of unity in
    R, and Y(beta) runs through rho and rho + 1 as beta runs through the
    roots of p, the even and the odd Frobenius powers of x.  So A is
    gcd(p, Y + rho) over GF(4), of degree d/2.  Tr(x**k) is the k-th power
    sum of the roots of p, read off p's bits by Newton's identities.  The
    checks along the way, a proof from z's orbit that p is prime, and a last
    check that A * phi(A) = p on the packed halves make a reducible p or a
    wrong factor raise CrossCheckMismatch.
    """
    d = p.bit_length() - 1
    # Newton's identities in characteristic 2, with e_i the coefficient of
    # x**(d - i): s_k = k*e_k + sum_{0 < i < k} e_i * s_{k - i}.
    sums = [0]
    k = 1
    while k < d:
        s = k & p >> (d - k) & 1
        for i in range(1, k):
            s ^= p >> (d - i) & sums[k - i]
        sums.append(s)
        if s:
            break
        k += 1
    else:
        raise CrossCheckMismatch("no power of x has trace 1")
    spread = _SPREAD
    z = 1 << k
    orbit = [z]  # z**(2**j) for j < d, with z = x**k
    for _ in range(1, d):
        s = shift = 0  # z = z**2 modulo p
        while z:
            s |= spread[z & 0xFF] << shift
            z >>= 8
            shift += 16
        ds = s.bit_length() - 1
        while ds >= d:
            s ^= p << (ds - d)
            ds = s.bit_length() - 1
        z = s
        orbit.append(z)
    if reduce(xor, orbit, 0) != 1:
        raise CrossCheckMismatch("the chosen power of x does not have trace 1")
    y = reduce(xor, orbit[1::2], 0)
    if mod(sqr(y) ^ y ^ 1, p):
        raise CrossCheckMismatch("no cube root of unity modulo the prime")
    # In every residue field of R, Tr(z) = 1 and y**2 + y = Tr(z) + z +
    # z**(2**d) put z in GF(2**d) outside GF(2**(d/2)).  If z - z**(2**(d/r))
    # is also a unit for every odd divisor r > 1 of d, z has degree d there,
    # so R is that field and p is prime.  When z lies in a proper subfield,
    # Ben-Or decides.
    if any(gcd(p, orbit[0] ^ orbit[d // r]) != 1
           for r in range(3, d + 1, 2) if d % r == 0) and not is_irreducible(p):
        raise CrossCheckMismatch("the input is not prime")
    a_lo, a_hi = _gf4_gcd(p, 0, y, 1)
    if max(a_lo.bit_length(), a_hi.bit_length()) - 1 != d // 2:
        raise CrossCheckMismatch("the GF(4) factor does not have half the degree")
    # A * phi(A) = lo**2 + (rho + rho**2)*lo*hi + rho**3*hi**2, with
    # rho + rho**2 = rho**3 = 1; hi != 0 keeps A off GF(2), so A != phi(A).
    if not a_hi or sqr(a_lo) ^ mul(a_lo, a_hi) ^ sqr(a_hi) != p:
        raise CrossCheckMismatch(
            "the GF(4) factor times its conjugate does not give the prime")
    return [(a_lo >> i & 1) | (a_hi >> i & 1) << 1 for i in range(d // 2 + 1)]


def _gf4_scale(lo: int, hi: int, c: int) -> tuple[int, int]:
    """c * (lo + rho*hi) for the GF(4) literal c = c0 + 2*c1, with
    rho*(lo + rho*hi) = hi + rho*(lo + hi)."""
    if c == 1:
        return lo, hi
    if c == 2:
        return hi, lo ^ hi
    return lo ^ hi, lo  # c = 3 = rho**2


def _gf4_gcd(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    """Monic gcd of two GF(4)-polynomials, each held as bit-packed GF(2)
    halves (lo, hi) meaning sum (lo_i + rho*hi_i) x**i; b must be nonzero."""
    while True:
        db = max(b_lo.bit_length(), b_hi.bit_length()) - 1
        # make b monic: rho**-1 = rho**2 and (rho**2)**-1 = rho
        lead = (b_lo >> db & 1) | (b_hi >> db & 1) << 1
        b_lo, b_hi = _gf4_scale(b_lo, b_hi, (0, 1, 3, 2)[lead])
        multiples = (None, (b_lo, b_hi), _gf4_scale(b_lo, b_hi, 2),
                     _gf4_scale(b_lo, b_hi, 3))
        da = max(a_lo.bit_length(), a_hi.bit_length()) - 1
        while da >= db:
            m_lo, m_hi = multiples[(a_lo >> da & 1) | (a_hi >> da & 1) << 1]
            a_lo ^= m_lo << (da - db)
            a_hi ^= m_hi << (da - db)
            da = max(a_lo.bit_length(), a_hi.bit_length()) - 1
        if not a_lo | a_hi:
            return b_lo, b_hi
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
