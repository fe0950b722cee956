"""Bit-packed polynomials over GF(2).

A polynomial over GF(2) is encoded as a Python int whose bit i is the
coefficient of x**i, so the zero polynomial is 0 and x**3 + x + 1 is 0b1011.
This is the workhorse behind characteristic-2 table construction and the
rejection sampling of irreducibles of large degree.  It also splits an
even-degree prime over the field with four elements: a cube root of unity
modulo the prime, built from a Frobenius orbit, and half of one Euclid
over GF(2), whose factor over GF(4) is held as a pair of such ints: the
(2,3) case of coverparam.split_prime, which checks it from outside.  The
generic coefficient arithmetic would dominate the runtime of both.

Most random candidates that a rejection draw rejects have a small factor,
so is_irreducible screens the factors of degree 1 to SCREEN_DEGREE = 8
exactly before it runs Ben-Or's gcds: x and x + 1 from the bits, and the
primes of degree 2 to 8 from one table-driven residue screen
(passes_screen) that computes the candidate modulo all of them at once.
prime_factor proves an even-degree polynomial prime from the same orbit
that gives its GF(4) factor, and returns None where it is composite; Ben-Or
decides only when that orbit's element lies in a proper subfield.  So a
(2,3) draw of degree at least 2*SCREEN_DEGREE + 2, where Ben-Or would run,
decides a candidate that passes the screen by prime_factor, and keeps the
factor; is_irreducible decides every other F_2 candidate.  Both square
modulo their polynomial by one rule, _square_tables: the low half of an
element spread in place and the high half read through per-polynomial
window tables.  Their squaring and gcd loops are written out inline, since
the calls would cost as much as the work.

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


# A polynomial of degree above SCREEN_DEGREE is screened against every prime
# g of degree 2 to SCREEN_DEGREE at once.  Its residues modulo all of them
# are the XOR, over its bytes, of one table entry per byte: _screen_tables[i]
# [b] packs b(x)*x**(8*i) mod g for each g into one lane of SCREEN_DEGREE + 1
# bits, whose top bit is a guard.  With H the guard bits and L the lowest bit
# of every lane, ((r | H) - L) & H differs from H exactly when some lane of r
# is 0, that is, when some g divides f.  The primes and the tables of each
# byte position are built on the first call that reads them, about 30 KiB a
# position, so a process that tests no GF(2) polynomial holds none of them.
SCREEN_DEGREE = 8
_LANE = SCREEN_DEGREE + 1
_small_primes: frozenset[int] = frozenset()  # degree 1 to SCREEN_DEGREE
_screen_primes: list[int] = []  # degree 2 to SCREEN_DEGREE, one lane each
_guards = _lows = 0
# Ben-Or's rounds run only on degree d > 2*SCREEN_DEGREE + 1, so they start
# from x**(2**_FIRST_ROUND), the last power x**(2**i) of degree at most
# 2*SCREEN_DEGREE + 1, which needs no reduction.
_FIRST_ROUND = (2 * SCREEN_DEGREE + 1).bit_length() - 1
_screen_tables: tuple[list[int], ...] = ()


def _extend_screen_tables(n: int) -> tuple[list[int], ...]:
    """The tables of the byte positions below n, built where missing; the
    first call finds the small primes by trial division."""
    global _small_primes, _screen_primes, _guards, _lows, _screen_tables
    if not _screen_tables:
        primes: list[int] = []
        for f in range(2, 1 << _LANE):
            d = f.bit_length() - 1
            if all(mod(f, g) for g in primes if 2 * (g.bit_length() - 1) <= d):
                primes.append(f)
        _small_primes = frozenset(primes)
        _screen_primes = primes[2:]  # without x and x + 1
        _guards = sum(1 << (_LANE * j + SCREEN_DEGREE)
                      for j in range(len(_screen_primes)))
        _lows = _guards >> SCREEN_DEGREE
    tables = list(_screen_tables)
    for i in range(len(tables), n):
        table = [0]
        for k in range(8):  # the entries of the bytes below 2**(k + 1)
            bit = sum(mod(1 << (8 * i + k), g) << (_LANE * j)
                      for j, g in enumerate(_screen_primes))
            table += [v ^ bit for v in table]
        tables.append(table)
    _screen_tables = tuple(tables)
    return _screen_tables


def passes_screen(f: int) -> bool:
    """Whether f, of degree above SCREEN_DEGREE, has no prime factor of
    degree 2 to SCREEN_DEGREE: is_irreducible's residue screen on its own."""
    n = (f.bit_length() + 7) >> 3
    tables = _screen_tables
    if len(tables) < n:
        tables = _extend_screen_tables(n)
    r = reduce(xor, map(list.__getitem__, tables, f.to_bytes(n, "little")))
    return ((r | _guards) - _lows) & _guards == _guards


def is_irreducible(f: int) -> bool:
    """Irreducibility over GF(2): a small-factor screen, then Ben-Or.

    f is composite iff it has an irreducible factor of degree <= deg(f)//2.
    The roots 0 and 1 are screened first: f(0) is bit 0, and f(1) is the
    parity of the number of set bits.  Of degree <= SCREEN_DEGREE, f is
    looked up among the small primes.  Above it the residue screen catches
    every factor of degree 2 to SCREEN_DEGREE, so Ben-Or's rounds, where
    gcd(x**(2**i) - x, f) catches every factor of degree dividing i, start at
    i = SCREEN_DEGREE + 1, and f of degree below 2*SCREEN_DEGREE + 2 needs
    none.
    """
    d = f.bit_length() - 1
    if d < 1:
        return False
    if not f & 1 or not f.bit_count() & 1:
        return d == 1  # divisible by x or by x + 1
    if d <= SCREEN_DEGREE:
        if not _small_primes:
            _extend_screen_tables(1)
        return f in _small_primes
    if not passes_screen(f):
        return False
    if d < 2 * SCREEN_DEGREE + 2:
        return True  # no round: every factor of degree <= d//2 is screened
    half, tables = _square_tables(f)
    low = (1 << half) - 1
    spread = _SPREAD
    z = 1 << (1 << _FIRST_ROUND)  # x**(2**i) modulo f after round i
    for i in range(_FIRST_ROUND + 1, d // 2 + 1):
        s = shift = 0  # z = z**2 modulo f
        t = z & low
        while t:
            s |= spread[t & 0xFF] << shift
            t >>= 8
            shift += 16
        t = z >> half
        for table in tables:
            s ^= table[t & 0xF]
            t >>= 4
        z = s
        if i <= SCREEN_DEGREE:
            continue
        a, b = f, z ^ 2  # gcd(f, z - x)
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


# Squaring modulo p, of degree d, for prime_factor's orbit and Ben-Or's
# rounds, takes two parts, XORed.  The bits of an element below half =
# ceil(d/2) square to degree below d, so they are spread in place and need
# no reduction.  The bits from half to d - 1 are read 4 at a time, each
# window one entry of a per-p table of the sums of x**(2*i) mod p over its
# bits i: ceil(d/8) tables of 16 entries, about 60 XORs to build at d = 32.
# Against a 6-bit fold that reduced the whole square, prime_factor took
# x0.71 the time at degree 18 and up and x0.77 below, over the 5 825
# distinct inputs that 3 300 (2,3) Monte Carlo samples gave it, and a (2,5)
# Monte Carlo op at genus 60, whose draws all run Ben-Or, took x0.98
# (medians of interleaved passes; Python 3.11, 2-core x86-64 box).


def _square_tables(p: int) -> tuple[int, list[tuple[int, ...]]]:
    """(half, tables) for squaring modulo p, of degree d >= 2: the bits of an
    element below half square in place, and tables[w][v] is
    (v(x) * x**(half + 4*w))**2 mod p for the bits v of its w-th 4-bit
    window from half up."""
    d = p.bit_length() - 1
    half = (d + 1) >> 1
    # the bases x**(2*i) mod p from i = half up, each the last times x**2:
    # fold[t] is the multiple of p whose bits d and d + 1 are those of t
    two = p << 1 ^ (p if p >> (d - 1) & 1 else 0)
    fold = (0, p, two, two ^ p)
    b = (p ^ 1 << d) << (2 * half - d)
    b ^= fold[b >> d]
    tables = []
    for _ in range(half, d, 4):
        b1 = b << 2
        b1 ^= fold[b1 >> d]
        b2 = b1 << 2
        b2 ^= fold[b2 >> d]
        b3 = b2 << 2
        b3 ^= fold[b3 >> d]
        b01, b23 = b ^ b1, b2 ^ b3
        tables.append((0, b, b1, b01, b2, b2 ^ b, b2 ^ b1, b2 ^ b01,
                       b3, b3 ^ b, b3 ^ b1, b3 ^ b01, b23, b23 ^ b, b23 ^ b1, b23 ^ b01))
        b = b3 << 2
        b ^= fold[b >> d]
    return half, tables


def prime_factor(p: int) -> tuple[int, int] | None:
    """One of the two conjugate factors over the field with four elements of
    p, of even degree d over GF(2), or None exactly when p is not prime.

    Over GF(4) = {0, 1, rho, rho + 1}, with rho**2 = rho + 1, a prime p
    splits as A * phi(A), phi the coefficient-wise squaring map and
    deg A = d/2.  The monic A is returned as the bit-packed GF(2) halves
    (lo, hi) of A = lo + rho*hi; phi(A) = (lo + hi) + rho*hi.

    In R = GF(2)[x]/(p), a ring with 2**d elements, y = sum_{j odd, j < d}
    z**(2**j) satisfies y**2 + y = Tr(z) + z + z**(2**d) = Tr(z)**2, Tr(z)
    the sum of z**(2**j) over j < d.  Take z = x**k with the least k whose
    trace is 1: Tr(x**k) is the k-th power sum of the roots of p, read off
    p's bits by Newton's identities.  The orbit of z proves p prime or
    returns None.  Tr(z) = 1 in R alone gives z**(2**d) = z, puts z in
    GF(2**d) outside GF(2**(d/2)) in every residue field of R, and makes y
    a cube root of unity: a y that is not one is a broken orbit, and raises
    CrossCheckMismatch.  If z - z**(2**(d/r)) is also a unit for every odd
    divisor r > 1 of d, z has degree d there, so R is that field and p is
    prime.  When z lies in a proper subfield, is_irreducible decides.  A
    prime p of even degree has such a k below d and passes every check
    before the subfield one.

    For a prime p, y is a cube root of unity in R, and Y(beta) runs through
    rho and rho + 1 as beta runs through the roots of p, the even and the
    odd Frobenius powers of x.  So A generates the ideal (p, Y + rho) over
    GF(4).  Euclid over GF(2) on (p, Y) reaches a remainder r = s*p + t*Y of
    degree below d/2 with deg t = d/2, and r + rho*t = s*p + t*(Y + rho) is
    a nonzero member of that ideal of degree d/2: it is rho*A.  A last check
    that A * phi(A) = p on the packed halves makes a wrong factor of a
    proven prime raise CrossCheckMismatch.
    """
    d = p.bit_length() - 1
    if d < 2 or d % 2:
        raise ValueError(f"degree {d} is not even and positive")
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
        return None  # no power of x has trace 1
    half, tables = _square_tables(p)
    low = (1 << half) - 1
    spread = _SPREAD
    z = 1 << k
    orbit = [z]  # z**(2**j) for j < d, with z = x**k
    for _ in range(1, d):
        s = shift = 0  # z = z**2 modulo p
        t = z & low
        while t:
            s |= spread[t & 0xFF] << shift
            t >>= 8
            shift += 16
        t = z >> half
        for table in tables:
            s ^= table[t & 0xF]
            t >>= 4
        z = s
        orbit.append(z)
    if reduce(xor, orbit, 0) != 1:
        return None  # the trace of z in R is not 1
    y = reduce(xor, orbit[1::2], 0)
    if mod(sqr(y) ^ y ^ 1, p):  # y**2 + y = Tr(z)**2 = 1 in R
        raise CrossCheckMismatch("y is not a cube root of unity modulo p")
    for r in range(3, d + 1, 2):
        if d % r:
            continue
        a, b = p, orbit[0] ^ orbit[d // r]  # gcd(p, z - z**(2**(d/r)))
        while b:
            db = b.bit_length()
            da = a.bit_length()
            while da >= db:
                a ^= b << (da - db)
                da = a.bit_length()
            a, b = b, a
        if a != 1:
            if not is_irreducible(p):
                return None
            break
    r, t = _half_remainder(p, y)
    # r + rho*t = rho*A, so A = rho**2*r + t = (r + t) + rho*r once deg t =
    # d/2 > deg r, which makes A monic of degree d/2
    if t.bit_length() - 1 != d // 2 or r.bit_length() - 1 >= d // 2:
        raise CrossCheckMismatch("the GF(4) factor does not have half the degree")
    a_lo, a_hi = r ^ t, r
    # A * phi(A) = lo**2 + (rho + rho**2)*lo*hi + rho**3*hi**2, with
    # rho + rho**2 = rho**3 = 1; hi != 0 keeps A off GF(2), so A != phi(A).
    if not a_hi or sqr(a_lo) ^ mul(a_lo, a_hi) ^ sqr(a_hi) != p:
        raise CrossCheckMismatch(
            "the GF(4) factor times its conjugate does not give the prime")
    return a_lo, a_hi


def conjugate_factor_coeffs(p: int) -> tuple[int, int]:
    """prime_factor of a p that must be prime: CrossCheckMismatch where
    prime_factor finds it composite."""
    factor = prime_factor(p)
    if factor is None:
        raise CrossCheckMismatch("the input is not prime")
    return factor


def _half_remainder(p: int, y: int) -> tuple[int, int]:
    """The first remainder r of Euclid's algorithm on (p, y) of degree below
    deg(p)/2, with the cofactor t for which r = t*y modulo p."""
    half = (p.bit_length() - 1) // 2
    a, b, ta, tb = p, y, 0, 1  # a = ta*y and b = tb*y modulo p
    while b.bit_length() > half:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            ta ^= tb << (da - db)
            da = a.bit_length()
        a, b, ta, tb = b, a, tb, ta
    return b, tb
