"""Bit-packed polynomials over GF(2).

A polynomial over GF(2) is encoded as a Python int whose bit i is the
coefficient of x**i, so the zero polynomial is 0 and x**3 + x + 1 is 0b1011.
This is the workhorse behind characteristic-2 table construction, rejection
sampling of irreducibles of large degree, and the deterministic splitting of
even-degree primes over the quartic extension, where the generic coefficient
arithmetic would dominate the runtime.

Only internal callers use this module; everything here is cross-checked
against the generic polynomial layer in the test suite.
"""

from __future__ import annotations

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


def is_irreducible(f: int) -> bool:
    """Irreducibility over GF(2) by the factor-degree filter.

    f is composite iff it has an irreducible factor of degree <= deg(f)//2,
    and gcd(x**(2**i) - x, f) catches every factor of degree dividing i.
    The roots 0 and 1 are screened first: f(0) is bit 0, and f(1) is the
    parity of the number of set bits.
    """
    d = f.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if not f & 1 or not f.bit_count() & 1:
        return False  # divisible by x or by x + 1
    t = 2  # x
    for _ in range(d // 2):
        t = mod(sqr(t), f)
        if gcd(t ^ 2, f) != 1:
            return False
    return True


def conjugate_factor_coeffs(p: int) -> list[int]:
    """One of the two conjugate factors of an even-degree GF(2)-prime over
    the field with four elements.

    p must be irreducible over GF(2) of even degree d.  Over GF(4) it splits
    as A * phi(A) with phi the coefficient-wise squaring map and deg A = d/2.
    Working in R = GF(2)[x]/(p) with alpha the class of x, the factor with
    root alpha is prod_{i even, i < d} (Y - alpha**(2**i)); its coefficients
    lie in the four-element subfield {0, 1, rho, rho+1} of R, where rho is
    either root of Y**2 + Y + 1.  The returned list holds the ascending
    GF(4) coefficient literals of that factor under rho -> 2 (the other
    choice of root yields the conjugate factor, which the caller recovers
    with a coefficient-wise Frobenius).
    """
    d = p.bit_length() - 1
    half = d // 2
    # alpha**(4**i) for i < d/2, by iterated double squaring mod p.
    t = 2
    roots = []
    for _ in range(half):
        roots.append(t)
        t = mod(sqr(sqr(t)), p)
    # prod (Y - r): coefficients in R, ascending in Y.
    coeffs = [1]
    for r in roots:
        nxt = [mulmod(coeffs[0], r, p)]
        for j in range(1, len(coeffs)):
            nxt.append(coeffs[j - 1] ^ mulmod(coeffs[j], r, p))
        nxt.append(1)
        coeffs = nxt
    # Identify the subfield copy: some coefficient is outside GF(2).
    rho = None
    for c in coeffs:
        if c > 1:
            rho = min(c, c ^ 1)
            break
    if rho is None or mod(sqr(rho) ^ rho ^ 1, p) != 0:
        raise CrossCheckMismatch("factor coefficients not in the quartic subfield")
    table = {0: 0, 1: 1, rho: 2, rho ^ 1: 3}
    return [table[c] for c in coeffs]
