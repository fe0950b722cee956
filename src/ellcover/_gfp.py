"""Kronecker-packed polynomials over small odd prime fields.

A polynomial over F_p is packed into a Python int whose lane i, a field of
8*s bits, holds the coefficient of x**i.  Between steps it is kept as
bytes, one coefficient per byte, which is what bytes(literals) gives for a
prime field's literals.

A product is one big-int multiplication of the packed operands.  Its lanes
sum min(len a, len b) terms of at most (p - 1)**2, and s is the least power
of two whose lanes hold that sum: one byte at p = 3 up to 63 terms, two
bytes for most products at p >= 7.  norm reduces a packed int mod p lane by
lane with bytes.translate: byte i of every lane is mapped through a table
of (byte * 256**i) mod p, the s mapped strings are added as ints, and one
more translate reduces the sums.

A division clears the top remaining coefficient c by adding c times the
divisor with negated coefficients, shifted into place: one addition per
eliminated coefficient, which adds at most (p - 1)**2 to a lane.  Lanes
are reduced mod p again whenever the next step could overflow one.  A
one-off division or gcd runs in byte lanes: a byte that holds a reduced
coefficient takes one step exactly when p*(p - 1) <= 255, which is what
packs(p) asks, so the lanes are reduced every 63 steps at p = 3 and after
every step at p = 13.  Powers modulo a fixed modulus run in the lane width
of their products, where two or more bytes take every step of a reduction
at once.

fqpoly runs its literal-list kernels over the prime fields that pack.
Every function returns the same literals as the discrete-log kernels there;
the test suite checks both against the naive oracles.
"""

from __future__ import annotations

from functools import lru_cache

_WIDEST = 8  # bytes in the widest lane; 8 * (p - 1) <= 255 where p packs


def packs(p: int) -> bool:
    """Whether the prime p packs: odd, and p*(p - 1) <= 255, so that a byte
    lane holding a coefficient below p takes one elimination step."""
    return p > 2 and p * (p - 1) <= 255


@lru_cache(maxsize=None)
def _tables(p: int) -> tuple[tuple[bytes, ...], bytes, list[int]]:
    """(mods, neg, inv): mods[i] maps a byte x to x * 256**i mod p for each
    byte position i of a lane, neg maps x < p to -x mod p, and inv[x] is
    the inverse of x mod p (inv[0] = 0)."""
    def times(r: int) -> bytes:  # y -> r*y mod p for y < p
        return bytes(r * y % p for y in range(p)).ljust(256, b"\0")

    mod = (bytes(range(p)) * (256 // p + 1))[:256]  # x -> x mod p
    mods = tuple(mod.translate(times(pow(256, i, p))) for i in range(_WIDEST))
    return mods, times(p - 1), [0] + [pow(x, -1, p) for x in range(1, p)]


def lane_bytes(p: int, bound: int) -> int:
    """Bytes per lane for lanes that must hold sums up to bound."""
    s = 1
    while bound >> (8 * s):
        s *= 2
    if s > _WIDEST:
        raise OverflowError(f"a lane sum of {bound} is too wide to pack")
    return s


def widen(bs: bytes, s: int) -> int:
    """The packed int whose lanes of s bytes hold the bytes of bs: read as
    hex digits, most significant lane first, with s - 1 zero bytes after
    each."""
    if s == 1:
        return int.from_bytes(bs, "little")
    return int(bs[::-1].hex(":").replace(":", "00" * (s - 1)) or "0", 16)


def norm(a: int, n: int, p: int, s: int) -> bytes:
    """The n lanes of a reduced mod p, one byte per lane; a must fit in n
    lanes of s bytes."""
    mods = _tables(p)[0]
    raw = a.to_bytes(n * s, "little")
    if s == 1:
        return raw.translate(mods[0])
    if s == 2:
        acc = int.from_bytes(raw[::2].translate(mods[0]), "little") + \
            int.from_bytes(raw[1::2].translate(mods[1]), "little")
    else:
        acc = sum(int.from_bytes(raw[i::s].translate(mods[i]), "little")
                  for i in range(s))
    return acc.to_bytes(n, "little").translate(mods[0])


def _negated(p: int, b: bytes, s: int = 1) -> tuple[int, int]:
    """b with its coefficients negated mod p, packed in lanes of s bytes,
    and the inverse of its leading coefficient."""
    _, neg, inv = _tables(p)
    return widen(b.translate(neg), s), inv[b[-1]]


def _reduce(a: int, top: int, db: int, neg: int, c0: int, p: int, s: int,
            room: int, quo: list[int] | None = None) -> bytes:
    """The lanes below db of a, packed in lanes 0 .. top of s bytes, once
    the multiple of a divisor b of degree db that clears lanes top .. db is
    added, reduced mod p; neg is b with its coefficients negated mod p and
    packed in lanes of s bytes, c0 the inverse of its leading coefficient,
    and the lanes of a take room elimination steps.  quo, when given,
    receives the quotient's coefficients.

    Each step adds c * neg at lane offset off, with c the top lane times c0
    mod p, which leaves a multiple of p in the top lane and adds at most
    (p - 1)**2 to each lane below it.
    """
    mod = _tables(p)[0][0]
    w = 8 * s
    hi = w * db
    mask = (1 << w) - 1
    for off in range(top - db, -1, -1):
        sh = w * off
        c = (a >> (sh + hi) & mask) * c0 % p
        if c:
            if not room:
                if s == 1:
                    a = int.from_bytes(a.to_bytes(top + 1, "little").translate(mod),
                                       "little")
                else:
                    a = widen(norm(a, top + 1, p, s), s)
                room = _room(p, s, p - 1)
            a += c * neg << sh
            room -= 1
            if quo is not None:
                quo[off] = c
    a &= (1 << hi) - 1
    return a.to_bytes(db, "little").translate(mod) if s == 1 else norm(a, db, p, s)


def _room(p: int, s: int, bound: int) -> int:
    """Elimination steps that lanes of s bytes holding at most bound take."""
    return ((1 << (8 * s)) - 1 - bound) // (p - 1) ** 2


def mul(p: int, a, b) -> list[int]:
    """Product literals of two nonempty coefficient sequences."""
    s = lane_bytes(p, min(len(a), len(b)) * (p - 1) ** 2)
    n = len(a) + len(b) - 1
    return list(norm(widen(bytes(a), s) * widen(bytes(b), s), n, p, s))


def divmod_(p: int, a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder literals of a by a trimmed nonzero b: the
    quotient has max(0, len a - deg b) entries and the remainder min(len a,
    deg b), neither trimmed."""
    db = len(b) - 1
    steps = len(a) - db
    if steps <= 0:
        return [], list(a)
    quo = [0] * steps
    rem = _reduce(int.from_bytes(bytes(a), "little"), len(a) - 1, db,
                  *_negated(p, bytes(b)), p, 1, _room(p, 1, p - 1), quo)
    return quo, list(rem)


def gcd(p: int, a, b) -> bytes:
    """A gcd of two coefficient sequences, b trimmed, not made monic: the
    last nonzero remainder of Euclid's algorithm, as bytes.

    The steps of _reduce are written out here: a step of Euclid's algorithm
    clears one or two lanes on average, and the calls would cost a third of
    the time.
    """
    a, b = bytes(a), bytes(b)
    mods, negate, inv = _tables(p)
    mod = mods[0]
    full = _room(p, 1, p - 1)
    while b:
        db = len(b) - 1
        hi = 8 * db
        top = len(a) - 1
        x = int.from_bytes(a, "little")
        neg = int.from_bytes(b.translate(negate), "little")
        c0 = inv[b[-1]]
        room = full
        for sh in range(8 * (top - db), -1, -8):
            c = (x >> (sh + hi) & 255) * c0 % p
            if c:
                if not room:
                    x = int.from_bytes(x.to_bytes(top + 1, "little").translate(mod),
                                       "little")
                    room = full
                x += c * neg << sh
                room -= 1
        a, b = b, (x & ((1 << hi) - 1)).to_bytes(db, "little").translate(mod).rstrip(b"\0")
    return a


class Residues:
    """Powers modulo a fixed trimmed modulus m of degree dm >= 1 over F_p,
    by square-and-multiply, and Ben-Or's rounds on them.

    A residue is held as bytes of dm coefficients, reduced mod p, and
    packed for each step in lanes of s bytes, the least that hold a product
    of two residues, whose lanes sum at most dm terms of (p - 1)**2.  Wider
    lanes than a byte take every elimination step of a reduction with room
    to spare.
    """

    __slots__ = ("p", "m", "dm", "s", "neg", "c0", "room")

    def __init__(self, p: int, m):
        self.p = p
        self.m = bytes(m)
        self.dm = dm = len(m) - 1
        step = (p - 1) ** 2
        bound = dm * step
        self.s = s = lane_bytes(p, bound)
        self.neg, self.c0 = _negated(p, self.m, s)
        full = (1 << (8 * s)) - 1  # what a lane holds
        self.room = (full - bound) // step

    def residue(self, a) -> bytes:
        """The residue of a literal sequence of length at most dm."""
        return bytes(a).ljust(self.dm, b"\0")

    def pow(self, r: bytes, e: int) -> bytes:
        """r**e for e >= 1 by left-to-right square-and-multiply."""
        p, s, dm, neg, c0, room = self.p, self.s, self.dm, self.neg, self.c0, self.room
        top = 2 * dm - 2
        base = widen(r, s)
        for bit in bin(e)[3:]:
            v = widen(r, s)
            r = _reduce(v * v, top, dm, neg, c0, p, s, room)
            if bit == "1":
                r = _reduce(widen(r, s) * base, top, dm, neg, c0, p, s, room)
        return r

    def ben_or(self, first: int, last: int) -> bool:
        """Whether gcd(m, x**(p**i) - x) = 1 for first <= i <= last, with
        each x**(p**i) the p-th power of the one before."""
        p = self.p
        t = self.residue((0, 1))
        for i in range(1, last + 1):
            t = self.pow(t, p)
            if i >= first:
                u = bytearray(t)
                u[1] = (u[1] - 1) % p
                if len(gcd(p, self.m, bytes(u).rstrip(b"\0"))) != 1:
                    return False
        return True
