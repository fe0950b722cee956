"""Kronecker-packed polynomials over small prime fields.

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

fqpoly runs its literal-list kernels here for every prime field that packs,
p = 2, 3, 5, 7, 11 and 13, and on discrete logs for every other field.
Every function returns the same literals as the discrete-log kernels there;
the test suite checks both against the naive oracles.

A power of x, such as the split's root of unity x**((p**n - 1) / ell) or
x**p in Ben-Or's first round, multiplies by x as a shift up one lane, which
leaves one lane to eliminate in place of a product and its reduction.

irreducible, the primality test that fqpoly's one rule picks for these
fields but F_2 (which _gf2 decides), first rejects a candidate of degree 2
or more with a root at 0, 1 or -1, read off its constant term, its
coefficient sum and its alternating sum: that rejects 19 of 27 random
candidates of degree 3 or more over F_3.  Then it runs one residue screen
per p (Screen): a monic candidate modulo every monic prime of degree 1 to
the screen's top, as a sum of table entries indexed by chunks of its
coefficients, one byte per residue coefficient, reduced mod p by one
translate and searched for a residue that is all zero.  It decides Ben-Or's
rounds 1 to top exactly, so a candidate of degree up to 2 * top + 1 needs
no modular power.  A random degree-12 candidate over F_3 took 7.9 us in
fqpoly's test, against 34 us by evaluation at the points of F_3 and
Ben-Or's rounds (2-core x86-64 box, Python 3.11).  The tables are built by
degree and by coefficient position on first use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

_WIDEST = 8  # bytes in the widest lane; 8 * (p - 1) <= 255 where p packs


def packs(p: int) -> bool:
    """Whether the prime p packs: p*(p - 1) <= 255, so that a byte lane
    holding a coefficient below p takes one elimination step."""
    return p * (p - 1) <= 255


@lru_cache(maxsize=None)
def _tables(p: int) -> tuple[tuple[bytes, ...], bytes, list[int]]:
    """(mods, neg, inv): mods[i] maps a byte x to x * 256**i mod p for each
    byte position i of a lane, neg maps x < p to -x mod p, and inv[x] is
    the inverse of x mod p (inv[0] = 0)."""
    mod = (bytes(range(p)) * (256 // p + 1))[:256]  # x -> x mod p
    mods = tuple(mod.translate(_times(p, pow(256, i, p))) for i in range(_WIDEST))
    return mods, _times(p, p - 1), [0] + [pow(x, -1, p) for x in range(1, p)]


@lru_cache(maxsize=None)
def _times(p: int, c: int) -> bytes:
    """The translate table y -> c * y mod p for y < p."""
    return bytes(c * y % p for y in range(p)).ljust(256, b"\0")


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
        # times x is a shift up one lane, which leaves one lane to eliminate
        shift = dm > 1 and r == self.residue((0, 1))
        base = widen(r, s)
        for bit in bin(e)[3:]:
            v = widen(r, s)
            r = _reduce(v * v, top, dm, neg, c0, p, s, room)
            if bit == "1":
                if shift:
                    r = _reduce(widen(r, s) << 8 * s, dm, dm, neg, c0, p, s, room)
                else:
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




# The residue screen of one packed p takes a monic f modulo every monic prime
# of degree 1 to top at once.  Each prime owns a slot of top + 1 bytes: byte t
# < top holds coefficient t of f mod the prime (0 above its degree), and the
# last byte is a separator that holds 1.  The slots run through the primes by
# ascending degree, so the primes of degree at most e fill the first ends[e]
# bytes.  f is cut into chunks of chunk coefficients, and tables[j][c] packs
# the residues of the chunk with digits c at coefficient position chunk * j,
# reduced mod p, with the separators 1 in tables[0] and 0 in the others.  The
# residues of f are the sum of one entry a chunk, reduced mod p by one
# translate, and before that wherever a sum could pass a byte.  The
# separators stop a run of zero bytes at its slot, so a run of top zero bytes
# in the first ends[e] bytes is one whole residue: a prime of degree at most
# e divides f.
SCREEN_LANES = 1100  # residue coefficients a screen holds, about
# at most this many entries a chunk table: 27 at p = 3, 25 at p = 5 and one
# coefficient a chunk above
SCREEN_ENTRIES = 32


@lru_cache(maxsize=None)
def screen(p: int) -> "Screen":
    """The one residue screen of the packed prime p, built on demand."""
    return Screen(p)


def irreducible(p: int, f: bytes) -> bool:
    """Whether the monic f of degree d >= 1 over F_p, its coefficient bytes
    ascending, is prime, by Ben-Or's rounds 1 to d // 2: for d >= 2 a root
    at 0, 1 or -1 rejects f first, the residue screen decides rounds 1 to
    top at once, and Residues the rounds above it."""
    last = (len(f) - 1) // 2
    if last and (not f[0] or not sum(f) % p or not (sum(f[::2]) - sum(f[1::2])) % p):
        return False
    s = screen(p)
    if not s.passes(f, min(s.top, last)):
        return False
    return last <= s.top or Residues(p, f).ben_or(s.top + 1, last)


class Screen:
    """Residues of a monic f modulo every monic prime of degree 1 to top over
    F_p, from tables built on demand: level e screens the primes of degree
    at most e, and the tables cover the chunk positions asked for so far.
    The primes of degree e are the monics of degree e with no residue 0 at
    level e // 2.

    top is the largest degree whose primes hold at most SCREEN_LANES residue
    coefficients (the sum of e * N(e) over e <= top, N(e) the primes of
    degree e): 9 for F_2, 6 for F_3, 4 for F_5, 3 for F_7 and 2 for F_11
    and F_13.

    cols[i] holds the slots of x**i, separators 0.  Each degree's slots
    step to the next power of x at once: shifted up a byte, each slot's top
    coefficient c is cleared and c times the prime's negated coefficients
    added, selected for each value of c by one translate.
    """

    __slots__ = ("p", "top", "chunk", "weights", "room", "zeros", "level",
                 "ends", "blocks", "powers", "cols", "tables")

    def __init__(self, p: int):
        self.p = p
        coeffs = [0]  # coeffs[e] = e * N(e): sum over e' | e of e' * N(e') = p**e
        while sum(coeffs) <= SCREEN_LANES:
            e = len(coeffs)
            coeffs.append(p ** e - sum(coeffs[i] for i in range(1, e) if e % i == 0))
        self.top = len(coeffs) - 2
        k = 1
        while p ** (k + 1) <= SCREEN_ENTRIES:
            k += 1
        self.chunk = k
        # digit t of a chunk weighs p**t in its table's index
        self.weights = tuple(bytes(x * p ** t % 256 for x in range(256))
                             for t in range(1, k))
        self.room = 255 // (p - 1)  # reduced entries a byte sums
        self.zeros = bytes(self.top)
        self.level = 0
        self.ends = [0]  # ends[e]: the bytes of the slots of degree <= e
        self.blocks: list[tuple] = []  # per degree: (e, bytes, low, ones, negv)
        self.powers: list[int] = []  # per degree: the slots of x**len(cols)
        self.cols: list[bytes] = []
        self.tables: list[list[int]] = []

    def passes(self, f: bytes, e: int) -> bool:
        """Whether the monic f, its coefficient bytes ascending, has no prime
        factor of degree 1 to e, for 1 <= e <= top."""
        if e > self.level:
            self._raise_level(e)
        k = self.chunk
        n = -(-len(f) // k)
        if n > len(self.tables):
            self._extend_tables(n)
        if k == 1:
            idx = f
        else:
            acc = int.from_bytes(f[::k], "little")
            for t, w in enumerate(self.weights, start=1):
                acc += int.from_bytes(f[t::k].translate(w), "little")
            idx = acc.to_bytes(n, "little")
        tables = self.tables
        size = self.ends[-1]
        mod = _tables(self.p)[0][0]
        room = self.room
        if n <= room:
            r = sum(map(list.__getitem__, tables, idx))
        else:  # a reduced sum and room - 1 entries at a time
            r = 0
            for i in range(0, n, room - 1):
                r += sum(map(list.__getitem__, tables[i:i + room - 1], idx[i:i + room - 1]))
                r = int.from_bytes(r.to_bytes(size, "little").translate(mod), "little")
        return r.to_bytes(size, "little").translate(mod).find(
            self.zeros, 0, self.ends[e]) < 0

    def _raise_level(self, e: int) -> None:
        """Add the primes of each degree up to e, one degree at a time."""
        p, width = self.p, self.top + 1
        mod = _tables(p)[0][0]
        while self.level < e:
            d = self.level + 1
            self._extend_cols(d + 1)
            # every monic of degree d modulo the primes of degree <= d // 2,
            # indexed by its coefficients' digits
            end = self.ends[d // 2]
            sums = [int.from_bytes(self.cols[d][:end], "little") + self._separators(end)]
            for col in self.cols[:d]:
                sums += [v + m for m in _multiples(p, col[:end]) for v in sums]
            primes = [bytes(i // p ** t % p for t in range(d)) + b"\1"
                      for i, v in enumerate(sums)
                      if v.to_bytes(end, "little").translate(mod).find(self.zeros) < 0]
            size = len(primes) * width
            ones = int.from_bytes(b"\1".ljust(width, b"\0") * len(primes), "little")
            negv = [int.from_bytes(b"".join(bytes(-v * c % p for c in g[:-1]).ljust(width, b"\0")
                                            for g in primes), "little")
                    for v in range(p)]
            block = (d, size, ones * ((1 << 8 * d) - 1), ones, negv)
            x = ones  # x**0 modulo each prime
            for i, col in enumerate(self.cols):
                self.cols[i] = col + x.to_bytes(size, "little")
                x = self._step(x, block)
            self.blocks.append(block)
            self.powers.append(x)
            self.ends.append(self.ends[-1] + size)
            self.tables = []  # rebuilt over the new slots where read
            self.level = d

    def _step(self, x: int, block: tuple) -> int:
        """The slots of one degree times x, reduced mod p."""
        e, size, low, ones, negv = block
        p = self.p
        x <<= 8
        tops = (x >> 8 * e & ones * 255).to_bytes(size, "little")
        x &= low
        for v in range(1, p):
            picked = int.from_bytes(tops.translate(_indicator(v)), "little")
            if picked:
                x += picked * ((1 << 8 * e) - 1) & negv[v]
        return int.from_bytes(x.to_bytes(size, "little").translate(_tables(p)[0][0]),
                              "little")

    def _extend_cols(self, n: int) -> None:
        """The slots of x**i for every i below n."""
        while len(self.cols) < n:
            self.cols.append(b"".join(x.to_bytes(block[1], "little")
                                      for x, block in zip(self.powers, self.blocks)))
            self.powers = [self._step(x, block) for x, block in zip(self.powers, self.blocks)]

    def _separators(self, size: int) -> int:
        """The separators of the slots in the first size bytes, each 1."""
        return int.from_bytes((bytes(self.top) + b"\1") * (size // (self.top + 1)), "little")

    def _extend_tables(self, n: int) -> None:
        """The tables of the chunk positions below n, built where missing."""
        p, k = self.p, self.chunk
        self._extend_cols(k * n)
        mod = _tables(p)[0][0]
        size = self.ends[-1]
        for j in range(len(self.tables), n):
            table = [self._separators(size) if j == 0 else 0]
            for col in self.cols[k * j:k * j + k]:
                table += [v + m for m in _multiples(p, col) for v in table]
            self.tables.append([int.from_bytes(v.to_bytes(size, "little").translate(mod),
                                               "little") for v in table])


def _multiples(p: int, col: bytes) -> list[int]:
    """c * col for c = 1 .. p - 1, each byte reduced mod p, as ints."""
    return [int.from_bytes(col.translate(_times(p, c)), "little") for c in range(1, p)]


@lru_cache(maxsize=None)
def _indicator(v: int) -> bytes:
    """The translate table that maps v to 1 and every other byte to 0."""
    return bytes(v) + b"\1" + bytes(255 - v)
