"""Dense univariate polynomials over the field contexts of gf.

Coefficients are stored ascending as integer literals with no trailing
zeros, so the zero polynomial is the empty tuple and degree(0) == -1.
Products, long division, gcds and modular powers run on literal lists, in
one of two kernel forms chosen by one rule on the field alone:
- a prime field F_p with p*(p - 1) <= 255 (so p <= 13) runs on the
  Kronecker-packed ints of _gfp, where a literal is the coefficient itself:
  a product is one big-int multiplication, and a division adds one shifted
  multiple of the divisor per eliminated coefficient;
- every other field, F_{2^k} and primes above 13 included, holds discrete
  logs and adds them through the field's Zech table.
One modular-power kernel serves pow_mod, the irreducibility test and the
factorization split.  It keeps its form from its first step to its last:
packed residues over a packed prime field, discrete logs over every other
field.
One rule, _monic_irreducible, picks each field's primality test for
irreducible(), the prime draws and gf's modulus search: F_2 takes _gf2's and
a packed prime field p >= 3 _gfp's, each opening with a residue screen for
small factors, and every other field Ben-Or's rounds in logs, after has_root
up to ROOT_SCREEN_MAX_ORDER.  Factorization
runs the classical squarefree / distinct-degree / equal-degree pipeline; the
randomized equal-degree splits draw from a generator seeded by the input
polynomial, so factor() is a deterministic function of its argument.
Random literals below q = 256, for these splits and for the prime
sampler's candidates, are decoded in bulk by _random_literals, as d calls
of randrange(q) would draw them.
Prime enumeration sieves products below a hard budget and checks itself
against the divisor-counting closed form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random

from . import _gf2, _gfp
from .errors import (
    BudgetExceeded,
    CrossCheckMismatch,
    CtxMismatch,
    NotASubfield,
    ZeroPolynomial,
)
from .gf import (
    FieldCtx,
    FieldElem,
    check_subfield_order,
    embed_elem,
    factor_int,
    subfield_table,
)

SIEVE_CAP = 1 << 22  # q**d, the sieve's table of monic polynomials
SIEVE_PRODUCT_CAP = 1 << 20  # prime-by-cofactor products the sieve multiplies
FACTOR_SEED = 0x5EED  # mixed into the fold that seeds the factorization draws
# Over a field that _gfp does not pack, _monic_irreducible decides Ben-Or's
# first round, a root in F_q, by has_root for orders up to this, and by the
# power x**q mod f and a gcd above it.  Evaluation takes up to (q - 1) * d
# table steps.  On random monic f of degree 2 to 28 it was the cheaper round at
# every q <= 128 (within 15 % either way at a few degrees for q = 125) and the
# dearer one at q = 243 and 256 for degrees 3 to 16.  F_2 and the packed
# prime fields take their first rounds from _gf2's or _gfp's residue screen.
ROOT_SCREEN_MAX_ORDER = 128


class Poly:
    """Polynomial over a fixed field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, FieldElem):
                if c.ctx_key != (ctx.p, ctx.k):
                    raise CtxMismatch("coefficient from a different context")
                cs.append(c.val)
            else:
                v = int(c)
                if not 0 <= v < ctx.order:
                    raise ValueError(f"coefficient literal {v} out of range")
                cs.append(v)
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0, 1))

    @classmethod
    def constant(cls, c: FieldElem) -> "Poly":
        return cls(c.ctx, (c,))

    # -- basic structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def lead(self) -> FieldElem:
        if not self.coeffs:
            raise ZeroPolynomial("leading coefficient of the zero polynomial")
        return FieldElem(self.ctx, self.coeffs[-1])

    def sort_key(self) -> tuple:
        return (self.degree, self.coeffs)

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.ctx is not self.ctx:
            if isinstance(other, Poly) and (other.ctx.p, other.ctx.k) == (self.ctx.p, self.ctx.k):
                return
            raise CtxMismatch("mixed polynomial contexts")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = ctx.add_i
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return _trusted(ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        sub = ctx.sub_i
        for i, c in enumerate(other.coeffs):
            out[i] = sub(out[i], c)
        return _trusted(ctx, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return _trusted(ctx, [ctx.neg_i(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _trusted(self.ctx, [])
        return _trusted(self.ctx, _mul_coeffs(self.ctx, a, b))

    def scale(self, c) -> "Poly":
        ctx = self.ctx
        v = ctx.elem(c).val
        return _trusted(ctx, [ctx.mul_i(v, a) for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        ctx = self.ctx
        quo, rem = _divmod_coeffs(ctx, self.coeffs, other.coeffs)
        return _trusted(ctx, quo), _trusted(ctx, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("monic normalization of zero")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.ctx.inv_i(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        self._check(other)
        g = _trusted(self.ctx, _gcd_coeffs(self.ctx, self.coeffs, other.coeffs))
        return g.monic() if g.coeffs else g

    def derivative(self) -> "Poly":
        ctx = self.ctx
        # the literal i % p is i * 1 in the prime subfield
        return _trusted(ctx, [ctx.mul_i(c, i % ctx.p)
                              for i, c in enumerate(self.coeffs) if i])

    def pow_mod(self, e: int, m: "Poly") -> "Poly":
        """self**e mod m for any nonzero m; e = 0 gives 1 mod m."""
        self._check(m)
        if m.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 0:
            return Poly.one(self.ctx) % m
        return _trusted(self.ctx, _pow_mod_coeffs(self.ctx, self.coeffs, e, m.coeffs))

    def eval(self, x) -> FieldElem:
        """Horner evaluation; x may live in a subfield and is embedded."""
        ctx = self.ctx
        if isinstance(x, FieldElem) and x.ctx_key != (ctx.p, ctx.k):
            x = embed_elem(x, ctx)
        xv = ctx.elem(x).val
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add_i(ctx.mul_i(acc, xv), c)
        return FieldElem(ctx, acc)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ctx.p, self.ctx.k) == (other.ctx.p, other.ctx.k) and \
            self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.k, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly(F{self.ctx.order}, [{', '.join(map(str, self.coeffs))}])"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(map(str, self.coeffs))


def _trusted(ctx: FieldCtx, cs: list[int]) -> Poly:
    """A Poly from literals already known to lie in range, without the
    validation of Poly(...); trims trailing zeros of cs in place."""
    f = object.__new__(Poly)
    f.ctx = ctx
    f.coeffs = tuple(_trim(cs))
    return f


@lru_cache(maxsize=None)
def _literal_tables(q: int) -> tuple[bytes, bytes]:
    """(table, drop) for a top byte of a generator word over F_q, q < 256:
    table maps it to its top q.bit_length() bits, and drop lists the bytes
    whose top bits are q or more."""
    shift = 8 - q.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= q))


def _random_literals(rng: Random, q: int, d: int) -> bytes:
    """d literals of F_q, q < 256, as bytes: the values of d calls of
    rng.randrange(q), leaving rng in the state those calls leave it in.

    randrange(q) takes the top q.bit_length() bits of the generator's next
    32-bit word, again until they are below q.  getrandbits(32 * n) hands
    out the next n words, least significant first, so the top byte of each
    is byte 3 of its 4 in little-endian order.  Only the n literals still
    missing are drawn at a time, so no word after the d-th accepted one is
    taken."""
    table, drop = _literal_tables(q)
    out = b""
    while len(out) < d:
        n = d - len(out)
        out += rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4].translate(table, drop)
    return out


def _random_coeffs(rng: Random, q: int, d: int) -> list[int]:
    """d literals of F_q as d calls of rng.randrange(q) give them, decoded
    in bulk by _random_literals below q = 256."""
    if q < 256:
        return list(_random_literals(rng, q, d))
    return [rng.randrange(q) for _ in range(d)]


# Each kernel below hands a packed prime field to _gfp first.  Every other
# field holds discrete logs in [0, n), n = order - 1, with -1 for the zero
# literal (the log table's own mark).  A term of a product is the sum of two
# such logs and stays unreduced below 2n; the field's Zech table is stored
# twice over, so zech[t - o] needs no reduction for t and o below 2n.  The
# log of -1 is that of the literal p - 1: n // 2 in odd characteristic, 0 in
# characteristic 2.

def _packed(ctx: FieldCtx) -> bool:
    """Whether ctx's kernels run on _gfp's packed ints: the prime fields
    whose order packs (p*(p - 1) <= 255, so p <= 13)."""
    return ctx.k == 1 and _gfp.packs(ctx.p)


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add_product_logs(acc: list[int], u, v, zech, n: int) -> None:
    """Add the product of u and v, each a list of (position, log) pairs of
    nonzero coefficients, into acc, a list of logs.

    A term g**t lands on g**o as g**(o + zech[t - o]); an entry of acc is -1
    or a log below 2n, whichever it held before.
    """
    for i, x in u:
        for j, y in v:
            t = x + y
            k = i + j
            o = acc[k]
            if o < 0:
                acc[k] = t
            else:
                z = zech[t - o]
                acc[k] = -1 if z < 0 else (o + z) % n


def _reduce_logs(acc: list[int], dm: int, lead: int, nb, zech, n: int,
                 quo: list[int] | None = None) -> None:
    """Reduce acc, a list of logs, in place modulo a polynomial of degree dm
    with leading log lead; nb holds (j, log(-m_j)) for its other nonzero
    coefficients.  The remainder is acc[:dm], its entries -1 or below 2n.

    Each step clears the top remaining coefficient g**c by adding
    g**(c - lead) * (-m_j) at the offsets below it; quo, when given, receives
    the quotient's logs.
    """
    for k in range(len(acc) - 1, dm - 1, -1):
        c = acc[k]
        if c >= 0:
            x = (c - lead) % n
            off = k - dm
            if quo is not None:
                quo[off] = x
            for j, y in nb:
                t = x + y
                i = off + j
                o = acc[i]
                if o < 0:
                    acc[i] = t
                else:
                    z = zech[t - o]
                    acc[i] = -1 if z < 0 else (o + z) % n


def _literals(exp, n: int, logs) -> list[int]:
    return [exp[t % n] if t >= 0 else 0 for t in logs]


def _mul_coeffs(ctx: FieldCtx, a, b) -> list[int]:
    """Product literals of two coefficient sequences, [] if either is empty.

    It takes one of the two kernel forms: a prime field that _gfp packs
    multiplies packed ints, and every other field keeps each output
    coefficient as a log and adds terms through the Zech table.
    """
    if not a or not b:
        return []
    if _packed(ctx):
        return _gfp.mul(ctx.p, a, b)
    exp, log, n = ctx.exp, ctx.log, ctx.order - 1
    acc = [-1] * (len(a) + len(b) - 1)
    _add_product_logs(acc, [(i, log[c]) for i, c in enumerate(a) if c],
                      [(j, log[c]) for j, c in enumerate(b) if c], ctx.zech, n)
    return _literals(exp, n, acc)


def _divmod_coeffs(ctx: FieldCtx, a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder literals of a by b, both trimmed and b nonzero.

    Each step clears the top remaining coefficient c by adding
    (c / lead) * (-b_j) at the offsets below it; the -b_j are read once as
    logs, or packed once over a packed prime field.  The remainder is what
    is left below degree deg(b).
    """
    if _packed(ctx):
        return _gfp.divmod_(ctx.p, a, b)
    exp, log, n = ctx.exp, ctx.log, ctx.order - 1
    db = len(b) - 1
    minus_one = log[ctx.p - 1]
    nb = [(j, (log[c] + minus_one) % n) for j, c in enumerate(b[:db]) if c]
    rem = [log[c] for c in a]
    quo = [-1] * max(0, len(a) - db)
    _reduce_logs(rem, db, log[b[-1]], nb, ctx.zech, n, quo)
    return _literals(exp, n, quo), _literals(exp, n, rem[:db])


def _gcd_coeffs(ctx: FieldCtx, a, b) -> list[int]:
    """A gcd of two trimmed literal sequences, not made monic: Euclid on
    literal lists, held as packed bytes throughout over a packed prime field
    and as discrete logs throughout in every other field."""
    if _packed(ctx):
        return list(_gfp.gcd(ctx.p, a, b))
    exp, log, zech, n = ctx.exp, ctx.log, ctx.zech, ctx.order - 1
    minus_one = log[ctx.p - 1]
    a, b = [log[c] for c in a], [log[c] for c in b]
    while b:
        db = len(b) - 1
        nb = [(j, (y + minus_one) % n) for j, y in enumerate(b[:db]) if y >= 0]
        _reduce_logs(a, db, b[-1], nb, zech, n)
        r = [t % n if t >= 0 else -1 for t in a[:db]]
        while r and r[-1] < 0:
            r.pop()
        a, b = b, r
    return _literals(exp, n, a)


def _pow_mod_coeffs(ctx: FieldCtx, a, e: int, m) -> list[int]:
    """Trimmed literals of a**e mod m, for trimmed literal sequences a and m,
    m nonzero, and e >= 1.

    Left-to-right square-and-multiply, each step one product reduced at once
    against the modulus, whose coefficients are read once.  It takes one of
    the two kernel forms.  A packed prime field holds _gfp.Residues from the
    first step to the last: each step is one big-int product, reduced in the
    lanes it was formed in.  Every other field holds discrete logs from the
    first step to the last: each step adds its terms through the Zech table
    and reduces against the modulus's negated logs.  Only the result is
    turned back into literals.
    """
    dm = len(m) - 1
    a = _trim(_divmod_coeffs(ctx, a, m)[1]) if len(a) > dm else list(a)
    if not a:
        return []
    if _packed(ctx):
        ring = _gfp.Residues(ctx.p, m)
        return list(ring.pow(ring.residue(a), e).rstrip(b"\0"))
    exp, log, zech, n = ctx.exp, ctx.log, ctx.zech, ctx.order - 1
    lead = log[m[-1]]
    minus_one = log[ctx.p - 1]
    nb = [(j, (log[c] + minus_one) % n) for j, c in enumerate(m[:dm]) if c]
    r = base = [(j, log[c]) for j, c in enumerate(a) if c]
    size = 2 * dm - 1
    for bit in bin(e)[3:]:
        # r * r, then r * base where the bit is set (the pair is built first)
        for v in (r, base) if bit == "1" else (r,):
            acc = [-1] * size
            _add_product_logs(acc, r, v, zech, n)
            _reduce_logs(acc, dm, lead, nb, zech, n)
            r = [(j, t % n) for j, t in enumerate(acc[:dm]) if t >= 0]
    out = [0] * dm
    for j, t in r:
        out[j] = exp[t]
    return _trim(out)


# ---------------------------------------------------------------------------
# Factorization.

class Factorization:
    """Unit times a canonically sorted product of prime powers."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit: FieldElem, factors):
        self.unit = unit
        self.factors = tuple(sorted(factors, key=lambda t: t[0].sort_key()))

    def expand(self) -> Poly:
        out = Poly.constant(self.unit)
        for prime, mult in self.factors:
            out = out * prime ** mult
        return out

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        parts = " * ".join(f"({prime})^{mult}" for prime, mult in self.factors)
        return f"Factorization(unit={self.unit}, {parts or '1'})"


def _factor_fold(f: Poly) -> int:
    h = f.ctx.order
    for c in f.coeffs:
        h = (h * 1000003 + c + 1) % ((1 << 61) - 1)
    return h ^ FACTOR_SEED


def _pth_root(f: Poly) -> Poly:
    """Inverse of the characteristic-power map on polynomials with zero
    derivative: f(x) = g(x**p) returns g."""
    ctx = f.ctx
    root_exp = ctx.order // ctx.p  # a**(q/p) is the p-th root of a
    out = []
    for i in range(0, len(f.coeffs), ctx.p):
        out.append(ctx.pow_i(f.coeffs[i], root_exp))
    return _trusted(ctx, out)


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition adapted to positive characteristic: pairs (g, m)
    of squarefree g with multiplicity m, pairwise coprime."""
    ctx = f.ctx
    p = ctx.p
    out: list[tuple[Poly, int]] = []
    deriv = f.derivative()
    if deriv.is_zero:
        for g, m in _squarefree_parts(_pth_root(f)):
            out.append((g, m * p))
        return out
    c = f.gcd(deriv)
    w = f // c
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_parts(_pth_root(c)):
            out.append((g, m * p))
    return out


def _distinct_degree(f: Poly) -> list[tuple[int, Poly]]:
    """Split a monic squarefree f into products of primes of equal degree."""
    ctx = f.ctx
    q = ctx.order
    out = []
    h = Poly.x(ctx) % f
    x = Poly.x(ctx)
    rest = f
    d = 0
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = h.pow_mod(q, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            out.append((d, g))
            rest = rest // g
            h = h % rest
    if rest.degree > 0:
        out.append((rest.degree, rest))
    return out


def _split_draw(f: Poly, d: int, rng: Random) -> Poly:
    """One Cantor-Zassenhaus draw on a monic product f of degree-d primes:
    the gcd of f with a random splitting polynomial, which takes each prime
    independently with probability about 1/2."""
    ctx = f.ctx
    q = ctx.order
    while True:
        r = _trusted(ctx, _random_coeffs(rng, q, f.degree))
        if r.degree >= 1:
            break
    if ctx.p == 2:
        # absolute trace map to GF(2): sum of 2**i-th powers; deg r < deg f
        t = acc = list(r.coeffs)
        for _ in range(ctx.k * d - 1):
            t = _pow_mod_coeffs(ctx, t, 2, f.coeffs)
            acc = [x ^ y for x, y in itertools.zip_longest(acc, t, fillvalue=0)]
        return f.gcd(_trusted(ctx, acc))
    return f.gcd(r.pow_mod((q ** d - 1) // 2, f) - Poly.one(ctx))


def _equal_degree_split(f: Poly, d: int, rng: Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic product of degree-d primes."""
    if f.degree == d:
        return [f]
    while True:
        g = _split_draw(f, d, rng)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + \
                _equal_degree_split(f // g, d, rng)


def factor(f: Poly) -> Factorization:
    """Factor f into its unit and monic prime powers (deterministic)."""
    if f.is_zero:
        raise ZeroPolynomial("factorization of the zero polynomial")
    unit = f.lead
    if f.degree == 0:
        return Factorization(unit, ())
    rng = Random(_factor_fold(f))
    monic = f.monic()
    factors = []
    for part, mult in _squarefree_parts(monic):
        for d, block in _distinct_degree(part.monic()):
            for prime in _equal_degree_split(block, d, rng):
                factors.append((prime, mult))
    return Factorization(unit, factors)


def irreducible(f: Poly) -> bool:
    """Irreducibility over the coefficient field (unit factors ignored):
    _monic_irreducible on the literals of monic f of degree >= 1."""
    return f.degree >= 1 and _monic_irreducible(f.ctx, f.monic().coeffs)


def _monic_irreducible(ctx: FieldCtx, lits) -> bool:
    """Whether the monic f over ctx with literals lits (bytes, a tuple or a
    list, ascending, degree d >= 1) is prime: the one rule that picks how a
    field decides, for irreducible(), the draws and gf's modulus search.
    F_2 decides on the packed int by _gf2.is_irreducible, a packed prime
    field p >= 3 on the bytes by _gfp.irreducible, and every other field by
    Ben-Or's test in discrete logs: f is prime iff gcd(f, x**(q**i) - x) = 1
    for every i <= d // 2, each x**(q**i) the q-th power of the round
    before's, and for q up to ROOT_SCREEN_MAX_ORDER the first round, a root
    in F_q, is decided by has_root, so a candidate with a root pays no
    modular power."""
    if ctx.order == 2:
        return _gf2.is_irreducible(_gf2.from_literals(lits))
    if _packed(ctx):
        return _gfp.irreducible(ctx.p, bytes(lits))
    d = len(lits) - 1
    if d == 1:
        return True
    q = ctx.order
    first, last = 1, d // 2
    if q <= ROOT_SCREEN_MAX_ORDER:
        if has_root(ctx, lits):
            return False
        first = 2
    if first > last:
        return True
    t = [0, 1]  # x, reduced modulo lits of degree >= 2
    for i in range(1, last + 1):
        t = _pow_mod_coeffs(ctx, t, q, lits)
        if i >= first:
            u = t + [0] * (2 - len(t))
            u[1] = ctx.sub_i(u[1], 1)
            if len(_gcd_coeffs(ctx, lits, _trim(u))) != 1:
                return False
    return True


def has_root(ctx: FieldCtx, cs) -> bool:
    """Whether the polynomial over ctx with literals cs has a root in ctx.

    f(0) is the constant term; f(g**s) for every s runs Horner's rule in
    discrete logs through the Zech table, over every field, packed prime
    fields included.  _monic_irreducible calls it only over the fields that
    neither _gf2 nor _gfp decides.
    """
    if not cs or not cs[0]:
        return True
    log, zech, n = ctx.log, ctx.zech, ctx.order - 1
    top = log[cs[-1]]
    rest = [log[c] for c in cs[-2::-1]]
    for s in range(n):
        acc = top
        for y in rest:
            if acc < 0:
                acc = y
                continue
            acc = (acc + s) % n
            if y >= 0:
                z = zech[y - acc]
                acc = -1 if z < 0 else (acc + z) % n
        if acc < 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Prime enumeration and counting.

def _moebius(n: int) -> int:
    mu = 1
    for _, e in factor_int(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


@lru_cache(maxsize=None)
def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q (divisor sum)."""
    if d < 1:
        raise ValueError("prime degree must be positive")
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _moebius(e) * q ** (d // e)
    if total % d:
        raise CrossCheckMismatch(
            f"Moebius sum {total} for degree {d} over F_{q} is not divisible by {d}")
    return total // d


_prime_lists: dict[tuple[int, int, int], tuple[Poly, ...]] = {}


def check_sieve_budget(q: int, d: int) -> None:
    """Raise BudgetExceeded unless primes_with_degree may sieve degree d over
    F_q: the table, q**d, and the products, sum over a <= d/2 of
    necklace_count(q, a) * q**(d - a), within their budgets.  The budget of
    degree d covers every lower degree.  Since q >= 2, a d with as many
    binary digits as the cap is refused before q**d is formed."""
    if d >= SIEVE_CAP.bit_length() or q ** d > SIEVE_CAP:
        raise BudgetExceeded(
            f"listing primes of degree {d} over F_{q} exceeds the sieve budget")
    products = sum(necklace_count(q, a) * q ** (d - a) for a in range(1, d // 2 + 1))
    if products > SIEVE_PRODUCT_CAP:
        raise BudgetExceeded(
            f"listing primes of degree {d} over F_{q} takes {products} products, "
            f"over the sieve's cap {SIEVE_PRODUCT_CAP}")


def primes_with_degree(ctx: FieldCtx, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree d, canonically sorted.

    Sieves out products prime*cofactor, within check_sieve_budget, checked
    before any work; counting callers should use necklace_count instead.
    """
    if d < 1:
        raise ValueError("prime degree must be positive")
    q = ctx.order
    key = (ctx.p, ctx.k, d)
    cached = _prime_lists.get(key)
    if cached is not None:
        return cached
    check_sieve_budget(q, d)
    if d == 1:
        out = tuple(Poly(ctx, (c, 1)) for c in range(q))
    else:
        size = q ** d
        marks = bytearray(size)
        powers = [q ** i for i in range(d)]
        for a in range(1, d // 2 + 1):
            cof_deg = d - a
            for prime in primes_with_degree(ctx, a):
                pc = prime.coeffs
                for low in itertools.product(range(q), repeat=cof_deg):
                    prod = _mul_coeffs(ctx, pc, low + (1,))
                    marks[sum(c * powers[i] for i, c in enumerate(prod[:d]))] = 1
        out = []
        for idx in range(size):
            if not marks[idx]:
                v, cs = idx, []
                for _ in range(d):
                    v, r = divmod(v, q)
                    cs.append(r)
                cs.append(1)
                out.append(Poly(ctx, cs))
        out = tuple(sorted(out, key=Poly.sort_key))
    if len(out) != necklace_count(q, d):
        raise CrossCheckMismatch("prime sieve disagrees with the divisor count")
    _prime_lists[key] = out
    return out


def monic_polys(ctx: FieldCtx, d: int):
    """All monic polynomials of degree d, in lexicographic coefficient order."""
    for low in itertools.product(range(ctx.order), repeat=d):
        yield Poly(ctx, low + (1,))


def poly_frobenius(f: Poly, base_order: int) -> Poly:
    """Coefficient-wise base_order-th power (the arithmetic Frobenius twist).

    Fixes exactly the polynomials with coefficients in the subfield of that
    order, and is a ring homomorphism, so it permutes prime factorizations.
    Each coefficient is read off the literal table of _frobenius_table.
    """
    table = _frobenius_table(f.ctx, base_order)
    return _trusted(f.ctx, [table[c] for c in f.coeffs])


@lru_cache(maxsize=None)
def _frobenius_table(ctx: FieldCtx, base_order: int) -> tuple[int, ...]:
    """The base_order-th power of every literal of ctx, built once per
    (ctx, base_order); an order that is no subfield's raises on every call,
    since lru_cache keeps no exception."""
    check_subfield_order(ctx, base_order)
    return tuple(ctx.pow_i(c, base_order) for c in range(ctx.order))


def embed(f: Poly, big: FieldCtx) -> Poly:
    """Image of f under the canonical coefficient embedding into big."""
    if f.ctx.p != big.p or big.k % f.ctx.k != 0:
        raise NotASubfield(
            f"F_{f.ctx.order} does not embed in F_{big.order}")
    table = subfield_table(f.ctx, big)
    return _trusted(big, [table[c] for c in f.coeffs])
