"""Exact arithmetic in small finite fields.

A field context holds discrete-log and antilog tables for F_{p^k}, built once
per (p, k) and capped at order 2**20.  Elements are encoded by integer
literals whose base-p digits, least significant first, are the coordinates in
the power basis of the defining modulus.  Multiplication runs through the log
tables.  Addition is XOR in characteristic 2; in odd characteristic it runs
through a Zech table, 1 + g**m = g**zech[m], and a negation table, so every
operation is an exact lookup.

The context is canonical: the modulus is the monic irreducible of degree k
over F_p whose ascending coefficient vector is lexicographically least, and
the distinguished generator is the element of full multiplicative order whose
coordinate vector is lexicographically least.  Two processes that build
F_{p^k} therefore agree on every literal, which is what makes reports and
seeds portable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

from . import _gf2
from .errors import (
    CrossCheckMismatch,
    CtxMismatch,
    NotASubfield,
    NotPrime,
    NotPrimePower,
    OrderMismatch,
    TooLarge,
    ZeroInput,
)

FIELD_ORDER_CAP = 1 << 20


def is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs stay below 2**21)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**k with p prime, else raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    fac = factor_int(q)
    if len(fac) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    [(p, k)] = fac.items()
    return p, k


# ---------------------------------------------------------------------------
# F_p[x] helpers on plain digit lists, used only while building a context.

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by monic m
    dm = len(m) - 1
    while len(prod) > dm:
        c = prod.pop()
        if c:
            off = len(prod) - dm
            for j in range(dm):
                prod[off + j] = (prod[off + j] - c * m[j]) % p
    return _fp_trim(prod)


def _fp_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    out = [1]
    base = a[:]
    while e:
        if e & 1:
            out = _fp_mulmod(out, base, m, p)
        base = _fp_mulmod(base, base, m, p)
        e >>= 1
    return out


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        # a mod b with monic-normalized b
        inv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        r = a[:]
        while len(r) - 1 >= db and r:
            c = (r[-1] * inv) % p
            off = len(r) - 1 - db
            for j in range(db + 1):
                r[off + j] = (r[off + j] - c * b[j]) % p
            _fp_trim(r)
        a, b = b, r
    return a


def _fp_irreducible(f: list[int], p: int) -> bool:
    """Factor-degree filter: f (monic, degree >= 1) has no factor of degree
    <= deg(f)//2 iff it is irreducible."""
    d = len(f) - 1
    if d == 1:
        return True
    t = [0, 1]  # x
    for _ in range(d // 2):
        t = _fp_powmod(t, p, f, p)
        diff = t[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        if len(_fp_gcd(f, _fp_trim(diff), p)) - 1 != 0:
            return False
    return True


# ---------------------------------------------------------------------------

class FieldCtx:
    """Arithmetic context for F_{p^k}; construct via make_field only.

    Integer-literal operations (suffix _i) are the fast path used by the
    polynomial layer; FieldElem wraps a literal for operator syntax.
    """

    __slots__ = ("p", "k", "order", "modulus", "generator", "exp", "log",
                 "zech", "neg", "_embed_tables", "factor_seed")

    def __init__(self, p: int, k: int):
        if not is_prime_int(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if k < 1:
            raise TooLarge(f"extension degree must be positive, got {k}")
        order = p ** k
        if order > FIELD_ORDER_CAP:
            raise TooLarge(f"field order {order} exceeds cap {FIELD_ORDER_CAP}")
        self.p = p
        self.k = k
        self.order = order
        self.modulus = self._canonical_modulus()
        self.generator = self._least_full_order_generator()
        self._build_tables()
        self._embed_tables: dict[tuple[int, int], tuple[int, ...]] = {}
        self.factor_seed = 0x5EED

    # -- construction -------------------------------------------------------

    def _canonical_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)  # t
        for low in itertools.product(range(p), repeat=k):
            f = list(low) + [1]
            if p == 2:
                packed = sum(c << i for i, c in enumerate(f))
                ok = _gf2.is_irreducible(packed)
            else:
                ok = _fp_irreducible(f, p)
            if ok:
                return tuple(f)
        raise CrossCheckMismatch("no irreducible modulus found")

    def digits(self, v: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.k):
            v, r = divmod(v, p)
            out.append(r)
        return out

    def undigits(self, ds: list[int]) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free product of literals, used before tables exist."""
        if self.p == 2:
            m = sum(c << i for i, c in enumerate(self.modulus))
            return _gf2.mulmod(a, b, m)
        prod = _fp_mulmod(self.digits(a), self.digits(b), list(self.modulus), self.p)
        prod += [0] * (self.k - len(prod))
        return self.undigits(prod)

    def _raw_pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _least_full_order_generator(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        prime_divs = list(factor_int(n))
        for vec in itertools.product(range(self.p), repeat=self.k):
            a = self.undigits(list(vec))
            if a == 0:
                continue
            if all(self._raw_pow(a, n // r) != 1 for r in prime_divs):
                return a
        raise CrossCheckMismatch("no generator found")

    def _build_tables(self) -> None:
        n = self.order - 1
        exp = [0] * n
        log = [-1] * self.order
        cur = 1
        if self.p == 2:
            m = sum(c << i for i, c in enumerate(self.modulus))
            g = self.generator
            for i in range(n):
                exp[i] = cur
                log[cur] = i
                cur = _gf2.mulmod(cur, g, m)
        else:
            g = self.digits(self.generator)
            mod = list(self.modulus)
            cur_d = [1]
            for i in range(n):
                cur = self.undigits(cur_d + [0] * (self.k - len(cur_d)))
                exp[i] = cur
                log[cur] = i
                cur_d = _fp_mulmod(cur_d, g, mod, self.p)
        if sorted(exp) != list(range(1, self.order)):
            raise CrossCheckMismatch("generator does not enumerate the unit group")
        self.exp = exp
        self.log = log
        self.zech = self.neg = None
        if self.p != 2:
            self._build_addition_tables()

    def _build_addition_tables(self) -> None:
        """Zech and negation tables for odd p, in O(order) lookups.

        zech[m] is the log of 1 + g**m, or -1 (the log table's mark for the
        zero literal) where that sum vanishes; adding 1 changes only digit 0
        of a literal.  The table is stored twice over, so any index in
        [-2(order-1), 2(order-1)) reads the entry of its residue: a sum of
        two logs minus a third needs no reduction first.  neg[a] is the
        literal of -a; -1 = g**((order-1)/2).
        """
        p, exp, log = self.p, self.exp, self.log
        n = self.order - 1
        zech = [0] * n
        for m, v in enumerate(exp):
            zech[m] = log[v + 1 if v % p != p - 1 else v - (p - 1)]
        half = n // 2
        neg = [0] * self.order
        for m, v in enumerate(exp):
            neg[v] = exp[(m + half) % n]
        self.zech = zech + zech
        self.neg = neg

    # -- integer-literal operations ------------------------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        log = self.log
        la = log[a]
        # g**la + g**lb = g**(la + zech[lb - la]); a negative index wraps
        # to an entry of the same residue mod order - 1
        z = self.zech[log[b] - la]
        if z < 0:
            return 0
        return self.exp[(la + z) % (self.order - 1)]

    def neg_i(self, a: int) -> int:
        if self.p == 2:
            return a
        return self.neg[a]

    def sub_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add_i(a, self.neg[b])

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self.exp[(self.log[a] + self.log[b]) % n]

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        n = self.order - 1
        return self.exp[(-self.log[a]) % n]

    def div_i(self, a: int, b: int) -> int:
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0
        n = self.order - 1
        return self.exp[(self.log[a] * e) % n]

    # -- element factory -----------------------------------------------------

    def elem(self, v) -> "FieldElem":
        if isinstance(v, FieldElem):
            if v.ctx_key != (self.p, self.k):
                raise CtxMismatch("element from a different context")
            return v
        v = int(v)
        if not 0 <= v < self.order:
            raise ValueError(f"literal {v} out of range for order {self.order}")
        return FieldElem(self, v)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def units(self):
        """All nonzero elements, ascending by literal."""
        return (FieldElem(self, v) for v in range(1, self.order))

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, k={self.k}, order={self.order})"


class FieldElem:
    """A field element: a context plus its integer literal."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = val

    @property
    def ctx_key(self) -> tuple[int, int]:
        return (self.ctx.p, self.ctx.k)

    def _coerce(self, other) -> int:
        """Ints are taken as literals, so 0 and 1 always mean zero and one."""
        if isinstance(other, FieldElem):
            if other.ctx_key != self.ctx_key:
                raise CtxMismatch("mixed field contexts")
            return other.val
        if isinstance(other, int):
            return self.ctx.elem(other).val
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.add_i(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub_i(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub_i(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul_i(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.div_i(self.val, v))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow_i(self.val, e))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg_i(self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    def __int__(self) -> int:
        return self.val

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElem):
            return self.ctx_key == other.ctx_key and self.val == other.val
        if isinstance(other, int):
            return self.val == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx_key, self.val))

    def __repr__(self) -> str:
        return f"F{self.ctx.order}:{self.val}"

    def __str__(self) -> str:
        return str(self.val)


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldCtx:
    """The canonical context for F_{p^k} (cached per process)."""
    return FieldCtx(p, k)


def frobenius(a: FieldElem, base_order: int) -> FieldElem:
    """a ** base_order, the Frobenius of the subfield of that order.

    base_order must be a power of the characteristic and the ambient order a
    power of base_order, so the map generates the relative Galois group.
    """
    ctx = a.ctx
    bp, bk = prime_power(base_order)
    if bp != ctx.p or ctx.k % bk != 0:
        raise NotASubfield(
            f"F_{base_order} is not a subfield of F_{ctx.order}")
    return a ** base_order


class CharClass:
    """Value of the distinguished order-ell character, stored as an exponent.

    The character sends the context generator to exponent 1; an element with
    discrete log m has class m mod ell.  The zero field element gets the
    distinguished non-unit class (e is None), which absorbs products.
    """

    __slots__ = ("ell", "e")

    def __init__(self, ell: int, e: int | None):
        self.ell = ell
        self.e = None if e is None else e % ell

    @classmethod
    def zero_class(cls, ell: int) -> "CharClass":
        return cls(ell, None)

    @property
    def is_zero_class(self) -> bool:
        return self.e is None

    def __add__(self, other: "CharClass") -> "CharClass":
        if not isinstance(other, CharClass):
            return NotImplemented
        if self.ell != other.ell:
            raise OrderMismatch("mixed character orders")
        if self.e is None or other.e is None:
            return CharClass(self.ell, None)
        return CharClass(self.ell, self.e + other.e)

    def __mul__(self, n: int) -> "CharClass":
        if not isinstance(n, int):
            return NotImplemented
        if self.e is None:
            return CharClass(self.ell, None)
        return CharClass(self.ell, self.e * n)

    __rmul__ = __mul__

    def zeta_sum(self) -> int:
        """sum_{w=0}^{ell-1} zeta**(w*e), which is ell when e == 0 and 0
        otherwise; undefined on the zero class."""
        if self.e is None:
            raise ZeroInput("zeta_sum of the zero class")
        return self.ell if self.e == 0 else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, CharClass):
            return self.ell == other.ell and self.e == other.e
        if isinstance(other, int) and self.e is not None:
            return self.e == other % self.ell
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ell, self.e))

    def __repr__(self) -> str:
        return f"CharClass(ell={self.ell}, e={'zero' if self.e is None else self.e})"


def lth_power_class(a: FieldElem, ell: int) -> CharClass:
    """Power-residue class of a unit: the exponent of its image under the
    distinguished order-ell character."""
    if a.val == 0:
        raise ZeroInput("power-residue class of zero")
    ctx = a.ctx
    if (ctx.order - 1) % ell != 0:
        raise OrderMismatch(
            f"unit group of order {ctx.order - 1} has no character of order {ell}")
    return CharClass(ell, ctx.log[a.val] % ell)


def subfield_table(small: FieldCtx, big: FieldCtx) -> tuple[int, ...]:
    """Literal translation table for the canonical embedding of small in big.

    The embedding sends the small generator to the root of its minimal
    polynomial over F_p whose coordinate vector in big is lexicographically
    least; this pins a genuine field embedding (additive as well as
    multiplicative), reduces to the identity on prime subfields, and is
    cached on the big context.
    """
    key = (small.p, small.k)
    if key == (big.p, big.k):
        return tuple(range(small.order))
    cached = big._embed_tables.get(key)
    if cached is not None:
        return cached
    if small.p != big.p or big.k % small.k != 0:
        raise NotASubfield(
            f"F_{small.order} does not embed in F_{big.order}")
    p = small.p
    # Minimal polynomial of the small generator over F_p: the product of
    # (Y - g**(p**j)) has prime-subfield coefficients.
    g = small.generator
    conj = []
    c = g
    for _ in range(small.k):
        conj.append(c)
        c = small.pow_i(c, p)
    minpoly = [1]
    for r in conj:
        nr = small.neg_i(r)
        nxt = [small.mul_i(minpoly[0], nr)]
        for j in range(1, len(minpoly)):
            nxt.append(small.add_i(minpoly[j - 1], small.mul_i(minpoly[j], nr)))
        nxt.append(1)
        minpoly = nxt
    if any(c >= p for c in minpoly):
        raise CrossCheckMismatch("generator minimal polynomial not over F_p")
    # Roots in big live among the elements of multiplicative order
    # small.order - 1; scan them by literal and keep the least lex vector.
    n_small, n_big = small.order - 1, big.order - 1
    stride = n_big // n_small
    best = None
    for j in range(1, n_small + 1):
        if n_small > 1 and gcd(j, n_small) != 1:
            continue
        cand = big.exp[(stride * j) % n_big]
        acc, power = 0, 1
        for coeff in minpoly:
            acc = big.add_i(acc, big.mul_i(coeff, power))
            power = big.mul_i(power, cand)
        if acc == 0 and (best is None or
                         tuple(big.digits(cand)) < tuple(big.digits(best))):
            best = cand
    if best is None:
        raise CrossCheckMismatch("no root of the generator minimal polynomial")
    table = [0] * small.order
    table[0] = 0
    cur_s, cur_b = 1, 1
    for _ in range(n_small):
        table[cur_s] = cur_b
        cur_s = small.mul_i(cur_s, g)
        cur_b = big.mul_i(cur_b, best)
    result = tuple(table)
    big._embed_tables[key] = result
    return result


def embed_elem(a: FieldElem, big: FieldCtx) -> FieldElem:
    """Image of a under the canonical embedding into big."""
    table = subfield_table(a.ctx, big)
    return FieldElem(big, table[a.val])
