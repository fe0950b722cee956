"""Exact arithmetic in small finite fields.

A field context holds discrete-log and antilog tables for F_{p^k}, built once
per (p, k) and capped at order 2**20.  Elements are encoded by integer
literals whose base-p digits, least significant first, are the coordinates in
the power basis of the defining modulus.  Multiplication runs through the log
tables.  Addition is XOR in characteristic 2; in odd characteristic it runs
through a Zech table, 1 + g**m = g**zech[m], and a negation table, so every
operation is an exact lookup.  Every field has both tables, characteristic 2
included, for the two kernel forms of fqpoly: packed ints over the small odd
prime fields, and discrete logs added through the Zech table over every other
field.

A prime field is built by integer arithmetic mod p.  An extension is built
over F_p = make_field(p) with the polynomial kernels of fqpoly: Ben-Or's test
picks the modulus, modular powers pick the generator, and division reduces the
rows of the product with the generator that steps the odd-characteristic
tables.  Characteristic-2 tables step with the carry-less products of _gf2.

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
from operator import mul

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


class FieldCtx:
    """Arithmetic context for F_{p^k}; construct via make_field only.

    Integer-literal operations (suffix _i) are the fast path used by the
    polynomial layer; FieldElem wraps a literal for operator syntax.
    """

    __slots__ = ("p", "k", "order", "modulus", "generator", "exp", "log",
                 "zech", "neg", "_embed_tables")

    def __init__(self, p: int, k: int):
        # The cap comes before the primality test, whose trial division would
        # not finish on a huge p; p**k is not formed for a huge k.
        if p > FIELD_ORDER_CAP or (p >= 2 and k >= FIELD_ORDER_CAP.bit_length()):
            raise TooLarge(f"field order {p}**{k} exceeds cap {FIELD_ORDER_CAP}")
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

    # -- construction -------------------------------------------------------
    # fqpoly imports this module, so its kernels are imported where used.

    def _canonical_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)  # t
        from .fqpoly import _trusted, irreducible
        fp = make_field(p)
        # t divides a candidate of constant term 0, the first p**(k - 1) of them
        for low in itertools.product(range(1, p), *[range(p)] * (k - 1)):
            f = list(low) + [1]
            if irreducible(_trusted(fp, f)):
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

    def _least_full_order_generator(self) -> int:
        from .fqpoly import _pow_mod_coeffs, _trim
        p, n = self.p, self.order - 1
        cofactors = [n // r for r in factor_int(n)]
        if self.k == 1:
            def is_one(a, e):
                return pow(a[0], e, p) == 1
        else:
            fp = make_field(p)

            def is_one(a, e):
                return _pow_mod_coeffs(fp, a, e, self.modulus) == [1]
        for vec in itertools.product(range(p), repeat=self.k):
            a = _trim(list(vec))
            if a and not any(is_one(a, e) for e in cofactors):
                return self.undigits(a)
        raise CrossCheckMismatch("no generator found")

    def _build_tables(self) -> None:
        p, g, n = self.p, self.generator, self.order - 1
        exp = [0] * n
        log = [-1] * self.order
        cur = 1
        if self.k == 1:
            for i in range(n):
                exp[i] = cur
                log[cur] = i
                cur = cur * g % p
        elif p == 2:
            m = sum(c << i for i, c in enumerate(self.modulus))
            for i in range(n):
                exp[i] = cur
                log[cur] = i
                cur = _gf2.mod(_gf2.mul(cur, g), m)
        else:
            # The product with g is F_p-linear: row j of its matrix holds the
            # digits of t**j * g, reduced by fqpoly's division over F_p.
            from .fqpoly import _divmod_coeffs
            fp, gd = make_field(p), self.digits(g)
            cols = list(zip(*(_divmod_coeffs(fp, [0] * j + gd, self.modulus)[1]
                              for j in range(self.k))))
            cur_d = self.digits(1)
            for i in range(n):
                cur = self.undigits(cur_d)
                exp[i] = cur
                log[cur] = i
                cur_d = [sum(map(mul, cur_d, col)) % p for col in cols]
        if sorted(exp) != list(range(1, self.order)):
            raise CrossCheckMismatch("generator does not enumerate the unit group")
        self.exp = exp
        self.log = log
        self._build_addition_tables()

    def _build_addition_tables(self) -> None:
        """Zech and negation tables, in O(order) lookups.

        zech[m] is the log of 1 + g**m, or -1 (the log table's mark for the
        zero literal) where that sum vanishes; adding 1 changes only digit 0
        of a literal, which in characteristic 2 is the XOR with 1.  The table
        is stored twice over, so any index in [-2(order-1), 2(order-1)) reads
        the entry of its residue: a sum of two logs minus a third needs no
        reduction first.  neg[a] is the literal of -a; -1 is the literal
        p - 1, of log (order-1)/2 in odd characteristic and 0 in
        characteristic 2, where neg is the identity.
        """
        p, exp, log = self.p, self.exp, self.log
        n = self.order - 1
        zech = [0] * n
        for m, v in enumerate(exp):
            zech[m] = log[v + 1 if v % p != p - 1 else v - (p - 1)]
        minus_one = log[p - 1]
        neg = [0] * self.order
        for m, v in enumerate(exp):
            neg[v] = exp[(m + minus_one) % n]
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
        return self.neg[a]

    def sub_i(self, a: int, b: int) -> int:
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
    check_subfield_order(a.ctx, base_order)
    return a ** base_order


def check_subfield_order(ctx: FieldCtx, base_order: int) -> None:
    """Raise NotASubfield unless ctx has a subfield of order base_order; an
    order up to the field's that is no prime power raises NotPrimePower.

    The subfield orders are p**d for the divisors d of k, so a valid order
    costs no trial division, and one above the field's order fails at once.
    """
    if base_order <= ctx.order:
        if any(ctx.p ** d == base_order for d in range(1, ctx.k + 1) if ctx.k % d == 0):
            return
        prime_power(base_order)
    raise NotASubfield(f"F_{base_order} is not a subfield of F_{ctx.order}")


def lth_power_class(a: FieldElem, ell: int) -> int:
    """Power-residue class of a unit: the exponent mod ell of its image under
    the distinguished order-ell character, which sends the context generator
    to exponent 1, so a unit with discrete log m has class m mod ell.  Zero
    has no class and raises ZeroInput."""
    if a.val == 0:
        raise ZeroInput("power-residue class of zero")
    ctx = a.ctx
    if (ctx.order - 1) % ell != 0:
        raise OrderMismatch(
            f"unit group of order {ctx.order - 1} has no character of order {ell}")
    return ctx.log[a.val] % ell


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
    from .fqpoly import _mul_coeffs, _trusted
    p = small.p
    # Minimal polynomial of the small generator over F_p: the product of
    # (Y - g**(p**j)) has prime-subfield coefficients.
    g = small.generator
    minpoly, r = [1], g
    for _ in range(small.k):
        minpoly = _mul_coeffs(small, minpoly, [small.neg_i(r), 1])
        r = small.pow_i(r, p)
    if any(c >= p for c in minpoly):
        raise CrossCheckMismatch("generator minimal polynomial not over F_p")
    # A prime-subfield literal is the same integer in big.
    minpoly = _trusted(big, minpoly)
    # Roots in big live among the elements of multiplicative order
    # small.order - 1; scan them by literal and keep the least lex vector.
    n_small, n_big = small.order - 1, big.order - 1
    stride = n_big // n_small
    best = None
    for j in range(1, n_small + 1):
        if gcd(j, n_small) != 1:
            continue
        cand = big.exp[(stride * j) % n_big]
        if not minpoly.eval(cand) and (
                best is None or big.digits(cand) < big.digits(best)):
            best = cand
    if best is None:
        raise CrossCheckMismatch("no root of the generator minimal polynomial")
    table = [0] * small.order
    step = big.log[best]  # g**i goes to best**i
    for i, v in enumerate(small.exp):
        table[v] = big.exp[i * step % n_big]
    result = tuple(table)
    big._embed_tables[key] = result
    return result


def embed_elem(a: FieldElem, big: FieldCtx) -> FieldElem:
    """Image of a under the canonical embedding into big."""
    table = subfield_table(a.ctx, big)
    return FieldElem(big, table[a.val])
