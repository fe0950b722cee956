"""Exact cyclotomic arithmetic, character sums over polynomials, the
base primes counted by class line, and the generating series that counts
branch tuples with prescribed classes.

Everything here is integer-exact: cyclotomic integers are stored on the
power basis 1, zeta, ..., zeta**(ell-2) of Z[zeta_ell]; the per-character
generating series G_w has plain integer coefficients because each Euler
factor sums the character over the ell-1 possible slots of a prime, giving
1 + (ell-1)u**d when the prime's class functional vanishes and 1 - u**d
otherwise.  Which of the two a prime gets depends only on whether its
class vector at the weighted points is orthogonal to w, so the series is
read off the base primes orthogonal to w's line, peeled from monic
polynomials over the extension once per line without listing any prime.
The monic polynomials are counted by class vector, never listed, by one
Horner transfer over value vectors, which keys a line with one offset by
that offset and the classes at the first two points by one small int, so
the two-point transfer of an L-polynomial hashes no tuple per value
vector.  Inverting the series counts the branch tuples of each class sum,
one count per class line, which the exact law and the constrained counts
both read, with enumeration as their oracle.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import log2, sqrt
from operator import add, itemgetter, mul

from .coverparam import (
    Regime,
    _check_labeling,
    _check_steps,
    _check_unit,
    _enumerate_full,
    _quotient_sums,
    _stratum_steps,
    _suffix_steps,
    class_vector,
    count_tuples,
)
from .errors import (
    CrossCheckMismatch,
    CtxMismatch,
    DegenerateZeroPolynomial,
    InvalidTuple,
    TrivialCharacter,
)
from .fqpoly import Poly, monic_polys, necklace_count
from .gf import FieldElem, embed_elem, lth_power_class, subfield_table

log = logging.getLogger("ellcover")
# vanishing coefficients past degree k - 1 that l_polynomial recomputes and
# checks by default, and that the lseries command's budget charges
CHECK_EXTRA = 3


class CycloInt:
    """Exact element of Z[zeta_ell] on the basis 1, zeta, ..., zeta**(ell-2),
    using zeta**(ell-1) = -(1 + zeta + ... + zeta**(ell-2))."""

    __slots__ = ("ell", "coords")

    def __init__(self, ell: int, coords):
        coords = tuple(coords)
        if ell < 2 or len(coords) != ell - 1:
            raise ValueError("coordinate vector must have length ell - 1")
        self.ell = ell
        self.coords = coords

    @classmethod
    def from_int(cls, ell: int, n: int) -> "CycloInt":
        return cls(ell, (n,) + (0,) * (ell - 2))

    @classmethod
    def zeta_pow(cls, ell: int, e: int) -> "CycloInt":
        e %= ell
        if e == ell - 1:
            return cls(ell, (-1,) * (ell - 1))
        coords = [0] * (ell - 1)
        coords[e] = 1
        return cls(ell, coords)

    def _check(self, other: "CycloInt") -> None:
        if not isinstance(other, CycloInt) or other.ell != self.ell:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycloInt.from_int(self.ell, other)
        self._check(other)
        return CycloInt(self.ell, (a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycloInt(self.ell, (-a for a in self.coords))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.ell, (a * other for a in self.coords))
        self._check(other)
        ell = self.ell
        raw = [0] * ell  # exponents 0..ell-1, reduced mod ell
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        raw[(i + j) % ell] += a * b
        return CycloInt._from_powers(ell, raw)

    __rmul__ = __mul__

    @classmethod
    def _from_powers(cls, ell: int, raw) -> "CycloInt":
        """sum_e raw[e] * zeta**e over e < ell, on the power basis."""
        top = raw[ell - 1]
        return cls(ell, (c - top for c in raw[: ell - 1]))

    def galois(self, r: int) -> "CycloInt":
        """Apply zeta -> zeta**r for r coprime to ell: coordinate e moves
        to exponent e*r mod ell, a permutation since r is a unit."""
        ell = self.ell
        if r % ell == 0:
            raise ValueError("Galois exponent must be a unit")
        raw = [0] * ell
        for e, a in enumerate(self.coords):
            raw[e * r % ell] = a
        return CycloInt._from_powers(ell, raw)

    def conjugate(self) -> "CycloInt":
        return self.galois(self.ell - 1)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @property
    def is_rational_integer(self) -> bool:
        return all(a == 0 for a in self.coords[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer:
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coords[0]

    def to_complex(self) -> complex:
        import cmath

        zeta = cmath.exp(2j * cmath.pi / self.ell)
        return sum(a * zeta**e for e, a in enumerate(self.coords))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational_integer and self.coords[0] == other
        return (isinstance(other, CycloInt) and other.ell == self.ell
                and other.coords == self.coords)

    def __hash__(self):
        if self.is_rational_integer:
            return hash(self.coords[0])  # the int it equals
        return hash((self.ell, self.coords))

    def __repr__(self):
        return f"CycloInt(ell={self.ell}, {list(self.coords)})"


# ---------------------------------------------------------------------------
# Characters attached to a vector of evaluation points.

class CharW:
    """chi_w(f) = prod_i chi(f(x_i))**w_i for monic f over the extension,
    where chi maps a unit to zeta**(its ell-th-power class) and 0 to 0."""

    def __init__(self, regime: Regime, points, w):
        self.regime = regime
        points = tuple(points)
        if not all(isinstance(x, FieldElem) for x in points):
            raise CtxMismatch("evaluation points must be field elements")
        pts = tuple(embed_elem(x, regime.ext) for x in points)
        if len(set(pt.val for pt in pts)) != len(pts):
            raise InvalidTuple("evaluation points must be distinct")
        w = tuple(wi % regime.ell for wi in w)
        if len(w) != len(pts):
            raise InvalidTuple("weight vector length must match points")
        if all(wi == 0 for wi in w):
            raise TrivialCharacter("all weights vanish mod ell")
        self.points = pts
        self.w = w

    def exponent(self, values) -> int | None:
        """Exponent of chi_w at any f with f(x_i) = values[i] (extension
        literals): sum_i w_i * log(values[i]) mod ell, the weighted
        lth_power_class exponents, or None when a value at a point of
        nonzero weight is 0."""
        log = self.regime.ext.log
        e = 0
        for v, wi in zip(values, self.w):
            if wi:
                if v == 0:
                    return None
                e += wi * log[v]
        return e % self.regime.ell

    def value_at(self, f: Poly) -> CycloInt:
        e = self.exponent(tuple(f.eval(x).val for x in self.points))
        if e is None:
            return CycloInt.from_int(self.regime.ell, 0)
        return CycloInt.zeta_pow(self.regime.ell, e)


def _transfer_steps(order: int, k: int, terms: int) -> int:
    """Table steps of _horner_counts over k points to degree terms - 1: the
    monics of degree n have order**min(n, k) value vectors at k points, each
    classed once and, below the last degree, pushed once.  The budget of
    l_polynomial and the line kernel."""
    below = min(terms, k)
    states = (order ** below - 1) // (order - 1) + (terms - below) * order ** k
    return 2 * states - order ** min(terms - 1, k)


def _check_transfer(order: int, w, ell: int, check_extra: int) -> None:
    """BudgetExceeded when l_polynomial's transfer at len(w) points of
    weights w, over a field of this order, is over KERNEL_STEP_CAP: the
    check needs the order and not the field."""
    support = sum(wi % ell != 0 for wi in w)
    _check_steps(_transfer_steps(order, support, len(w) + check_extra),
                 "the Horner transfer over value vectors")


class _Rows(dict):
    """u -> row(u), each row built on first use."""

    def __init__(self, row):
        super().__init__()
        self.row = row

    def __missing__(self, u: int) -> tuple:
        row = self[u] = self.row(u)
        return row


# (ctx, ell) -> the addition, class and pair rows of the last transfer.  They
# depend on nothing else, so later transfers over the same field reuse them;
# only one field's rows are kept, so no transfer holds rows it did not build
# or would not build itself.
_field_rows: dict = {}


def _rows(ctx, ell: int) -> tuple[_Rows, _Rows, _Rows]:
    """shifted[u] = (u + a)_a, classed[u] = (class of u + a)_a and pair[u] =
    (class of a * (ell + 1) + class of u + a)_a over the literals a of ctx,
    the class of 0 being ell: a pair code is an int below (ell + 1)**2."""
    rows = _field_rows.get((ctx, ell))
    if rows is None:
        _field_rows.clear()
        order, add_i = ctx.order, ctx.add_i
        classes = (ell,) + tuple(ctx.log[v] % ell for v in range(1, order))
        firsts = tuple(c * (ell + 1) for c in classes)
        shifted = _Rows(lambda u: tuple([add_i(u, a) for a in range(order)]))
        # itemgetter of the order >= 4 literals of a row gives a tuple
        classed = _Rows(lambda u: itemgetter(*shifted[u])(classes))
        pair = _Rows(lambda u: tuple(map(add, firsts, itemgetter(*shifted[u])(classes))))
        rows = _field_rows[(ctx, ell)] = (shifted, classed, pair)
    return rows


def _horner_counts(ctx, points, terms: int, ell: int):
    """Yield M_0, ..., M_{terms-1}, terms >= 1, where M_n maps each class vector
    (log f(x_i) mod ell)_i of a monic f of degree n with no root at the
    points to the number of such f.

    Horner's rule makes this a transfer on value vectors: f = X*g + a has
    f(x_i) = g(x_i)*x_i + a, so the count at u sums the counts one degree
    down at the v with v_i*x_i = u_i - a over every a, the same sum at every
    point of the line u + F_Q*(1, ..., 1).  With d_i = x_i - x_1, the line
    keyed by (e_i)_{i>1} is {(t, t + e_2*d_2, ..., t + e_k*d_k) : t in F_Q},
    and its point at t pushes to the line keyed by (t + e_i*x_i)_{i>1}; the
    X + a form the line (1, ..., 1).  Lines of equal count are classed in
    one Counter and pushed in another; the last degree is not pushed.

    Keys are small ints where they can be.  A line with one offset (k = 2)
    is keyed by e_2 itself, and the classes at x_1 and x_2 are counted as
    one pair code (_rows), which a pair row gives for a whole line; at
    k >= 3 a class key is that code followed by the classes at x_3..x_k,
    from k - 2 class rows, and pushing zips k - 1 addition rows.  Each code
    met is decoded once per degree, and a vector with class ell, a root at
    a point, is left out.  Counts are Python ints.
    """
    k = len(points)
    yield Counter({(0,) * k: 1})
    if terms == 1:
        return
    order, mul_i, radix = ctx.order, ctx.mul_i, ell + 1
    shifted, classed, pair = _rows(ctx, ell)
    x1, *xs = (x.val for x in points)
    # e -> e*x_i, the push, and e -> e*d_i, the line's offset, for i > 1
    scaled = [[mul_i(e, x) for e in range(order)] for x in xs]
    offsets = [[mul_i(e, ctx.sub_i(x, x1)) for e in range(order)] for x in xs]
    if k == 1:  # one line, keyed by ()
        lines = {(): 1}

        def class_rows(keys):
            return (classed[0] for _ in keys)

        def push_rows(keys):
            return (repeat((), order) for _ in keys)

        def decode(c):
            return (c,)
    elif k == 2:
        (o,), (s,) = offsets, scaled
        lines = {1: 1}

        def class_rows(keys):
            return map(pair.__getitem__, map(o.__getitem__, keys))

        def push_rows(keys):
            return map(shifted.__getitem__, map(s.__getitem__, keys))

        def decode(c):
            return divmod(c, radix)
    else:
        o, *rest = offsets
        lines = {(1,) * (k - 1): 1}

        def class_rows(keys):
            return (zip(pair[o[key[0]]], *[classed[r[e]] for r, e in zip(rest, key[1:])])
                    for key in keys)

        def push_rows(keys):
            return (zip(*[shifted[s[e]] for s, e in zip(scaled, key)]) for key in keys)

        def decode(c):
            return divmod(c[0], radix) + c[1:]
    for n in range(1, terms):
        groups: dict[int, list] = {}
        for key, cnt in lines.items():
            groups.setdefault(cnt, []).append(key)
        found, pushed = {}, {}
        for cnt, keys in groups.items():
            for c, h in Counter(chain.from_iterable(class_rows(keys))).items():
                found[c] = found.get(c, 0) + h * cnt
            if n < terms - 1:
                for line, h in Counter(chain.from_iterable(push_rows(keys))).items():
                    pushed[line] = pushed.get(line, 0) + h * cnt
        counts = Counter()
        for c, h in found.items():
            c = decode(c)
            if ell not in c:
                counts[c] = h
        yield counts
        lines = pushed


def l_polynomial(regime: Regime, points, w, check_extra: int = CHECK_EXTRA) -> list[CycloInt]:
    """Coefficients c_0..c_{k-1} of L(u) = sum over monic f of chi_w(f) u^deg f.

    c_n = sum_c M_n(c) * zeta**<w, c>, where M_n(c) counts the monic f of
    degree n with class vector c at the points of nonzero weight and no
    root there (points of weight 0 do not change chi_w); one Horner transfer
    gives every M_n (see _horner_counts), at _transfer_steps table steps,
    which coverparam.KERNEL_STEP_CAP bounds before any work starts.  The sum over
    monics of any fixed degree >= k vanishes, which makes L a polynomial of
    degree < k; the first check_extra vanishing coefficients are recomputed
    and checked, as is c_0 = 1 (CrossCheckMismatch otherwise).  A negative
    check_extra raises ValueError.
    """
    if check_extra < 0:
        raise ValueError("check_extra must be non-negative")
    char = CharW(regime, points, w)
    k = len(char.points)
    ell = regime.ell
    terms = k + check_extra
    _check_transfer(regime.ext.order, char.w, ell, check_extra)
    support, weights = zip(*((x, wi) for x, wi in zip(char.points, char.w) if wi))
    coeffs: list[CycloInt] = []
    for n, counts in enumerate(_horner_counts(regime.ext, support, terms, ell)):
        by_class = [0] * ell
        for c, cnt in counts.items():
            by_class[sum(map(mul, weights, c)) % ell] += cnt
        acc = CycloInt._from_powers(ell, by_class)
        if n < k:
            coeffs.append(acc)
        elif not acc.is_zero:
            raise CrossCheckMismatch(
                f"degree-{n} coefficient should vanish, got {acc!r}")
    if coeffs[0] != 1:
        raise CrossCheckMismatch(f"constant coefficient is {coeffs[0]!r}, not 1")
    return coeffs


def _l_coefficients_by_enumeration(regime: Regime, points, w,
                                   terms: int) -> list[CycloInt]:
    """c_0..c_{terms-1} of L(u), each summed over every monic polynomial of
    its degree: the oracle for l_polynomial's transfer, at order**n
    evaluations of chi_w for c_n."""
    char = CharW(regime, points, w)
    coeffs = []
    for n in range(terms):
        acc = CycloInt.from_int(regime.ell, 0)
        for f in monic_polys(regime.ext, n):
            acc = acc + char.value_at(f)
        coeffs.append(acc)
    return coeffs


def root_magnitudes(coeffs: list[CycloInt]) -> list[float]:
    """Sorted absolute values of the roots of L(u) = sum_i coeffs[i] u**i.

    By the Riemann hypothesis for curves, the L-polynomial of a nontrivial
    character is (1 - u)**delta * P(u), with delta in {0, 1} and every
    inverse root of P of absolute value sqrt(Q), Q the field order.  The
    magnitudes are those the theorem gives: deg P copies of Q**(-1/2) and
    delta copies of 1, with no root finder.  delta = 1 exactly when the
    coefficients sum to 0; P's coefficients are then L's prefix sums.

    With d = deg P and N(c) = c * conj(c), every call checks that N(p_d) is
    a rational integer Q**d with Q >= 2, that N(p_{d-i}) = Q**(d-2i) *
    N(p_i) for every i, and that P(1) != 0, and raises CrossCheckMismatch
    otherwise.  These are necessary conditions, and sufficient for d <= 1,
    but not for d >= 2: 1 + 3u + 2u**2 over ell = 3 passes them with roots
    of moduli 1/2 and 1.  So numpy's root finder stays the tests' oracle.
    Exactly-zero trailing coefficients are dropped; an empty or all-zero
    input raises DegenerateZeroPolynomial.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    if not coeffs:
        raise DegenerateZeroPolynomial("all coefficients vanish")
    prefix = list(accumulate(coeffs))
    delta = int(prefix[-1].is_zero)
    if delta:  # P(u) = L(u) / (1 - u)
        coeffs = prefix[:-1]
    d = len(coeffs) - 1
    norms = [c * c.conjugate() for c in coeffs]
    top = norms[d].as_int() if norms[d].is_rational_integer else 0
    Q = round(2 ** (log2(top) / d)) if d and top > 0 else 1
    if Q ** d != top or (d and Q < 2):
        raise CrossCheckMismatch(
            f"leading norm {norms[d]!r} is not Q**{d} for an integer Q >= 2")
    for i in range(d // 2 + 1):
        if norms[d - i] != norms[i] * Q ** (d - 2 * i):
            raise CrossCheckMismatch(
                f"norms of coefficients {d - i} and {i} of {coeffs!r} break "
                "the functional equation")
    if sum(coeffs[1:], coeffs[0]).is_zero:
        raise CrossCheckMismatch(
            f"{coeffs!r} vanishes at u = 1 after dividing by 1 - u")
    mags = [1 / sqrt(Q)] * d + [1.0] * delta
    if delta:
        log.info("unit-circle zero: a root of modulus 1 occurred "
                 "(magnitudes %s)", mags)
    return mags


# ---------------------------------------------------------------------------
# Base primes by class line, from monic counts and the Euler product.

def _line_of(c: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """Representative of the line {t*c : t in Z/ell}: c scaled so its first
    nonzero coordinate is 1, and the zero vector for c = 0."""
    for a in c:
        if a:
            inv = pow(a, -1, ell)
            return tuple(b * inv % ell for b in c)
    return c


def _dot_counts(values: dict, k: int, ell: int) -> dict:
    """Each line representative w of (Z/ell)^k (_line_of) mapped to the list,
    by s in Z/ell, of the sums of values[c] over the c with <w, c> = s.  One
    coordinate at a time turns c_i into w_i, carrying the partial product
    and only prefixes of representatives: about k * ell**2 steps a line."""
    stage = {(c, 0): n for c, n in values.items() if n}
    for i in range(k):
        nxt: dict = {}
        for (v, s), n in stage.items():
            for wi in range(ell) if any(v[:i]) else (0, 1):
                key = (v[:i] + (wi,) + v[i + 1:], (s + wi * v[i]) % ell)
                nxt[key] = nxt.get(key, 0) + n
        stage = nxt
    out: dict = {}
    for (w, s), n in stage.items():
        out.setdefault(w, [0] * ell)[s] += n
    return out


def _invert(values: dict, k: int, ell: int) -> dict:
    """The nonzero A(v), v a line representative of (Z/ell)^k, given
    G(w) = sum_c A(c) zeta**<w, c> at each line representative w and A
    constant on each line less 0: A(v) = (ell*S(v) - T) / ((ell-1) ell**k),
    S(v) the sum of G over the w orthogonal to v and T over all w.
    CrossCheckMismatch unless that is a whole non-negative number."""
    weighted = {w: g * (ell - 1 if any(w) else 1) for w, g in values.items()}
    total, scale = sum(weighted.values()), (ell - 1) * ell ** k
    out = {}
    for v, sums in _dot_counts(weighted, k, ell).items():
        a, r = divmod(ell * sums[0] - total, scale)
        if r or a < 0:
            raise CrossCheckMismatch(f"character inversion gives "
                                     f"{ell * sums[0] - total}/{scale} at {v}")
        if a:
            out[v] = a
    return out


class _LineKernel:
    """Base primes of degree n_q*m orthogonal to each line at a set of base
    points, built one degree at a time.

    Work is over the extension F_Q, Q = q**n_q, at k base points x_1..x_k,
    where a monic f with no root at those points has class vector
    c_f = (log f(x_i) mod ell)_i.  M_n, the monic f of degree n by class
    vector, comes from the Horner transfer for n < k and is uniform,
    Q**(n-k) * ((Q-1)/ell)**k per vector, for n >= k, since such f take
    every value vector equally often.  The Euler product sum_n M_n u**n =
    prod_pi (1 - u**deg pi [c_pi])**-1 over the F_Q-primes other than
    X - x_i gives, by its logarithmic derivative, the power sums
    Lambda_n = n M_n - sum_{i<n} Lambda_i M_{n-i} = sum_{m | n} m psi_{n/m}(P_m),
    where P_m counts those F_Q-primes of degree m by class vector and psi_t
    maps [c] to [t c]; each step peels off P_n.  [c] -> [<w, c>] maps all of
    it to Z[Z/ell], with psi_t: s -> t*s, so the peel runs on lists of ell
    counts, once per line representative w.  An F_Q-prime whose Frobenius
    orbit is shorter than n_q has its coefficients in a field F_{q^s} with
    ell not dividing q^s - 1, so its class vector is 0; the rest come in
    orbits of n_q over the base primes of degree n_q*m, on one line.
    """

    def __init__(self, idx: tuple[int, ...]):
        self.idx = idx  # literals of the base points, one coordinate each
        self.monic: dict = {}  # line -> [M_0, ..., M_h], h < max(k, 1)
        self.peel: dict = {}  # line -> ([Lambda_n], [P_n]), index n
        self.orthogonal: list[dict] = []  # entry m - 1: line -> base primes

    def _count_monics(self, regime: Regime, h: int) -> None:
        ell, ext = regime.ell, regime.ext
        table = subfield_table(regime.base, ext)
        points = [FieldElem(ext, table[i]) for i in self.idx]
        per_degree = [_dot_counts(counts, len(points), ell)
                      for counts in _horner_counts(ext, points, h + 1, ell)]
        self.monic = {w: [d[w] for d in per_degree] for w in per_degree[0]}

    def extend(self, regime: Regime, m_max: int) -> None:
        ell, q, n_q, Q = regime.ell, regime.q, regime.n_q, regime.ext.order
        k = len(self.idx)
        h = max(min(k - 1, m_max), 0)
        if len(self.monic.get((0,) * k, ())) <= h:
            self._count_monics(regime, h)
        uniform = ((Q - 1) // ell) ** k  # M_k per class vector
        for n in range(len(self.orthogonal) + 1, m_max + 1):
            counted = necklace_count(Q, n) - k * (n == 1)  # all but X - x_i
            # those of a shorter Frobenius orbit, all of class 0
            short = counted - n_q * necklace_count(q, n_q * n)
            orthogonal = {}
            for w, monic in self.monic.items():
                lams, primes = self.peel.setdefault(w, ([None], [None]))
                del lams[n:], primes[n:]  # left by a failed extend
                lam = [n * c for c in monic[n]] if n < k else [0] * ell
                flat = 0 if n < k else n * Q ** (n - k) * uniform  # times all-ones
                for i in range(1, n):
                    a, j = lams[i], n - i
                    if j >= k:
                        flat -= sum(a) * Q ** (j - k) * uniform
                        continue
                    for t, b in enumerate(monic[j]):  # lam -= Lambda_i * M_j
                        if b:
                            lam = [x - b * y for x, y in zip(lam, a[ell - t:] + a[:ell - t])]
                # the all-ones element of the group ring, projected onto w
                ones = [ell ** (k - 1)] * ell if any(w) else [ell ** k] + [0] * (ell - 1)
                lams.append([x + flat * o for x, o in zip(lam, ones)])
                rest = list(lams[n])
                for m in range(1, n):
                    if n % m == 0:
                        for s, cnt in enumerate(primes[m]):
                            rest[n // m * s % ell] -= m * cnt
                if any(cnt % n or cnt < 0 for cnt in rest):
                    raise CrossCheckMismatch(f"degree-{n} prime counts {rest}/{n} "
                                             f"by <{w}, c> are not whole numbers")
                primes.append([cnt // n for cnt in rest])
                if sum(primes[n]) != counted:
                    raise CrossCheckMismatch(
                        f"degree-{n} primes over F_{Q} by <{w}, c> do not add up")
                orbits, r = divmod(primes[n][0] - short, n_q)
                if r or orbits < 0:
                    raise CrossCheckMismatch(
                        f"{primes[n][0] - short} F_{Q}-primes of degree {n} "
                        f"orthogonal to {w} do not form orbits of {n_q}")
                orthogonal[w] = orbits
            self.orthogonal.append(orthogonal)


def _line_count(ell: int, k: int) -> int:
    """Lines of (Z/ell)**k, the zero vector counted as one."""
    return (ell ** k - 1) // (ell - 1) + 1


def _series_steps(M: int) -> int:
    """Steps of one _euler_series to v**M, v = u**n_q: the recurrence's
    M(M+1)/2 products and sum_m M // m power-sum terms, none for M < 0."""
    return max(M, 0) * (M + 1) // 2 + _quotient_sums(M)[0]


def _kernel_steps(regime: Regime, idx: tuple[int, ...], m_max: int) -> int:
    """_kernel_growth_steps of the regime's kernel over the base points idx."""
    return _kernel_growth_steps(regime.ext.order, regime.ell, len(idx), m_max,
                                regime._lines.get(idx))


def _kernel_growth_steps(order: int, ell: int, k: int, m_max: int,
                         kernel: _LineKernel | None = None) -> int:
    """Table steps of extending kernel, over k base points and F_Q of this
    order (None for none built), from the degree it is cached to up to
    n_q*m_max, 0 when it is cached that far.
    When h = min(k - 1, m_max) passes the cached monic counts, _count_monics
    recounts from degree 0: the Horner transfer to degree h, and ell**2 per
    line for each of the k coordinates of each projected degree 1..h
    (_dot_counts).  Each new degree n costs ell**2 per line for each product
    Lambda_{n-j} M_j, j < min(n, k), and ell per line for each pair i < n of
    the peel.  They bound memory too: no dict of the kernel or of _invert has
    more than ell**(k+1) keys, and every caller charges ell**2 * k steps on
    each of the ell**(k-1) or more lines, for projecting M_1 (k >= 2) or for
    _invert; for k = 1 the ring is Z/ell."""
    done = len(kernel.orthogonal) if kernel is not None else 0
    if m_max <= done:
        return 0
    h, lines = max(min(k - 1, m_max), 0), _line_count(ell, k)
    products = (sum(range(min(done, k), min(m_max, k)))
                + max(k - 1, 0) * max(m_max - max(done, k), 0))
    steps = lines * (ell ** 2 * products
                     + ell * (m_max * (m_max - 1) - done * (done - 1)) // 2)
    if kernel is None or len(kernel.monic.get((0,) * k, ())) <= h:
        steps += _transfer_steps(order, k, h + 1) + lines * ell ** 2 * h * k
    return steps


def _orthogonal_at(regime: Regime, idx: tuple[int, ...], m_max: int) -> tuple[dict, ...]:
    """Entry m - 1, m = 1..m_max, maps each line representative w to
    O_m(w), the number of base primes P of degree n_q*m with <w, c_P> = 0,
    c_P the class vector at the base points with sorted literals idx
    (O_m(0) counts them all).  One kernel per point set is cached on the
    regime and extended on demand; callers check _kernel_steps first."""
    if m_max < 0:
        raise ValueError("prime degree bound must be non-negative")
    kernel = regime._lines.setdefault(idx, _LineKernel(idx))
    if len(kernel.orthogonal) < m_max:
        kernel.extend(regime, m_max)
    return tuple(kernel.orthogonal[:m_max])


def base_prime_lines(regime: Regime, m_max: int) -> tuple[dict, ...]:
    """Base primes of degree n_q*m, m = 1..m_max, by the line of their class
    vector at every affine point: entry m - 1 maps each line {t*c_P} of
    (Z/ell)^q, keyed by the representative whose first nonzero coordinate
    is 1, to the number of base primes P on it; primes of class vector 0
    sit under the zero vector.

    The lines do not depend on the anchoring rule, which only scales c_P by a
    power of q.  No prime is listed: with F(c) the count on c's line over
    ell - 1 and F(0) the primes of class 0, O_m(w) (_orthogonal_at) sums F
    over the c orthogonal to w, so _invert of ell*O_m(w) - O_m(0), which is
    (ell - 1) * sum_c F(c) zeta**<w, c>, gives (ell - 1) * F.  The kernel
    and the m_max inversions are budgeted before any work.
    """
    ell, k = regime.ell, regime.q
    idx, zero = tuple(range(k)), (0,) * k
    _check_steps(_kernel_steps(regime, idx, m_max)
                 + m_max * _line_count(ell, k) * k * ell ** 2,
                 f"the base primes by class line to degree {regime.n_q * m_max}")
    out = []
    for orth in _orthogonal_at(regime, idx, m_max):
        lines = _invert({w: ell * o - orth[zero] for w, o in orth.items()}, k, ell)
        class_0, r = divmod(lines.pop(zero, 0), ell - 1)
        if r:
            raise CrossCheckMismatch(f"{(ell - 1) * class_0 + r} is not {ell - 1} "
                                     "times the class-0 prime count")
        out.append(lines | ({zero: class_0} if class_0 else {}))
    return tuple(out)


def _euler_series(ell: int, n_q: int, per_degree, w, trunc: int) -> list[int]:
    """Coefficients up to u**trunc of F = prod_m (1 + (ell-1)u**d)**O_m(w)
    * (1 - u**d)**(O_m(0) - O_m(w)), d = n_q*m, O_m = per_degree[m-1] from
    _orthogonal_at: the image, under the character of w, of the product of
    the factors 1 + u**d * sum_s [s c_P] over the base primes P.

    F is a series in v = u**n_q, zero off the multiples of n_q, and its
    logarithmic derivative gives N F_N = sum_{I=1..N} c_I F_{N-I} with
    c_I = sum_{m | I} m (O_m(w) (-1)**(I/m-1) (ell-1)**(I/m) - O_m(0) + O_m(w)):
    about N**2 / 2 products for N = trunc // n_q.  CrossCheckMismatch when a
    division by N is not exact."""
    top = trunc // n_q
    zero = (0,) * len(w)
    c = [0] * (top + 1)
    for m, orth in enumerate(per_degree, start=1):
        z, e = orth[w], orth[zero] - orth[w]
        power = 1
        for i in range(m, top + 1, m):
            power *= 1 - ell  # (1 - ell)**(i/m)
            c[i] -= m * (z * power + e)
    coeffs = [1]
    for n in range(1, top + 1):
        f, r = divmod(sum(map(mul, c[1:n + 1], coeffs[::-1])), n)
        if r:
            raise CrossCheckMismatch(f"coefficient {n * n_q} of the Euler series "
                                     f"at {w} is not whole")
        coeffs.append(f)
    series = [0] * (trunc + 1)
    series[::n_q] = coeffs
    return series


def _check_class_sums(held: int, ell: int, k: int, D: int, m_max: int) -> None:
    """_class_sum_counts' budget at k points to degree D = n_q*m_max, held
    the steps of its stratum table and kernel: per line a look-up per
    degree, one _euler_series at its recurrence's steps and ell**2 per
    coordinate for _invert."""
    _check_steps(held + _line_count(ell, k) * (m_max + _series_steps(m_max) + k * ell ** 2),
                 f"counting branch tuples by class sum at {k} points to degree {D}")


def check_law_budget(q: int, ell: int, n_q: int, D: int) -> None:
    """BudgetExceeded when the exact law at degree D over a fresh (q, ell)
    regime of degree n_q is over KERNEL_STEP_CAP: _class_sum_counts at
    every affine point with no table or kernel held, from (q, ell, n_q, D)
    before any field is built."""
    if D % n_q or D <= 0:
        return
    m_max = D // n_q
    _check_class_sums(_stratum_steps(m_max) + _kernel_growth_steps(q ** n_q, ell, q, m_max),
                      ell, q, D, m_max)


def _class_sum_counts(regime: Regime, idx: tuple[int, ...], D: int) -> dict:
    """A(v) for each line representative v (_line_of) of (Z/ell)^k with
    A(v) > 0: how many branch tuples of degree D have class sum
    sum_P slot(P) * c_P = v at the base points with sorted literals idx.
    Scaling every slot by a unit permutes the tuples, so A is constant on
    each line less 0 and each of v's ell - 1 nonzero multiples has A(v)
    tuples too; the zero vector stands for class sum 0 alone.

    Under the character [c] -> zeta**<w, c> the factor 1 + u**d sum_s [s c_P]
    of each prime becomes 1 + (ell-1)u**d or 1 - u**d, so coefficient D of
    the product is an integer G_w fixed by how many primes of each degree
    are orthogonal to w, the same for every nonzero multiple of w, and
    _invert recovers A from G.  Labeling-free: re-anchoring moves no prime
    off its line.  The series is computed once per profile (O_m(w))_m, which
    lines share.  The counts must add up to count_tuples.  Budgeted before any
    work (_check_class_sums): the stratum and the kernel unless cached, and
    the lines."""
    ell, n_q, k = regime.ell, regime.n_q, len(idx)
    if D % n_q or D <= 0:
        return {} if D else {(0,) * k: 1}
    m_max = D // n_q
    _check_class_sums(_suffix_steps(regime, D) + _kernel_steps(regime, idx, m_max),
                      ell, k, D, m_max)
    per_degree = _orthogonal_at(regime, idx, m_max)
    by_profile: dict[tuple[int, ...], int] = {}
    coeffs = {}
    for w in per_degree[0]:  # every line representative
        profile = tuple(orth[w] for orth in per_degree)
        if profile not in by_profile:
            by_profile[profile] = _euler_series(ell, n_q, per_degree, w, D)[D]
        coeffs[w] = by_profile[profile]
    counts = _invert(coeffs, k, ell)
    tuples = sum(a * (ell - 1 if any(v) else 1) for v, a in counts.items())
    if tuples != count_tuples(regime, D):
        raise CrossCheckMismatch(f"the class sums hold {tuples} branch tuples, "
                                 f"the stratum {count_tuples(regime, D)}")
    return counts


def _base_literals(regime: Regime, points) -> tuple[int, ...]:
    """Literals of distinct base-field points; CtxMismatch for any other
    point (infinity, an extension element), InvalidTuple for a repeat."""
    base = (regime.base.p, regime.base.k)
    if not all(isinstance(x, FieldElem) and (x.ctx.p, x.ctx.k) == base for x in points):
        raise CtxMismatch("evaluation points must be base-field points")
    idx = tuple(x.val for x in points)
    if len(set(idx)) != len(idx):
        raise InvalidTuple("evaluation points must be distinct")
    return idx


# ---------------------------------------------------------------------------
# Generating series and class-constrained branch tuples.

def g_series(regime: Regime, points, w, trunc: int) -> list[int]:
    """Integer coefficients, up to u**trunc, of the Euler product over base
    primes of degree divisible by n_q: factor 1 + (ell-1)u**d when the
    weighted class functional e_P = sum_i w_i * class_i(P) vanishes mod ell,
    and 1 - u**d otherwise.  Whether e_P vanishes depends only on the line
    of c_P at the points of nonzero weight, so the product is read off the
    base primes orthogonal to w's line at those points alone (ell**s class
    vectors for s such points, whatever q is), by _euler_series's power-sum
    recurrence; coefficients off the multiples of n_q are 0.  Budgeted before
    any work, the series at its recurrence's steps.
    """
    ell, n_q = regime.ell, regime.n_q
    idx = _base_literals(regime, points)
    w = tuple(wi % ell for wi in w)
    if len(w) != len(idx):
        raise InvalidTuple("weight vector length must match points")
    support = sorted((i, wi) for i, wi in zip(idx, w) if wi)
    idx = tuple(i for i, _ in support)
    _check_steps(_kernel_steps(regime, idx, trunc // n_q) + _series_steps(trunc // n_q),
                 f"the series G_w to degree {trunc}")
    per_degree = _orthogonal_at(regime, idx, trunc // n_q)
    line = _line_of(tuple(wi for _, wi in support), ell)
    return _euler_series(ell, n_q, per_degree, line, trunc)


def count_constrained(regime: Regime, D: int, points, targets,
                      b: FieldElem) -> int:
    """Branch tuples of degree D whose twisted model has class targets[i]
    at points[i], for the fixed twisting unit b.

    The class at an affine point x is n_q * (e(b) + u_x), u the tuple's
    class sum, so the targets fix u (n_q divides ell - 1, so it is a unit
    mod ell), and the count is A at u's line (_class_sum_counts), which no
    anchoring rule moves.  _constrained_by_enumeration is its oracle.
    """
    ell = regime.ell
    pts = tuple(points)
    targets = tuple(t % ell for t in targets)
    if len(targets) != len(pts):
        raise InvalidTuple("need one target class per point")
    if not pts:
        raise InvalidTuple("need at least one evaluation point")
    if D < 0:
        raise ValueError("branch degree must be non-negative")
    _check_unit(regime, b)
    want = sorted(zip(_base_literals(regime, pts), targets))
    counts = _class_sum_counts(regime, tuple(i for i, _ in want), D)
    e_b, inv_n = lth_power_class(b, ell), pow(regime.n_q, -1, ell)
    u = tuple((t * inv_n - e_b) % ell for _, t in want)
    return counts.get(_line_of(u, ell), 0)


def _constrained_by_enumeration(regime: Regime, D: int, points, targets,
                                b: FieldElem, labeling: str) -> int:
    """count_constrained from the class_vector of every enumerated tuple under
    labeling, for D <= ENUM_D_CAP."""
    _check_labeling(labeling)
    want = sorted(zip(_base_literals(regime, points), (t % regime.ell for t in targets)))
    direct = 0
    for prime_mults in _enumerate_full(regime, D):
        classes = class_vector(regime, prime_mults, b, labeling)
        direct += all(classes[i] == t for i, t in want)
    return direct


@dataclass(frozen=True)
class GrowthReport:
    """Ratio of a constrained count to its equidistribution prediction."""

    D: int
    constrained: int
    stratum: int
    ratio: Fraction

    @property
    def deviation(self) -> Fraction:
        return abs(self.ratio - 1)


def growth_check(regime: Regime, D: int, points, targets, b: FieldElem) -> GrowthReport:
    """Compare the constrained count with stratum / ell**k, at any D within
    the step budget."""
    points = tuple(points)
    cnt = count_constrained(regime, D, points, targets, b)
    total = count_tuples(regime, D)
    if total == 0:
        raise InvalidTuple(f"empty stratum at degree {D}")
    ratio = Fraction(cnt * regime.ell ** len(points), total)
    return GrowthReport(D, cnt, total, ratio)
