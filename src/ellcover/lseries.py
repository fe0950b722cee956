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
Horner transfer over value vectors, the same at every number of points:
a line is keyed by the tuple of its offsets and a class vector by the
tuple of its classes, from addition and class rows the regime holds.  An
L-polynomial at one or two points of nonzero weight is 1 + c_1*u, c_1 one
sum over F_Q (a Jacobi sum at two points) read from the log and Zech
tables and checked by its norm, with the transfer as its oracle.
Inverting the series counts the branch tuples of each class sum, one
count per class line, which the exact law and the constrained counts both
read, with enumeration as their oracle.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import log2, sqrt
from operator import itemgetter, mul

from .coverparam import (
    Regime,
    _check_labeling,
    _check_steps,
    _check_unit,
    _enumerate_full,
    _quotient_sums,
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


def _horner_counts(regime: Regime, points, terms: int):
    """Yield M_0, ..., M_{terms-1}, terms >= 1, where M_n maps each class vector
    (log f(x_i) mod ell)_i of a monic f of degree n over the regime's
    extension with no root at the points to the number of such f.

    Horner's rule makes this a transfer on value vectors: f = X*g + a has
    f(x_i) = g(x_i)*x_i + a, so the count at u sums the counts one degree
    down at the v with v_i*x_i = u_i - a over every a, the same sum at every
    point of the line u + F_Q*(1, ..., 1).  With d_i = x_i - x_1, the line
    keyed by the tuple (e_i)_{i>1} is {(t, t + e_2*d_2, ..., t + e_k*d_k) :
    t in F_Q}, and its point at t pushes to the line keyed by
    (t + e_i*x_i)_{i>1}; the X + a form the line (1, ..., 1).

    Every k >= 1 has this one shape: a line's class vectors are the tuples
    zipped from one class row per point, and its pushes zip the k - 1
    addition rows at its offsets.  Lines of equal count are classed in one
    Counter and pushed in another; the last degree is not pushed.  A vector
    with class ell, a root at a point, is left out once per degree.  The rows
    depend on (Q, ell) alone, so the regime holds them (Regime._rows), each
    built on first use.  Counts are Python ints.
    """
    k = len(points)
    yield Counter({(0,) * k: 1})
    if terms == 1:
        return
    ctx, ell = regime.ext, regime.ell
    order, mul_i = ctx.order, ctx.mul_i
    if regime._rows is None:  # shifted[u] = (u + a)_a, classed[u] = (class of u + a)_a
        add_i = ctx.add_i
        classes = (ell,) + tuple(ctx.log[v] % ell for v in range(1, order))
        shifted = _Rows(lambda u: tuple([add_i(u, a) for a in range(order)]))
        # itemgetter of the order >= 4 literals of a row gives a tuple
        regime._rows = shifted, _Rows(lambda u: itemgetter(*shifted[u])(classes))
    shifted, classed = regime._rows
    x1, *xs = (x.val for x in points)
    # e -> e*x_i, the push, and e -> e*d_i, the line's offset, for i > 1
    scaled = [[mul_i(e, x) for e in range(order)] for x in xs]
    offsets = [[mul_i(e, ctx.sub_i(x, x1)) for e in range(order)] for x in xs]
    firsts = classed[0]
    lines = {(1,) * (k - 1): 1}
    for n in range(1, terms):
        groups: dict[int, list] = {}
        for key, cnt in lines.items():
            groups.setdefault(cnt, []).append(key)
        found, pushed = {}, {}
        for cnt, keys in groups.items():
            vectors = (zip(firsts, *[classed[o[e]] for o, e in zip(offsets, key)])
                       for key in keys)
            for c, h in Counter(chain.from_iterable(vectors)).items():
                found[c] = found.get(c, 0) + h * cnt
            if n < terms - 1:
                # a line with no offset, at one point, pushes order times to ()
                pushes = (zip(*[shifted[s[e]] for s, e in zip(scaled, key)]) if key
                          else repeat((), order) for key in keys)
                for line, h in Counter(chain.from_iterable(pushes)).items():
                    pushed[line] = pushed.get(line, 0) + h * cnt
        yield Counter({c: h for c, h in found.items() if ell not in c})
        lines = pushed


def _sum_classes(ctx, support, weights, ell: int) -> list[int]:
    """The terms of c_1 = sum over b in F_Q of prod_i chi(x_i + b)**w_i by
    class: at one point each unit's class from ctx.log, at two v = g**m for
    m < Q - 1 and log(v + d) = log d + zech[m - log d], d = x_2 - x_1."""
    n, by_class = ctx.order - 1, [0] * ell
    if len(support) == 1:
        exps = (weights[0] * m for m in ctx.log[1:])
    else:
        (w1, w2), e = weights, ctx.log[ctx.sub_i(support[1].val, support[0].val)]
        exps = (w1 * m + w2 * (e + z) for m, z in zip(range(n), ctx.zech[n - e:]) if z >= 0)
    for x in exps:
        by_class[x % ell] += 1
    return by_class


def _transfer_coefficients(regime: Regime, support, weights, k: int,
                           terms: int) -> list[CycloInt]:
    """c_0..c_{k-1} of L(u) at the points support of nonzero weights, c_n =
    sum_c M_n(c) * zeta**<w, c> with M_n from _horner_counts; the transfer's
    c_k..c_{terms-1} must vanish and c_0 be 1, else CrossCheckMismatch."""
    ell = regime.ell
    coeffs: list[CycloInt] = []
    for n, counts in enumerate(_horner_counts(regime, support, terms)):
        by_class = [0] * ell
        for c, cnt in counts.items():
            by_class[sum(map(mul, weights, c)) % ell] += cnt
        acc = CycloInt._from_powers(ell, by_class)
        if n < k:
            coeffs.append(acc)
        elif not acc.is_zero:
            raise CrossCheckMismatch(f"degree-{n} coefficient should vanish, got {acc!r}")
    if coeffs[0] != 1:
        raise CrossCheckMismatch(f"constant coefficient is {coeffs[0]!r}, not 1")
    return coeffs


def l_polynomial(regime: Regime, points, w, check_extra: int = CHECK_EXTRA) -> list[CycloInt]:
    """Coefficients c_0..c_{k-1} of L(u) = sum over monic f of chi_w(f) u^deg f.

    Points of weight 0 do not change chi_w, and at s points of nonzero
    weight L has degree < s.  At s <= 2, L = 1 + c_1*u with c_1 = sum over
    b in F_Q of prod_i chi(x_i + b)**w_i (_sum_classes): 0 at one point, and
    at two a Jacobi sum of norm Q, or -1 when w_1 + w_2 = 0 mod ell, as
    b -> (x_1 + b)/(x_2 + b) then takes every value but 1; each call checks
    this.  At s >= 3 one Horner transfer gives L (_transfer_coefficients)
    and checks c_0 = 1 and the first check_extra vanishing coefficients.
    Every call is charged the transfer's _transfer_steps, which
    coverparam.KERNEL_STEP_CAP bounds before any work starts; at s <= 2
    check_extra only sets that charge.  A failed check raises
    CrossCheckMismatch, a negative check_extra ValueError.
    """
    if check_extra < 0:
        raise ValueError("check_extra must be non-negative")
    char = CharW(regime, points, w)
    k = len(char.points)
    ell = regime.ell
    ctx = regime.ext
    _check_transfer(ctx.order, char.w, ell, check_extra)
    support, weights = zip(*((x, wi) for x, wi in zip(char.points, char.w) if wi))
    s = len(support)
    if s > 2:
        return _transfer_coefficients(regime, support, weights, k, k + check_extra)
    c1 = CycloInt._from_powers(ell, _sum_classes(ctx, support, weights, ell))
    primitive, norm = sum(weights) % ell, (s - 1) * ctx.order  # c_1 = 0 at one point
    if not (c1 * c1.conjugate() == norm if primitive else c1 == -1):
        raise CrossCheckMismatch(f"c_1 at weights {weights} is {c1!r}, not "
                                 + (f"of norm {norm}" if primitive else "-1"))
    return [CycloInt.from_int(ell, 1)] + [c1] * (s - 1) + [CycloInt.from_int(ell, 0)] * (k - s)


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
                      for counts in _horner_counts(regime, points, h + 1)]
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


def _kernel_growth_steps(order: int, ell: int, k: int, m_max: int) -> int:
    """Table steps of a fresh kernel over k base points and F_Q of this order
    to degree n_q*m_max, 0 for m_max <= 0; a held kernel is charged the same,
    so no refusal depends on the calls before it, and as every term grows
    with m_max, a kernel held to m_max never admits what a fresh one refuses.
    _count_monics runs the Horner transfer to degree h = min(k - 1, m_max)
    and pays ell**2 per line for each of the k coordinates of each projected
    degree 1..h (_dot_counts).  Each degree n costs ell**2 per line for each
    product Lambda_{n-j} M_j, 0 < j < min(n, k), and ell per line for each
    pair i < n of the peel.  They bound memory too: no dict of the kernel or
    of _invert has more than ell**(k+1) keys, and every caller charges
    ell**2 * k steps on each of the ell**(k-1) or more lines, for projecting
    M_1 (k >= 2) or for _invert; for k = 1 the ring is Z/ell."""
    if m_max <= 0:
        return 0
    h, lines = max(min(k - 1, m_max), 0), _line_count(ell, k)
    products = sum(range(min(m_max, k))) + max(k - 1, 0) * max(m_max - k, 0)
    return _transfer_steps(order, k, h + 1) + lines * (
        ell ** 2 * (products + h * k) + ell * m_max * (m_max - 1) // 2)


def _orthogonal_at(regime: Regime, idx: tuple[int, ...], m_max: int) -> tuple[dict, ...]:
    """Entry m - 1, m = 1..m_max, maps each line representative w to
    O_m(w), the number of base primes P of degree n_q*m with <w, c_P> = 0,
    c_P the class vector at the base points with sorted literals idx
    (O_m(0) counts them all).  One kernel per point set is cached on the
    regime and extended on demand; callers charge _kernel_growth_steps, a
    fresh kernel's steps, first."""
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
    _check_steps(_kernel_growth_steps(regime.ext.order, ell, k, m_max)
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


def _check_class_sums(order: int, ell: int, n_q: int, k: int, D: int) -> None:
    """BudgetExceeded when _class_sum_counts at k points to degree D, a
    positive multiple of n_q, over F_Q of this order is over
    KERNEL_STEP_CAP, charged as on a fresh regime: the stratum table, the
    kernel, and per line a look-up per degree, one _euler_series at its
    recurrence's steps and ell**2 per coordinate for _invert."""
    m_max = D // n_q
    # _stratum_steps and _series_steps at m_max >= 1, from one _quotient_sums
    single, double = _quotient_sums(m_max)
    stratum, series = m_max * (m_max + 1) + double, m_max * (m_max + 1) // 2 + single
    _check_steps(stratum + _kernel_growth_steps(order, ell, k, m_max)
                 + _line_count(ell, k) * (m_max + series + k * ell ** 2),
                 f"counting branch tuples by class sum at {k} points to degree {D}")


def check_law_budget(q: int, ell: int, n_q: int, D: int) -> None:
    """BudgetExceeded when the exact law at degree D over a (q, ell) regime
    of degree n_q is over KERNEL_STEP_CAP: _check_class_sums at all q affine
    points, from (q, ell, n_q, D) before any field is built, the charge that
    _class_sum_counts makes on any regime."""
    if D % n_q or D <= 0:
        return
    _check_class_sums(q ** n_q, ell, n_q, q, D)


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
    work (_check_class_sums) as on a fresh regime, whatever table or kernel
    the regime holds."""
    ell, n_q, k = regime.ell, regime.n_q, len(idx)
    if D % n_q or D <= 0:
        return {} if D else {(0,) * k: 1}
    _check_class_sums(regime.ext.order, ell, n_q, k, D)
    per_degree = _orthogonal_at(regime, idx, D // n_q)
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
    _check_steps(_kernel_growth_steps(regime.ext.order, ell, len(idx), trunc // n_q)
                 + _series_steps(trunc // n_q),
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
