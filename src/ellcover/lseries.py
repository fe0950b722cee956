"""Exact cyclotomic arithmetic, character sums over polynomials, and the
generating series that counts branch tuples with prescribed classes.

Everything here is integer-exact: cyclotomic integers are stored on the
power basis 1, zeta, ..., zeta**(ell-2) of Z[zeta_ell]; the per-character
generating series G_w has plain integer coefficients because each Euler
factor sums the character over the ell-1 possible slots of a prime, giving
1 + (ell-1)u**d when the prime's class functional vanishes and 1 - u**d
otherwise.  Averaging the ell**k series against character values inverts
the constraint exactly, and the result is cross-checked against a direct
enumeration of the stratum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .coverparam import (
    CoverParams,
    ENUM_D_CAP,
    Regime,
    count_tuples,
    enumerate_tuples,
    prime_classes,
    twisted_model,
)
from .charsum import chi_class
from .errors import (
    BudgetExceeded,
    CrossCheckMismatch,
    CtxMismatch,
    DegenerateZeroPolynomial,
    InvalidTuple,
    TrivialCharacter,
    UnexpectedRoot,
)
from .fqpoly import Poly, monic_polys, primes_with_degree
from .gf import FieldElem, embed_elem, lth_power_class

log = logging.getLogger("ellcover")

LPOLY_ENUM_CAP = 1 << 22


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
        if isinstance(other, int):
            other = CycloInt.from_int(self.ell, other)
        self._check(other)
        return CycloInt(self.ell, (a - b for a, b in zip(self.coords, other.coords)))

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
        top = raw[ell - 1]
        if top:
            raw = [c - top for c in raw[: ell - 1]]
        else:
            raw = raw[: ell - 1]
        return CycloInt(ell, raw)

    __rmul__ = __mul__

    def galois(self, r: int) -> "CycloInt":
        """Apply zeta -> zeta**r for r coprime to ell."""
        if r % self.ell == 0:
            raise ValueError("Galois exponent must be a unit")
        out = CycloInt.from_int(self.ell, 0)
        for e, a in enumerate(self.coords):
            if a:
                out = out + CycloInt.zeta_pow(self.ell, e * r) * a
        return out

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

    def exact_div(self, n: int) -> "CycloInt":
        if any(a % n for a in self.coords):
            raise ValueError(f"{self!r} is not divisible by {n}")
        return CycloInt(self.ell, (a // n for a in self.coords))

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


def _transfer_work(order: int, k: int, steps: int) -> int:
    """Table steps of `steps` Horner steps over k distinct points.

    Monic polynomials of degree n < k are told apart by their values at k
    points and those of degree n >= k take every value vector, so step n + 1
    extends min(order**n, order**k) states by each of `order` constants.
    """
    work, states, full = 0, 1, order ** k
    for _ in range(steps):
        work += states * order
        states = min(states * order, full)
    return work


def _horner_counts(ctx, points, terms: int):
    """Yield N_0, ..., N_{terms-1}, where N_n maps each value vector
    (f(x_1), ..., f(x_k)) of a monic f of degree n to the number of such f.

    Horner's rule makes this a transfer: f = X*g + a has f(x_i) = g(x_i)*x_i
    + a, so N_{n+1} is N_n pushed through v -> (v_i*x_i + a)_i for every
    constant a; N_0 is the leading 1 alone.  Counts are Python ints.
    """
    mul_i, add_i, order = ctx.mul_i, ctx.add_i, ctx.order
    xs = [x.val for x in points]
    shifts: dict[int, tuple[int, ...]] = {}  # u -> (u + a for every a)

    def shifted(u: int) -> tuple[int, ...]:
        row = shifts.get(u)
        if row is None:
            row = shifts[u] = tuple(add_i(u, a) for a in range(order))
        return row

    if terms < 1:
        return
    counts = {(1,) * len(xs): 1}
    yield counts
    for _ in range(terms - 1):
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for state, cnt in counts.items():
            for key in zip(*[shifted(mul_i(v, x)) for v, x in zip(state, xs)]):
                nxt[key] = get(key, 0) + cnt
        counts = nxt
        yield counts


def l_polynomial(regime: Regime, points, w, check_extra: int = 3,
                 budget: int = LPOLY_ENUM_CAP) -> list[CycloInt]:
    """Coefficients c_0..c_{k-1} of L(u) = sum over monic f of chi_w(f) u^deg f.

    c_n = sum_v N_n(v) * chi_w(v), where N_n(v) counts the monic f of degree
    n with value vector v = (f(x_1), ..., f(x_k)); one Horner transfer over
    value vectors gives every N_n (see _horner_counts), at _transfer_work
    table steps, which the budget bounds before any work starts.  The sum
    over monics of any fixed degree >= k vanishes, which makes L a
    polynomial of degree < k; the first check_extra vanishing coefficients
    are recomputed and checked, as is c_0 = 1 (CrossCheckMismatch otherwise).
    """
    char = CharW(regime, points, w)
    k = len(char.points)
    ell = regime.ell
    terms = k + check_extra
    if _transfer_work(regime.ext.order, k, terms - 1) > budget:
        raise BudgetExceeded("Horner transfer over value vectors exceeds budget")
    exponent = char.exponent
    classes: dict[tuple[int, ...], int | None] = {}
    coeffs: list[CycloInt] = []
    for n, counts in enumerate(_horner_counts(regime.ext, char.points, terms)):
        by_class = [0] * ell
        for state, cnt in counts.items():
            if state not in classes:
                classes[state] = exponent(state)
            e = classes[state]
            if e is not None:
                by_class[e] += cnt
        top = by_class[ell - 1]  # zeta**(ell-1) = -(1 + ... + zeta**(ell-2))
        acc = CycloInt(ell, (c - top for c in by_class[:-1]))
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
    """Sorted absolute values of the reciprocal-polynomial roots."""
    vals = [c.to_complex() for c in coeffs]
    while vals and abs(vals[-1]) < 1e-12:
        vals.pop()
    if not vals:
        raise DegenerateZeroPolynomial("all coefficients vanish")
    if len(vals) == 1:
        return []
    import numpy as np

    roots = np.roots(vals[::-1])
    mags = sorted(abs(complex(r)) for r in roots)
    for m in mags:
        if abs(m - 1.0) <= 1e-9:
            log.info("unit-circle zero: a root of modulus 1 occurred "
                     "(magnitudes %s)", mags)
    return mags


# ---------------------------------------------------------------------------
# Generating series for class-constrained branch tuples.

def g_series(regime: Regime, points, w, trunc: int) -> list[int]:
    """Integer coefficients, up to u**trunc, of the Euler product over base
    primes of degree divisible by n_q: factor 1 + (ell-1)u**d when the
    weighted class functional e_P = sum_i w_i * class_i(P) vanishes mod ell,
    and 1 - u**d otherwise.  Whether e_P vanishes does not depend on the
    anchoring rule, so the lex-least one is used; verify's
    labeling-invariance row checks that independence.
    """
    ell = regime.ell
    if any((x.ctx.p, x.ctx.k) != (regime.base.p, regime.base.k) for x in points):
        raise CtxMismatch("evaluation points must be base-field points")
    idx = tuple(x.val for x in points)
    if len(set(idx)) != len(idx):
        raise InvalidTuple("evaluation points must be distinct")
    w = tuple(wi % ell for wi in w)
    if len(w) != len(idx):
        raise InvalidTuple("weight vector length must match points")
    series = [0] * (trunc + 1)
    series[0] = 1
    for d in range(regime.n_q, trunc + 1, regime.n_q):
        for prime in primes_with_degree(regime.base, d):
            cls = prime_classes(regime, prime, "least")
            e_p = sum(wi * cls[i] for wi, i in zip(w, idx)) % ell
            top = ell - 1 if e_p == 0 else -1
            for r in range(trunc - d, -1, -1):
                if series[r]:
                    series[r + d] += top * series[r]
    return series


def count_constrained(regime: Regime, D: int, points, targets,
                      b: FieldElem, labeling: str = "least",
                      enum_cap: int = ENUM_D_CAP) -> int:
    """Branch tuples of degree D whose twisted model has class targets[i]
    at points[i], for the fixed twisting unit b.

    Computed two independent ways: direct enumeration with per-cover class
    evaluation, and the exact character average of the ell**k generating
    series; CrossCheckMismatch on any disagreement.
    """
    ell = regime.ell
    pts = tuple(points)
    targets = tuple(t % ell for t in targets)
    if len(targets) != len(pts):
        raise InvalidTuple("need one target class per point")
    k = len(pts)
    if k == 0:
        raise InvalidTuple("need at least one evaluation point")

    # Direct side.
    direct = 0
    for fs in enumerate_tuples(regime, D, max_D=enum_cap):
        params = CoverParams(regime, fs, b)
        model = twisted_model(params, labeling)
        ok = True
        for x, t in zip(pts, targets):
            cls = chi_class(model, x)
            if cls.is_zero_class:
                raise UnexpectedRoot(f"twisted model vanishes at x={x}")
            if cls.e != t:
                ok = False
                break
        if ok:
            direct += 1

    # Character-average side.
    c_b = (regime.n_q * lth_power_class(b, ell).e) % ell
    from itertools import product

    acc = CycloInt.from_int(ell, 0)
    for w in product(range(ell), repeat=k):
        coeff = g_series(regime, pts, w, D)[D]
        if coeff == 0:
            continue
        phase = (c_b * sum(w) - sum(wi * t for wi, t in zip(w, targets))) % ell
        acc = acc + CycloInt.zeta_pow(ell, phase) * coeff
    averaged = acc.exact_div(ell**k).as_int()

    if averaged != direct:
        raise CrossCheckMismatch(
            f"constrained count disagreement at D={D}: direct {direct}, "
            f"character average {averaged}")
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


def growth_check(regime: Regime, D: int, points, targets, b: FieldElem,
                 labeling: str = "least") -> GrowthReport:
    """Compare the constrained count against stratum_size / ell**k."""
    cnt = count_constrained(regime, D, points, targets, b, labeling,
                            enum_cap=max(D, ENUM_D_CAP))
    total = count_tuples(regime, D)
    if total == 0:
        raise InvalidTuple(f"empty stratum at degree {D}")
    ratio = Fraction(cnt * regime.ell ** len(tuple(points)), total)
    return GrowthReport(D, cnt, total, ratio)
