"""Branch data for prime-order cyclic covers of the projective line.

A cover is parametrized by a tuple (f_1, ..., f_{ell-1}) of monic, squarefree,
pairwise coprime polynomials over F_q whose prime factors all have degree
divisible by n_q (the multiplicative order of q mod ell), together with a
twisting unit b of the degree-n_q extension.  The regime requires n_q > 1:
q = 0 or 1 mod ell is rejected at construction.

The affine model lives over the extension: the embedded branch polynomial
splits into Frobenius-conjugate primes, which are grouped into the component
polynomials F_1, ..., F_{n_q} by anchoring each conjugacy orbit at its
lexicographically least member (a second, lex-greatest rule exists purely so
the test suite can show ensemble statistics do not depend on the choice).
The twisted polynomial multiplies F_j with exponent q**(1-j) mod ell and is
scaled so its leading coefficient is exactly b**n_q; the scaling constant is
an ell-th power, so every character value, hence every fiber count, agrees
with the unscaled product.  _split splits a base prime on literal sequences;
split_prime and prime_classes admit, prove and cache it, and a Monte Carlo
sample, whose draw proved it, splits it by _split alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import mul
from random import Random

from . import _gf2
from .errors import (
    BudgetExceeded,
    CharacteristicDividesEll,
    CrossCheckMismatch,
    CtxMismatch,
    EmptyStratum,
    InvalidTuple,
    KummerRegime,
    NotPrime,
    TooLarge,
    UnexpectedRoot,
)
from .fqpoly import (
    Poly,
    _factor_fold,
    _frobenius_table,
    _gcd_coeffs,
    _monic_irreducible,
    _mul_coeffs,
    _packed,
    _pow_mod_coeffs,
    _random_coeffs,
    _random_literals,
    _trim,
    _trusted,
    factor,
    irreducible,
    necklace_count,
    primes_with_degree,
)
from .gf import (
    FIELD_ORDER_CAP,
    FieldElem,
    is_prime_int,
    lth_power_class,
    make_field,
    prime_power,
    subfield_table,
)

ENUM_D_CAP = 16
# table steps of any exact count (stratum, law, constrained count, L-series),
# each added up by its entry point and checked by _check_steps before any work
KERNEL_STEP_CAP = 1 << 22
# _draw_prime holds its decision on each candidate of degree d over F_q,
# 2 < q < 256, for the process when q**d is at most this: that degree then
# costs at most q**d tests, and its held table at most q**d entries of d + 1
# bytes (6 561 for F_3 at degree 8).  A drawn prime of degree d has its classes
# stored when necklace_count(q, d) is at most this, else its sample's alone.
DRAW_SIEVE_CAP = 1 << 13
LABELINGS = ("least", "greatest")  # anchoring rules for Frobenius orbits
EQUAL_DEGREE_DRAWS = 64  # z that _split tries: x + a for every a, then seeded


def _check_steps(steps: int, what: str) -> None:
    if steps > KERNEL_STEP_CAP:
        raise BudgetExceeded(f"{what} takes about {steps} table steps, "
                             f"over the cap {KERNEL_STEP_CAP}")


def _quotient_sums(M: int) -> tuple[int, int]:
    """(sum of M // c, sum of m // c over m = 0..M) over c = 1..M, one term
    per run lo..hi of c with equal Q = M // c, at most 2 * sqrt(M) runs: for
    each c the sum over m is (M + 1) * Q - c * Q * (Q + 1) / 2."""
    single = double = 0
    lo = 1
    while lo <= M:
        Q, hi = M // lo, M // (M // lo)
        single += (hi - lo + 1) * Q
        double += (hi - lo + 1) * Q * (4 * M + 4 - (Q + 1) * (hi + lo)) // 4
        lo = hi + 1
    return single, double


def _check_labeling(labeling: str) -> None:
    if labeling not in LABELINGS:
        raise ValueError(f"unknown labeling rule {labeling!r}")


def check_regime(q: int, ell: int) -> tuple[int, int, int]:
    """(p, k, n_q) for q = p**k and n_q the order of q mod ell, building no
    field: TooLarge, NotPrime, CharacteristicDividesEll or KummerRegime where
    (q, ell) is outside the supported regimes."""
    # The caps come before trial divisions that would not finish on huge
    # inputs.  The extension holds the ell-th roots of unity: q**n_q > ell.
    if q > FIELD_ORDER_CAP:
        raise TooLarge(f"field order {q} exceeds cap {FIELD_ORDER_CAP}")
    p, k = prime_power(q)
    if ell >= FIELD_ORDER_CAP:
        raise TooLarge(f"cover order {ell} needs an extension of order "
                       f"above the cap {FIELD_ORDER_CAP}")
    if not is_prime_int(ell):
        raise NotPrime(f"cover order {ell} is not prime")
    if ell == p:
        raise CharacteristicDividesEll(
            f"ell == characteristic {p}: the cover map is inseparable")
    n_q, acc, ext_order = 1, q % ell, q
    while acc != 1:
        acc = (acc * q) % ell
        n_q += 1
        ext_order *= q
        if ext_order > FIELD_ORDER_CAP:
            raise TooLarge(f"extension order {q}**{n_q} or more exceeds "
                           f"cap {FIELD_ORDER_CAP}")
    if n_q == 1:
        raise KummerRegime(
            f"q = {q} is 1 mod {ell}: this is the classical Kummer case, "
            "outside the supported regime")
    return p, k, n_q


class Regime:
    """A (q, ell) pair with its contexts, caches, and twist exponents.  The
    stores hold each prime that split_prime or prime_classes proves, and the
    classes of the drawn primes at or below DRAW_SIEVE_CAP's line."""

    __slots__ = ("q", "ell", "p", "k", "n_q", "base", "ext", "v_exps", "cosets",
                 "_split_cache", "_class_cache", "_suffix", "_lines")

    def __init__(self, q: int, ell: int):
        p, k, n_q = check_regime(q, ell)
        self.q = q
        self.ell = ell
        self.p = p
        self.k = k
        self.n_q = n_q
        self.base = make_field(p, k)
        self.ext = make_field(p, k * n_q)
        subfield_table(self.base, self.ext)  # warm the embedding
        inv_q = pow(q % ell, ell - 2, ell)
        v, exps = 1, []
        for _ in range(n_q):
            exps.append(v)
            v = (v * inv_q) % ell
        self.v_exps = tuple(exps)  # v_j = q**(1-j) mod ell, j = 1..n_q
        # the least member of each coset r<q> of (Z/ell)*; the v_j make up <q>
        cosets, seen = [], set()
        for r in range(1, ell):
            if r not in seen:
                cosets.append(r)
                seen.update(r * v % ell for v in exps)
        self.cosets = tuple(cosets)
        self._split_cache: dict = {}
        # labeling -> prime coefficients -> classes at the affine points
        self._class_cache: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {
            labeling: {} for labeling in LABELINGS}
        self._suffix: tuple[list[list[int]], list[list[int]]] = ([], [[1]])
        # sorted base-point literals -> lseries._LineKernel, built on first use
        self._lines: dict = {}

    def __repr__(self) -> str:
        return f"Regime(q={self.q}, ell={self.ell}, n_q={self.n_q})"

    def to_json_dict(self) -> dict:
        """The regime block of every JSON report."""
        return {"q": self.q, "ell": self.ell, "n_q": self.n_q, "p": self.p,
                "k": self.k, "modulus": ",".join(map(str, self.ext.modulus))}


@lru_cache(maxsize=None)
def make_regime(q: int, ell: int) -> Regime:
    return Regime(q, ell)


@dataclass(frozen=True, eq=False)
class CoverParams:
    """Branch tuple plus twisting unit; validate with validate_params."""

    regime: Regime
    fs: tuple[Poly, ...]
    b: FieldElem

    @property
    def branch_degree(self) -> int:
        return sum(f.degree for f in self.fs)


def is_n_divisible(f: Poly, n: int) -> bool:
    """Monic with every prime factor degree divisible by n (true for 1)."""
    if n < 1:
        raise ValueError("degree divisor must be positive")
    if f.is_zero:
        raise InvalidTuple("zero polynomial in a branch tuple")
    if not f.is_monic:
        return False
    return all(prime.degree % n == 0 for prime, _ in factor(f))


def validate_params(params: CoverParams) -> list[tuple[Poly, int]]:
    """Raise InvalidTuple unless params parametrizes a cover; else list each
    base prime with its slot i, the index of the f_i it divides, in slot
    order.  Each f_i is factored once, and the factorizations also decide
    coprimality: a prime met in two slots is a shared factor."""
    reg = params.regime
    if len(params.fs) != reg.ell - 1:
        raise InvalidTuple(
            f"expected {reg.ell - 1} branch polynomials, got {len(params.fs)}")
    prime_mults: list[tuple[Poly, int]] = []
    slot_of: dict[tuple[int, ...], int] = {}
    shared = None
    for i, f in enumerate(params.fs, start=1):
        if f.is_zero:
            raise InvalidTuple(f"f_{i} is zero")
        if (f.ctx.p, f.ctx.k) != (reg.base.p, reg.base.k):
            raise CtxMismatch(f"f_{i} is not over the base field")
        if not f.is_monic:
            raise InvalidTuple(f"f_{i} is not monic")
        if f.degree == 0:  # the constant 1 has no prime factor
            continue
        fac = factor(f)
        if any(mult > 1 for _, mult in fac):
            raise InvalidTuple(f"f_{i} is not squarefree")
        if any(prime.degree % reg.n_q for prime, _ in fac):
            raise InvalidTuple(
                f"f_{i} has a prime factor of degree not divisible by {reg.n_q}")
        for prime, _ in fac:
            first = slot_of.setdefault(prime.coeffs, i)
            if first != i:
                shared = min(shared or (first, i), (first, i))
            prime_mults.append((prime, i))
    if shared:
        raise InvalidTuple(f"f_{shared[0]} and f_{shared[1]} share a factor")
    _check_unit(reg, params.b)
    return prime_mults


def _check_unit(regime: Regime, b: FieldElem) -> None:
    if not isinstance(b, FieldElem) or (b.ctx.p, b.ctx.k) != (regime.ext.p, regime.ext.k):
        raise CtxMismatch("twisting unit is not in the extension field")
    if b.val == 0:
        raise InvalidTuple("twisting unit is zero")


def genus_of(params: CoverParams) -> int:
    """Genus of the cover: (ell-1)*(D-2)/2 for branch degree D >= 2."""
    validate_params(params)
    ell = params.regime.ell
    d = params.branch_degree
    if d < 2:
        raise InvalidTuple("degenerate branch tuple of degree 0 has no curve")
    return (ell - 1) * (d - 2) // 2


def admissible_D(regime: Regime, g: int) -> int | None:
    """Branch degree realizing genus g, or None when the stratum is empty."""
    return _admissible_degree(regime.ell, regime.n_q, g)


def _admissible_degree(ell: int, n_q: int, g: int) -> int | None:
    """admissible_D from ell and n_q, building no field."""
    if g < 0:
        return None
    num = 2 * g + 2 * ell - 2
    if num % (ell - 1):
        return None
    d = num // (ell - 1)
    return d if d % n_q == 0 else None


# ---------------------------------------------------------------------------
# Conjugacy-stable splitting over the extension.

def split_prime(regime: Regime, prime: Poly, labeling: str = "least") -> tuple[Poly, ...]:
    """_split's orbit, cached: the regime keeps one orbit per prime, from
    its lex-least member, and the lex-greatest rule rotates it.  Each call
    admits prime (_admit); a new prime is proved before it is stored, by one
    of two tests that prove the same: a prime of degree n_q*m over F_q splits
    over F_Q, of degree n_q over F_q, into n_q primes of degree m, so a factor
    a of degree m of a prime P is prime; and a prime a whose n_q conjugates
    multiply to P makes P prime.  Over a base that packs (_packed), P is
    tested over F_q, where a residue screen decides it in microseconds;
    over every other base, whose kernels run in logs, a is tested over F_Q,
    where Ben-Or's rounds on degree m cost less.  A drawn prime never comes
    here: its draw proved it, and its sample splits it by _split."""
    _check_labeling(labeling)
    _admit(regime, prime)
    orbit = regime._split_cache.get(prime.coeffs)
    if orbit is None:
        orbit = _anchored(_split(regime, prime), "least")
        if not irreducible(prime if _packed(regime.base) else orbit[0]):
            raise CrossCheckMismatch(f"no prime factor of degree {orbit[0].degree} "
                                     "found: the input is not prime")
        regime._split_cache[prime.coeffs] = orbit
    return orbit if labeling == "least" else _anchored(orbit, labeling)


def _admit(regime: Regime, prime: Poly) -> None:
    """The stores' entry check: prime over the base, of degree n_q*m, m >= 1."""
    if (prime.ctx.p, prime.ctx.k) != (regime.base.p, regime.base.k):
        raise CtxMismatch("prime is not over the base field")
    if prime.degree < 1 or prime.degree % regime.n_q:
        raise InvalidTuple(f"prime degree {prime.degree} is not a positive "
                           f"multiple of n_q = {regime.n_q}")


def _anchored(orbit: tuple[Poly, ...], labeling: str) -> tuple[Poly, ...]:
    """orbit from its lex-least (or lex-greatest) member."""
    a = (min if labeling == "least" else max)(range(len(orbit)),
                                              key=lambda j: orbit[j].sort_key())
    return orbit[a:] + orbit[:a]


def _split(regime: Regime, prime: Poly) -> tuple[Poly, ...]:
    """Frobenius orbit of extension primes over a base prime.

    prime must be monic irreducible over the base of degree n = n_q*m, as
    split_prime or a draw proved it; the result lists its n_q conjugate
    factors of degree m over F_Q, each the coefficient-wise q-th power of
    its predecessor, from the one a coset gcd found: _anchored anchors it.

    This is the one split of a base prime P.  F_q has no primitive ell-th
    root of unity, but F_q[x]/P does: y = z**((q**n - 1) / ell) mod P is one
    unless z is 0 or an ell-th power mod P, where y is 0 or 1.  At the roots
    of the i-th conjugate factor y is w**(s * q**i), w = g**((Q - 1) / ell)
    in F_Q and s prime to ell, and these n_q values are distinct, so
    gcd(P, y - w**r) over F_Q is one conjugate factor when r lies in the
    coset s<q> of (Z/ell)* and 1 otherwise.  z is x + a for each literal a
    (a lane shift and a scalar step per multiply over a packed base), then
    random z(x) seeded by the prime, up to the first y not in {0, 1}; the
    anchored orbit does not depend on z.  r runs over regime.cosets, the
    cosets' least members, up to the first gcd that is not 1.  One pass on
    literal sequences, Polys built for the returned orbit alone.  Over (2,3)
    the orbit checks prime_classes' packed factor from _gf2 from outside.

    A reducible input fails one of these checks with CrossCheckMismatch, or
    else split_prime's prime test: a y not in {0, 1} within
    EQUAL_DEGREE_DRAWS tries, a gcd other than 1 at some coset, a factor of
    degree m, n_q distinct conjugates, the Frobenius of the last the first,
    and their product the embedded prime.
    """
    n_q, q, ell, ext = regime.n_q, regime.q, regime.ell, regime.ext
    n, rng = prime.degree, None
    for t in range(EQUAL_DEGREE_DRAWS):
        if t < q:
            z = [t, 1]
        else:
            rng = rng or Random(_factor_fold(prime))
            z = _trim(_random_coeffs(rng, q, n))
        y = _pow_mod_coeffs(regime.base, z, (q ** n - 1) // ell, prime.coeffs)
        if y not in ([], [1]):
            break
    else:
        raise CrossCheckMismatch(
            f"no root of unity other than 1 found in {EQUAL_DEGREE_DRAWS} tries: "
            "the input is not prime")
    table = subfield_table(regime.base, ext)
    y = [table[c] for c in y]
    embedded, step = [table[c] for c in prime.coeffs], (ext.order - 1) // ell
    for r in regime.cosets:
        a = _gcd_coeffs(ext, embedded, _trim([ext.sub_i(y[0], ext.exp[r * step])] + y[1:]))
        if len(a) > 1:
            break
    else:
        raise CrossCheckMismatch(
            f"y - w**r is prime to the input for every coset r<{q}> of "
            f"(Z/{ell})*: the input is not prime")
    m = n // n_q
    if len(a) != m + 1:
        raise CrossCheckMismatch(
            f"no prime factor of degree {m} found: the input is not prime")
    inv, frob = ext.inv_i(a[-1]), _frobenius_table(ext, q)
    walk = [tuple(ext.mul_i(inv, c) for c in a)]
    for _ in range(n_q - 1):
        walk.append(tuple([frob[c] for c in walk[-1]]))
    if len(set(walk)) != n_q:
        raise CrossCheckMismatch("embedded prime did not split into n_q conjugates")
    if tuple([frob[c] for c in walk[-1]]) != walk[0]:
        raise CrossCheckMismatch("conjugates do not form a single Frobenius orbit")
    if reduce(lambda f, g: _mul_coeffs(ext, f, g), walk) != embedded:
        raise CrossCheckMismatch(
            "orbit product does not recover the embedded prime")
    return tuple(_trusted(ext, list(w)) for w in walk)


def prime_classes(regime: Regime, prime: Poly, labeling: str = "least") -> tuple[int, ...]:
    """_prime_classes cached per labeling on the regime, splitting through
    split_prime, each call admitting prime (_admit): every prime of a
    budgeted enumeration or a given tuple; a hit may read a drawn prime
    that a Monte Carlo sample classed by _split."""
    _check_labeling(labeling)
    _admit(regime, prime)
    cache = regime._class_cache[labeling]
    classes = cache.get(prime.coeffs)
    if classes is None:
        classes = cache[prime.coeffs] = _prime_classes(regime, prime, labeling, split_prime)
    return classes


def _prime_classes(regime: Regime, prime: Poly, labeling: str, split,
                   factor: tuple[int, int] | None = None) -> tuple[int, ...]:
    """Class c_P(x) of the anchored extension factor of prime at every
    affine base point x, in literal order, caching nothing.

    The value never vanishes: a rational point is not a root of a prime whose
    degree is a multiple of n_q > 1.  Over F_2 with n_q = 2 the values are
    read off the bit-packed halves (lo, hi) of a monic factor A = lo + rho*hi
    over F_4, without an orbit: factor, where a draw's proof found it, else
    _gf2.conjugate_factor_coeffs', which proves prime.  A(0) is the low bits
    of the halves and A(1) their parities.  Every other regime reads them off
    the labeling's anchor of split(regime, prime), split_prime or _split,
    its least (or greatest) literal tuple, by Horner on extension literals.
    """
    ext = regime.ext
    if regime.q == 2 and regime.n_q == 2:
        if factor is None:
            factor = _gf2.conjugate_factor_coeffs(_gf2.from_literals(prime.coeffs))
        lo, hi = factor
        # A and its conjugate (lo + hi) + rho*hi differ where hi has bits, and
        # the lex-least has rho at the lowest of them
        if bool(lo & hi & -hi) != (labeling == "greatest"):
            lo ^= hi
        values = [(lo & 1) | (hi & 1) << 1, lo.bit_count() & 1 | (hi.bit_count() & 1) << 1]
    else:
        anchor = (min if labeling == "least" else max)(f.coeffs for f in split(regime, prime))
        values = [reduce(lambda acc, c: ext.add_i(ext.mul_i(acc, xv), c), anchor[::-1], 0)
                  for xv in subfield_table(regime.base, ext)]
    if 0 in values:
        raise UnexpectedRoot(f"prime {prime!r} vanishes at a rational point")
    return tuple(ext.log[v] % regime.ell for v in values)


def class_vector(regime: Regime, prime_mults, b: FieldElem,
                 labeling: str = "least", classes=None) -> tuple[int, ...]:
    """Power classes of the twisted model at the q+1 rational points, affine
    points in literal order and then infinity, without building the model.

    Frobenius fixes a rational point x, so the j-th conjugate factor of P takes
    class q**(j-1) * c_P(x) there, which the twist exponent v_j = q**(1-j)
    cancels: the class at x is n_q * (e(b) + sum_P slot(P) * c_P(x)) mod ell,
    and n_q * e(b) at infinity, where only the leading coefficient b**n_q is
    left.  prime_mults lists each base prime with its slot, and classes
    their classes as _sample_full gives them, else prime_classes gives them.
    """
    ell, n_q = regime.ell, regime.n_q
    if classes is None:
        classes = [prime_classes(regime, prime, labeling) for prime, _ in prime_mults]
    e_b = lth_power_class(b, ell)
    acc = [e_b] * regime.base.order
    for (_, slot), row in zip(prime_mults, classes):
        for i, c in enumerate(row):
            acc[i] += slot * c
    return tuple(n_q * a % ell for a in acc) + (n_q * e_b % ell,)


@dataclass(frozen=True, eq=False)
class StableFactorization:
    """Components F_1..F_{n_q}: conjugate, pairwise coprime, product embed(F);
    primes lists each base prime with its slot, as validate_params gave them."""

    regime: Regime
    parts: tuple[Poly, ...]
    labeling: str
    primes: tuple[tuple[Poly, int], ...]


def _parts_from_primes(regime: Regime, prime_mults, labeling: str) -> tuple[Poly, ...]:
    parts = [Poly.one(regime.ext) for _ in range(regime.n_q)]
    for prime, mult in prime_mults:
        orbit = split_prime(regime, prime, labeling)
        for j in range(regime.n_q):
            parts[j] = parts[j] * orbit[j] ** mult
    return tuple(parts)


def stable_factorization(params: CoverParams, labeling: str = "least") -> StableFactorization:
    """Group the embedded branch primes into conjugate components."""
    reg = params.regime
    primes = tuple(validate_params(params))
    return StableFactorization(reg, _parts_from_primes(reg, primes, labeling), labeling, primes)


@dataclass(frozen=True, eq=False)
class TwistedModel:
    """The polynomial whose ell-th root cut defines the affine model.

    f_v0 = b**n_q * prod_j F_j**v_j with v_j = q**(1-j) mod ell; its leading
    coefficient is exactly b**n_q and its degree is divisible by ell.
    """

    regime: Regime
    params: CoverParams
    labeling: str
    stable: StableFactorization
    f_v0: Poly


def _model_from_parts(regime: Regime, stable: StableFactorization,
                      b: FieldElem, params: CoverParams) -> TwistedModel:
    monic_part = Poly.one(regime.ext)
    for part, v in zip(stable.parts, regime.v_exps):
        monic_part = monic_part * part ** v
    lead = b ** regime.n_q
    f_v0 = monic_part.scale(lead)
    if f_v0.degree % regime.ell or f_v0.lead != lead:
        raise CrossCheckMismatch("twisted degree not 0 mod ell, or lead not b**n_q")
    return TwistedModel(regime, params, stable.labeling, stable, f_v0)


def twisted_model(params: CoverParams, labeling: str = "least") -> TwistedModel:
    """Build the twisted polynomial for validated parameters."""
    stable = stable_factorization(params, labeling)
    return _model_from_parts(params.regime, stable, params.b, params)


def power_orbit(params: CoverParams, r: int) -> CoverParams:
    """The parameter transform (F, b) -> (F**r, b**r), reduced so every
    branch exponent stays in 1..ell-1: slot i moves to slot i*r mod ell."""
    ell = params.regime.ell
    if not 1 <= r < ell:
        raise ValueError(f"power must be a unit exponent in 1..{ell - 1}")
    new_fs: list[Poly | None] = [None] * (ell - 1)
    for i, f in enumerate(params.fs, start=1):
        new_fs[(i * r) % ell - 1] = f
    return CoverParams(params.regime, tuple(new_fs), params.b ** r)


# ---------------------------------------------------------------------------
# The stratum of fixed branch degree: enumeration, counting, sampling.

def _degree_classes(regime: Regime, D: int) -> list[int]:
    return list(range(regime.n_q, D + 1, regime.n_q))


def _tuple_from_primes(regime: Regime, prime_mults) -> tuple[Poly, ...]:
    """The branch tuple whose f_i is the product of the primes in slot i."""
    fs = [Poly.one(regime.base) for _ in range(regime.ell - 1)]
    for prime, slot in prime_mults:
        fs[slot - 1] = fs[slot - 1] * prime
    return tuple(fs)


def check_enum_budget(D: int) -> None:
    """BudgetExceeded if enumerating the tuples of degree D is over ENUM_D_CAP."""
    if D > ENUM_D_CAP:
        raise BudgetExceeded(f"enumeration at degree {D} exceeds cap {ENUM_D_CAP}")


def _enumerate_full(regime: Regime, D: int):
    """An iterator of prime_mults, each prime with its slot, for every branch
    tuple of degree D, in the order of enumerate_tuples; ensembles read these
    lists and never build or factor the tuple itself.  ValueError for D < 0
    and BudgetExceeded for D > ENUM_D_CAP come from the call, before the walk.
    """
    if D < 0:
        raise ValueError("branch degree must be non-negative")
    check_enum_budget(D)
    ell = regime.ell
    if D % regime.n_q:
        return iter(())
    from itertools import combinations, product

    classes = _degree_classes(regime, D)

    def rec(idx: int, rem: int, chosen: list[Poly]):
        if rem == 0:
            for slots in product(range(1, ell), repeat=len(chosen)):
                yield list(zip(chosen, slots))
            return
        if idx == len(classes):
            return
        d = classes[idx]
        pool = primes_with_degree(regime.base, d)
        for m in range(min(len(pool), rem // d) + 1):
            for combo in combinations(pool, m):
                yield from rec(idx + 1, rem - m * d, chosen + list(combo))

    return rec(0, D, [])


def enumerate_tuples(regime: Regime, D: int):
    """All branch tuples of degree D, in a fixed canonical order.

    Chooses a set of distinct primes with degree sum D (grouped by degree,
    primes ascending) and distributes them over the ell-1 slots; the stream
    is empty exactly when n_q does not divide D.
    """
    for prime_mults in _enumerate_full(regime, D):
        yield _tuple_from_primes(regime, prime_mults)


def count_tuples(regime: Regime, D: int) -> int:
    """Size of the degree-D stratum, from the stratum table; ValueError if D < 0."""
    if D > 0 and D % regime.n_q:
        return 0
    return _suffix_table(regime, D)[1][0][D // regime.n_q]


def _stratum_steps(M: int) -> int:
    """Table steps of a stratum table to M = D // n_q: m // c + 1 terms for
    each degree class c and each m <= M."""
    return M * (M + 1) + _quotient_sums(M)[1]


def check_stratum_budget(n_q: int, D: int) -> None:
    """BudgetExceeded when the stratum table to degree D >= 0 is over
    KERNEL_STEP_CAP.  Any regime charges this, a fresh table's steps, where
    its table does not yet reach D, so the check needs n_q and no field; a
    held table that reaches D was admitted at a degree no lower."""
    _check_steps(_stratum_steps(D // n_q), f"the stratum count at degree {D}")


def _suffix_table(regime: Regime, D: int) -> tuple[list[list[int]], list[list[int]]]:
    """The regime's one stratum table in units of n_q, extended to reach M =
    D // n_q: weights[c - 1][j] = comb(N, j) * (ell - 1)**j for the N primes
    of degree n_q * c, j <= M // c, and suffix[i][m] the tuples of degree
    n_q * m whose primes all have degree above n_q * i.  No entry at m <= H,
    the held M, reads a class above m, so only columns m > H are filled."""
    if D < 0:
        raise ValueError("branch degree must be non-negative")
    weights, suffix = regime._suffix
    H, M = len(suffix) - 1, D // regime.n_q
    if M <= H:
        return regime._suffix
    check_stratum_budget(regime.n_q, D)
    weights.extend([] for _ in range(M - len(weights)))
    for c, row in enumerate(weights, start=1):
        n = necklace_count(regime.q, regime.n_q * c)
        row += [comb(n, j) * (regime.ell - 1) ** j for j in range(len(row), M // c + 1)]
    # new lists, swapped in whole, so an interrupted extension leaves the held table
    suffix = [row + [0] * (M - H) for row in suffix] + [[1] + [0] * M for _ in range(M - H)]
    for c in range(M, 0, -1):  # top class down
        row, nxt, cur = weights[c - 1], suffix[c], suffix[c - 1]
        for m in range(H + 1, M + 1):
            cur[m] = sum(map(mul, row, nxt[m::-c]))
    regime._suffix = weights, suffix
    return regime._suffix


# base (p, k) and degree d -> the primality of each monic candidate of degree
# d tested so far, keyed by its drawn literals, for q**d <= DRAW_SIEVE_CAP
_held_decisions: dict[tuple[int, int, int], dict[bytes, bool]] = {}


def _draw_prime(regime: Regime, d: int, rng: Random) -> tuple[Poly, tuple[int, int] | None]:
    """Uniform random monic irreducible of degree d over the base field, by
    rejection: the first of the monic candidates drawn from rng that is
    prime, with the packed factor over F_4 that its proof found, or None.

    Over F_2 candidates are bit-packed, and the bits reject the multiples of
    x and x + 1 (d >= n_q >= 2, so neither is a candidate).  Over (2,3) at
    even degree d >= 2*_gf2.SCREEN_DEGREE + 2 = 18, _gf2.passes_screen
    rejects those of any prime of degree 2 to 8, and _gf2.prime_factor
    decides the rest by the orbit proof that also gives the prime's factor
    over F_4, returned with it so that the prime is proved once.  Every
    other F_2 candidate is decided by _gf2.is_irreducible, the same screens
    and then Ben-Or's gcds.

    Over every other field a candidate's d literals are those of d calls of
    rng.randrange(q), decoded in bulk as bytes by _random_literals below
    q = 256 and drawn by _random_coeffs from 256 on, and fqpoly's one rule
    (_monic_irreducible) decides it on them.  Where q**d <= DRAW_SIEVE_CAP
    each decision is held for the process, keyed by the candidate's
    literals, so a degree costs at most q**d tests however many candidates
    it draws; above the cap each candidate is tested.  Each way decides
    primality, so the draws and the decisions, hence the stream, are the
    same.  Candidates skip Poly's validation: every literal is drawn in
    range.
    """
    base = regime.base
    q = base.order
    if q == 2:
        getrandbits, top = rng.getrandbits, 1 << d
        proof = regime.n_q == 2 and d >= 2 * _gf2.SCREEN_DEGREE + 2 and not d % 2
        while True:
            mask = getrandbits(d)
            # x divides an even mask plus x**d, and x + 1 one of even weight
            if not mask & 1 or mask.bit_count() & 1:
                continue
            f = top | mask
            if not proof:
                if _gf2.is_irreducible(f):
                    return _trusted(base, _gf2.to_literals(f)), None
            elif _gf2.passes_screen(f):
                factor = _gf2.prime_factor(f)
                if factor is not None:
                    return _trusted(base, _gf2.to_literals(f)), factor
    held = (_held_decisions.setdefault((base.p, base.k, d), {})
            if q ** d <= DRAW_SIEVE_CAP else None)
    while True:
        if q < 256:
            cand = _random_literals(rng, q, d) + b"\1"
        else:
            cand = (*_random_coeffs(rng, q, d), 1)
        if held is None:
            prime = _monic_irreducible(base, cand)
        else:
            prime = held.get(cand)
            if prime is None:
                prime = held[cand] = _monic_irreducible(base, cand)
        if prime:
            return _trusted(base, list(cand)), None


def _randbelow(getrandbits, n: int) -> int:
    """rng.randrange(n) for n >= 1, in value and in the generator state after
    it, from getrandbits = rng.getrandbits: CPython draws k = n.bit_length()
    bits, again while they are n or more.  n = 1 still draws a word, again
    until its top bit is 0."""
    if n < 1:
        raise ValueError(f"no draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample_full(regime: Regime, D: int, rng: Random,
                 labeling: str | None = None):
    """Draw one cover as (prime_mults, b, rows): each drawn prime with its
    slot index, the twisting unit, and with a labeling each prime's classes
    in it, in prime_mults order (rows is None without one).  Each prime is
    proved by its draw alone and classed by _prime_classes, over (2,3) from
    the factor the proof found, if any, and elsewhere from _split.  The
    regime's class store holds those of a degree d with at most
    DRAW_SIEVE_CAP primes over F_q; every other one is this sample's alone.

    Every draw is rng.randrange's, in value and in generator state: one per
    degree class for its prime count, one per prime for its slot, and one
    for the unit, each from the generator's words by _randbelow."""
    ell, n_q = regime.ell, regime.n_q
    if D % n_q:
        raise EmptyStratum(f"no branch tuple of degree {D} for {regime!r}")
    weights, suffix = _suffix_table(regime, D)
    getrandbits = rng.getrandbits
    prime_mults: list[tuple[Poly, int]] = []
    rows: list[tuple[int, ...]] | None = None if labeling is None else []
    rem = D // n_q
    # one draw per class up to this degree, however far the table reaches;
    # once rem is 0 each class left draws below suffix[c - 1][0] = 1
    classes = zip(range(1, rem + 1), weights)
    for c, row in classes:
        target = _randbelow(getrandbits, suffix[c - 1][rem])
        j, nxt = 0, suffix[c]
        w = nxt[rem]  # row[0] = 1: no prime of degree n_q * c
        while target >= w:
            target -= w
            j += 1
            w = row[j] * nxt[rem - j * c]
        if j:
            # row[1] = (ell - 1) * necklace_count(q, n_q * c); above the line
            # the classes go to a store that this sample drops
            stored = row[1] <= DRAW_SIEVE_CAP * (ell - 1)
            store = regime._class_cache[labeling] if stored and labeling else {}
            seen: set[tuple[int, ...]] = set()
            for _ in range(j):
                while True:
                    prime, factor = _draw_prime(regime, n_q * c, rng)
                    if prime.coeffs not in seen:
                        seen.add(prime.coeffs)
                        break
                prime_mults.append((prime, 1 + _randbelow(getrandbits, ell - 1)))
                if rows is not None:
                    got = store.get(prime.coeffs) or _prime_classes(
                        regime, prime, labeling, _split, factor)
                    rows.append(store.setdefault(prime.coeffs, got))
            rem -= j * c
            if not rem:
                break
    for _ in classes:
        _randbelow(getrandbits, 1)
    b = FieldElem(regime.ext, 1 + _randbelow(getrandbits, regime.ext.order - 1))
    return prime_mults, b, rows


def sample_params(regime: Regime, D: int, seed: int, index: int = 0) -> CoverParams:
    """Uniform sample from branch tuples of degree D times extension units.

    Streams are keyed by (seed, index), so batches may be drawn in any order
    or split across workers without changing any individual draw.
    """
    prime_mults, b, _ = _sample_full(regime, D, Random(f"{seed}:{index}"))
    return CoverParams(regime, _tuple_from_primes(regime, prime_mults), b)
