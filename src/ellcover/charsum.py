"""Point counting on cyclic covers via multiplicative character classes.

Every base-rational point x of the projective line gets a class in Z/ell:
the ell-th-power class of the twisted polynomial at x (at infinity, of its
leading coefficient).  The fiber over x holds ell rational points when the
class is 0 and none otherwise.  No rational point ramifies: every branch
prime has degree divisible by n_q >= 2, so the value never vanishes, and a
value that does raises UnexpectedRoot.  A brute-force oracle that scans the
whole extension field for ell-th roots confirms each fiber, and check_cover
holds one cover's model to the class vector and to that oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .coverparam import (
    CoverParams,
    Regime,
    TwistedModel,
    class_vector,
    twisted_model,
)
from .errors import CrossCheckMismatch, UnexpectedRoot
from .fqpoly import embed, poly_frobenius
from .gf import FieldCtx, FieldElem, embed_elem, lth_power_class


class _Infinity:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


def projective_points(regime: Regime) -> list:
    """The q+1 base-rational points: each field literal, then infinity."""
    return [regime.base.elem(v) for v in range(regime.base.order)] + [INFINITY]


def model_value(model: TwistedModel, x) -> FieldElem:
    """Value of the twisted polynomial at a base point (leading coefficient
    at infinity), as an extension-field element."""
    if x is INFINITY:
        return model.f_v0.lead
    return model.f_v0.eval(embed_elem(x, model.regime.ext))


def chi_class(model: TwistedModel, x) -> int:
    """Power class of the model at x, an exponent mod ell; UnexpectedRoot if
    the value vanishes."""
    val = model_value(model, x)
    if val.val == 0:
        raise UnexpectedRoot(f"twisted model vanishes at the rational point {x}")
    return lth_power_class(val, model.regime.ell)


def fiber_count(model: TwistedModel, x) -> int:
    """Rational points of the cover above x, from the character identity:
    summing the character over all ell classes leaves ell when the value is
    an ell-th power and 0 otherwise."""
    return model.regime.ell if chi_class(model, x) == 0 else 0


@lru_cache(maxsize=None)
def _lth_powers(ext: FieldCtx, ell: int) -> tuple[int, ...]:
    """y**ell for every literal y of ext, in literal order."""
    return tuple(ext.pow_i(y, ell) for y in range(ext.order))


def fiber_count_oracle(model: TwistedModel, x) -> int:
    """Independent count: scan the ell-th powers of every y in the extension
    for the value; at infinity the chart equation becomes y**ell == b**n_q."""
    reg, ext = model.regime, model.regime.ext
    if x is INFINITY:
        target = model.params.b ** reg.n_q
    else:
        target = model.f_v0.eval(embed_elem(x, ext))
    return _lth_powers(ext, reg.ell).count(target.val)


def point_count(model: TwistedModel) -> int:
    """Total rational points of the cover (all base points, infinity included)."""
    return sum(fiber_count(model, x) for x in projective_points(model.regime))


def point_count_oracle(model: TwistedModel) -> int:
    return sum(fiber_count_oracle(model, x) for x in projective_points(model.regime))


def check_cover(params: CoverParams,
                labeling: str = "least") -> tuple[TwistedModel, tuple[int, ...]]:
    """Build the cover's twisted model once and hold it to the independent
    computations: its components form a Frobenius cycle, are pairwise coprime
    and multiply to the embedded prod f_i**i; at each of the q+1 points its
    class equals the class vector's entry and its fiber the root scan.
    Returns the model and the class vector; CrossCheckMismatch names the
    first disagreement.  The class vector reads the base primes that the
    model's factorization validated, so each f_i is factored once."""
    reg = params.regime
    model = twisted_model(params, labeling)
    classes = class_vector(reg, model.stable.primes, params.b, labeling)

    def fail(what: str):
        return CrossCheckMismatch(f"{labeling} labeling, {params.fs}{what}")

    parts = model.stable.parts
    full = parts[0]
    for j, part in enumerate(parts):
        if poly_frobenius(part, reg.q) != parts[(j + 1) % reg.n_q]:
            raise fail(f": component {j + 1} is not conjugate to the next")
        if j:
            full = full * part
        if any(part.gcd(other).degree for other in parts[j + 1:]):
            raise fail(": components share a factor")
    f_total = params.fs[0]
    for i, f in enumerate(params.fs[1:], start=2):
        f_total = f_total * f ** i
    if full != embed(f_total, reg.ext):
        raise fail(": components do not multiply to the embedded branch product")
    for x, e in zip(projective_points(reg), classes):
        chi = chi_class(model, x)
        if chi != e:
            raise fail(f" at x={x}: model class {chi}, class vector {e}")
        fast, slow = reg.ell if chi == 0 else 0, fiber_count_oracle(model, x)
        if fast != slow:
            raise fail(f" at x={x}: fiber {fast} from the class, {slow} from the scan")
    return model, classes
