"""Point counting on cyclic covers via multiplicative character classes.

Every base-rational point x of the projective line gets a class in Z/ell:
the ell-th-power class of the twisted polynomial at x (at infinity, of its
leading coefficient).  The fiber over x holds ell rational points when the
class is 0 and none otherwise.  No rational point ramifies: every branch
prime has degree divisible by n_q >= 2, so the value never vanishes, and a
value that does raises UnexpectedRoot.  A brute-force oracle that scans the
whole extension field for ell-th roots confirms each fiber.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coverparam import Regime, TwistedModel
from .errors import UnexpectedRoot
from .gf import CharClass, FieldElem, embed_elem, lth_power_class


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


def chi_class(model: TwistedModel, x) -> CharClass:
    """Power class of the model at x; UnexpectedRoot if the value vanishes."""
    val = model_value(model, x)
    if val.val == 0:
        raise UnexpectedRoot(f"twisted model vanishes at the rational point {x}")
    return lth_power_class(val, model.regime.ell)


def fiber_count(model: TwistedModel, x) -> int:
    """Rational points of the cover above x, from the character identity:
    summing the character over all ell classes leaves ell when the value is
    an ell-th power and 0 otherwise."""
    return chi_class(model, x).zeta_sum()


def fiber_count_oracle(model: TwistedModel, x) -> int:
    """Independent count: scan every y in the extension for y**ell == value;
    at infinity the model's chart equation becomes y**ell == b**n_q."""
    reg, ext = model.regime, model.regime.ext
    if x is INFINITY:
        target = model.params.b ** reg.n_q
    else:
        target = model.f_v0.eval(embed_elem(x, ext))
    return sum(ext.pow_i(y, reg.ell) == target.val for y in range(ext.order))


def point_count(model: TwistedModel) -> int:
    """Total rational points of the cover (all base points, infinity included)."""
    return sum(fiber_count(model, x) for x in projective_points(model.regime))


def point_count_oracle(model: TwistedModel) -> int:
    return sum(fiber_count_oracle(model, x) for x in projective_points(model.regime))


@dataclass(frozen=True)
class FiberProfile:
    """Per-point classes and counts for one cover."""

    classes: tuple[CharClass, ...]
    counts: tuple[int, ...]
    total: int


def fiber_profile(model: TwistedModel) -> FiberProfile:
    pts = projective_points(model.regime)
    classes = tuple(chi_class(model, x) for x in pts)
    counts = tuple(c.zeta_sum() for c in classes)
    return FiberProfile(classes, counts, sum(counts))

