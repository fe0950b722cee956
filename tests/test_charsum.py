"""Fiber counts from character classes against exhaustive root scans."""

import pytest

import ellcover as ec


R23 = ec.make_regime(2, 3)
R53 = ec.make_regime(5, 3)
R25 = ec.make_regime(2, 5)
R27 = ec.make_regime(2, 7)


def covers(reg, degrees, unit_cap=None):
    cap = reg.ext.order if unit_cap is None else min(reg.ext.order, unit_cap + 1)
    for D in degrees:
        for fs in ec.enumerate_tuples(reg, D):
            for bv in range(1, cap):
                yield ec.CoverParams(reg, fs, reg.ext.elem(bv))


def test_projective_points():
    pts = ec.projective_points(R23)
    assert len(pts) == 3
    assert pts[-1] is ec.INFINITY
    assert [p.val for p in pts[:-1]] == [0, 1]
    pts5 = ec.projective_points(R53)
    assert len(pts5) == 6
    assert repr(ec.INFINITY) == "INFINITY"


def test_infinity_is_a_singleton():
    from ellcover.charsum import _Infinity

    assert _Infinity() is ec.INFINITY


def test_frozen_example_classes_and_count():
    params = ec.CoverParams(
        R23, (ec.Poly(R23.base, [1, 1, 1]), ec.Poly.one(R23.base)),
        R23.ext.elem(1))
    model = ec.twisted_model(params)
    pts = ec.projective_points(R23)
    assert [ec.chi_class(model, x) for x in pts] == [2, 1, 0]
    assert [ec.fiber_count(model, x) for x in pts] == [0, 0, 3]
    assert ec.point_count(model) == 3
    assert ec.point_count_oracle(model) == 3
    checked, classes = ec.check_cover(params)
    assert checked.f_v0 == model.f_v0 and classes == (2, 1, 0)


def test_model_value_at_infinity_is_lead():
    for params in covers(R23, (4,), unit_cap=3):
        model = ec.twisted_model(params)
        assert ec.model_value(model, ec.INFINITY) == model.f_v0.lead
        assert ec.model_value(model, ec.INFINITY) == params.b ** R23.n_q


@pytest.mark.parametrize("reg,degrees,unit_cap", [
    (R23, (2, 4, 6), None),    # every unit of F_4
    (R53, (2,), None),         # every unit of F_25
    (R25, (4,), 5),
    (R27, (3,), None),         # every unit of F_8
])
def test_fiber_counts_match_oracle_everywhere(reg, degrees, unit_cap):
    n = 0
    for params in covers(reg, degrees, unit_cap):
        model = ec.twisted_model(params)
        for x in ec.projective_points(reg):
            fast = ec.fiber_count(model, x)
            slow = ec.fiber_count_oracle(model, x)
            assert fast == slow
            assert fast in (0, reg.ell)
        n += 1
    assert n > 0


@pytest.mark.parametrize("reg,degrees", [(R23, (2, 4, 6)), (R53, (2,)),
                                         (R25, (4,)), (R27, (3,))])
def test_totals_are_multiples_of_ell_and_bounded(reg, degrees):
    for params in covers(reg, degrees, unit_cap=4):
        model = ec.twisted_model(params)
        n = ec.point_count(model)
        assert n % reg.ell == 0
        assert 0 <= n <= (reg.q + 1) * reg.ell


def test_rational_points_never_ramify():
    # no branch polynomial can vanish at a base-rational point in this
    # regime (every prime factor has degree > 1), so the brute-force scan,
    # which would find the single root 0 of a vanishing value, finds every
    # fiber empty or full
    for params in covers(R23, (2, 4, 6)):
        model = ec.twisted_model(params)
        for x in ec.projective_points(R23):
            assert ec.fiber_count_oracle(model, x) in (0, R23.ell)


def test_a_vanishing_model_value_raises_a_typed_error():
    # a hand-built model whose twisted polynomial X**3 + X vanishes at 0:
    # no valid cover gets there, and the class-based counts refuse it
    from dataclasses import replace

    params = ec.CoverParams(
        R23, (ec.Poly(R23.base, [1, 1, 1]), ec.Poly.one(R23.base)),
        R23.ext.elem(1))
    model = replace(ec.twisted_model(params),
                    f_v0=ec.Poly(R23.ext, [0, 1, 0, 1]))
    zero = R23.base.elem(0)
    for count in (ec.chi_class, ec.fiber_count):
        with pytest.raises(ec.UnexpectedRoot):
            count(model, zero)
    with pytest.raises(ec.UnexpectedRoot):
        ec.point_count(model)
    assert ec.chi_class(model, ec.INFINITY) == 0
    assert ec.fiber_count_oracle(model, zero) == 1


def test_class_value_is_unit_class_of_model_value():
    for params in covers(R53, (2,), unit_cap=6):
        model = ec.twisted_model(params)
        for xv in range(5):
            x = R53.base.elem(xv)
            v = ec.model_value(model, x)
            assert v.val != 0
            assert ec.chi_class(model, x) == ec.lth_power_class(v, 3)


def test_oracle_counts_roots_exactly():
    # independent sanity of the oracle itself: over F_4 the cube map is
    # 3-to-1 onto cubes of units; y**3 = 1 has three solutions, y**3 = v
    # has none for the other units
    params = ec.CoverParams(
        R23, (ec.Poly(R23.base, [1, 1, 1]), ec.Poly.one(R23.base)),
        R23.ext.elem(1))
    model = ec.twisted_model(params)
    # at infinity the target is b**2 = 1 and the fiber is full
    assert ec.fiber_count_oracle(model, ec.INFINITY) == 3
    cubes = {(R23.ext.elem(v) ** 3).val for v in range(1, 4)}
    assert cubes == {1}


# ---------------------------------------------------------------------------
# check_cover: one cover's model against its class vector and the root scan.

def _with_parts(monkeypatch, make_parts):
    """Make check_cover build models whose components are make_parts(model)."""
    from dataclasses import replace

    import ellcover.charsum as charsum

    build = charsum.twisted_model

    def tampered(params, labeling="least"):
        model = build(params, labeling)
        return replace(model, stable=replace(model.stable, parts=make_parts(model)))

    monkeypatch.setattr(charsum, "twisted_model", tampered)


@pytest.mark.parametrize("reg,D", [(R23, 4), (R53, 2), (R27, 3), (R25, 4)])
def test_check_cover_passes_on_every_small_cover(reg, D):
    for params in covers(reg, (D,), unit_cap=3):
        for labeling in ("least", "greatest"):
            model, classes = ec.check_cover(params, labeling)
            assert model.labeling == labeling
            assert classes == tuple(ec.chi_class(model, x)
                                    for x in ec.projective_points(reg))


def test_check_cover_needs_a_frobenius_cycle(monkeypatch):
    # (2, 7) has n_q = 3: swapping the last two components keeps their
    # product and coprimality, but F_1 maps to F_2, not to the new F_2 = F_3
    _with_parts(monkeypatch, lambda m: (m.stable.parts[0],) + m.stable.parts[:0:-1])
    params = next(covers(R27, (3,), unit_cap=1))
    with pytest.raises(ec.CrossCheckMismatch, match="component 1 is not conjugate"):
        ec.check_cover(params)


def test_check_cover_needs_coprime_components(monkeypatch):
    # a polynomial over the base field is its own conjugate, so two copies of
    # it form a Frobenius cycle that shares a factor
    shared = ec.embed(ec.primes_with_degree(R23.base, 2)[0], R23.ext)
    _with_parts(monkeypatch, lambda m: (shared, shared))
    params = next(covers(R23, (2,), unit_cap=1))
    with pytest.raises(ec.CrossCheckMismatch, match="components share a factor"):
        ec.check_cover(params)


def test_check_cover_needs_the_embedded_branch_product(monkeypatch):
    # the components of another cover of the same degree: conjugate and
    # coprime, but of the wrong product
    params, other = [p for p in covers(R23, (4,), unit_cap=1)][:2]
    parts = ec.stable_factorization(other).parts
    _with_parts(monkeypatch, lambda m: parts)
    with pytest.raises(ec.CrossCheckMismatch, match="do not multiply to the embedded"):
        ec.check_cover(params)
