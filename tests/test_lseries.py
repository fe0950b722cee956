"""Cyclotomic integers, character polynomials, generating series, and the
constrained-count character average."""

import cmath
import logging
import time
import weakref
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellcover as ec
import ellcover.coverparam as cp
from ellcover.coverparam import ENUM_D_CAP, LABELINGS, Regime
from ellcover.lseries import (
    CharW,
    _constrained_by_enumeration,
    _horner_counts,
    _l_coefficients_by_enumeration,
    _transfer_coefficients,
    _transfer_steps,
)

import naive


R23 = ec.make_regime(2, 3)
R53 = ec.make_regime(5, 3)
R27 = ec.make_regime(2, 7)

C = ec.CycloInt


def rand_cyclo(ell, seed):
    from random import Random

    rng = Random(seed)
    return C(ell, [rng.randrange(-9, 10) for _ in range(ell - 1)])


# ---------------------------------------------------------------------------
# CycloInt.

@pytest.mark.parametrize("ell", [3, 5, 7])
def test_cyclo_ring_axioms(ell):
    xs = [rand_cyclo(ell, s) for s in range(6)]
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            for c in xs[:3]:
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)
    zero, one = C.from_int(ell, 0), C.from_int(ell, 1)
    for a in xs:
        assert a + zero == a and a * one == a
        assert a - a == zero
        assert a + (-a) == zero


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_zeta_relations(ell):
    one = C.from_int(ell, 1)
    z = C.zeta_pow(ell, 1)
    prod = one
    for _ in range(ell):
        prod = prod * z
    assert prod == one  # zeta**ell = 1
    total = C.from_int(ell, 0)
    for e in range(ell):
        total = total + C.zeta_pow(ell, e)
    assert total.is_zero  # 1 + zeta + ... + zeta**(ell-1) = 0
    assert C.zeta_pow(ell, ell + 2) == C.zeta_pow(ell, 2)


@pytest.mark.parametrize("ell", [3, 5])
def test_galois_and_conjugate(ell):
    xs = [rand_cyclo(ell, s + 50) for s in range(4)]
    for r in range(1, ell):
        for a in xs:
            for b in xs:
                assert (a * b).galois(r) == a.galois(r) * b.galois(r)
                assert (a + b).galois(r) == a.galois(r) + b.galois(r)
    for a in xs:
        assert a.conjugate().conjugate() == a
        # conjugation matches complex conjugation numerically
        assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9


def test_cyclo_to_complex_and_rational():
    z = C.zeta_pow(3, 1)
    want = cmath.exp(2j * cmath.pi / 3)
    assert abs(z.to_complex() - want) < 1e-12
    n = C.from_int(5, -7)
    assert n.is_rational_integer and n.as_int() == -7
    assert not (z + C.from_int(3, 1)).is_rational_integer
    with pytest.raises(ValueError):
        (z + C.from_int(3, 1)).as_int()


def test_cyclo_mixed_order_rejected():
    with pytest.raises(ValueError):
        C.from_int(3, 1) + C.from_int(5, 1)
    with pytest.raises(ValueError):
        C(3, (1, 2, 3))


def test_cyclo_int_coercion():
    a = C.zeta_pow(3, 1)
    assert a * 2 + 1 == C(3, (1, 2))
    assert 1 + a * 2 == C(3, (1, 2))
    assert a - 1 == C(3, (-1, 1))
    assert (a * 5 - a * 5).is_zero


# ---------------------------------------------------------------------------
# Character polynomials.

def pts(reg, *vals):
    return [reg.base.elem(v) for v in vals]


def test_l_polynomial_frozen_values():
    assert [list(c.coords) for c in ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1))] \
        == [[1, 0], [2, 0]]
    assert [list(c.coords) for c in ec.l_polynomial(R23, pts(R23, 0, 1), (1, 2))] \
        == [[1, 0], [-1, 0]]
    for w in ((1,), (2,)):
        for x in (0, 1):
            assert [list(c.coords) for c in ec.l_polynomial(R23, pts(R23, x), w)] \
                == [[1, 0]]


def test_l_polynomial_independent_recomputation():
    # recompute c_1 for w=(1,1) longhand: sum over the four monic linears
    # f = X + a of chi(f(0)) * chi(f(1))
    ext = R23.ext
    g = ext.elem(ext.generator)
    total = C.from_int(3, 0)
    for av in range(4):
        a = ext.elem(av)
        v0, v1 = a, ext.elem(1) + a
        if v0.val == 0 or v1.val == 0:
            continue
        e = ec.lth_power_class(v0, 3) + ec.lth_power_class(v1, 3)
        total = total + C.zeta_pow(3, e)
    got = ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1))[1]
    assert got == total
    assert total.as_int() == 2


def test_l_polynomial_degree_bound_and_trivial():
    coeffs = ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1))
    assert len(coeffs) == 2  # degree < number of points
    with pytest.raises(ec.TrivialCharacter):
        ec.l_polynomial(R23, pts(R23, 0, 1), (0, 0))
    with pytest.raises(ec.TrivialCharacter):
        ec.l_polynomial(R23, pts(R23, 0), (3,))  # 3 = 0 mod ell
    with pytest.raises(ec.InvalidTuple):
        ec.l_polynomial(R23, pts(R23, 0, 0), (1, 1))
    with pytest.raises(ec.InvalidTuple):
        ec.l_polynomial(R23, pts(R23, 0, 1), (1,))


def test_l_polynomial_magnitudes_all_weights():
    inv_sqrt_q = 1 / 2  # extension field has order 4
    for w in product(range(3), repeat=2):
        if w == (0, 0):
            continue
        coeffs = ec.l_polynomial(R23, pts(R23, 0, 1), w)
        for m in ec.root_magnitudes(coeffs):
            assert min(abs(m - 1.0), abs(m - inv_sqrt_q)) < 1e-9


def test_l_polynomial_other_regime_magnitudes():
    # over (5,3) the extension has order 25, so short roots sit at 1/5
    found_short = False
    for w in [(1, 1), (1, 2), (2, 1)]:
        coeffs = ec.l_polynomial(R53, pts(R53, 0, 1), w)
        for m in ec.root_magnitudes(coeffs):
            assert min(abs(m - 1.0), abs(m - 0.2)) < 1e-9
            found_short = found_short or abs(m - 0.2) < 1e-9
    assert found_short


def test_unit_circle_zero_is_logged(caplog):
    with caplog.at_level(logging.INFO, logger="ellcover"):
        coeffs = ec.l_polynomial(R23, pts(R23, 0, 1), (1, 2))
        mags = ec.root_magnitudes(coeffs)
    assert any(abs(m - 1.0) <= 1e-9 for m in mags)
    assert any("unit-circle" in rec.message for rec in caplog.records)


def test_root_magnitudes_edge_cases():
    assert ec.root_magnitudes([C.from_int(3, 1)]) == []
    assert ec.root_magnitudes([C.from_int(3, 1), C.from_int(3, 0)]) == []
    with pytest.raises(ec.DegenerateZeroPolynomial):
        ec.root_magnitudes([C.from_int(3, 0)])
    with pytest.raises(ec.DegenerateZeroPolynomial):
        ec.root_magnitudes([])


ORACLE_REGIMES = [ec.make_regime(q, ell) for q, ell in
                  [(2, 3), (2, 5), (5, 3), (3, 5), (4, 5), (2, 7), (3, 7)]]


@pytest.mark.parametrize("reg", ORACLE_REGIMES, ids=lambda r: f"{r.q},{r.ell}")
def test_horner_counts_match_the_push_per_constant_oracle(reg):
    # every set of base points with Q**k <= 20 000, through degree k + 3
    # where Q**k <= 2 000 and through degree k + 1 above
    Q = reg.ext.order
    for k in range(1, reg.q + 1):
        if Q ** k > 20_000:
            break
        terms = k + (4 if Q ** k <= 2_000 else 2)
        for lits in combinations(range(reg.q), k):
            points = [ec.embed_elem(x, reg.ext) for x in pts(reg, *lits)]
            by_value = naive.horner_counts(reg.ext, [x.val for x in points], terms)
            want = [naive.by_class(reg.ext, counts, reg.ell) for counts in by_value]
            assert list(_horner_counts(reg.ext, points, terms, reg.ell)) == want


def test_transfer_rows_are_kept_for_the_last_field_only(monkeypatch):
    import ellcover.lseries as ls

    # two-point transfers, run directly: l_polynomial runs none at two points
    monkeypatch.setattr(ls, "_field_rows", {})
    cases = [pts(R53, 0, 1), pts(R53, 1, 3)]
    fresh = []
    for points in cases:
        ls._field_rows.clear()
        fresh.append(list(_horner_counts(R53.ext, points, 5, 3)))
    ls._field_rows.clear()
    kept = []
    for points in cases:
        assert list(_horner_counts(R53.ext, points, 5, 3)) == fresh[len(kept)]
        kept.append(ls._field_rows[(R53.ext, 3)])
    assert kept[0] is kept[1]  # the second call reused the first call's rows
    assert len(kept[0][0]) == R53.ext.order  # two points build every row
    shifted, classed, pair = kept[0]
    assert len(pair) == R53.ext.order  # and every pair row, in the same entry
    assert not classed  # two points read pair rows, not class rows
    dropped = weakref.ref(pair)
    del kept, shifted, classed, pair
    R35 = Regime(3, 5)
    list(_horner_counts(R35.ext, [ec.embed_elem(x, R35.ext) for x in pts(R35, 0)], 4, 5))
    assert list(ls._field_rows) == [(R35.ext, 5)]
    assert dropped() is None  # the pair rows went with their field's entry


def test_two_point_pair_codes_above_one_byte_match_the_tuple_keyed_oracle():
    # Q = 256 and ell = 17: (ell + 1)**2 = 324 pair codes, through degree
    # k + 3; pushing every constant is too slow here, so the oracle is the
    # line transfer with tuple keys
    for q, lits in [(16, (0, 1)), (16, (3, 10)), (2, (0, 1))]:
        reg = ec.make_regime(q, 17)
        assert reg.ext.order == 256
        points = [ec.embed_elem(x, reg.ext) for x in pts(reg, *lits)]
        want = naive.line_counts_by_tuples(reg.ext, [x.val for x in points], 6, 17)
        assert list(_horner_counts(reg.ext, points, 6, 17)) == want


@pytest.mark.parametrize("reg", [R23, R53], ids=lambda r: f"{r.q},{r.ell}")
def test_tuple_keyed_oracle_matches_the_push_per_constant_oracle(reg):
    Q = reg.ext.order
    for k in range(1, 4):
        if Q ** k > 2_000:
            break
        for lits in combinations(range(reg.q), k):
            xs = [ec.embed_elem(x, reg.ext).val for x in pts(reg, *lits)]
            want = [naive.by_class(reg.ext, counts, reg.ell)
                    for counts in naive.horner_counts(reg.ext, xs, k + 4)]
            assert naive.line_counts_by_tuples(reg.ext, xs, k + 4, reg.ell) == want


@pytest.mark.parametrize("w", [(0, 1), (2, 0), (3, 1)])
def test_l_polynomial_with_one_zero_weight_runs_the_one_point_transfer(w):
    # a point of weight 0 mod ell leaves one point in the transfer (k = 1);
    # the sums over every monic are the oracle, through degree k + 3 over
    # (2, 3) and through degree 2 over (5, 3)
    points = pts(R23, 0, 1)
    sums = _l_coefficients_by_enumeration(R23, points, w, 5)
    assert ec.l_polynomial(R23, points, w) == sums[:2]
    assert all(c.is_zero for c in sums[2:])
    points = pts(R53, 2, 4)
    assert ec.l_polynomial(R53, points, w, check_extra=1) == \
        _l_coefficients_by_enumeration(R53, points, w, 2)


@st.composite
def characters(draw):
    """A regime, up to three distinct base points, and a nontrivial weight
    vector; k is capped where the transfer passes 2**16 table steps, which
    only (3, 7) at k = 3 does."""
    reg = draw(st.sampled_from(ORACLE_REGIMES))
    k_max = max(k for k in range(1, min(3, reg.q) + 1)
                if _transfer_steps(reg.ext.order, k, k) <= 1 << 16)
    k = draw(st.integers(1, k_max))
    lits = draw(st.lists(st.integers(0, reg.q - 1), min_size=k, max_size=k,
                         unique=True))
    w = draw(st.lists(st.integers(0, reg.ell - 1), min_size=k, max_size=k)
             .filter(any))
    return reg, pts(reg, *lits), w


@settings(max_examples=150, deadline=None)
@given(characters())
def test_root_magnitudes_match_numpy_roots(char):
    np = pytest.importorskip("numpy")
    reg, points, w = char
    coeffs = ec.l_polynomial(reg, points, w, check_extra=0)
    roots = np.roots([c.to_complex() for c in coeffs][::-1])
    want = sorted(abs(complex(r)) for r in roots)
    got = ec.root_magnitudes(coeffs)
    assert len(got) == len(want)
    assert all(abs(a - b) < 1e-6 for a, b in zip(got, want))


def test_root_magnitudes_exact_values():
    # 1 + 4u - 5u**2 = (1 - u)(1 + 5u) over (5, 3): no float rounding
    three = ec.l_polynomial(R53, pts(R53, 0, 1, 2), (1, 1, 1))
    assert ec.root_magnitudes(three) == [0.2, 1.0]


@pytest.mark.parametrize("coeffs", [
    [C(3, (1, 0)), C(3, (1, 1))],  # N(1 + zeta) = 1: Q = 1
    [C(3, (1, 0)), C(3, (0, 0)), C(3, (0, 0)), C(3, (2, 0))],  # 4 is no cube
    [C(3, (1, 0)), C(3, (1, 0)), C(3, (1, 0)), C(3, (8, 0))],  # N(p_2) != 4 N(p_1)
    [C(3, (1, 0)), C(3, (2, 0)), C(3, (-7, 0)), C(3, (4, 0))],  # (1 - u)**2 (1 + 4u)
])
def test_root_magnitudes_rejects_non_l_polynomials(coeffs):
    with pytest.raises(ec.CrossCheckMismatch):
        ec.root_magnitudes(coeffs)


def test_root_magnitude_identities_are_not_sufficient_past_degree_one():
    # 1 + 3u + 2u**2 = (1 + u)(1 + 2u) has zeros of moduli 1/2 and 1, yet
    # meets every checked identity with Q = 2: the theorem supplies the rest
    coeffs = [C.from_int(3, 1), C.from_int(3, 3), C.from_int(3, 2)]
    assert ec.root_magnitudes(coeffs) == pytest.approx([2 ** -0.5] * 2)


def test_char_w_value_at():
    char = ec.CharW(R23, pts(R23, 0, 1), (1, 1))
    f = ec.Poly(R23.ext, [2, 1])  # X + omega
    v0 = ec.lth_power_class(R23.ext.elem(2), 3)
    v1 = ec.lth_power_class(R23.ext.elem(1) + R23.ext.elem(2), 3)
    assert char.value_at(f) == C.zeta_pow(3, v0 + v1)
    vanishing = ec.Poly(R23.ext, [0, 1])  # X vanishes at the point 0
    assert char.value_at(vanishing).is_zero


def test_transfer_steps_count_each_value_vector_classed_and_pushed():
    # degree n has Q**min(n, k) value vectors; every degree is classed and
    # every degree but the last pushed
    assert _transfer_steps(4, 2, 1) == 1
    assert _transfer_steps(4, 2, 2) == 2 * 1 + 4
    assert _transfer_steps(4, 2, 5) == 2 * (1 + 4 + 16 + 16) + 16
    assert _transfer_steps(25, 1, 4) == 2 * (1 + 25 + 25) + 25


def test_char_w_exponent():
    char = CharW(R23, pts(R23, 0, 1), (1, 2))
    log = R23.ext.log
    assert char.exponent((2, 3)) == (log[2] + 2 * log[3]) % 3
    assert char.exponent((0, 3)) is None
    assert char.exponent((2, 0)) is None
    # a point of weight 0 does not look at its value
    assert CharW(R23, pts(R23, 0, 1), (0, 1)).exponent((0, 3)) == log[3] % 3


def test_l_polynomial_rejects_the_point_at_infinity():
    with pytest.raises(ec.CtxMismatch):
        ec.l_polynomial(R23, [ec.INFINITY], [1])
    with pytest.raises(ec.CtxMismatch):
        ec.l_polynomial(R23, [R23.base.elem(0), 1], [1, 1])


def test_l_polynomial_budget(monkeypatch):
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", 10)
    with pytest.raises(ec.BudgetExceeded):
        ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1))


def test_l_polynomial_budget_boundary(monkeypatch):
    # F_4, two points, degrees 0..4 of 1, 4, 16, 16, 16 value vectors, each
    # classed once and pushed once but the last degree's
    work = 2 * (1 + 4 + 16 + 16) + 16
    want = ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1))
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", work)
    assert ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1)) == want
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", work - 1)
    with pytest.raises(ec.BudgetExceeded):
        ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1))


@pytest.mark.parametrize("qell", [(5, 11), (7, 5), (8, 5), (2, 13)])
def test_one_point_l_polynomial_over_a_large_field(qell):
    # L(u) = 1 at one point; the transfer classes and pushes about 7 * Q
    # value vectors, Q = 3125 to 4096
    reg = ec.make_regime(*qell)
    assert ec.l_polynomial(reg, pts(reg, 1), (1,)) == [1]


def test_l_polynomial_over_the_cap_is_refused_before_the_transfer(monkeypatch):
    import ellcover.lseries as ls

    def no_transfer(*args):
        raise AssertionError("the transfer ran before the budget check")

    monkeypatch.setattr(ls, "_horner_counts", no_transfer)
    reg = ec.make_regime(3, 7)  # three points over F_729
    assert _transfer_steps(reg.ext.order, 3, 6) > cp.KERNEL_STEP_CAP
    with pytest.raises(ec.BudgetExceeded):
        ec.l_polynomial(reg, pts(reg, 0, 1, 2), (1, 1, 1))
    # the points of weight 0 are not transferred: one point fits
    monkeypatch.undo()
    assert ec.l_polynomial(reg, pts(reg, 0, 1, 2), (1, 0, 0)) == [1, 0, 0]


@pytest.mark.parametrize("qell, lits, w", [
    ((2, 3), (0, 1), (1, 0)),
    ((5, 3), (0, 1, 2), (0, 1, 2)),
    ((3, 5), (2, 0), (0, 3)),
    ((2, 7), (1, 0), (5, 0)),
])
def test_zero_weight_points_match_the_enumeration(qell, lits, w):
    # X - x vanishes at a point x of weight 0 and still counts: chi_w does
    # not look at that value
    reg = ec.make_regime(*qell)
    k = len(lits)
    got = ec.l_polynomial(reg, pts(reg, *lits), w, check_extra=1)
    want = _l_coefficients_by_enumeration(reg, pts(reg, *lits), w, k + 1)
    assert got == want[:k] and want[k].is_zero


def test_l_polynomial_rejects_a_negative_check_extra(monkeypatch):
    import ellcover.lseries as ls

    def no_transfer(*args):
        raise AssertionError("the transfer ran before the check")

    monkeypatch.setattr(ls, "_horner_counts", no_transfer)
    for extra in (-1, -2):
        with pytest.raises(ValueError, match="check_extra"):
            ec.l_polynomial(R23, pts(R23, 0, 1), (1, 1), check_extra=extra)


def test_l_polynomial_detects_a_count_moved_at_degree_k(monkeypatch):
    # move one monic of degree k = 3 off its class vector to a root of one
    # of the points, where chi_w is 0: c_3 no longer vanishes
    import ellcover.lseries as ls

    real = ls._horner_counts

    def lying(ctx, points, terms, ell):
        for n, counts in enumerate(real(ctx, points, terms, ell)):
            if n == len(points):
                counts = dict(counts)
                counts[next(iter(counts))] -= 1
            yield counts

    monkeypatch.setattr(ls, "_horner_counts", lying)
    # three points of F_4, where the transfer runs on every call
    reg = Regime(2, 3)
    points = [reg.ext.elem(v) for v in range(3)]
    # no vanishing degree is checked, so the lie goes unseen
    assert ec.l_polynomial(reg, points, (1, 1, 1), check_extra=0) \
        == _l_coefficients_by_enumeration(reg, points, (1, 1, 1), 3)
    with pytest.raises(ec.CrossCheckMismatch, match="degree-3"):
        ec.l_polynomial(reg, points, (1, 1, 1), check_extra=1)


def test_l_polynomial_frozen_over_f5():
    # every input the lseries-odd benchmark draws: two distinct points of
    # F_5 and weights in {1, 2}; the values were computed by enumerating
    # every monic polynomial
    for x1, x2 in product(range(5), repeat=2):
        if x1 == x2:
            continue
        for w in product((1, 2), repeat=2):
            coeffs = ec.l_polynomial(R53, pts(R53, x1, x2), w)
            assert [list(c.coords) for c in coeffs] \
                == [[1, 0], [5, 0] if w[0] == w[1] else [-1, 0]]


# ---------------------------------------------------------------------------
# One- and two-point L-polynomials from one sum over F_Q, with the transfer
# and the enumeration as oracles.

@pytest.mark.parametrize("qell", [(2, 3), (5, 3), (2, 5), (4, 5)])
def test_held_transfers_carried_to_every_pair_match_enumeration(monkeypatch, qell):
    # every ordered pair of distinct F_Q points, extension points included,
    # where log(x_2 - x_1) need not vanish mod ell, on a fresh Regime first
    # called at (0, 2); the weights cycle through two points of nonzero
    # weight and one.  The enumeration runs through degree 2 (Q**3 monics at
    # degree 3 over 600 pairs is too slow); check_extra=2 only sets the
    # budget's charge.  Then every single point, through degree k + 1 = 2.
    # No transfer runs at one or two points of nonzero weight.
    import ellcover.lseries as ls

    real, runs = ls._horner_counts, []
    monkeypatch.setattr(ls, "_horner_counts",
                        lambda *args: runs.append(args[1]) or real(*args))
    reg = Regime(*qell)
    ell, ext = reg.ell, reg.ext
    weights = [(1, 1), (1, ell - 1), (2, 1), (1, 0), (0, 2)]
    pairs = [p for p in permutations(range(ext.order), 2) if p != (0, 1)] + [(0, 1)]
    for i, (a, b) in enumerate(pairs):
        points, w = [ext.elem(a), ext.elem(b)], weights[i % len(weights)]
        slow = _l_coefficients_by_enumeration(reg, points, w, 3)
        assert ec.l_polynomial(reg, points, w, check_extra=2) == slow[:2], (a, b, w)
        assert slow[2].is_zero
    assert any(ext.log[ext.sub_i(b, a)] % ell for a, b in pairs)
    for x in range(ext.order):
        for w in ((1,), (ell - 1,)):
            slow = _l_coefficients_by_enumeration(reg, [ext.elem(x)], w, 3)
            assert ec.l_polynomial(reg, [ext.elem(x)], w, check_extra=2) == slow[:1]
            assert all(c.is_zero for c in slow[1:])
    assert runs == []


def test_held_counts_answer_every_support_without_a_transfer(monkeypatch):
    import ellcover.lseries as ls

    reg = Regime(5, 3)
    ext = reg.ext
    ec.l_polynomial(reg, pts(reg, 3, 1), (1, 2))
    ec.l_polynomial(reg, pts(reg, 4, 2), (2, 0))  # one point of nonzero weight

    def no_transfer(*args):
        raise AssertionError("a one- or two-point support ran the transfer")

    monkeypatch.setattr(ls, "_horner_counts", no_transfer)
    for i, (a, b) in enumerate(permutations(range(ext.order), 2)):
        points, w = [ext.elem(a), ext.elem(b)], [(1, 1), (1, 2), (0, 1)][i % 3]
        assert ec.l_polynomial(reg, points, w) == \
            _l_coefficients_by_enumeration(reg, points, w, 2)
    for x in range(ext.order):
        assert ec.l_polynomial(reg, [ext.elem(x)], (1,)) == [1]


def test_a_longer_call_reruns_the_transfer_and_catches_a_moved_count(monkeypatch):
    # a lying transfer moves one monic of degree k to a root, where chi_w is
    # 0: two points run no transfer at any length, and three run it to their
    # own length, which catches the lie
    import ellcover.lseries as ls

    reg = Regime(2, 3)
    ext = reg.ext
    real, runs = ls._horner_counts, []

    def lying(ctx, points, terms, ell):
        runs.append(terms)
        for n, counts in enumerate(real(ctx, points, terms, ell)):
            if n == len(points):
                counts = dict(counts)
                counts[next(iter(counts))] -= 1
            yield counts

    monkeypatch.setattr(ls, "_horner_counts", lying)
    points = [ext.elem(1), ext.elem(2)]
    assert ext.log[ext.sub_i(2, 1)] % 3  # log(x_2 - x_1) does not vanish
    want = _l_coefficients_by_enumeration(reg, points, (1, 2), 2)
    assert ec.l_polynomial(reg, points, (1, 2)) == want
    assert ec.l_polynomial(reg, points, (1, 2), check_extra=4) == want
    assert runs == []
    with pytest.raises(ec.CrossCheckMismatch, match="degree-3"):
        ec.l_polynomial(reg, points + [ext.elem(3)], (1, 2, 1), check_extra=4)
    assert runs == [7]


def test_held_counts_are_refused_by_the_budget_as_a_fresh_regime(monkeypatch):
    held = Regime(2, 3)
    ec.l_polynomial(held, pts(held, 0, 1), (1, 1))
    ec.l_polynomial(held, pts(held, 0), (1,))
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", 10)
    for points, w in (([1, 0], (1, 2)), ([1], (1,))):
        messages = []
        for reg in (Regime(2, 3), held):
            with pytest.raises(ec.BudgetExceeded) as exc:
                ec.l_polynomial(reg, pts(reg, *points), w)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def _oracles(reg, points, w, terms):
    """c_0, c_1 of L(u) at two points from the Horner transfer at the points
    of nonzero weight, which checks that degrees 2 to terms - 1 vanish, and
    from the sum over every monic polynomial of degree 0 or 1."""
    support = [(ec.embed_elem(x, reg.ext), wi) for x, wi in zip(points, w) if wi % reg.ell]
    by_transfer = _transfer_coefficients(reg.ext, *zip(*support), 2, terms, reg.ell)
    return by_transfer, _l_coefficients_by_enumeration(reg, points, w, 2)


def _sum_weights(ell):
    return list(product((1, 2, ell - 1), repeat=2)) + [(0, 1), (1, 0)]


@pytest.mark.parametrize("qell", [(5, 3), (4, 5)])
def test_the_sum_equals_the_transfer_and_the_enumeration_at_every_pair(qell):
    # every ordered pair of F_Q points, the transfer through degree 2
    reg = ec.make_regime(*qell)
    ext = reg.ext
    for a, b in permutations(range(ext.order), 2):
        points = [ext.elem(a), ext.elem(b)]
        for w in _sum_weights(reg.ell):
            by_transfer, slow = _oracles(reg, points, w, 3)
            assert ec.l_polynomial(reg, points, w) == by_transfer == slow, (a, b, w)


@pytest.mark.parametrize("qell", [(3, 5), (2, 5), (3, 7), (16, 17)])
def test_the_sum_equals_the_transfer_and_the_enumeration_at_seeded_pairs(qell):
    # 200 seeded pairs of F_Q points, extension points included, the
    # weights cycling through _sum_weights, the transfer through degree 1
    from random import Random

    reg = ec.make_regime(*qell)
    ext, rng = reg.ext, Random(46)
    weights = _sum_weights(reg.ell)
    assert ext.order >= 16
    for i in range(200):
        points = [ext.elem(v) for v in rng.sample(range(ext.order), 2)]
        w = weights[i % len(weights)]
        by_transfer, slow = _oracles(reg, points, w, 2)
        assert ec.l_polynomial(reg, points, w) == by_transfer == slow, (points, w)


@pytest.mark.parametrize("w, message", [((1, 1), "not of norm 25"), ((1, 2), "not -1")])
def test_a_moved_class_count_breaks_the_identity_of_the_sum(monkeypatch, w, message):
    # one term of c_1 moved to the next class, at every ordered pair of F_25
    # points: the norm check catches it under a primitive character, the
    # -1 check under an imprimitive one
    import ellcover.lseries as ls

    real = ls._sum_classes

    def moved(*args):
        by_class = real(*args)
        top = max(range(len(by_class)), key=by_class.__getitem__)
        by_class[top] -= 1
        by_class[(top + 1) % len(by_class)] += 1
        return by_class

    monkeypatch.setattr(ls, "_sum_classes", moved)
    ext = R53.ext
    for a, b in permutations(range(ext.order), 2):
        with pytest.raises(ec.CrossCheckMismatch, match=message):
            ec.l_polynomial(R53, [ext.elem(a), ext.elem(b)], w)


def test_rotated_class_counts_are_caught_by_the_minus_one_check(monkeypatch):
    # every term moved one class on multiplies c_1 by zeta: -zeta has norm 1,
    # so only c_1 = -1 itself, not its norm, tells it from the true sum
    import ellcover.lseries as ls

    real = ls._sum_classes

    def rotated(*args):
        by_class = real(*args)
        return by_class[-1:] + by_class[:-1]

    monkeypatch.setattr(ls, "_sum_classes", rotated)
    with pytest.raises(ec.CrossCheckMismatch, match="not -1"):
        ec.l_polynomial(R53, pts(R53, 0, 1), (1, 2))


def test_a_corrupted_log_entry_is_caught_at_one_point(monkeypatch):
    # the class of one unit moved: the classes of the units are no longer
    # equidistributed, so c_1 at one point does not vanish
    ext = R53.ext
    log = list(ext.log)
    log[2] += 1
    monkeypatch.setattr(ext, "log", log)
    with pytest.raises(ec.CrossCheckMismatch, match="not of norm 0"):
        ec.l_polynomial(R53, pts(R53, 0), (1,))


@pytest.mark.parametrize("qell, k", [((2, 3), 1), ((2, 3), 2), ((2, 5), 1),
                                     ((2, 5), 2), ((5, 3), 1), ((5, 3), 2),
                                     ((5, 3), 3), ((3, 5), 1), ((3, 5), 2)])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_l_polynomial_matches_enumeration(qell, k, data):
    q, ell = qell
    reg = ec.make_regime(q, ell)
    xs = pts(reg, *data.draw(st.permutations(range(q)))[:k])
    w = data.draw(st.lists(st.integers(0, ell - 1), min_size=k, max_size=k)
                  .filter(any))
    check_extra = data.draw(st.sampled_from([0, 1]))
    slow = _l_coefficients_by_enumeration(reg, xs, w, k + check_extra)
    assert ec.l_polynomial(reg, xs, w, check_extra=check_extra) == slow[:k]
    assert all(c.is_zero for c in slow[k:])


# ---------------------------------------------------------------------------
# Generating series.

def test_g_series_zero_weight_recovers_stratum_series():
    # with w = 0 every Euler factor is 1 + (ell-1)u**d, so the series counts
    # the whole stratum: a genuinely independent second count
    series = ec.g_series(R23, pts(R23, 0, 1), (0, 0), 10)
    assert [series[d] for d in (2, 4, 6, 8, 10)] == [2, 6, 30, 108, 450]
    assert all(series[d] == 0 for d in (1, 3, 5, 7, 9))
    series53 = ec.g_series(R53, pts(R53, 0, 1), (0, 0), 4)
    assert series53[2] == 20 and series53[4] == 480


def test_g_series_integer_coefficients_and_bound():
    for w in product(range(3), repeat=2):
        series = ec.g_series(R23, pts(R23, 0, 1), w, 8)
        assert all(isinstance(c, int) for c in series)
        assert series[0] == 1
        # each coefficient is at most the stratum count in absolute value
        full = ec.g_series(R23, pts(R23, 0, 1), (0, 0), 8)
        for d in range(9):
            assert abs(series[d]) <= full[d]


def test_g_series_rejects_bad_input():
    with pytest.raises(ec.InvalidTuple):
        ec.g_series(R23, pts(R23, 0, 0), (1, 1), 4)
    with pytest.raises(ec.InvalidTuple):
        ec.g_series(R23, pts(R23, 0), (1, 1), 4)
    with pytest.raises(ec.CtxMismatch):
        ec.g_series(R23, [R23.ext.elem(2)], (1,), 4)


# ---------------------------------------------------------------------------
# Constrained counts.

def test_count_constrained_cross_checks_and_partitions():
    for D in (2, 4, 6):
        for bv in (1, 2, 3):
            total = 0
            for t in product(range(3), repeat=2):
                total += ec.count_constrained(
                    R23, D, pts(R23, 0, 1), t, R23.ext.elem(bv))
            assert total == ec.count_tuples(R23, D)


def test_count_constrained_single_point():
    for D in (2, 4):
        total = 0
        for t in range(3):
            total += ec.count_constrained(R23, D, pts(R23, 0), (t,),
                                          R23.ext.elem(2))
        assert total == ec.count_tuples(R23, D)


def test_count_constrained_other_regime():
    total = 0
    for t in product(range(3), repeat=2):
        cnt = ec.count_constrained(R53, 2, pts(R53, 0, 1), t, R53.ext.elem(7))
        total += cnt
    assert total == 20


def test_count_constrained_depends_on_b_classes_only():
    # twisting units in the same power class give identical constrained counts
    ext = R23.ext
    by_class = {}
    for bv in range(1, 4):
        cls = ec.lth_power_class(ext.elem(bv), 3)
        counts = tuple(
            ec.count_constrained(R23, 4, pts(R23, 0, 1), t, ext.elem(bv))
            for t in product(range(3), repeat=2))
        by_class.setdefault(cls, counts)
        assert by_class[cls] == counts


def test_count_constrained_validates():
    with pytest.raises(ec.InvalidTuple):
        ec.count_constrained(R23, 4, pts(R23, 0, 1), (0,), R23.ext.elem(1))
    with pytest.raises(ec.InvalidTuple):
        ec.count_constrained(R23, 4, [], (), R23.ext.elem(1))


def test_count_constrained_rejects_a_unit_that_is_no_field_element():
    with pytest.raises(ec.CtxMismatch):
        ec.count_constrained(R23, 4, pts(R23, 0), (0,), 1)


# regimes and the largest D at which the oracle's stratum stays in the
# thousands of tuples
ORACLE_DEGREES = {(2, 3): 8, (3, 5): 8, (5, 3): 4, (2, 5): 8, (4, 5): 4, (2, 7): 8}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_DEGREES)), st.data())
def test_count_constrained_equals_the_enumeration(qell, data):
    reg = ec.make_regime(*qell)
    D = data.draw(st.integers(0, ORACLE_DEGREES[qell]), label="D")
    lits = data.draw(st.lists(st.integers(0, reg.q - 1), min_size=1,
                              max_size=reg.q, unique=True), label="points")
    targets = data.draw(st.lists(st.integers(0, reg.ell - 1), min_size=len(lits),
                                 max_size=len(lits)), label="targets")
    b = reg.ext.elem(data.draw(st.integers(1, reg.ext.order - 1), label="unit"))
    labeling = data.draw(st.sampled_from(LABELINGS), label="labeling")
    points = pts(reg, *lits)
    assert ec.count_constrained(reg, D, points, targets, b) == \
        _constrained_by_enumeration(reg, D, points, targets, b, labeling)


def test_count_constrained_below_the_least_prime_degree():
    # no prime fits below n_q = 2: the empty tuple at D = 0 is the only one,
    # and no line of (Z/3)^k is walked or charged
    reg = Regime(29, 3)
    t0 = time.monotonic()
    assert ec.count_constrained(reg, 0, pts(reg, *range(12)), [0] * 12,
                                reg.ext.elem(1)) == 1
    assert ec.count_constrained(reg, 1, pts(reg, *range(12)), [0] * 12,
                                reg.ext.elem(1)) == 0
    assert time.monotonic() - t0 < 1
    # at D = 2, 20 points are refused at once, with no kernel built
    with pytest.raises(ec.BudgetExceeded, match="table steps"):
        ec.count_constrained(reg, 2, pts(reg, *range(20)), [0] * 20,
                             reg.ext.elem(1))
    assert time.monotonic() - t0 < 1 and reg._lines == {}


def test_point_at_infinity_is_not_a_base_point():
    for bad in (ec.INFINITY, R23.ext.elem(2), 0):
        with pytest.raises(ec.CtxMismatch):
            ec.count_constrained(R23, 4, [bad], (0,), R23.ext.elem(1))
        with pytest.raises(ec.CtxMismatch):
            ec.g_series(R23, [R23.base.elem(0), bad], (1, 1), 4)
    with pytest.raises(ec.InvalidTuple):
        ec.count_constrained(R23, 4, pts(R23, 1, 1), (0, 0), R23.ext.elem(1))


def forbid(monkeypatch, *names):
    """Make every ellcover module's binding of each name raise."""
    import sys

    def forbidden(*args, **kwargs):
        raise AssertionError(f"one of {names} was called")

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("ellcover"):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, forbidden)


def test_constrained_counts_build_no_model(monkeypatch):
    # the class kernel and the per-prime class vectors give both sides; no
    # twisted polynomial or per-model class is ever computed
    forbid(monkeypatch, "twisted_model", "chi_class")
    for t in product(range(3), repeat=2):
        ec.count_constrained(R23, 6, pts(R23, 0, 1), t, R23.ext.elem(2))
    rep = ec.growth_check(R23, ENUM_D_CAP, pts(R23, 0, 1), (0, 0),
                          R23.ext.elem(1))
    assert (rep.constrained, rep.stratum) == (3186, 28680)


def test_count_constrained_checks_the_kernel_budget_first(monkeypatch):
    # the class-sum count at 4 points of F_11 to D = 4 is refused one step
    # below its count, before any kernel is built, and computed at it; 10
    # points are refused at the real cap.  No prime is listed and no tuple
    # is classed: the count reads the kernel alone
    reg = Regime(11, 3)
    want = _constrained_by_enumeration(reg, 4, pts(reg, 0, 3, 5, 7), (0, 1, 2, 0),
                                       reg.ext.elem(1), "least")
    forbid(monkeypatch, "primes_with_degree", "class_vector")
    reg = Regime(11, 3)
    steps = naive.class_sum_steps(reg, 4, 4)
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded, match=f"about {steps} table steps"):
        ec.count_constrained(reg, 4, pts(reg, 0, 3, 5, 7), (0, 1, 2, 0),
                             reg.ext.elem(1))
    assert reg._lines == {}
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    assert ec.count_constrained(reg, 4, pts(reg, 0, 3, 5, 7), (0, 1, 2, 0),
                                reg.ext.elem(1)) == want
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", 1 << 22)
    assert naive.class_sum_steps(reg, 10, 2) > cp.KERNEL_STEP_CAP
    t0 = time.monotonic()
    with pytest.raises(ec.BudgetExceeded):
        ec.count_constrained(reg, 2, pts(reg, *range(10)), [0] * 10, reg.ext.elem(1))
    assert time.monotonic() - t0 < 1 and list(reg._lines) == [(0, 3, 5, 7)]


# ---------------------------------------------------------------------------
# Growth toward equidistribution.

def test_growth_report_values():
    rep = ec.growth_check(R23, 8, pts(R23, 0, 1), (0, 0), R23.ext.elem(1))
    assert rep.constrained == 12
    assert rep.stratum == 108
    assert rep.ratio == Fraction(1)
    assert rep.deviation == 0
    rep10 = ec.growth_check(R23, 10, pts(R23, 0, 1), (0, 0), R23.ext.elem(1))
    assert rep10.ratio == Fraction(24, 25)
    assert rep10.deviation == Fraction(1, 25)


def test_growth_check_reads_its_points_once():
    points = pts(R23, 0, 1)
    want = ec.growth_check(R23, 8, points, (0, 0), R23.ext.elem(1))
    got = ec.growth_check(R23, 8, iter(points), (0, 0), R23.ext.elem(1))
    assert got == want and got.ratio == 1


def test_growth_check_enumeration_budget():
    # past the enumeration cap the counts still partition the stratum; at
    # D = 100 000 the stratum table alone is over the step budget, refused
    # at once with nothing cached
    assert ENUM_D_CAP < 18
    reports = [ec.growth_check(R23, 18, pts(R23, 0, 1), t, R23.ext.elem(1))
               for t in product(range(3), repeat=2)]
    assert sum(r.constrained for r in reports) == reports[0].stratum == \
        ec.count_tuples(R23, 18)
    reg = Regime(2, 3)
    t0 = time.monotonic()
    with pytest.raises(ec.BudgetExceeded, match="table steps"):
        ec.growth_check(reg, 100_000, pts(reg, 0, 1), (0, 0), reg.ext.elem(1))
    assert time.monotonic() - t0 < 1
    assert reg._lines == {} and reg._suffix == ([], [[1]])  # nothing built
