"""Exact ensemble laws from the base-prime line kernel: the kernel against a
prime sieve and against the group-ring peel, the law against every
enumerated cover, g_series against the per-prime Euler product, the Euler
series' power-sum recurrence against its binomial expansion, and the
budgets checked before any work."""

import json
import re
import time
from fractions import Fraction
from itertools import chain, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellcover as ec
import ellcover.cli as cli
import ellcover.coverparam as cp
import ellcover.lseries as ls
from ellcover.coverparam import LABELINGS, Regime
from ellcover.ensemble import _enumerated_law, _exact_law, _report
from ellcover.gf import FieldElem, subfield_table
from ellcover.lseries import _LineKernel, _horner_counts, _line_of, base_prime_lines

import naive

# (q, ell) and the largest m whose sieve of degree n_q*m stays cheap; every
# q**(n_q*m) here is within fqpoly.SIEVE_CAP.
SIEVED = [((2, 3), 6), ((3, 5), 2), ((5, 3), 3), ((2, 5), 3), ((4, 5), 3)]
# (q, ell) and the largest m at which the group-ring peel of tests/naive.py
# takes about a second: every SIEVED regime and three with larger rings
PEELED = [((2, 3), 30), ((3, 5), 20), ((5, 3), 5), ((2, 5), 30), ((4, 5), 6),
          ((3, 7), 2), ((4, 7), 3), ((3, 11), 3)]


def sieved_lines(reg, m, labeling):
    """Base primes of degree n_q*m by class line, from the sieve."""
    lines = {}
    for prime in ec.primes_with_degree(reg.base, reg.n_q * m):
        line = _line_of(ec.prime_classes(reg, prime, labeling), reg.ell)
        lines[line] = lines.get(line, 0) + 1
    return lines


def monics_by_class(reg, h):
    """M_0, ..., M_h: the monic polynomials of each degree over the extension
    with no root at the affine points, by class vector at those points."""
    table = subfield_table(reg.base, reg.ext)
    points = [FieldElem(reg.ext, table[i]) for i in range(reg.q)]
    return list(_horner_counts(reg, points, h + 1))


def sieved_g_series(reg, points, w, trunc):
    """The per-prime Euler product behind g_series: one factor per base
    prime, 1 + (ell-1)u**d when sum_i w_i * c_P(x_i) vanishes and 1 - u**d
    otherwise."""
    ell = reg.ell
    series = [0] * (trunc + 1)
    series[0] = 1
    for d in range(reg.n_q, trunc + 1, reg.n_q):
        for prime in ec.primes_with_degree(reg.base, d):
            cls = ec.prime_classes(reg, prime, "least")
            e_p = sum(wi * cls[x.val] for wi, x in zip(w, points)) % ell
            top = ell - 1 if e_p == 0 else -1
            for r in range(trunc - d, -1, -1):
                if series[r]:
                    series[r + d] += top * series[r]
    return series


@pytest.mark.parametrize("qell, m_max", SIEVED)
@pytest.mark.parametrize("labeling", LABELINGS)
def test_kernel_matches_the_sieve(qell, m_max, labeling):
    reg = ec.make_regime(*qell)
    kernel = base_prime_lines(reg, m_max)
    assert len(kernel) == m_max
    for m, lines in enumerate(kernel, start=1):
        assert lines == sieved_lines(reg, m, labeling)
        assert sum(lines.values()) == ec.necklace_count(reg.q, reg.n_q * m)


@pytest.mark.parametrize("qell, m_max", PEELED)
def test_kernel_matches_the_group_ring_peel(qell, m_max):
    reg = Regime(*qell)
    k = reg.q
    monic = monics_by_class(reg, min(k - 1, m_max))
    want = naive.group_ring_lines(monic, reg.ell, reg.q, reg.n_q, reg.ext.order,
                                  k, m_max)
    assert list(base_prime_lines(reg, m_max)) == want


def test_kernel_detects_a_moved_monic_count():
    # move one monic of degree 1, itself a prime X - a, onto the classes
    # orthogonal to w = (1, 0): the primes orthogonal to w no longer form
    # orbits of n_q = 2
    reg = Regime(2, 3)
    kernel = _LineKernel((0, 1))
    kernel._count_monics(reg, 1)
    degree_one = kernel.monic[(1, 0)][1]
    s = next(s for s in (1, 2) if degree_one[s])
    degree_one[s] -= 1
    degree_one[0] += 1
    with pytest.raises(ec.CrossCheckMismatch, match="orbits of 2"):
        kernel.extend(reg, 3)
    assert kernel.orthogonal == []


def test_kernel_is_lazy_cached_and_extended():
    reg = Regime(2, 3)
    assert reg._lines == {}  # not built at construction
    first = base_prime_lines(reg, 3)
    kernel = reg._lines[(0, 1)]
    assert base_prime_lines(reg, 2) == first[:2]
    assert reg._lines == {(0, 1): kernel} and len(kernel.orthogonal) == 3
    longer = base_prime_lines(reg, 7)
    assert reg._lines == {(0, 1): kernel} and longer[:3] == first
    assert longer == base_prime_lines(Regime(2, 3), 7)  # built in one go
    assert base_prime_lines(reg, 0) == ()
    with pytest.raises(ValueError):
        base_prime_lines(reg, -1)


def oracle_report(reg, g, labeling):
    D = ec.admissible_D(reg, g)
    hist, splits, size = _enumerated_law(reg, D, labeling)
    return _report(reg, g, D, "exhaustive", None, labeling, hist, splits,
                   size, time.monotonic())


def report_bytes(rep):
    d = rep.to_json_dict()
    del d["runtime_ms"]
    return json.dumps(d, indent=2)


CASES = ([((2, 3), g) for g in range(0, 11, 2)]
         + [((3, 5), 4)] + [((5, 3), g) for g in (0, 2, 4)])


@pytest.mark.parametrize("qell, g", CASES)
@pytest.mark.parametrize("labeling", LABELINGS)
def test_reports_equal_the_enumeration_oracle(qell, g, labeling):
    reg = ec.make_regime(*qell)
    got = ec.exhaustive_distribution(reg, g, labeling)
    assert report_bytes(got) == report_bytes(oracle_report(reg, g, labeling))


LINE_LAW = [(2, 3), (3, 5), (5, 3), (4, 5), (2, 7), (3, 7)]
# one degree per LINE_LAW regime far past the enumeration's reach, where the
# law alone is compared: each takes well under a second
LARGE_LAW_D = {(2, 3): 60, (3, 5): 60, (5, 3): 48, (4, 5): 60, (2, 7): 60, (3, 7): 60}


@pytest.mark.parametrize("qell", LINE_LAW)
def test_law_and_constrained_counts_per_line_match_the_vector_expansion(qell):
    # the kernel's counts per class line, spread over every class sum and
    # read vector by vector, give the same law and, at points 1 and 0 in
    # that order, the same count for every target
    reg = ec.make_regime(*qell)
    ell, ext = reg.ell, reg.ext
    b = ext.elem(ext.generator)  # class 1
    pts = [reg.base.elem(1), reg.base.elem(0)]
    for D in [*range(reg.n_q, 7, reg.n_q), LARGE_LAW_D[qell]]:
        every = naive.expand_lines(
            ls._class_sum_counts(reg, tuple(range(reg.q)), D), ell)
        hist, splits, size = _exact_law(reg, D)
        assert (dict(hist), dict(splits), size) == naive.law_by_vector(
            every, ell, reg.q, ext.order)
        if D > 6:
            continue
        pair = naive.expand_lines(ls._class_sum_counts(reg, (0, 1), D), ell)
        for t in product(range(ell), repeat=2):
            want = naive.constrained_by_vector(pair, ell, reg.n_q, 1, t[::-1])
            assert ec.count_constrained(reg, D, pts, t, b) == want


def test_exact_tv_at_genus_20():
    # 5.5 million covers, past the enumeration's reach; 9.44e-6 was found by
    # an independent per-prime expansion when the kernel was planned
    rep = ec.exhaustive_distribution(ec.make_regime(2, 3), 20)
    assert rep.D == 22
    assert rep.tv == Fraction(26, 2753883)
    assert rep.ensemble_size == ec.count_tuples(rep.regime, 22) * 3 == 5507766
    assert all(freq == Fraction(1, 3) for _, freq in rep.split_freqs)


@pytest.mark.parametrize("qell, trunc", [((2, 3), 12), ((3, 5), 8), ((5, 3), 6),
                                         ((2, 5), 12), ((4, 5), 6)])
def test_g_series_matches_the_per_prime_product(qell, trunc):
    reg = ec.make_regime(*qell)
    rng = Random(f"g_series:{qell}")
    for _ in range(6):
        k = rng.randrange(1, reg.q + 1)
        xs = [reg.base.elem(v) for v in rng.sample(range(reg.q), k)]
        w = [rng.randrange(reg.ell) for _ in xs]
        assert ec.g_series(reg, xs, w, trunc) == sieved_g_series(reg, xs, w, trunc)


# (q, ell) and the degree to which the recurrence is checked against the
# binomial expansion on every line at all affine points
EXPANDED = [((2, 3), 480), ((5, 3), 60), ((3, 5), 60), ((4, 5), 60), ((3, 7), 60),
            ((4, 7), 60), ((3, 11), 60), ((2, 13), 60)]


@pytest.mark.parametrize("qell, D", EXPANDED)
def test_euler_series_matches_the_binomial_expansion(qell, D):
    reg = ec.make_regime(*qell)
    ell, n_q = reg.ell, reg.n_q
    per_degree = ls._orthogonal_at(reg, tuple(range(reg.q)), D // n_q)
    for w in per_degree[0]:  # every line, the zero vector among them
        assert ls._euler_series(ell, n_q, per_degree, w, D) == \
            naive.euler_series(ell, n_q, per_degree, w, D)
    assert ls._euler_series(ell, n_q, per_degree, (0,) * reg.q, D)[D] == \
        ec.count_tuples(reg, D)


def test_euler_series_on_lines_with_one_kind_of_factor():
    # O_m(w) = O_m(0) leaves no factor 1 - u**d at degree n_q*m, and
    # O_m(w) = 0 no factor 1 + (ell-1)u**d; n_q = 3 and trunc = 20 leave
    # u**19 and u**20 past the last multiple of n_q
    per_degree = ({(0, 0): 4, (1, 2): 4}, {(0, 0): 7, (1, 2): 0},
                  {(0, 0): 0, (1, 2): 0}, {(0, 0): 9, (1, 2): 9},
                  {(0, 0): 5, (1, 2): 2}, {(0, 0): 6, (1, 2): 6})
    for ell in (3, 7):
        for w in ((0, 0), (1, 2)):
            got = ls._euler_series(ell, 3, per_degree, w, 20)
            assert got == naive.euler_series(ell, 3, per_degree, w, 20)
            assert got[19] == got[20] == 0
    assert ls._euler_series(3, 3, per_degree, (1, 2), 2) == [1, 0, 0]


def test_euler_series_refuses_a_count_that_is_not_whole():
    with pytest.raises(ec.CrossCheckMismatch, match="not whole"):
        ls._euler_series(3, 1, ({(0,): Fraction(1, 2), (1,): 0},), (1,), 1)


def expanded_g_series(reg, points, w, trunc):
    """g_series from the binomial expansion, on the kernel at the points of
    nonzero weight."""
    support = sorted((x.val, wi % reg.ell) for x, wi in zip(points, w) if wi % reg.ell)
    per_degree = ls._orthogonal_at(reg, tuple(i for i, _ in support), trunc // reg.n_q)
    line = _line_of(tuple(wi for _, wi in support), reg.ell)
    return naive.euler_series(reg.ell, reg.n_q, per_degree, line, trunc)


@pytest.mark.parametrize("qell, trunc", [((2, 3), 41), ((5, 3), 23), ((3, 5), 27),
                                         ((4, 7), 22), ((3, 11), 12)])
def test_g_series_on_point_subsets_matches_the_expansion(qell, trunc):
    # subsets with a zero weight, and a trunc that is not a multiple of n_q
    reg = ec.make_regime(*qell)
    assert trunc % reg.n_q
    rng = Random(f"expanded:{qell}")
    for k in range(1, reg.q + 1):
        xs = [reg.base.elem(v) for v in rng.sample(range(reg.q), k)]
        w = [0] + [rng.randrange(reg.ell) for _ in xs[1:]]
        assert ec.g_series(reg, xs, w, trunc) == expanded_g_series(reg, xs, w, trunc)


PROPERTY_REGIMES = [(2, 3), (2, 5), (3, 5), (4, 5), (5, 3), (3, 7)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PROPERTY_REGIMES), st.integers(0, 40), st.data())
def test_g_series_matches_the_expansion_on_random_subsets(qell, trunc, data):
    reg = ec.make_regime(*qell)
    vals = data.draw(st.lists(st.integers(0, reg.q - 1), min_size=1,
                              max_size=reg.q, unique=True))
    w = data.draw(st.lists(st.integers(0, reg.ell - 1), min_size=len(vals),
                           max_size=len(vals)))
    xs = [reg.base.elem(v) for v in vals]
    assert ec.g_series(reg, xs, w, trunc) == expanded_g_series(reg, xs, w, trunc)
    zero = ec.g_series(reg, xs, [0] * len(xs), trunc)
    assert zero == [ec.count_tuples(reg, D) for D in range(trunc + 1)]


def test_budgets_raise_before_any_work(monkeypatch):
    reg = Regime(8, 3)  # n_q = 2, Q = 64, 3**8 class vectors
    reg11 = Regime(11, 3)  # 3**11 class vectors
    reg23 = Regime(2, 3)
    t0 = time.monotonic()
    for g in (8, 10, 30):  # D / n_q = 5, 6, 16: monics up to degree 5 or more
        assert ec.admissible_D(reg, g) // reg.n_q >= 5
        with pytest.raises(ec.BudgetExceeded, match="table steps"):
            ec.exhaustive_distribution(reg, g)
    # projecting M_1 alone costs 3**2 steps for each of 11 coordinates on
    # each of the 88 574 lines, about 8.8 million
    assert naive.kernel_steps(reg11, 11, 1) > cp.KERNEL_STEP_CAP
    with pytest.raises(ec.BudgetExceeded, match="table steps"):
        ec.exhaustive_distribution(reg11, 0)
    with pytest.raises(ec.BudgetExceeded, match="table steps"):
        ec.exhaustive_distribution(reg23, 100_000)
    assert time.monotonic() - t0 < 1
    assert reg._lines == reg11._lines == reg23._lines == {}
    assert reg23._suffix == ([], [[1]])  # the degree-0 table: nothing built
    # (2, 3) at g = 478, D = 480: the stratum table, the kernel, the five
    # series and the inversion are refused one step below their count, and
    # the law is computed at it
    steps = naive.class_sum_steps(reg23, 2, 480)
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded, match=f"about {steps} table steps"):
        ec.exhaustive_distribution(reg23, 478)
    assert reg23._lines == {} and reg23._suffix == ([], [[1]])
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    rep = ec.exhaustive_distribution(reg23, 478)
    assert rep.ensemble_size == ec.count_tuples(reg23, 480) * 3
    assert rep.D == 480 and 0 < rep.tv < Fraction(1, 10 ** 116)
    monkeypatch.undo()
    # the group-ring peel refused (5, 3) at D = 60; the peel per line runs
    # it, and the TV is what that peel gave with its step cap lifted
    rep = ec.exhaustive_distribution(Regime(5, 3), 58)
    assert rep.D == 60
    assert rep.tv == Fraction(35586742180511,
                              8168466759378288682225359502527313945189968)


# (q, ell) and the largest D whose exact law the step budget admits; (8, 3)
# is stopped at D = 8 by its transfer over 64**n value vectors
LARGEST_LAW = [(2, 3, 1088), (3, 5, 784), (5, 3, 226), (3, 7, 672), (4, 5, 162),
               (4, 7, 99), (3, 11, 265), (2, 5, 1624), (2, 7, 954), (8, 3, 6),
               (2, 11, 2170), (2, 13, 2220)]


@pytest.mark.parametrize("q, ell, D", LARGEST_LAW)
def test_the_largest_admitted_law(q, ell, D, monkeypatch):
    # counted term by term, the law at D is within the cap and the law at
    # the next degree over it; on a fresh regime the law at D is refused one
    # step below its count, with nothing built, and computed at it
    reg = Regime(q, ell)
    g = (reg.ell - 1) * (D - 2) // 2
    steps = naive.class_sum_steps(reg, reg.q, D)
    over = naive.class_sum_steps(reg, reg.q, D + reg.n_q)
    assert steps <= cp.KERNEL_STEP_CAP < over
    with pytest.raises(ec.BudgetExceeded, match=f"about {over} table steps"):
        ec.exhaustive_distribution(reg, g + (reg.ell - 1) * reg.n_q // 2)
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded, match=f"about {steps} table steps"):
        ec.exhaustive_distribution(reg, g)
    assert reg._lines == {} and reg._suffix == ([], [[1]])
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    rep = ec.exhaustive_distribution(reg, g)
    assert rep.D == D
    assert rep.ensemble_size == ec.count_tuples(reg, D) * (reg.ext.order - 1)


def test_step_counts_in_closed_form_count_every_term():
    # on every regime of LARGEST_LAW the stratum table, the Euler series and
    # a fresh kernel at every k <= q points are charged what naive counts
    # term by term, and so is the kernel of the largest law itself
    for q, ell, top in LARGEST_LAW:
        reg = ec.make_regime(q, ell)
        for D in range(200):
            assert cp._stratum_steps(D // reg.n_q) == naive.suffix_steps(reg, D)
            assert ls._series_steps(D // reg.n_q) == naive.series_steps(reg, D)
        for k, m_max in chain(product(range(1, q + 1), range(1, 30)), [(q, top // reg.n_q)]):
            assert ls._kernel_growth_steps(reg.ext.order, ell, k, m_max) == \
                naive.kernel_steps(reg, k, m_max)


def test_a_huge_degree_is_refused_at_once():
    # the step counts take at most about 2 * sqrt(D) terms, and the sieve
    # compares d with its cap's binary digits before it forms q**d
    reg, D = Regime(2, 3), 10 ** 9
    xs = [reg.base.elem(0), reg.base.elem(1)]
    t0 = time.monotonic()
    for call in (lambda: ec.count_tuples(reg, D),
                 lambda: ec.exhaustive_distribution(reg, D - 2),
                 lambda: ec.g_series(reg, xs, [1, 2], D),
                 lambda: base_prime_lines(reg, D // reg.n_q),
                 lambda: ec.primes_with_degree(ec.make_field(3), D)):
        with pytest.raises(ec.BudgetExceeded):
            call()
    assert time.monotonic() - t0 < 1
    assert reg._lines == {} and reg._suffix == ([], [[1]])
    # a negative truncation is a bad argument, whatever its size
    with pytest.raises(ValueError, match="non-negative"):
        ec.g_series(reg, xs, [1, 2], -D)


def test_budget_edges_of_the_kernel(monkeypatch):
    reg = Regime(2, 3)
    # the constant 1 classed and pushed, the 4 monics X + a classed, M_1
    # projected onto the 5 lines of (Z/3)^2 at 3**2 steps a line for each of
    # 2 coordinates, and one inversion at as many steps
    steps = 2 + 4 + 5 * 9 * 2 + 5 * 9 * 2
    assert steps == naive.kernel_steps(reg, 2, 1) + 5 * 9 * 2
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded):
        base_prime_lines(reg, 1)
    assert reg._lines == {}
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    assert base_prime_lines(reg, 1) == ({(1, 2): 1},)
    # to degree 5 the kernel held to degree 1 is charged as a fresh one: the
    # transfer and M_1's projections again, degrees 2..5 each multiplying
    # Lambda_{n-1} by M_1 on each of the 5 lines at 3**2 steps a product,
    # the peel's 10 pairs i < n <= 5 at 3 steps a line, and all five degrees
    # inverted
    steps = 2 + 4 + 5 * 9 * 2 + 4 * 5 * 9 + 10 * 5 * 3 + 5 * 5 * 9 * 2
    assert steps == naive.kernel_steps(reg, 2, 5) + 5 * 5 * 9 * 2
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded, match=f"about {steps} table steps"):
        base_prime_lines(reg, 5)
    assert len(reg._lines[(0, 1)].orthogonal) == 1
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    lines = base_prime_lines(reg, 5)
    assert lines[0] == {(1, 2): 1}
    # held that far, it is charged the same
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded, match=f"about {steps} table steps"):
        base_prime_lines(reg, 5)
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    assert base_prime_lines(reg, 5) == lines


@pytest.mark.parametrize("qell, k, cached, m_max", [
    ((2, 3), 2, 1, 5),  # M_1 cached, and h = 1 at degree 5 too
    ((5, 3), 3, 2, 4),  # M_2 cached, and h = 2 at degree 4 too
    ((3, 5), 3, 1, 3),  # h grows from 1 to 2
])
def test_a_cached_kernel_is_charged_as_a_fresh_one(qell, k, cached, m_max, monkeypatch):
    # one step below a fresh kernel's charge, the cached kernel is refused as
    # a fresh one is, with the same message and nothing extended; at it, the
    # cached kernel is extended, and it counts what a fresh kernel does
    idx = tuple(range(k))
    reg, fresh = Regime(*qell), Regime(*qell)
    ls._orthogonal_at(reg, idx, cached)
    w, trunc = [1] * k, reg.n_q * m_max
    steps = naive.kernel_steps(reg, k, m_max) + naive.series_steps(reg, trunc)
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    messages = []
    for r in (fresh, reg):
        with pytest.raises(ec.BudgetExceeded) as exc:
            ec.g_series(r, [r.base.elem(i) for i in idx], w, trunc)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and f"about {steps} table steps" in messages[0]
    assert fresh._lines == {} and len(reg._lines[idx].orthogonal) == cached
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    got = ec.g_series(reg, [reg.base.elem(i) for i in idx], w, trunc)
    assert got == ec.g_series(fresh, [fresh.base.elem(i) for i in idx], w, trunc)
    assert reg._lines[idx].orthogonal == fresh._lines[idx].orthogonal


def budgeted_calls(reg):
    """Each budgeted entry point on reg as a function of a size n >= 1: the
    degree n_q*n, or for l_polynomial at three points n vanishing
    coefficients checked."""
    xs, ys = [reg.base.elem(i) for i in (0, 1)], [reg.ext.elem(i) for i in (0, 1, 2)]
    return {
        "count_tuples": lambda n: ec.count_tuples(reg, reg.n_q * n),
        "exhaustive_distribution": lambda n: report_bytes(ec.exhaustive_distribution(
            reg, (reg.ell - 1) * (reg.n_q * n - 2) // 2)),
        "count_constrained": lambda n: ec.count_constrained(
            reg, reg.n_q * n, xs, (1, 2), reg.ext.elem(1)),
        "g_series": lambda n: ec.g_series(reg, xs, (1, 2), reg.n_q * n),
        "base_prime_lines": lambda n: base_prime_lines(reg, n),
        "l_polynomial": lambda n: ec.l_polynomial(reg, ys, (1, 1, 2), check_extra=n),
    }


def outcome(call, n):
    try:
        return "ran", call(n)
    except ec.BudgetExceeded as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("qell, top", [((2, 3), 12), ((5, 3), 4)])
@pytest.mark.parametrize("name", ["count_tuples", "exhaustive_distribution",
                                  "count_constrained", "g_series", "base_prime_lines",
                                  "l_polynomial"])
def test_refusals_do_not_depend_on_process_history(qell, top, name, monkeypatch):
    # a regime warmed by every budgeted call of each size below top holds
    # its stratum table and its kernels to the size below; at top each call
    # is charged as on a fresh regime, so one step below a fresh regime's
    # charge (read from its refusal under a cap of 0) both refuse with the
    # same message, and at the charge and at the real cap both run alike
    warm = Regime(*qell)
    for n in range(1, top):
        for call in budgeted_calls(warm).values():
            call(n)
    cap = cp.KERNEL_STEP_CAP
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", 0)
    refusal = outcome(budgeted_calls(Regime(*qell))[name], top)[1]
    steps = int(re.search(r"about (\d+) table steps", refusal)[1])
    for limit, verdict in ((steps - 1, "refused"), (steps, "ran"), (cap, "ran")):
        monkeypatch.setattr(cp, "KERNEL_STEP_CAP", limit)
        fresh = outcome(budgeted_calls(Regime(*qell))[name], top)
        assert fresh[0] == verdict
        assert outcome(budgeted_calls(warm)[name], top) == fresh


def test_the_law_at_genus_226_is_refused_after_genus_224(capsys):
    # (5, 3) at genus 224, D = 226, is the largest law the cap admits; the
    # regime that ran it refuses genus 226 as a fresh regime and the CLI do
    message = ("counting branch tuples by class sum at 5 points to degree 228 "
               "takes about 4222154 table steps, over the cap 4194304")
    reg = Regime(5, 3)
    assert ec.exhaustive_distribution(reg, 224).D == 226
    for r in (reg, Regime(5, 3)):
        with pytest.raises(ec.BudgetExceeded) as exc:
            ec.exhaustive_distribution(r, 226)
        assert str(exc.value) == message
    assert cli.main(["ensemble", "--q", "5", "--ell", "3", "--genus", "226"]) == 1
    assert message in capsys.readouterr().err


def test_law_over_the_largest_group_ring():
    # (8, 3) has 3**8 class vectors, the most of any budgeted regime
    reg = Regime(8, 3)
    assert report_bytes(ec.exhaustive_distribution(reg, 0)) == \
        report_bytes(oracle_report(reg, 0, "least"))


@pytest.mark.parametrize("qell, trunc", [((11, 3), 4), ((7, 5), 4)])
def test_g_series_past_the_full_ring_cap(qell, trunc, monkeypatch):
    # 3**11 and 5**7 class vectors at all affine points put the full law
    # over the step budget: g_series counts lines only at the points of
    # nonzero weight
    reg = ec.make_regime(*qell)
    assert naive.class_sum_steps(reg, reg.q, trunc) > cp.KERNEL_STEP_CAP
    rng = Random(f"g_series:{qell}")
    for k in (1, 2, 3):
        xs = [reg.base.elem(v) for v in rng.sample(range(reg.q), k)]
        w = [rng.randrange(1, reg.ell) for _ in xs]
        w[0] = 0 if k == 3 else w[0]
        assert ec.g_series(reg, xs, w, trunc) == sieved_g_series(reg, xs, w, trunc)
    zero = ec.g_series(reg, xs, [0] * 3, trunc)
    assert zero == sieved_g_series(reg, xs, [0] * 3, trunc)
    assert ec.g_series(reg, xs, [1] * 3, reg.n_q - 1) == [1] + [0] * (reg.n_q - 1)
    assert tuple(range(reg.q)) not in reg._lines
    # the last weights on a fresh regime: refused one step below the
    # kernel's and the series' steps, with no kernel built, and computed at
    # them
    fresh = Regime(*qell)
    steps = (naive.kernel_steps(fresh, 2, trunc // reg.n_q)
             + naive.series_steps(fresh, trunc))
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps - 1)
    with pytest.raises(ec.BudgetExceeded):
        ec.g_series(fresh, xs, w, trunc)
    assert fresh._lines == {}
    monkeypatch.setattr(cp, "KERNEL_STEP_CAP", steps)
    assert ec.g_series(fresh, xs, w, trunc) == sieved_g_series(reg, xs, w, trunc)


def test_verify_passes_past_the_full_ring_cap():
    results = ec.run_checks(11, 3, max_D=2, tuple_cap=3, unit_cap=2)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    row = next(r for r in results if r.name == "exact-law")
    # charged as on a fresh regime, though the stratum-count row has built
    # the stratum's table by then
    reg = ec.make_regime(11, 3)
    steps = naive.class_sum_steps(reg, 11, 2)
    assert steps > cp.KERNEL_STEP_CAP
    assert row.detail == (
        "no degree compared; kernel law out of budget from D=2: counting "
        f"branch tuples by class sum at 11 points to degree 2 takes about "
        f"{steps} table steps, over the cap {cp.KERNEL_STEP_CAP}")
