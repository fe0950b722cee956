"""The Monte Carlo walk held to the stratum table by exact statistics.

Each statistic is a chi-square against an exact law that the test computes
itself, at a false-alarm rate of 1e-6 fixed before the first run:
- the number of primes of each degree class, against its marginal, from
  the stratum weights comb(N, j) * (ell - 1)**j by a product over the other
  classes here, not by the walk's table; the classes share the rate by
  Bonferroni;
- the slots of all drawn primes, against uniform on 1..ell - 1;
- the class e(b) of the twisting unit, against uniform on Z/ell.
Seeds and sample sizes are fixed too: a failure is a sampler defect, not a
reason to re-seed or resize.
"""

import math
from collections import Counter
from random import Random

import pytest

import ellcover as ec
from ellcover.coverparam import _sample_full

import naive

ALPHA = 1e-6
# (q, ell, genus, draws)
RUNS = [(2, 3, 30, 4000), (3, 5, 20, 2000)]


def chi2_tail(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with dof degrees of freedom: one minus the
    regularized lower gamma function at (dof/2, x/2), by its series."""
    a, z = dof / 2, x / 2
    if z <= 0:
        return 1.0
    term = total = 1.0 / a
    n = 0
    while term > total * 1e-17:
        n += 1
        term *= z / (a + n)
        total += term
    return max(0.0, 1.0 - math.exp(a * math.log(z) - z - math.lgamma(a)) * total)


def chi2_bound(dof: int, alpha: float) -> float:
    """The chi-square value whose tail is alpha, by bisection."""
    lo, hi = 0.0, 1000.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if chi2_tail(mid, dof) > alpha else (lo, mid)
    return hi


def chi2(observed: Counter, expected: dict) -> tuple[float, int]:
    """(statistic, dof) over the cells of expected, cells merged from the top
    down into the next until each expects at least 5."""
    cells, obs, exp = [], 0, 0.0
    for key in sorted(expected, reverse=True):
        obs += observed.get(key, 0)
        exp += expected[key]
        if exp >= 5:
            cells.append([obs, exp])
            obs, exp = 0, 0.0
    if cells:
        cells[-1][0] += obs
        cells[-1][1] += exp
    return sum((o - e) ** 2 / e for o, e in cells), len(cells) - 1


def profile_marginals(q: int, n_q: int, ell: int, M: int) -> dict[int, dict[int, float]]:
    """For each class c <= M, P(j primes of degree n_q*c) among the branch
    tuples of degree n_q*M, from the generating function prod over classes
    of sum_j comb(N_c, j) * (ell - 1)**j * u**(j*c)."""
    factors = {}
    for c in range(1, M + 1):
        n = naive.necklace_formula(q, n_q * c)
        factors[c] = {j: math.comb(n, j) * (ell - 1) ** j for j in range(M // c + 1)}

    def product(skip):
        series = [1] + [0] * M
        for c, terms in factors.items():
            if c == skip:
                continue
            series = [sum(series[m - j * c] * w for j, w in terms.items() if j * c <= m)
                      for m in range(M + 1)]
        return series

    total = product(None)[M]
    out = {}
    for c, terms in factors.items():
        rest = product(c)
        out[c] = {j: w * rest[M - j * c] / total for j, w in terms.items()}
    return out


def _draws(q, ell, g, draws):
    reg = ec.make_regime(q, ell)
    D = ec.admissible_D(reg, g)
    return reg, D, [_sample_full(reg, D, Random(f"law:{q}:{ell}:{i}"))[:2]
                    for i in range(draws)]


def law_statistics(reg, D, samples):
    """[(name, statistic, dof, bound)] for the three statistics."""
    n_q, ell, M = reg.n_q, reg.ell, D // reg.n_q
    out = []
    marginals = profile_marginals(reg.q, n_q, ell, M)
    per_class = []
    for c, law in marginals.items():
        counts = Counter(sum(pr.degree == n_q * c for pr, _ in pm) for pm, _ in samples)
        stat, dof = chi2(counts, {j: p * len(samples) for j, p in law.items()})
        if dof:
            per_class.append((f"primes of degree {n_q * c}", stat, dof))
    for name, stat, dof in per_class:
        out.append((name, stat, dof, chi2_bound(dof, ALPHA / len(per_class))))
    slots = Counter(slot for pm, _ in samples for _, slot in pm)
    stat, dof = chi2(slots, {s: sum(slots.values()) / (ell - 1) for s in range(1, ell)})
    out.append(("slots", stat, dof, chi2_bound(dof, ALPHA)))
    units = Counter(ec.lth_power_class(b, ell) for _, b in samples)
    stat, dof = chi2(units, {e: len(samples) / ell for e in range(ell)})
    out.append(("unit class", stat, dof, chi2_bound(dof, ALPHA)))
    return out


def test_chi2_tail_matches_closed_forms():
    # two degrees of freedom: exp(-x/2); one: erfc(sqrt(x/2))
    for x in (0.5, 3.0, 20.0, 60.0):
        assert chi2_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-9)
        assert chi2_tail(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-6)
    assert chi2_bound(1, 1e-6) == pytest.approx(23.928, abs=1e-3)


def test_profile_marginals_match_the_enumerated_stratum():
    # (2,3) at D = 8: the law of each class read off every branch tuple
    reg = ec.make_regime(2, 3)
    counts = {c: Counter() for c in range(1, 5)}
    tuples = 0
    for pm in ec.coverparam._enumerate_full(reg, 8):
        tuples += 1
        for c in counts:
            counts[c][sum(pr.degree == 2 * c for pr, _ in pm)] += 1
    assert tuples == ec.count_tuples(reg, 8)
    for c, law in profile_marginals(2, 2, 3, 4).items():
        assert {j: n / tuples for j, n in counts[c].items()} == pytest.approx(
            {j: p for j, p in law.items() if p})


@pytest.mark.parametrize("q, ell, g, draws", RUNS)
def test_the_walk_follows_the_stratum_law(q, ell, g, draws):
    reg, D, samples = _draws(q, ell, g, draws)
    stats = law_statistics(reg, D, samples)
    assert len(stats) >= 4
    failed = [(name, round(stat, 2), dof, round(bound, 2))
              for name, stat, dof, bound in stats if stat > bound]
    assert not failed, failed
