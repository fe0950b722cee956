"""Fixed-genus ensembles: exact histograms, the limit law, total variation,
split frequencies, Monte Carlo reproducibility, and report serialization."""

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellcover as ec


R23 = ec.make_regime(2, 3)
R53 = ec.make_regime(5, 3)


def test_theoretical_distribution_formula():
    dist = ec.theoretical_distribution(R23)
    q, ell = 2, 3
    for m in range(q + 2):
        want = Fraction(comb(q + 1, m) * (ell - 1) ** (q + 1 - m), ell ** (q + 1))
        assert dist.mass(ell * m) == want
    assert dist.mass(0) == Fraction(8, 27)
    assert dist.mass(3) == Fraction(12, 27)
    assert dist.mass(6) == Fraction(6, 27)
    assert dist.mass(9) == Fraction(1, 27)
    dist.check_total()
    assert dist.lattice() == [0, 3, 6, 9]
    dist53 = ec.theoretical_distribution(R53)
    assert dist53.lattice() == [0, 3, 6, 9, 12, 15, 18]
    dist53.check_total()


def test_tv_distance_basic_cases():
    a = ec.Distribution(2, 3, {0: Fraction(1)})
    b = ec.Distribution(2, 3, {3: Fraction(1)})
    assert ec.tv_distance(a, a) == 0
    assert ec.tv_distance(a, b) == 1
    c = ec.Distribution(2, 3, {0: Fraction(1, 2), 3: Fraction(1, 2)})
    assert ec.tv_distance(a, c) == Fraction(1, 2)
    with pytest.raises(ec.SupportMismatch):
        ec.tv_distance(a, ec.Distribution(5, 3, {0: Fraction(1)}))


LATTICES = [(2, 3), (5, 3), (3, 5), (4, 7)]


@st.composite
def law_pairs(draw):
    """Two laws on one lattice, each on its own denominator.  A mass may be
    absent or an explicit zero, and in half the draws b keeps only the points
    where a has no positive mass, so the supports are disjoint."""
    q, ell = draw(st.sampled_from(LATTICES))
    lattice = [ell * m for m in range(q + 2)]
    weight = st.one_of(st.none(), st.integers(0, 10 ** 6))
    laws = []
    for _ in range(2):
        nums = draw(st.lists(weight, min_size=q + 2, max_size=q + 2).filter(
            lambda ns: any(ns)))
        total = sum(n for n in nums if n)
        laws.append({n: Fraction(c, total) for n, c in zip(lattice, nums) if c is not None})
    a, b = laws
    if draw(st.booleans()):
        b = {n: m for n, m in b.items() if not a.get(n)}
    return lattice, ec.Distribution(q, ell, a), ec.Distribution(q, ell, b)


@settings(max_examples=200, deadline=None)
@given(law_pairs())
def test_tv_distance_is_the_fraction_sum(pair):
    lattice, a, b = pair
    want = sum((abs(a.mass(n) - b.mass(n)) for n in lattice), Fraction(0)) / 2
    got = ec.tv_distance(a, b)
    assert type(got) is Fraction and got == want
    assert ec.tv_distance(b, a) == got
    assert ec.tv_distance(a, a) == 0 == ec.tv_distance(b, b)
    other = next(qe for qe in LATTICES if qe != (a.q, a.ell))
    with pytest.raises(ec.SupportMismatch):
        ec.tv_distance(a, ec.Distribution(*other, dict(a.masses)))


def test_exhaustive_genus_zero_fully_independent():
    # recompute the whole genus-0 ensemble with the brute-force oracle only
    rep = ec.exhaustive_distribution(R23, 0)
    assert rep.D == 2 and rep.ensemble_size == 6
    oracle_hist = {}
    for fs in ec.enumerate_tuples(R23, 2):
        for bv in range(1, 4):
            model = ec.twisted_model(ec.CoverParams(R23, fs, R23.ext.elem(bv)))
            n = ec.point_count_oracle(model)
            oracle_hist[n] = oracle_hist.get(n, 0) + 1
    assert dict((n, c) for n, c in rep.histogram if c) == oracle_hist
    assert rep.tv == Fraction(5, 9)  # frozen hand computation
    assert rep.mode == "exhaustive" and rep.seed is None


def test_exhaustive_histograms_and_size():
    for g, size in [(0, 6), (2, 18), (4, 90)]:
        rep = ec.exhaustive_distribution(R23, g)
        assert rep.ensemble_size == size
        assert sum(c for _, c in rep.histogram) == size
        assert rep.ensemble_size == \
            ec.count_tuples(R23, rep.D) * (R23.ext.order - 1)
        for n, _ in rep.histogram:
            assert n % 3 == 0 and 0 <= n <= 9
        rep.empirical.check_total()


def test_exhaustive_split_frequencies_exact():
    # multiplying b by the generator shifts every class uniformly, so the
    # unit orbit hits the split class exactly once per point: frequencies
    # are exactly 1/ell at every projective point
    for g in (0, 2):
        rep = ec.exhaustive_distribution(R23, g)
        labels = [lab for lab, _ in rep.split_freqs]
        assert labels == ["0", "1", "inf"]
        for _, freq in rep.split_freqs:
            assert freq == Fraction(1, 3)
    rep53 = ec.exhaustive_distribution(R53, 0)
    assert len(rep53.split_freqs) == 6
    for _, freq in rep53.split_freqs:
        assert freq == Fraction(1, 3)


def test_exhaustive_tv_sequence_frozen():
    tvs = {g: ec.exhaustive_distribution(R23, g).tv for g in (0, 2, 4, 6, 8)}
    assert tvs[0] == Fraction(5, 9)
    assert tvs[2] == Fraction(4, 27)
    assert tvs[4] == Fraction(1, 15)
    assert tvs[6] == 0
    assert tvs[8] == Fraction(1, 225)


def test_empty_stratum_is_loud():
    with pytest.raises(ec.EmptyStratum):
        ec.exhaustive_distribution(R23, 1)
    with pytest.raises(ec.EmptyStratum):
        ec.monte_carlo_distribution(R23, 1, 10, seed=0)
    with pytest.raises(ec.EmptyStratum):
        ec.exhaustive_distribution(ec.make_regime(2, 5), 0)


def test_monte_carlo_reproducible():
    a = ec.monte_carlo_distribution(R23, 6, 400, seed=5)
    b = ec.monte_carlo_distribution(R23, 6, 400, seed=5)
    assert a.histogram == b.histogram
    assert a.split_freqs == b.split_freqs
    assert a.tv == b.tv
    d = ec.monte_carlo_distribution(R23, 6, 400, seed=6)
    assert d.histogram != a.histogram  # different seed, different draws
    assert a.ensemble_size == 400 and a.mode == "monte-carlo" and a.seed == 5


def test_monte_carlo_odd_characteristic_is_frozen():
    # (3, 5) at g = 20: primes over F_3 by rejection, split over F_81; the
    # values were recorded before the modular-power kernel and the root screen
    rep = ec.monte_carlo_distribution(ec.make_regime(3, 5), 20, 60, seed=7)
    assert rep.histogram == ((0, 29), (5, 15), (10, 15), (15, 1), (20, 0))
    assert rep.split_freqs == (("0", Fraction(1, 6)), ("1", Fraction(11, 60)),
                               ("2", Fraction(13, 60)), ("inf", Fraction(7, 30)))


@pytest.mark.parametrize("labeling,histogram,split_freqs", [
    ("least", ((0, 146), (3, 217), (6, 120), (9, 17)),
     (("0", Fraction(81, 250)), ("1", Fraction(177, 500)), ("inf", Fraction(169, 500)))),
    ("greatest", ((0, 155), (3, 222), (6, 106), (9, 17)),
     (("0", Fraction(153, 500)), ("1", Fraction(163, 500)), ("inf", Fraction(169, 500)))),
])
def test_monte_carlo_char2_is_frozen(labeling, histogram, split_freqs):
    # (2, 3) at g = 30: primes over F_2 of degree up to 32, split over F_4;
    # the values were recorded before the cube-root-and-gcd split
    rep = ec.monte_carlo_distribution(R23, 30, 500, seed=42, labeling=labeling)
    assert rep.histogram == histogram
    assert rep.split_freqs == split_freqs


def test_monte_carlo_matches_exhaustive_in_the_limit_sense():
    # at genus 2 the exhaustive law is exactly uniform over {0,3,6}; a
    # seeded 900-draw Monte Carlo must land near it
    mc = ec.monte_carlo_distribution(R23, 2, 900, seed=31)
    exh = ec.exhaustive_distribution(R23, 2)
    assert ec.tv_distance(mc.empirical, exh.empirical) < Fraction(6, 100)


def test_labeling_does_not_change_ensemble_statistics():
    for g in (0, 2, 4):
        least = ec.exhaustive_distribution(R23, g, "least")
        greatest = ec.exhaustive_distribution(R23, g, "greatest")
        assert least.histogram == greatest.histogram
        assert least.split_freqs == greatest.split_freqs
        assert least.tv == greatest.tv


def test_report_json_schema():
    rep = ec.monte_carlo_distribution(R23, 4, 50, seed=1)
    d = rep.to_json_dict()
    assert list(d) == ["regime", "g", "D", "mode", "seed", "labeling",
                       "ensemble_size", "histogram", "empirical",
                       "theoretical", "tv_distance", "split_frequencies",
                       "runtime_ms"]
    assert list(d["regime"]) == ["q", "ell", "n_q", "p", "k", "modulus"]
    assert d["regime"] == {"q": 2, "ell": 3, "n_q": 2, "p": 2, "k": 1,
                           "modulus": "1,1,1"}
    assert d["g"] == 4 and d["D"] == 6 and d["seed"] == 1
    assert d["mode"] == "monte-carlo" and d["labeling"] == "least"
    assert [row["N"] for row in d["histogram"]] == [0, 3, 6, 9]
    assert sum(row["count"] for row in d["histogram"]) == 50
    for row in d["empirical"] + d["theoretical"]:
        assert set(row) == {"N", "num", "den"}
    assert d["tv_distance"]["den"] > 0
    assert [row["x"] for row in d["split_frequencies"]] == ["0", "1", "inf"]
    assert isinstance(d["runtime_ms"], int) and d["runtime_ms"] >= 0
    json.dumps(d)  # serializable


def test_report_json_deterministic_modulo_runtime():
    a = ec.monte_carlo_distribution(R23, 4, 60, seed=2).to_json_dict()
    b = ec.monte_carlo_distribution(R23, 4, 60, seed=2).to_json_dict()
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert json.dumps(a) == json.dumps(b)


def test_report_csv():
    rep = ec.exhaustive_distribution(R23, 0)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "N,count,empirical,theoretical"
    assert len(lines) == 1 + 4  # header + lattice rows
    assert lines[1].startswith("0,0,0/1,")
    assert lines[2].startswith("3,6,1/1,")


@pytest.mark.parametrize("run", [
    lambda labeling: ec.exhaustive_distribution(R23, 8, labeling),
    lambda labeling: ec.monte_carlo_distribution(R23, 8, 5, 0, labeling),
], ids=["exhaustive", "monte-carlo"])
def test_unknown_labeling_is_rejected_at_entry(run):
    # the exact law never reads the labeling, so only this check stops a
    # report labelled with a rule that does not exist
    for bad in ("bogus", "", "Least", None):
        with pytest.raises(ValueError, match="labeling"):
            run(bad)


def test_monte_carlo_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        ec.monte_carlo_distribution(R23, 2, 0, seed=0)
