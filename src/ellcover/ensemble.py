"""Fixed-genus ensembles of covers and the limiting point-count law.

In this regime every fiber over a base-rational point holds either 0 or ell
points, so the total count lands on the lattice {0, ell, ..., (q+1)ell}.  As
the genus grows the q+1 fiber indicators become independent fair ell-sided
events, giving the exact binomial limit law; ensembles here are measured
either exhaustively (the exact law over every branch tuple and twisting
unit, from the base primes counted by class line) or by uniform Monte Carlo
sampling, and compared to the limit in total variation.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from random import Random

from .charsum import INFINITY, projective_points
from .coverparam import (
    Regime,
    _check_labeling,
    _enumerate_full,
    _sample_full,
    admissible_D,
    class_vector,
)
from .errors import CrossCheckMismatch, EmptyStratum, SupportMismatch
from .gf import FieldElem
from .lseries import _class_sum_counts


@dataclass(frozen=True)
class Distribution:
    """Probability masses on the point-count lattice {0, ell, ..., (q+1)ell}."""

    q: int
    ell: int
    masses: dict[int, Fraction]

    def lattice(self) -> list[int]:
        return [self.ell * m for m in range(self.q + 2)]

    def mass(self, n: int) -> Fraction:
        return self.masses.get(n, Fraction(0))

    def to_json_list(self) -> list[dict]:
        """The mass at each lattice point as an exact fraction."""
        return [{"N": n, "num": self.mass(n).numerator, "den": self.mass(n).denominator}
                for n in self.lattice()]

    def check_total(self) -> None:
        total = sum(self.masses.values(), Fraction(0))
        if total != 1:
            raise CrossCheckMismatch(f"masses sum to {total}, not 1")


def theoretical_distribution(regime: Regime) -> Distribution:
    """Limit law: ell * Binomial(q + 1, 1/ell)."""
    q, ell = regime.q, regime.ell
    masses = {
        ell * m: Fraction(comb(q + 1, m) * (ell - 1) ** (q + 1 - m), ell ** (q + 1))
        for m in range(q + 2)
    }
    return Distribution(q, ell, masses)


def tv_distance(a: Distribution, b: Distribution) -> Fraction:
    """Total variation distance between two laws on the same lattice."""
    if (a.q, a.ell) != (b.q, b.ell):
        raise SupportMismatch(
            f"distributions live on different lattices: "
            f"(q={a.q}, ell={a.ell}) vs (q={b.q}, ell={b.ell})")
    support = set(a.masses) | set(b.masses)
    total = sum((abs(a.mass(n) - b.mass(n)) for n in support), Fraction(0))
    return total / 2


@dataclass(frozen=True)
class DistributionReport:
    """One measured ensemble with its comparison against the limit law."""

    regime: Regime
    g: int
    D: int
    mode: str
    seed: int | None
    labeling: str
    ensemble_size: int
    histogram: tuple[tuple[int, int], ...]
    empirical: Distribution
    theoretical: Distribution
    tv: Fraction
    split_freqs: tuple[tuple[str, Fraction], ...]
    runtime_ms: int

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.to_json_dict(),
            "g": self.g,
            "D": self.D,
            "mode": self.mode,
            "seed": self.seed,
            "labeling": self.labeling,
            "ensemble_size": self.ensemble_size,
            "histogram": [{"N": n, "count": c} for n, c in self.histogram],
            "empirical": self.empirical.to_json_list(),
            "theoretical": self.theoretical.to_json_list(),
            "tv_distance": {"num": self.tv.numerator, "den": self.tv.denominator},
            "split_frequencies": [
                {"x": label, "freq": float(freq)} for label, freq in self.split_freqs
            ],
            "runtime_ms": self.runtime_ms,
        }

    def to_csv(self) -> str:
        lines = ["N,count,empirical,theoretical"]
        hist = dict(self.histogram)
        for n in self.theoretical.lattice():
            emp = self.empirical.mass(n)
            theo = self.theoretical.mass(n)
            lines.append(f"{n},{hist.get(n, 0)},{emp.numerator}/{emp.denominator},"
                         f"{theo.numerator}/{theo.denominator}")
        return "\n".join(lines) + "\n"


def _point_label(x) -> str:
    return "inf" if x is INFINITY else str(x)


def _measure_covers(regime: Regime, jobs, labeling: str):
    """Point-count every (prime_mults, b, classes) job from its class_vector;
    return (histogram, split counter, size).  Fibers are ell at class 0 and
    empty otherwise: no rational point ramifies here, since class_vector
    raises UnexpectedRoot on any vanishing prime value."""
    ell = regime.ell
    hist: Counter[int] = Counter()
    splits: Counter[int] = Counter()
    size = 0
    for prime_mults, b, classes in jobs:
        n_total = 0
        for idx, e in enumerate(class_vector(regime, prime_mults, b, labeling, classes)):
            if e == 0:
                n_total += ell
                splits[idx] += 1
        hist[n_total] += 1
        size += 1
    return hist, splits, size


def _report(regime: Regime, g: int, D: int, mode: str, seed: int | None,
            labeling: str, hist: Counter, splits: Counter, size: int,
            started: float) -> DistributionReport:
    points = projective_points(regime)
    theoretical = theoretical_distribution(regime)
    empirical = Distribution(
        regime.q, regime.ell,
        {n: Fraction(c, size) for n, c in sorted(hist.items())})
    histogram = tuple((n, hist[n]) for n in theoretical.lattice())
    tv = tv_distance(empirical, theoretical)
    split_freqs = tuple(
        (_point_label(x), Fraction(splits.get(i, 0), size))
        for i, x in enumerate(points))
    runtime_ms = int((time.monotonic() - started) * 1000)
    return DistributionReport(regime, g, D, mode, seed, labeling, size,
                              histogram, empirical, theoretical, tv,
                              split_freqs, runtime_ms)


def _genus_degree(regime: Regime, g: int) -> int:
    d = admissible_D(regime, g)
    if d is None:  # an admissible degree is a multiple of n_q, so it has tuples
        raise EmptyStratum(f"no covers of genus {g} for {regime!r}")
    return d


def _enumerated_law(regime: Regime, D: int, labeling: str):
    """(histogram, split counter, size) of every cover of degree D, one
    cover at a time: the oracle for _exact_law."""
    units = range(1, regime.ext.order)
    jobs = ((prime_mults, FieldElem(regime.ext, b_val), None)
            for prime_mults in _enumerate_full(regime, D) for b_val in units)
    return _measure_covers(regime, jobs, labeling)


def _exact_law(regime: Regime, D: int):
    """(histogram, split counter, size) of every cover of degree D, from the
    base-prime lines alone: a cover's affine classes are n_q * (e(b) + u),
    u its class sum at every affine point, so the law is fixed by A, the
    branch tuples per class line (_class_sum_counts).  A nonzero line v
    holds the ell - 1 class sums t*v, with A(v) tuples each; the zero line
    holds one.  At t*v the twist class e(b) = -t*s hits the points i with
    v_i = s, and infinity, of class n_q e(b), when s = 0, so each s in
    Z/ell stands for one (multiple, twist class) pair per class sum on the
    line.  Each class of e(b) holds (Q-1)/ell units.
    """
    ell, q = regime.ell, regime.q
    per_class = (regime.ext.order - 1) // ell
    hist: Counter[int] = Counter()
    splits: Counter[int] = Counter()
    for v, a in _class_sum_counts(regime, tuple(range(q)), D).items():
        a *= ell - 1 if any(v) else 1
        for s in range(ell):
            hits = [i for i, c in enumerate(v) if c == s]
            if s == 0:
                hits.append(q)  # infinity
            hist[ell * len(hits)] += a * per_class
            for i in hits:
                splits[i] += a * per_class
    return hist, splits, sum(hist.values())


def exhaustive_distribution(regime: Regime, g: int,
                            labeling: str = "least") -> DistributionReport:
    """The exact law of every cover of genus g (all branch tuples, all
    twisting units), budgeted before any work."""
    _check_labeling(labeling)
    started = time.monotonic()
    d = _genus_degree(regime, g)
    hist, splits, size = _exact_law(regime, d)
    return _report(regime, g, d, "exhaustive", None, labeling, hist, splits,
                   size, started)


def monte_carlo_distribution(regime: Regime, g: int, samples: int, seed: int,
                             labeling: str = "least") -> DistributionReport:
    """Measure `samples` uniform covers of genus g.

    Draw i comes from the stream keyed (seed, i), so it is the cover that
    sample_params(regime, D, seed, i) returns."""
    _check_labeling(labeling)
    if samples <= 0:
        raise ValueError("sample count must be positive")
    started = time.monotonic()
    d = _genus_degree(regime, g)
    jobs = (_sample_full(regime, d, Random(f"{seed}:{i}"), labeling)
            for i in range(samples))
    hist, splits, size = _measure_covers(regime, jobs, labeling)
    if size != samples:
        raise CrossCheckMismatch(f"measured {size} covers, drew {samples}")
    return _report(regime, g, d, "monte-carlo", seed, labeling, hist, splits,
                   size, started)
