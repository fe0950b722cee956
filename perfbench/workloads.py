"""The benchmark's workloads: what one op calls, how its input is drawn from
a per-op seed, and how its output is checked outside the timed region.

An op is one public library call (two for the L-polynomial workload:
`l_polynomial`, then `root_magnitudes`).  Op i of a run draws everything it
needs from the i-th value of `op_seeds(workload, seed)`, so no seed repeats
inside a run and any run seed works.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter
from typing import ClassVar

import ellcover as ec

# Histogram of every genus-8 cover over (q, ell) = (2, 3): 450 branch tuples
# times 3 twisting units.  It was checked against `point_count_oracle` on all
# 1 350 covers when written; test_perfbench.py repeats that check.
G8_HISTOGRAM = ((0, 396), (3, 606), (6, 300), (9, 48))
G8_TV = Fraction(1, 225)


def op_seeds(workload: str, seed: int):
    """Endless stream of distinct per-op seeds, fixed by (workload, seed)."""
    rng = Random(f"perfbench:{workload}:{seed}")
    seen = set()
    while True:
        s = rng.getrandbits(62)
        if s not in seen:
            seen.add(s)
            yield s


def no_span(name: str):
    return nullcontext()


@dataclass(frozen=True)
class MonteCarlo:
    """`monte_carlo_distribution(make_regime(q, ell), g, samples, seed=s_i)`."""

    result_kind: ClassVar[str] = "covers"
    name: str
    q: int
    ell: int
    g: int
    samples: int
    recount: int  # covers of the seed-s_i stream recounted by the oracle
    op_s: float  # nominal op time at reference speed; sets the op count
    run_scale: float = 1.0  # run length as a multiple of --seconds

    @property
    def op_text(self) -> str:
        return (f"monte_carlo_distribution(make_regime({self.q},{self.ell}), "
                f"{self.g}, {self.samples}, seed=s_i)")

    def prepare(self, reg) -> None:
        ec.count_tuples(reg, ec.admissible_D(reg, self.g))

    def draw(self, s: int) -> int:
        return s

    def run(self, reg, seed: int, span=no_span):
        with span("ensemble"):
            return ec.monte_carlo_distribution(reg, self.g, self.samples, seed=seed)

    def results(self, rep) -> int:
        return rep.ensemble_size

    def check(self, reg, seed: int, rep) -> str | None:
        hist = dict(rep.histogram)
        if rep.ensemble_size != self.samples or sum(hist.values()) != self.samples:
            return (f"report size {rep.ensemble_size}, histogram total "
                    f"{sum(hist.values())}, expected {self.samples}")
        lattice = {reg.ell * m for m in range(reg.q + 2)}
        if not set(hist) <= lattice:
            return f"point counts {sorted(set(hist) - lattice)} off the lattice"
        sub = ec.monte_carlo_distribution(reg, self.g, self.recount, seed=seed)
        oracle = Counter(
            ec.point_count_oracle(ec.twisted_model(ec.sample_params(reg, sub.D, seed, i)))
            for i in range(self.recount))
        got = {n: c for n, c in sub.histogram if c}
        if got != dict(oracle):
            return f"{self.recount}-sample histogram {got} != oracle recount {dict(oracle)}"
        return None


@dataclass(frozen=True)
class Exhaustive:
    """`exhaustive_distribution(make_regime(q, ell), g, labeling)`."""

    result_kind: ClassVar[str] = "covers"
    name: str
    q: int
    ell: int
    g: int
    histogram: tuple[tuple[int, int], ...]
    tv: Fraction
    op_s: float
    run_scale: float = 1.0

    @property
    def op_text(self) -> str:
        return (f"exhaustive_distribution(make_regime({self.q},{self.ell}), "
                f"{self.g}, labeling drawn from s_i)")

    def prepare(self, reg) -> None:
        D = ec.admissible_D(reg, self.g)
        ec.count_tuples(reg, D)
        for d in range(reg.n_q, D + 1, reg.n_q):
            ec.primes_with_degree(reg.base, d)

    def draw(self, s: int) -> str:
        return Random(s).choice(("least", "greatest"))

    def run(self, reg, labeling: str, span=no_span):
        with span("ensemble"):
            return ec.exhaustive_distribution(reg, self.g, labeling)

    def results(self, rep) -> int:
        return rep.ensemble_size

    def check(self, reg, labeling: str, rep) -> str | None:
        if rep.labeling != labeling:
            return f"report labeling {rep.labeling!r}, asked for {labeling!r}"
        if rep.histogram != self.histogram or rep.ensemble_size != sum(
                c for _, c in self.histogram):
            return f"histogram {rep.histogram} != frozen {self.histogram}"
        if rep.tv != self.tv:
            return f"total variation {rep.tv} != frozen {self.tv}"
        return None


@dataclass(frozen=True)
class LSeries:
    """`l_polynomial(make_regime(q, ell), [x1, x2], w)`, then `root_magnitudes`."""

    result_kind: ClassVar[str] = "L-polynomials"
    name: str
    q: int
    ell: int
    check_extra: int | None  # None keeps the library default
    op_s: float
    run_scale: float = 1.0

    @property
    def op_text(self) -> str:
        extra = "" if self.check_extra is None else f", check_extra={self.check_extra}"
        return (f"l_polynomial(make_regime({self.q},{self.ell}), [x1, x2], w{extra}); "
                "root_magnitudes")

    def prepare(self, reg) -> None:
        # root_magnitudes imports numpy on first use; every CLI call pays it.
        ec.root_magnitudes([ec.CycloInt.from_int(reg.ell, 1),
                            ec.CycloInt.from_int(reg.ell, reg.q)])

    def draw(self, s: int):
        rng = Random(s)
        x1, x2 = rng.sample(range(self.q), 2)
        return x1, x2, (rng.choice((1, 2)), rng.choice((1, 2)))

    def run(self, reg, inp, span=no_span):
        x1, x2, w = inp
        kwargs = {} if self.check_extra is None else {"check_extra": self.check_extra}
        with span("lseries.l_polynomial"):
            coeffs = ec.l_polynomial(reg, [reg.base.elem(x1), reg.base.elem(x2)],
                                     w, **kwargs)
        with span("lseries.root_magnitudes"):
            mags = ec.root_magnitudes(coeffs)
        return coeffs, mags

    def results(self, out) -> int:
        return 1

    def check(self, reg, inp, out) -> str | None:
        coeffs, mags = out
        if len(coeffs) != 2 or coeffs[0] != 1:
            return f"coefficients {coeffs}: expected two, with c0 = 1"
        allowed = (1.0, reg.q ** (-reg.n_q / 2))
        bad = [m for m in mags if min(abs(m - a) for a in allowed) > 1e-9]
        if bad:
            return f"zero magnitudes {bad} are neither 1 nor {allowed[1]}"
        return None


WORKLOADS = {w.name: w for w in (
    MonteCarlo(
        "mc-char2", 2, 3, g=30, samples=500, recount=4, op_s=1.25),
    # Its ops differ most in cost (by 15 % within a run), so it runs twice as
    # many of them to keep its median as steady as the others'.
    MonteCarlo(
        "mc-odd", 3, 5, g=20, samples=60, recount=4, op_s=1.6, run_scale=2.0),
    Exhaustive(
        "exhaustive-char2", 2, 3, g=8, histogram=G8_HISTOGRAM, tv=G8_TV,
        op_s=0.7),
    LSeries(
        "lseries-odd", 5, 3, check_extra=None, op_s=8.0),
)}


def run_op(wl, reg, s: int, tracer=None, op_index: int = 0, clock=perf_counter):
    """Run op s once and check it; returns (op seconds on `clock`, results,
    error).

    An op fails if it raises, a bare library AssertionError included, or if
    its output check fails; the check runs outside the timed region and, in
    a traced run, outside every span.
    """
    inp = wl.draw(s)
    span = no_span
    if tracer is not None:
        span = tracer.span
        tracer.op_id = op_index
    t0 = clock()
    try:
        out = wl.run(reg, inp, span)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return clock() - t0, 0, f"op raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = clock() - t0
        if tracer is not None:
            tracer.op_id = -1
    try:
        err = wl.check(reg, inp, out)
    except Exception as exc:
        err = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, (0 if err else wl.results(out)), err
