"""Self-contained consistency checks pairing every fast computation with an
independent slow one: each sampled cover's twisted model (components,
class at every point, fiber against a brute-force root scan) against the
cached class vectors, class-kernel constrained counts against direct
enumeration, stream enumeration against exact stratum counts,
L-polynomials against sums over every monic polynomial and the Horner
transfer, exact ensemble laws from the base-prime lines against every
enumerated cover, and the invariances (anchoring rule, power reindexing)
that the statistics rely on."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .charsum import check_cover
from .coverparam import (
    LABELINGS,
    CoverParams,
    Regime,
    _degree_classes,
    _enumerate_full,
    _tuple_from_primes,
    check_enum_budget,
    check_regime,
    class_vector,
    count_tuples,
    enumerate_tuples,
    make_regime,
    power_orbit,
    prime_classes,
    sample_params,
    validate_params,
)
from .ensemble import _enumerated_law, _exact_law
from .errors import BudgetExceeded, CrossCheckMismatch, EllcoverError
from .fqpoly import check_sieve_budget, primes_with_degree
from .gf import FieldElem, embed_elem
from .lseries import (
    _constrained_by_enumeration,
    _l_coefficients_by_enumeration,
    _line_of,
    _transfer_coefficients,
    count_constrained,
    l_polynomial,
)


# Sampled covers that are also checked under every power reindexing.
ORBIT_JOBS = 60


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(ok: bool, message: str) -> None:
    """Fail a check with a typed error, which `python -O` cannot strip."""
    if not ok:
        raise CrossCheckMismatch(message)


def _sample_jobs(regime: Regime, max_D: int, tuple_cap: int, unit_cap: int):
    """A deterministic spread of (params) jobs: leading tuples per degree
    crossed with leading units."""
    units = [FieldElem(regime.ext, v)
             for v in range(1, min(regime.ext.order, unit_cap + 1))]
    for d in _degree_classes(regime, max_D):
        for fs in islice(enumerate_tuples(regime, d), tuple_cap):
            for b in units:
                yield CoverParams(regime, fs, b)


def run_checks(q: int, ell: int, max_D: int = 4, tuple_cap: int = 25,
               unit_cap: int = 5) -> list[CheckResult]:
    """Run the full battery for one regime; every row is independently
    recomputed evidence, not a cached pass.  ValueError if max_D < n_q or a
    cap is below 1; BudgetExceeded, before any row runs, if a degree up to
    max_D is over the enumeration cap or the prime sieve's budget."""
    if tuple_cap < 1 or unit_cap < 1:  # a row would divide by 0 or pass on 0 covers
        raise ValueError(f"tuple_cap {tuple_cap} and unit_cap {unit_cap} must be 1 or more")
    results: list[CheckResult] = []

    def record(name: str, fn) -> None:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except EllcoverError as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    # budgets come before fields: a refusal builds no extension
    try:
        n_q = check_regime(q, ell)[2]
    except EllcoverError as exc:
        return [CheckResult("regime", False, f"{type(exc).__name__}: {exc}")]
    if max_D < n_q:  # no branch degree to check: every row would pass
        raise ValueError(f"max degree {max_D} is below the least branch degree "
                         f"n_q = {n_q}: use --max-degree {n_q} or more")
    for d in range(n_q, max_D + 1, n_q):  # the rows enumerate and sieve up to max_D
        try:
            check_enum_budget(d)
            check_sieve_budget(q, d)
        except BudgetExceeded as exc:
            fits = d - n_q  # the last degree that passed, 0 when none did
            hint = f"use --max-degree {fits} or less" if fits else "no --max-degree fits"
            raise BudgetExceeded(f"{exc}: {hint}") from None
    regime = make_regime(q, ell)  # check_regime admitted (q, ell)
    results.append(CheckResult(
        "regime", True,
        f"q={q}, ell={ell}, n_q={regime.n_q}, extension F_{regime.ext.order}"))

    def check_fibers() -> str:
        # Each cover's model, built once per anchoring rule, is held to its
        # class vector and the root scan (check_cover).  Reindexing by a power
        # r, (F, b) -> (F**r, b**r), multiplies every class by r, which the
        # first ORBIT_JOBS covers must show from class vectors alone.
        n_covers = 0
        for params in _sample_jobs(regime, max_D, tuple_cap, unit_cap):
            classes = {lab: check_cover(params, lab)[1] for lab in LABELINGS}
            if n_covers < ORBIT_JOBS:
                for r in range(2, ell):
                    moved = power_orbit(params, r)
                    moved_mults = validate_params(moved)
                    for lab in LABELINGS:
                        got = class_vector(regime, moved_mults, moved.b, lab)
                        want = tuple(r * e % ell for e in classes[lab])
                        if got != want:  # the message lists the tuple: build it on failure only
                            raise CrossCheckMismatch(
                                f"{lab} labeling, power {r} of {params.fs}: "
                                f"classes {got}, not {r} times {want}")
            n_covers += 1
        return (f"{n_covers} covers, each under both anchoring rules, at "
                f"{regime.q + 1} points: components conjugate, coprime, of the "
                "embedded product; model class == class vector, fiber == scan; "
                f"power r = 2..{ell - 1} of the first {min(n_covers, ORBIT_JOBS)} "
                "multiplies their classes by r")

    record("fiber-oracle", check_fibers)

    def check_labeling() -> str:
        # Individual covers may count differently under the two anchoring
        # rules (re-anchoring multiplies a prime's class functional by a
        # power of q, which the twisting unit does not follow).  What holds
        # exactly is a slot-reindexing bijection of each stratum, so the
        # histogram of counts over all tuples at any fixed unit is identical
        # for both rules; that is the statement the statistics rely on.
        # Counted from class vectors, which the fiber-oracle row checks.
        from collections import Counter

        d = regime.n_q
        units = [FieldElem(regime.ext, v)
                 for v in range(1, min(regime.ext.order, 4))]
        for b in units:
            hists = {}
            for lab in LABELINGS:
                counter: Counter[int] = Counter()
                for pm in _enumerate_full(regime, d):
                    counter[ell * class_vector(regime, pm, b, lab).count(0)] += 1
                hists[lab] = counter
            _require(hists["least"] == hists["greatest"],
                     f"tuple-ensemble histogram at b={b} depends on anchoring: "
                     f"{dict(hists['least'])} vs {dict(hists['greatest'])}")
        # The exact law and g_series read class lines, not classes, which
        # holds only if re-anchoring keeps every prime's class vector on its
        # line.  Checked for every prime of degree <= max_D.
        n_primes = 0
        for deg in _degree_classes(regime, max_D):
            for prime in primes_with_degree(regime.base, deg):
                least = _line_of(prime_classes(regime, prime, "least"), ell)
                greatest = _line_of(prime_classes(regime, prime, "greatest"), ell)
                _require(least == greatest,
                         f"{prime!r} is on line {least} under one anchoring rule "
                         f"and on {greatest} under the other")
                n_primes += 1
        return (f"ensemble histograms at D={d} identical for both anchoring "
                f"rules over {len(units)} units; class line the same under "
                f"both rules for {n_primes} primes")

    record("labeling-invariance", check_labeling)

    def check_counts() -> str:
        # Each tuple is checked from the primes the stream hands over; about
        # tuple_cap of them per degree, spread over the stream, are also
        # built, validated (factored) and must factor back into those primes.
        rows = []
        b = FieldElem(regime.ext, 1)
        for d in _degree_classes(regime, max_D):
            expected = count_tuples(regime, d)
            stride = max(1, expected // tuple_cap)
            seen = 0
            for prime_mults in _enumerate_full(regime, d):
                primes = {prime.coeffs for prime, _ in prime_mults}
                _require(len(primes) == len(prime_mults),
                         f"D={d}: tuple {seen} repeats a prime")
                _require(all(prime.is_monic and prime.degree % regime.n_q == 0
                             for prime, _ in prime_mults),
                         f"D={d}: tuple {seen} has a prime that is not monic of "
                         f"degree divisible by {regime.n_q}")
                _require(all(0 < slot < ell for _, slot in prime_mults),
                         f"D={d}: tuple {seen} has a slot outside 1..{ell - 1}")
                _require(sum(prime.degree for prime, _ in prime_mults) == d,
                         f"D={d}: tuple {seen} is not of degree {d}")
                if seen % stride == 0:
                    fs = _tuple_from_primes(regime, prime_mults)
                    factored = validate_params(CoverParams(regime, fs, b))
                    _require(sorted((prime.coeffs, slot) for prime, slot in factored)
                             == sorted((prime.coeffs, slot) for prime, slot in prime_mults),
                             f"D={d}: tuple {seen} does not factor into its primes")
                seen += 1
            _require(seen == expected, f"D={d}: stream {seen} vs count {expected}")
            rows.append(f"D={d}:{seen}")
        return "enumeration matches closed count (" + ", ".join(rows) + ")"

    record("stratum-count", check_counts)

    def check_constrained() -> str:
        pts = [regime.base.elem(0), regime.base.elem(1)]
        b = FieldElem(regime.ext, min(2, regime.ext.order - 1))
        rows, note = [], ""
        # up to D = 6, or D = n_q when n_q > 6, so the row compares something
        for d in _degree_classes(regime, min(max_D, max(6, regime.n_q))):
            try:
                cnt = count_constrained(regime, d, pts, [0] * len(pts), b)
            except BudgetExceeded as exc:
                # a declared limit of the kernel, not a disagreement
                note = f"; class kernel out of budget from D={d}: {exc}"
                break
            for lab in LABELINGS:
                direct = _constrained_by_enumeration(regime, d, pts, [0] * len(pts), b, lab)
                _require(cnt == direct, f"constrained count disagreement at D={d}, "
                         f"{lab} labeling: direct {direct}, class kernel {cnt}")
            rows.append(f"D={d}:{cnt}")
        if not rows:
            return "no degree compared" + note
        return "class-kernel count == direct count (" + ", ".join(rows) + ")" + note

    record("constrained-crosscheck", check_constrained)

    def check_sampling() -> str:
        d = _degree_classes(regime, max_D)[-1]
        for i in range(10):
            params = sample_params(regime, d, seed=7, index=i)
            validate_params(params)
            _require(params.branch_degree == d,
                     f"sample {i} has degree {params.branch_degree}, not {d}")
        again = sample_params(regime, d, seed=7, index=3)
        _require(again.fs == sample_params(regime, d, seed=7, index=3).fs,
                 "stream (7, 3) drew two different tuples")
        return f"10 samples at D={d}: valid, degree exact, streams reproducible"

    record("sampling", check_sampling)

    def check_l_polynomial() -> str:
        order = regime.ext.order
        rows = []
        zero, one = regime.base.elem(0), regime.base.elem(1)
        gamma = regime.ext.elem(regime.ext.exp[1])
        # log(x_2 - x_1) = 1 at (0, gamma) and 0 at the other pairs; weights
        # (1, 0) leave a point of weight 0, where monics may vanish
        for k, supports, weights in (
                (1, [[zero], [one]], [(1,), (ell - 1,)]),
                (2, [[zero, one], [one, zero], [zero, gamma]],
                 [(1, 1), (1, ell - 1), (ell - 1, 1), (1, 0)])):
            # vanishing coefficients up to the degree whose oracle sum
            # stays within 10**4 polynomials, at most two of them
            extra = 0
            while extra < 2 and order ** (k + extra) <= 10_000:
                extra += 1
            for pts, w in product(supports, weights):
                fast = l_polynomial(regime, pts, w, check_extra=extra)
                slow = _l_coefficients_by_enumeration(regime, pts, w, k + extra)
                _require(fast == slow[:k] and all(c.is_zero for c in slow[k:]),
                         f"points {[str(x) for x in pts]}, weights {w}: the sum "
                         f"gives {fast}, enumeration gives {slow}")
                if k == 2:  # the transfer checks its own vanishing degrees
                    support = [(embed_elem(x, regime.ext), wi) for x, wi in zip(pts, w) if wi]
                    by_transfer = _transfer_coefficients(
                        regime.ext, *zip(*support), k, k + extra + 1, ell)
                    _require(fast == by_transfer,
                             f"points {[str(x) for x in pts]}, weights {w}: the sum "
                             f"gives {fast}, the transfer gives {by_transfer}")
            rows.append(f"{len(weights)} weights at k={k} through degree "
                        f"{k + extra - 1}")
        return ("one sum over F_Q at 0, 1, (0, 1), (1, 0) and (0, gamma) with "
                "log gamma = 1 equals the sum over monic polynomials ("
                + ", ".join(rows) + f"), and at k=2 the Horner transfer through "
                f"degree {k + extra}")

    record("l-polynomial", check_l_polynomial)

    def check_exact_law() -> str:
        rows, note = [], ""
        for d in _degree_classes(regime, max_D):
            try:
                hist, splits, size = _exact_law(regime, d)
            except BudgetExceeded as exc:
                # a declared limit of the kernel, not a disagreement
                note = f"; kernel law out of budget from D={d}: {exc}"
                break
            for lab in LABELINGS:
                e_hist, e_splits, e_size = _enumerated_law(regime, d, lab)
                _require((hist, splits, size) == (e_hist, e_splits, e_size),
                         f"D={d}, {lab} labeling: the kernel law gives "
                         f"{size} covers, histogram {dict(hist)}, splits "
                         f"{dict(splits)}; the enumeration gives {e_size}, "
                         f"{dict(e_hist)}, {dict(e_splits)}")
            rows.append(f"D={d}:{size}")
        if not rows:
            return "no degree compared" + note
        return ("kernel law equals the enumerated covers under both anchoring "
                "rules (" + ", ".join(rows) + ")" + note)

    record("exact-law", check_exact_law)

    return results
