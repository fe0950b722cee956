"""Timed batches of public field and polynomial calls on a workload's
extension field: the per-layer probes of `gf` and `fqpoly`."""

from __future__ import annotations

from random import Random
from statistics import median
from time import perf_counter

import ellcover as ec


def _per_call(fn, args_list, repeats: int) -> float:
    """Median over `repeats` batches of the seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for args in args_list:
            fn(*args)
        times.append((perf_counter() - t0) / len(args_list))
    return median(times)


def _random_poly(ctx, degree: int, rng: Random):
    return ec.Poly(ctx, [rng.randrange(ctx.order) for _ in range(degree)] + [1])


def field_probes(reg, seed: int, field_calls: int = 20000, poly_calls: int = 100,
                 repeats: int = 5) -> dict[str, float]:
    rng = Random(f"probes:{seed}")
    ext = reg.ext
    pairs = [(rng.randrange(1, ext.order), rng.randrange(1, ext.order))
             for _ in range(field_calls)]
    polys = [(_random_poly(ext, 16, rng), _random_poly(ext, 16, rng))
             for _ in range(poly_calls)]
    divs = [(_random_poly(ext, 32, rng), _random_poly(ext, 16, rng))
            for _ in range(poly_calls)]
    # make_field caches one context per field; time the build behind it.
    build = getattr(ec.make_field, "__wrapped__", ec.make_field)

    def make_fields():
        build(reg.p, reg.k)
        build(reg.p, reg.k * reg.n_q)

    return {
        "gf.add_ns": _per_call(ext.add_i, pairs, repeats) * 1e9,
        "gf.mul_ns": _per_call(ext.mul_i, pairs, repeats) * 1e9,
        "gf.make_field_s": _per_call(make_fields, [()], repeats),
        "fqpoly.mul_us": _per_call(lambda a, b: a * b, polys, repeats) * 1e6,
        "fqpoly.divmod_us": _per_call(divmod, divs, repeats) * 1e6,
    }
