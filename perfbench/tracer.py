"""Spans around the calls one ellcover module makes into another, recorded
from outside the package.

`Tracer.install` rebinds each entry point in ENTRY_POINTS, in every ellcover
module that holds it (the defining module included, so calls through a
function-local import are seen too), to a wrapper that records a span while
`op_id` is non-negative.  A generator entry point gets one span per `next()`;
wrapping the call alone would record only the creation of the generator.
Spans live in flat arrays as (group, start, end, parent, op, tag) and are
written out once, at the end, by `save`.

A group's self time is its spans' duration minus the duration of their
child spans.  Calls are strictly nested on one thread, so children never
overlap and the self times of all spans add up to the root spans' time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (group, module, attribute) for every traced entry point.  Several entry
# points may share a group; a missing one is reported as absent.
ENTRY_POINTS = (
    ("gf2.is_irreducible", "_gf2", "is_irreducible"),
    ("gf2.conjugate_factor", "_gf2", "conjugate_factor_coeffs"),
    ("fqpoly.factor", "fqpoly", "factor"),
    ("fqpoly.irreducible", "fqpoly", "irreducible"),
    ("fqpoly.necklace_count", "fqpoly", "necklace_count"),
    ("fqpoly.primes_with_degree", "fqpoly", "primes_with_degree"),
    ("coverparam.sample", "coverparam", "_sample_full"),
    ("coverparam.draw_prime", "coverparam", "_draw_prime"),
    ("coverparam.split_prime", "coverparam", "split_prime"),
    ("coverparam.build_model", "coverparam", "_parts_from_primes"),
    ("coverparam.build_model", "coverparam", "_model_from_parts"),
    ("coverparam.enumerate", "coverparam", "enumerate_tuples"),
    ("charsum.chi_class", "charsum", "chi_class"),
    ("lseries.value_at", "lseries", "CharW.value_at"),
    ("ensemble.report", "ensemble", "_report"),
)

# Root spans opened by the workloads around their public calls.
ROOT_GROUPS = ("ensemble", "lseries.l_polynomial", "lseries.root_magnitudes")

IRREDUCIBILITY_TESTS = ("gf2.is_irreducible", "fqpoly.irreducible")

# Tag of a split_prime span: 1 when the call left the regime's split cache
# unchanged (a hit), 0 when it added an entry, -1 when there is no cache.
_HIT, _MISS, _NO_CACHE = 1, 0, -1


def _split_cache(args):
    return getattr(args[0], "_split_cache", None) if args else None


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        self.gids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.tags = array("b")
        self._stack = [-1]
        self.op_id = -1  # spans are recorded only while this is >= 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        for group in ROOT_GROUPS + tuple(g for g, _, _ in ENTRY_POINTS):
            self._group_id(group)

    def _group_id(self, group: str) -> int:
        if group not in self._gid:
            self._gid[group] = len(self.groups)
            self.groups.append(group)
        return self._gid[group]

    # -- recording ------------------------------------------------------------

    def _open(self, gid: int) -> int:
        i = len(self.gids)
        self.gids.append(gid)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.tags.append(0)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.starts[i] = t0
        self.ends[i] = t1

    @contextmanager
    def span(self, group: str):
        if self.op_id < 0:
            yield
            return
        i = self._open(self._group_id(group))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(i, t0, perf_counter())

    def _wrap_call(self, fn, gid: int, split: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            cache = _split_cache(args) if split else None
            size = len(cache) if cache is not None else 0
            i = tracer._open(gid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i, t0, perf_counter())
                if split:
                    tracer.tags[i] = (_NO_CACHE if cache is None else
                                      _HIT if len(cache) == size else _MISS)
        return traced

    def _wrap_generator(self, fn, gid: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if tracer.op_id < 0:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                else:
                    i = tracer._open(gid)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i, t0, perf_counter())
                yield item
        return traced

    # -- installing -------------------------------------------------------------

    def install(self, entry_points=ENTRY_POINTS, package: str = "ellcover") -> None:
        """Rebind every entry point wherever the package's modules hold it."""
        importlib.import_module(package)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for group, mod_name, attr in entry_points:
            try:
                owner = importlib.import_module(f"{package}.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            gid = self._group_id(group)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, gid)
            else:
                wrapper = self._wrap_call(original, gid,
                                          split=group == "coverparam.split_prime")
            if path:  # a method: rebind it on its class only
                self._rebind(owner, leaf, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapper)

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span to an .npz file (arrays plus the group names)."""
        import numpy as np

        np.savez(path, groups=np.array(self.groups), group=np.asarray(self.gids),
                 start=np.asarray(self.starts), end=np.asarray(self.ends),
                 parent=np.asarray(self.parents), op=np.asarray(self.ops),
                 tag=np.asarray(self.tags))

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op means: '<group>.calls', '<group>.self_s' for every group,
        plus the split-cache hit ratio and the prime-rejection counts."""
        import numpy as np

        gid = np.asarray(self.gids)
        parent = np.asarray(self.parents)
        tag = np.asarray(self.tags)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested],
                                   minlength=len(dur))
        out: dict[str, float] = {}
        for group, g in self._gid.items():
            mask = gid == g
            out[f"{group}.calls"] = int(mask.sum()) / n_ops
            out[f"{group}.self_s"] = float(self_t[mask].sum()) / n_ops
        out["self_s_total"] = float(self_t.sum()) / n_ops

        split = gid == self._gid["coverparam.split_prime"]
        known = split & (tag != _NO_CACHE)
        out["coverparam.split_cache_hit_ratio"] = (
            float((known & (tag == _HIT)).sum() / known.sum()) if known.any() else 0.0)

        tests = np.isin(gid, [self._gid[g] for g in IRREDUCIBILITY_TESTS])
        parent_gid = np.where(nested, gid[np.where(nested, parent, 0)], -1)
        candidates = int((tests & (parent_gid == self._gid["coverparam.draw_prime"])).sum())
        drawn = out["coverparam.draw_prime.calls"] * n_ops
        out["coverparam.prime_candidates"] = candidates / n_ops
        out["coverparam.prime_accept_ratio"] = drawn / candidates if candidates else 0.0
        return out
