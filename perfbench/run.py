"""The ellcover benchmark: one workload per invocation, one fresh interpreter
per measurement, a closed loop of one caller on one thread.

    python3 perfbench/run.py --workload mc-char2 --seed 1 --seconds 12 --trace 0

With --trace 0 it runs the run's first n ops in a fresh interpreter, where n
(at least MIN_OPS) is the number of ops that take --seconds, times the
workload's run_scale, at reference speed, and prints the end-to-end metrics.  Fixing n rather than the
duration gives every commit the same inputs and the same cache history.
With --trace 1 it runs fewer ops with spans recorded around the library's
inter-module calls, then the same ops untraced in another fresh interpreter,
and prints the per-layer metrics and the tracing overhead.  Every op's
output is checked outside the timed region; a failed check counts the op as
failed.  Op and setup times are given at reference speed (see calibrate.py).

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it describes the run: workload, op, op count, error rate,
tail latency, speed factors, Python version, CPU count and git commit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

END_TO_END = (
    ("results_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("gf.add_ns", "ns"),
    ("gf.mul_ns", "ns"),
    ("gf.make_field_s", "s"),
    ("gf2.is_irreducible.calls", "count"),
    ("gf2.is_irreducible.self_s", "s"),
    ("gf2.conjugate_factor.calls", "count"),
    ("gf2.conjugate_factor.self_s", "s"),
    ("fqpoly.factor.calls", "count"),
    ("fqpoly.factor.self_s", "s"),
    ("fqpoly.irreducible.calls", "count"),
    ("fqpoly.irreducible.self_s", "s"),
    ("fqpoly.necklace_count.calls", "count"),
    ("fqpoly.necklace_count.self_s", "s"),
    ("fqpoly.primes_with_degree.self_s", "s"),
    ("fqpoly.mul_us", "us"),
    ("fqpoly.divmod_us", "us"),
    ("coverparam.sample.calls", "count"),
    ("coverparam.sample.self_s", "s"),
    ("coverparam.draw_prime.calls", "count"),
    ("coverparam.draw_prime.self_s", "s"),
    ("coverparam.prime_candidates", "count"),
    ("coverparam.prime_accept_ratio", "ratio"),
    ("coverparam.split_prime.calls", "count"),
    ("coverparam.split_prime.self_s", "s"),
    ("coverparam.split_cache_hit_ratio", "ratio"),
    ("coverparam.build_model.calls", "count"),
    ("coverparam.build_model.self_s", "s"),
    ("coverparam.enumerate.self_s", "s"),
    ("charsum.chi_class.calls", "count"),
    ("charsum.chi_class.self_s", "s"),
    ("lseries.value_at.calls", "count"),
    ("lseries.value_at.self_s", "s"),
    ("lseries.l_polynomial.self_s", "s"),
    ("lseries.root_magnitudes.self_s", "s"),
    ("ensemble.self_s", "s"),
    ("ensemble.report.self_s", "s"),
    ("ensemble.covers", "count"),
    ("trace_overhead", "ratio"),
    ("trace_accounted", "ratio"),
)

SETUP_REPEATS = 8  # setup-only interpreters per run, besides the workload's own
MIN_OPS = 3
TRACE_SHARE = 0.5  # share of --seconds the traced ops are sized to fill
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def _worker(mode: str, workload: str, seed: int, *extra) -> tuple[float, float, dict | None]:
    """Start a fresh interpreter; return its setup time at reference speed,
    its wall time until ready, and its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), *map(str, extra)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline().split()
            wall_s = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or len(ready) != 3 or ready[0] != "ready":
        raise BenchError(f"worker {mode} for {workload} exited with {proc.returncode}")
    handler_s, speed = float(ready[1]), float(ready[2])
    lines = rest.strip().splitlines()
    return (wall_s - handler_s) / speed, wall_s, (json.loads(lines[-1]) if lines else None)


def tail_latency(op_s: list[float]) -> dict | None:
    """The highest of a few percentiles with at least 10 ops beyond it."""
    n = len(op_s)
    for per_mille in (999, 990, 950, 900, 750):
        if n * (1000 - per_mille) >= 10 * 1000:
            rank = math.ceil(per_mille * n / 1000) - 1
            return {"percentile": per_mille / 10, "ms": sorted(op_s)[rank] * 1000,
                    "ops": n}
    return None


def git_sha() -> str | None:
    """The checked-out commit, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(wl, seed: int, seconds: int) -> tuple[dict, dict, list[str]]:
    n = max(MIN_OPS, round(wl.run_scale * seconds / wl.op_s))
    _worker("setup", wl.name, seed)  # unmeasured: compiles bytecode, warms file cache
    setups, walls = [], []
    for mode in ["setup"] * SETUP_REPEATS + ["run"]:
        setup_s, wall_s, res = _worker(mode, wl.name, seed, "--ops", n)
        setups.append(setup_s)
        walls.append(wall_s)
    op_s = [t / res["speed"] for t in res["op_s"]]
    metrics = {
        "results_per_s": sum(res["results"]) / sum(op_s),
        "op_ms_p50": median(op_s) * 1000,
        "setup_s": median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    info = {"ops": n, "op_ms_tail": tail_latency(op_s), "speed": res["speed"],
            "raw_op_ms_p50": median(res["op_s"]) * 1000, "raw_setup_s": median(walls)}
    return metrics, info, res["errors"]


def traced_run(wl, seed: int, seconds: int) -> tuple[dict, dict, list[str]]:
    n = max(2, round(TRACE_SHARE * seconds / wl.op_s))
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{wl.name}.npz"
    *_, traced = _worker("trace", wl.name, seed, "--ops", n, "--out", spans)
    *_, plain = _worker("plain", wl.name, seed, "--ops", n)
    traced_s = sum(traced["op_s"]) / traced["speed"]
    plain_s = sum(plain["op_s"]) / plain["speed"]
    # Spans include the sampling; scale them to leave it out, like op times.
    layers = {k: v * (1 - traced["sampling_share"]) if k.endswith(("_s", "_total")) else v
              for k, v in traced["layers"].items()}
    values = {k: v / traced["speed"] if k.endswith("_s") else v for k, v in layers.items()}
    values.update({k: v / plain["speed"] for k, v in plain["probes"].items()})
    values["trace_overhead"] = traced_s / plain_s
    values["trace_accounted"] = layers["self_s_total"] * n / sum(traced["op_s"])
    values["ensemble.covers"] = (sum(traced["results"]) / n
                                 if wl.result_kind == "covers" else 0.0)
    metrics = {name: values.get(name, 0.0) for name, _ in PER_LAYER}
    info = {"ops": n, "speed": [traced["speed"], plain["speed"]],
            "traced_op_s": traced["op_s"], "untraced_op_s": plain["op_s"],
            "absent": traced["absent"], "spans": str(spans.relative_to(ROOT))}
    return metrics, info, [f"traced {e}" for e in traced["errors"]] + \
        [f"untraced {e}" for e in plain["errors"]]


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    if not (SRC / "ellcover" / "__init__.py").is_file():
        print(f"perfbench: no ellcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        run = traced_run if args.trace else timed_run
        values, info, errors = run(wl, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    attempted = info["ops"] * (2 if args.trace else 1)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "workload": wl.name, "regime": {"q": wl.q, "ell": wl.ell},
        "op": wl.op_text, "results": wl.result_kind, **info,
        "error_rate": len(errors) / attempted, "errors": errors[:10],
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
