"""One fresh interpreter running one workload; started by run.py.

It sets up (imports ellcover, builds the regime and the tables every CLI
call builds on first use), prints `ready`, then, by mode:

  setup  exits;
  run    runs the run's first --ops ops back to back and prints a JSON result;
  trace  does the same with spans recorded, saves the spans to --out and
         adds the per-layer summary to the result;
  plain  does the same as run, then adds the field and polynomial probes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import calibrate

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

SETUP_INTERVAL_S = 0.01  # sampling interval while setting up


def _ops(wl, reg, seeds, tracer=None) -> dict:
    """Run one op per seed, back to back, with a Sampler measuring the
    machine's speed.  Op times leave out the sampling; `sampling_share` is
    the share of wall time it took, which spans still include."""
    from workloads import run_op

    times, results, errors = [], [], []
    sampler = calibrate.Sampler()
    t0 = perf_counter()
    with sampler.sampling():
        for i, s in enumerate(seeds):
            elapsed, n, err = run_op(wl, reg, s, tracer, i, sampler.clock)
            times.append(elapsed)
            results.append(n)
            if err:
                errors.append(f"op {i}: {err}")
    return {"op_s": times, "results": results, "errors": errors,
            "speed": sampler.speed(),
            "sampling_share": sampler.handler_s / (perf_counter() - t0)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace", "plain"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("perfbench: run without -O; the library's invariants are asserts")

    setup = calibrate.Sampler(SETUP_INTERVAL_S)
    with setup.sampling():
        import ellcover as ec
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        reg = ec.make_regime(wl.q, wl.ell)
        wl.prepare(reg)
    if not Path(ec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported ellcover from {ec.__file__}, not from {SRC}")
    print("ready", setup.handler_s, setup.speed(), flush=True)
    if args.mode == "setup":
        return 0

    seeds = islice(workloads.op_seeds(wl.name, args.seed), args.ops)
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        out = _ops(wl, reg, seeds, tracer)
        tracer.uninstall()
        tracer.save(args.out)
        out["layers"] = tracer.summary(len(out["op_s"]))
        out["absent"] = tracer.absent
    else:
        out = _ops(wl, reg, seeds)
    if args.mode == "plain":
        from probes import field_probes

        out["probes"] = field_probes(reg, args.seed)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
