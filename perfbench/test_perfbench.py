"""Tests of the benchmark itself: each workload at a tiny size, tampered
outputs counted as failures, the frozen genus-8 table against the oracle,
the tracer, and the output contract of run.py.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

import pytest

import calibrate
import run as bench
import worker
import workloads
from tracer import ENTRY_POINTS, Tracer
from workloads import WORKLOADS, op_seeds

import ellcover as ec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = {
    "mc-char2": dataclasses.replace(WORKLOADS["mc-char2"], g=4, samples=12, recount=3),
    "mc-odd": dataclasses.replace(WORKLOADS["mc-odd"], g=4, samples=12, recount=3),
    "exhaustive-char2": WORKLOADS["exhaustive-char2"],  # the frozen table is at g = 8
    "lseries-odd": dataclasses.replace(WORKLOADS["lseries-odd"], check_extra=0),
}


def _ops(wl, n=2, seed=7, tracer=None):
    reg = ec.make_regime(wl.q, wl.ell)
    wl.prepare(reg)
    return worker._ops(wl, reg, islice(op_seeds(wl.name, seed), n), tracer=tracer)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name):
    wl = TINY[name]
    out = _ops(wl)
    assert out["errors"] == []
    if isinstance(wl, workloads.MonteCarlo):
        per_op = wl.samples
    elif isinstance(wl, workloads.Exhaustive):
        per_op = sum(c for _, c in wl.histogram)
    else:
        per_op = 1
    assert out["results"] == [per_op, per_op]


def _tampered_histogram(rep):
    (n, c), *rest = rep.histogram
    return dataclasses.replace(rep, histogram=((n, c + 1), *rest))


@pytest.mark.parametrize("name, target, tamper", [
    ("mc-char2", "monte_carlo_distribution", _tampered_histogram),
    ("exhaustive-char2", "exhaustive_distribution", _tampered_histogram),
    ("lseries-odd", "root_magnitudes", lambda mags: [0.5]),
    ("lseries-odd", "l_polynomial",
     lambda coeffs: [ec.CycloInt.from_int(3, 2)] + coeffs[1:]),
])
def test_tampered_output_makes_error_rate_nonzero(monkeypatch, name, target, tamper):
    original = getattr(ec, target)
    monkeypatch.setattr(ec, target, lambda *a, **kw: tamper(original(*a, **kw)))
    out = _ops(TINY[name])
    assert len(out["errors"]) / len(out["op_s"]) == 1
    assert out["results"] == [0, 0]


def test_raising_op_is_a_failed_op(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("library invariant")

    monkeypatch.setattr(ec, "monte_carlo_distribution", broken)
    out = _ops(TINY["mc-char2"], n=3)
    assert len(out["op_s"]) == 3 and len(out["errors"]) == 3
    assert "AssertionError" in out["errors"][0]


def test_frozen_genus_8_table_matches_the_oracle():
    reg = ec.make_regime(2, 3)
    D = ec.admissible_D(reg, 8)
    counts = Counter(
        ec.point_count_oracle(ec.twisted_model(ec.CoverParams(reg, fs, reg.ext.elem(b))))
        for fs in ec.enumerate_tuples(reg, D) for b in range(1, reg.ext.order))
    lattice = [reg.ell * m for m in range(reg.q + 2)]
    assert tuple((n, counts[n]) for n in lattice) == workloads.G8_HISTOGRAM
    total = sum(counts.values())
    assert total == 1350
    empirical = ec.Distribution(reg.q, reg.ell,
                                {n: Fraction(c, total) for n, c in counts.items()})
    assert ec.tv_distance(empirical, ec.theoretical_distribution(reg)) == workloads.G8_TV


def test_op_seeds_are_distinct_and_reproducible():
    first = list(islice(op_seeds("mc-char2", 5), 50))
    assert len(set(first)) == 50
    assert first == list(islice(op_seeds("mc-char2", 5), 50))
    assert first != list(islice(op_seeds("mc-char2", 6), 50))
    assert first != list(islice(op_seeds("mc-odd", 5), 50))


def test_tracer_accounts_for_the_op_and_restores_the_package():
    wl = TINY["mc-char2"]
    originals = {name: getattr(ec, name) for name in ("factor", "enumerate_tuples")}
    tracer = Tracer()
    tracer.install()
    try:
        out = _ops(wl, tracer=tracer)
    finally:
        tracer.uninstall()
    assert out["errors"] == [] and tracer.absent == []
    assert {name: getattr(ec, name) for name in originals} == originals
    assert ec.coverparam.factor is ec.fqpoly.factor
    summary = tracer.summary(2)
    assert summary["coverparam.sample.calls"] == wl.samples
    assert summary["coverparam.build_model.calls"] == 2 * wl.samples
    assert summary["coverparam.prime_candidates"] >= summary["coverparam.draw_prime.calls"] > 0
    assert 0 < summary["coverparam.split_cache_hit_ratio"] <= 1
    assert summary["self_s_total"] * 2 == pytest.approx(sum(out["op_s"]), rel=0.05)


def test_tracer_times_each_next_of_a_generator():
    reg = ec.make_regime(2, 3)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        tuples = list(ec.enumerate_tuples(reg, 6))
        tracer.op_id = -1
    finally:
        tracer.uninstall()
    summary = tracer.summary(1)
    assert summary["coverparam.enumerate.calls"] == len(tuples) + 1
    assert summary["coverparam.enumerate.self_s"] > 0


def test_missing_entry_point_is_reported_absent():
    tracer = Tracer()
    tracer.install(ENTRY_POINTS + (("gone", "coverparam", "_no_such_function"),
                                   ("gone", "no_such_module", "f")))
    tracer.uninstall()
    assert tracer.absent == ["coverparam._no_such_function", "no_such_module.f"]


def test_sampler_clock_leaves_out_the_sampling():
    sampler = calibrate.Sampler(0.005)
    with sampler.sampling():
        t0, c0 = perf_counter(), sampler.clock()
        while perf_counter() - t0 < 0.3:
            pass
        wall, clock = perf_counter() - t0, sampler.clock() - c0
    assert len(sampler.chunks) > 10 and sampler.speed() > 0
    assert wall - clock == pytest.approx(sampler.handler_s, abs=0.01)
    idle = calibrate.Sampler()
    with idle.sampling():
        pass
    assert len(idle.chunks) == 1  # one chunk even when nothing ran long enough


def test_tail_latency_needs_ten_ops_beyond_it():
    assert bench.tail_latency([1.0] * 39) is None
    assert bench.tail_latency([1.0] * 40)["percentile"] == 75.0
    assert bench.tail_latency([1.0] * 10_000)["percentile"] == 99.9


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace, metrics", [("0", bench.END_TO_END), ("1", bench.PER_LAYER)])
def test_command_prints_the_result_line(trace, metrics):
    proc = _run("--workload", "exhaustive-char2", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(metrics)
    if trace == "1":
        assert 0.95 < result["metrics"]["trace_accounted"]["value"] <= 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "mc-char2", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
