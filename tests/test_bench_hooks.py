"""The benchmark's traced run wraps program functions by name.

`bench/tracing.py` looks each target up with `owner.__dict__[attr]`, so a
refactor that unbinds one of those names breaks `bench/run.py --trace 1`
with a KeyError, and a caller that reaches a function by another name runs
it unseen.  These tests catch both without running the benchmark.
"""

import contextlib
import importlib
import io
from pathlib import Path

from corrset import cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    assert targets
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, owner, attr, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing, missing


def test_untraced_benchmark_ops_run(monkeypatch):
    # the calls `bench/run.py` times, made as it makes them: every classify
    # and construct input of seed 0, and the first sample and lemmas op
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    sizes = {}
    for name, workload in workloads.WORKLOADS.items():
        work = workload(0)
        count = work.size if name in ("classify", "construct") else 1
        for k in range(count):
            work.op(k)
        sizes[name] = count
    assert sizes == {"classify": 4096, "construct": 400, "sample": 1, "lemmas": 1}


def test_traced_lemmas_run_sees_both_scans(monkeypatch):
    # the suite calls the scans by their `checks` names, where the tracer
    # wraps them; the mu check's classical margins are counted per row
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    argv = ["check-lemmas", "--hessian-step", "0.1", "--anglesum-step", "0.1"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--samples", "1000"])
    finally:
        uninstall()
    assert code == 0
    assert tracer.totals["checks.curvature_scan"][0] == 1
    assert tracer.totals["checks.angle_sum_scan"][0] == 1
    assert tracer.counts["checks.curvature_scan.points"] == 29_791
    assert tracer.counts["checks.angle_sum_scan.points"] == 250_047
    assert tracer.counts["membership.classical_margins.points"] == 1_000
