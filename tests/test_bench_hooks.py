"""The benchmark's traced run wraps program functions by name.

`bench/tracing.py` looks each target up with `owner.__dict__[attr]`, so a
refactor that unbinds one of those names breaks `bench/run.py --trace 1`
with a KeyError.  This test catches that without running the benchmark.
"""

import importlib
from pathlib import Path

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
