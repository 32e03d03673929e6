"""Spans and counters at the boundaries of corrset's layers.

`install` replaces public functions of the program where their callers look
them up (module attributes and class attributes) with wrappers that record
a span per call; `uninstall` puts the originals back.  The program's source
is not touched.  Spans carry the op they belong to and their parent span,
and are kept in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from time import perf_counter

from corrset import checks, cli, corrvec, geometry, membership, quantum

# Only the first spans are kept for the trace file; the per-name totals
# cover every span.
SPAN_LIMIT = 20_000


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.stack: list[list] = []
        self.totals: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.next_id = 0

    def begin(self, name: str) -> list:
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        frame = [self.next_id, parent, name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        stop = perf_counter()
        self.stack.pop()
        span_id, parent, name, start, covered = frame
        duration = stop - start
        if self.stack:
            self.stack[-1][4] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((self.op, span_id, parent, name, start, stop))

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for op, span_id, parent, name, start, stop in self.spans:
                out.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": name,
                         "start": start, "end": stop}
                    )
                    + "\n"
                )


def _scan_points(func, limit_of):
    """Points of a scan's cubic grid, counted on the program's own axis."""
    signature = inspect.signature(func)

    def points(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return checks._grid_axis(limit_of(bound.arguments), bound.arguments["step"]).size ** 3

    return points


def _rows(args, kwargs, result):
    return math.prod(args[0].shape[:-1]) if hasattr(args[0], "shape") else len(args[0])


def _state_bytes(args, kwargs, result):
    return sum(m.nbytes for m in (result.state, result.a0, result.a1, result.b0, result.b1))


def _terms(args, kwargs, result):
    return len(result.terms)


def _targets():
    """(span name, owner, attribute, counters) for every wrapped function.
    `counters` maps a counter name to a function of (args, kwargs, result)."""
    curvature = checks.curvature_positivity_scan
    angle = checks.angle_sum_max_scan
    return [
        ("corrvec.validate", corrvec.CorrelationVector, "validate", {}),
        ("corrvec.canonicalize", membership, "canonicalize", {}),
        ("corrvec.canonicalize", geometry, "canonicalize", {}),
        ("membership.evaluate", membership, "evaluate", {}),
        ("membership.quantum_margins", membership, "quantum_margins",
         {"membership.quantum_margins.points": _rows}),
        ("membership.classical_margins", membership, "classical_margins",
         {"membership.classical_margins.points": _rows}),
        ("geometry.decompose", geometry, "decompose", {"geometry.decompose.terms": _terms}),
        ("quantum.realize_mixture", quantum, "realize_mixture",
         {"quantum.state_bytes": _state_bytes}),
        ("quantum.expectation", quantum, "expectation", {}),
        ("quantum.validate", quantum.Realization, "validate", {}),
        ("quantum.sample_correlations", quantum, "sample_correlations",
         {"quantum.sample_correlations.samples": lambda a, k, r: len(r)}),
        ("checks.curvature_scan", checks, "curvature_positivity_scan",
         {"checks.curvature_scan.points":
          _scan_points(curvature, lambda a: 0.5 * math.pi - a["margin"])}),
        ("checks.angle_sum_scan", checks, "angle_sum_max_scan",
         {"checks.angle_sum_scan.points": _scan_points(angle, lambda a: math.pi)}),
        ("checks.lvt_oracle_batch", checks, "lvt_oracle_batch",
         {"checks.lvt_oracle_batch.points": _rows}),
        ("cli.main", cli, "main", {}),
    ]


def _wrap(tracer: Tracer, name: str, func, counters: dict):
    failed = name + ".failed"
    writes_output = name == "cli.main"

    def wrapper(*args, **kwargs):
        if writes_output:
            written = sys.stdout.tell()
        frame = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        except Exception:
            tracer.end(frame)
            tracer.count(failed, 1)
            raise
        tracer.end(frame)
        for counter, measure in counters.items():
            tracer.count(counter, measure(args, kwargs, result))
        if writes_output:
            tracer.count("cli.output_bytes", sys.stdout.tell() - written)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    restore = []
    for name, owner, attr, counters in _targets():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(_wrap(tracer, name, raw.__func__, counters))
        else:
            replacement = _wrap(tracer, name, raw, counters)
        restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall():
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)

    return uninstall


# (metric, unit, how to read it from the tracer per attempted op)
PER_LAYER = [
    ("corrvec.validate.calls", "calls/op", ("calls", "corrvec.validate")),
    ("corrvec.validate.ms", "ms/op", ("ms", "corrvec.validate")),
    ("corrvec.canonicalize.calls", "calls/op", ("calls", "corrvec.canonicalize")),
    ("corrvec.canonicalize.ms", "ms/op", ("ms", "corrvec.canonicalize")),
    ("membership.evaluate.calls", "calls/op", ("calls", "membership.evaluate")),
    ("membership.evaluate.self_ms", "ms/op", ("self_ms", "membership.evaluate")),
    ("membership.quantum_margins.points", "points/op", ("count", "membership.quantum_margins.points")),
    ("membership.quantum_margins.ms", "ms/op", ("ms", "membership.quantum_margins")),
    ("membership.classical_margins.points", "points/op", ("count", "membership.classical_margins.points")),
    ("membership.classical_margins.ms", "ms/op", ("ms", "membership.classical_margins")),
    ("geometry.decompose.calls", "calls/op", ("calls", "geometry.decompose")),
    ("geometry.decompose.self_ms", "ms/op", ("self_ms", "geometry.decompose")),
    ("geometry.decompose.terms", "terms/call", ("per_success", "geometry.decompose.terms")),
    ("geometry.decompose.failed", "calls/op", ("count", "geometry.decompose.failed")),
    ("quantum.realize_mixture.calls", "calls/op", ("calls", "quantum.realize_mixture")),
    ("quantum.realize_mixture.self_ms", "ms/op", ("self_ms", "quantum.realize_mixture")),
    ("quantum.expectation.self_ms", "ms/op", ("self_ms", "quantum.expectation")),
    ("quantum.validate.calls", "calls/op", ("calls", "quantum.validate")),
    ("quantum.validate.ms", "ms/op", ("ms", "quantum.validate")),
    ("quantum.state_bytes", "bytes/op", ("count", "quantum.state_bytes")),
    ("quantum.sample_correlations.samples", "samples/op", ("count", "quantum.sample_correlations.samples")),
    ("quantum.sample_correlations.ms", "ms/op", ("ms", "quantum.sample_correlations")),
    ("checks.curvature_scan.points", "points/op", ("count", "checks.curvature_scan.points")),
    ("checks.curvature_scan.ms", "ms/op", ("ms", "checks.curvature_scan")),
    ("checks.angle_sum_scan.points", "points/op", ("count", "checks.angle_sum_scan.points")),
    ("checks.angle_sum_scan.ms", "ms/op", ("ms", "checks.angle_sum_scan")),
    ("checks.lvt_oracle_batch.points", "points/op", ("count", "checks.lvt_oracle_batch.points")),
    ("checks.lvt_oracle_batch.ms", "ms/op", ("ms", "checks.lvt_oracle_batch")),
    ("cli.main.calls", "calls/op", ("calls", "cli.main")),
    ("cli.main.self_ms", "ms/op", ("self_ms", "cli.main")),
    ("cli.output_bytes", "bytes/op", ("count", "cli.output_bytes")),
]


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Every per-layer metric, normalized per attempted op (0 for layers the
    workload does not reach)."""
    metrics = {}
    for metric, unit, (kind, key) in PER_LAYER:
        calls, total, self_time = tracer.totals.get(key, (0, 0.0, 0.0))
        if kind == "calls":
            value = calls / ops
        elif kind == "ms":
            value = 1e3 * total / ops
        elif kind == "self_ms":
            value = 1e3 * self_time / ops
        elif kind == "per_success":
            span = key.rsplit(".", 1)[0]
            succeeded = tracer.totals.get(span, (0,))[0] - tracer.counts.get(span + ".failed", 0)
            value = tracer.counts.get(key, 0.0) / succeeded if succeeded else 0.0
        else:
            value = tracer.counts.get(key, 0.0) / ops
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
