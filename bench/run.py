"""Benchmark of corrset: one named workload per run, closed loop, one caller.

    python3 bench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (from a traced run) with `--trace 1`.
The result, and with `--trace 1` the spans, are also written under
`bench/results/`.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

# One synchronous caller: BLAS and OpenMP pools stay at one thread, in this
# process and in the set-up probes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("classify", "construct", "sample", "lemmas")
SETUP_PROBES = 5
# A 90th percentile needs about 100 samples to have ten beyond it; below
# 40 samples it would be no tail at all.
TAIL_BLOCK_OPS = 100
TAIL_MIN_OPS = 40
PROBE_TIMEOUT_S = 60


class Failure:
    """Marks an op that raised one of the program's errors."""

    def __init__(self, kind: str):
        self.kind = kind

    def __eq__(self, other):
        return isinstance(other, Failure) and other.kind == self.kind


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    if not (SOURCE_DIR / "corrset" / "__init__.py").is_file():
        sys.exit(f"bench: corrset sources not found under {SOURCE_DIR}")
    sys.path.insert(0, str(SOURCE_DIR))


def setup_probe(workload: str) -> None:
    """Time `import corrset`, then the workload's warm-up, in a fresh
    interpreter and print both in seconds."""
    start = perf_counter()
    import corrset  # noqa: F401

    imported = perf_counter()
    import workloads

    workloads.warm_up(workload)
    print(repr(imported - start), repr(perf_counter() - imported))


def measure_setup(workload: str) -> float:
    """Median set-up time over several fresh interpreters.  The import
    part of each is scaled to reference speed by the numpy imports timed
    right before and after it; the warm-up part is in wall seconds."""
    import hostspeed

    samples = []
    before = hostspeed.import_seconds(PROBE_TIMEOUT_S)
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        after = hostspeed.import_seconds(PROBE_TIMEOUT_S)
        import_s, warm_up_s = map(float, probe.stdout.strip().splitlines()[-1].split())
        scale = hostspeed.IMPORT_REFERENCE_S / (0.5 * (before + after))
        samples.append(import_s * scale + warm_up_s)
        before = after
    return statistics.median(samples)


def timed_phase(work, seconds: float, outputs: list, errors, probe, tracer=None) -> dict:
    """Run whole rounds over the workload's inputs until `seconds` have
    passed.  The first output of each input is kept in `outputs`; later
    rounds are compared with it through the workload's digest.  The
    host-speed probe runs between windows of `work.window` ops, and each
    window's latencies and rate are scaled to reference speed by the mean
    of the probe times on its two sides (hostspeed.py)."""
    latencies = array("f")
    rates, wall_rates, scales = [], [], []
    attempted = failed = mismatched = 0
    deadline = perf_counter() + seconds
    before = probe.run()
    while True:
        for start in range(0, work.size, work.window):
            first = len(latencies)
            done = 0
            began_window = perf_counter()
            for k in range(start, min(start + work.window, work.size)):
                if tracer is not None:
                    tracer.op += 1
                began = perf_counter()
                try:
                    out = work.op(k)
                except errors as exc:
                    latencies.append(float("inf"))
                    failed += 1
                    out = Failure(type(exc).__name__)
                else:
                    latencies.append(perf_counter() - began)
                    done += 1
                attempted += 1
                kept = outputs[k]
                if kept is None:
                    outputs[k] = out
                elif isinstance(out, Failure) or isinstance(kept, Failure):
                    mismatched += out != kept
                elif work.digest(out) != work.digest(kept):
                    mismatched += 1
            elapsed = perf_counter() - began_window
            after = probe.run()
            scale = probe.scale(0.5 * (before + after))
            before = after
            for i in range(first, len(latencies)):
                latencies[i] *= scale
            rates.append(done / (elapsed * scale))
            wall_rates.append(done / elapsed)
            scales.append(scale)
        if perf_counter() >= deadline:
            break
    return {
        "rates": rates,
        "rate": statistics.median(rates),
        "wall_rate": statistics.median(wall_rates),
        "scale": statistics.median(scales),
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
    }


def percentile_ms(latencies, q: float) -> float:
    """Linearly interpolated percentile in milliseconds; failed ops count
    as infinitely slow."""
    ordered = sorted(latencies)
    position = q * (len(ordered) - 1)
    low = int(position)
    if low == len(ordered) - 1:
        return 1e3 * ordered[low]
    return 1e3 * (ordered[low] + (ordered[low + 1] - ordered[low]) * (position - low))


def tail_ms(latencies, round_size: int) -> float:
    """90th percentile per block of whole rounds holding at least
    TAIL_BLOCK_OPS ops, median over the blocks; over all ops when the run
    has no full block.  Whole rounds give every block the same inputs, so
    the same share of failed ops, and the median keeps a block disturbed
    faster than the host-speed probe can follow from setting the figure.
    A run of fewer than TAIL_MIN_OPS ops has no tail to speak of and
    gives its median instead."""
    if len(latencies) < TAIL_MIN_OPS:
        return percentile_ms(latencies, 0.5)
    block = round_size * -(-TAIL_BLOCK_OPS // round_size)
    blocks = [latencies[i : i + block] for i in range(0, len(latencies) - block + 1, block)]
    return statistics.median(percentile_ms(b, 0.9) for b in blocks or [latencies])


def correctness_problems(work, outputs: list, phases: list) -> list[str]:
    problems = []
    mismatched = sum(p["mismatched"] for p in phases)
    if mismatched:
        problems.append(f"{mismatched} ops gave a different output than the first round")
    # only the workload's known fault may fail an op, and only with its own
    # error; any other failure makes the run incorrect
    expected = getattr(work, "expected_failures", {})
    unexpected = {
        k: out.kind
        for k, out in enumerate(outputs)
        if isinstance(out, Failure) and expected.get(k) != out.kind
    }
    if unexpected:
        problems.append(f"ops failed outside the known fault: {unexpected}")
    results = [None if isinstance(out, Failure) else out for out in outputs]
    return problems + work.check(results)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import hostspeed
    import workloads
    from corrset.errors import CorrSetError

    setup_s = None if args.trace else measure_setup(args.workload)

    work = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_up(args.workload)
    probe = hostspeed.Probe(work.probe_parts)
    outputs = [None] * work.size

    if args.trace:
        import tracing

        # untraced and traced rounds alternate, so a drift of the host's
        # speed reaches both sides of the overhead figure alike
        tracer = tracing.Tracer()
        untraced, traced = [], []
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline:
            untraced.append(timed_phase(work, 0.0, outputs, CorrSetError, probe))
            uninstall = tracing.install(tracer)
            try:
                traced.append(timed_phase(work, 0.0, outputs, CorrSetError, probe, tracer))
            finally:
                uninstall()
        phases = untraced + traced
    else:
        phases = [timed_phase(work, args.seconds, outputs, CorrSetError, probe)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = correctness_problems(work, outputs, phases)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if args.trace:
        untraced_rate = statistics.median(r for p in untraced for r in p["rates"])
        traced_rate = statistics.median(r for p in traced for r in p["rates"])
        metrics = tracing.per_layer_metrics(tracer, sum(p["attempted"] for p in traced))
        metrics["trace.untraced_ops_s"] = {"value": untraced_rate, "unit": "1/s"}
        metrics["trace.traced_ops_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (untraced_rate / traced_rate - 1.0),
            "unit": "%",
        }
    else:
        phase = phases[0]
        metrics = {
            "throughput_ops_s": {"value": phase["rate"], "unit": "1/s"},
            "latency_p50_ms": {"value": percentile_ms(phase["latencies"], 0.5), "unit": "ms"},
            "latency_p90_ms": {"value": tail_ms(phase["latencies"], work.size), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    # the file also keeps the unscaled figures and the host's speed
    record = dict(result)
    if not args.trace:
        record["wall"] = {
            "throughput_ops_s": phases[0]["wall_rate"],
            "median_scale": phases[0]["scale"],
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(RESULTS_DIR / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
