"""Command line interface.

Subcommands
-----------
membership   report both membership systems for one vector
decompose    write a quantum-set member as <= 3 extremal generators
realize      synthesize a state and observables reproducing a vector
verify       recompute and classify the correlations of a stored realization
sample       draw random quantum strategies and report their vectors
check-lemmas run the library's self-verification suite
slice        tabulate 2-d cross sections of either set at x1 = 1
mu           apply the rescaled arcsine map (or its inverse) to a vector

Exit codes: 0 on success (for `membership`: vector in the quantum set),
1 when the vector is outside the quantum set or a verification check
failed, 2 on input errors, 3 when a self-check of the library failed (an
`internal error:` line on stderr carries the numbers that show it).
`CORRSET_TOLERANCE` overrides the default tolerance; `--tolerance`
overrides both.  All commands are deterministic given identical flags
and seed, JSON key order is fixed, and output is written in one piece
(no partial files on error paths).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, geometry, membership, quantum
from .corrvec import DEFAULT_TOLERANCE, CorrelationVector
from .errors import (
    CorrSetError,
    DomainError,
    InternalCheckError,
    NotInQuantumSetError,
)

_ENV_TOLERANCE = "CORRSET_TOLERANCE"
_MU_BAND = 1e-7
_REALIZE_RESIDUAL_BOUND = 1e-8
_SLICE_RELATION_TOLERANCE = 1e-9
# rows per draw of the sampled checks; a block's largest temporary, the
# (rows, 8) sign-pattern sums, is then 0.5 MB
_CHECK_BLOCK = 8192


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_format_float(v) if isinstance(v, float) else v for v in row]
        )
    return buffer.getvalue().rstrip("\n")


def _resolve_tolerance(args: argparse.Namespace) -> float:
    if args.tolerance is not None:
        value = args.tolerance
    else:
        raw = os.environ.get(_ENV_TOLERANCE)
        if raw is None:
            return DEFAULT_TOLERANCE
        try:
            value = float(raw)
        except ValueError:
            raise DomainError(
                f"{_ENV_TOLERANCE}={raw!r} is not a number"
            ) from None
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"tolerance must be positive, got {value!r}")
    return value


def _read_vector(args: argparse.Namespace, tolerance: float) -> CorrelationVector:
    inline = args.vector or []
    if args.input is not None:
        if inline:
            raise DomainError("give the vector inline or via --input, not both")
        text = Path(args.input).read_text(encoding="utf-8")
        return CorrelationVector.from_json(text, tolerance=tolerance)
    if len(inline) != 4:
        raise DomainError(
            f"expected 4 components inline or --input FILE, got {len(inline)}"
        )
    return CorrelationVector.validate(inline, tolerance=tolerance)


def _pick_format(args: argparse.Namespace, default: str) -> str:
    return args.format if args.format else default


# ---------------------------------------------------------------------------
# subcommands


def cmd_membership(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    x = _read_vector(args, tolerance)
    report = membership.evaluate(x, tolerance)
    fmt = _pick_format(args, "json")
    if fmt == "json":
        _emit(args, _json_dump(report.to_json_dict()))
    else:
        header = (
            ["in_C", "in_Q", "margin_C", "margin_Q"]
            + [f"chsh_{k}" for k in range(1, 9)]
            + [f"f_{k}" for k in range(1, 9)]
        )
        row = (
            [report.in_classical, report.in_quantum]
            + [report.classical_margin, report.quantum_margin]
            + list(report.chsh_values)
            + list(report.arcsine_values)
        )
        _emit(args, _csv_text(header, [row]))
    return 0 if report.in_quantum else 1


def _decompose_or_report(
    x: CorrelationVector, tolerance: float
) -> geometry.Decomposition:
    try:
        return geometry.decompose(x, tolerance)
    except NotInQuantumSetError:
        report = membership.evaluate(x, tolerance)
        print(
            "outside Q: margin_C="
            f"{_format_float(report.classical_margin)} "
            f"margin_Q={_format_float(report.quantum_margin)}",
            file=sys.stderr,
        )
        raise


def cmd_decompose(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    x = _read_vector(args, tolerance)
    try:
        decomposition = _decompose_or_report(x, tolerance)
    except NotInQuantumSetError:
        return 1
    residual = [
        r - v
        for r, v in zip(
            decomposition.reconstruct().as_tuple(), x.as_tuple()
        )
    ]
    fmt = _pick_format(args, "json")
    if fmt == "json":
        payload = {
            "terms": decomposition.to_json_list(),
            "residual": residual,
        }
        _emit(args, _json_dump(payload))
    else:
        rows = [
            [w, g.phi1, g.phi2, g.phi3] for w, g in decomposition.terms
        ]
        _emit(args, _csv_text(["weight", "phi1", "phi2", "phi3"], rows))
        print(
            "residual: "
            + " ".join(_format_float(r) for r in residual),
            file=sys.stderr,
        )
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    if _pick_format(args, "json") != "json":
        raise DomainError("realize emits matrices and supports only json")
    x = _read_vector(args, tolerance)
    try:
        decomposition = _decompose_or_report(x, tolerance)
    except NotInQuantumSetError:
        return 1
    realization = quantum.realize_mixture(decomposition)
    reproduced = quantum.expectation(realization)
    residual = max(
        abs(a - b) for a, b in zip(reproduced.as_tuple(), x.as_tuple())
    )
    if residual >= _REALIZE_RESIDUAL_BOUND:
        raise InternalCheckError(
            f"realization residual {residual:.3e} exceeds "
            f"{_REALIZE_RESIDUAL_BOUND:g}"
        )
    payload = realization.to_json_dict()
    payload["verified_residual"] = residual
    _emit(args, _json_dump(payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    text = Path(args.realization).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"realization file is not valid JSON: {exc}") from exc
    realization = quantum.Realization.from_json_dict(data)
    vector = quantum.expectation(realization)
    report = membership.evaluate(vector, tolerance)
    fmt = _pick_format(args, "json")
    if fmt == "json":
        payload = {
            "vector": list(vector.as_tuple()),
            "report": report.to_json_dict(),
        }
        _emit(args, _json_dump(payload))
    else:
        header = ["x1", "x2", "x3", "x4", "in_C", "in_Q", "margin_C", "margin_Q"]
        row = list(vector.as_tuple()) + [
            report.in_classical,
            report.in_quantum,
            report.classical_margin,
            report.quantum_margin,
        ]
        _emit(args, _csv_text(header, [row]))
    return 0


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"dims must look like 'A,B', got {text!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be integers, got {text!r}"
        ) from None


def cmd_sample(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    if args.count < 1:
        raise DomainError(f"sample count must be at least 1, got {args.count}")
    dim_a, dim_b = args.dims
    vectors = quantum.sample_correlations(
        args.count, dim_a, dim_b, seed=args.seed, workers=args.parallel
    )
    margins = membership.quantum_margins(vectors)
    summary = {
        "count": int(args.count),
        "dims": [dim_a, dim_b],
        "seed": int(args.seed),
        "tolerance": tolerance,
        "failures": int((margins < -tolerance).sum()),
        "max_chsh": float(membership.chsh_combinations(vectors).max()),
    }
    if _pick_format(args, "json") == "json":
        _emit(args, _json_dump({"summary": summary, "vectors": vectors.tolist()}))
    else:
        _emit(args, _csv_text(["x1", "x2", "x3", "x4"], vectors.tolist()))
        print("summary:", *(f"{k}={v}" for k, v in summary.items()), file=sys.stderr)
    return 0


def _blocked_count(samples: int, seed: int, count) -> int:
    """Sum `count(points)` over `samples` uniform draws from the box.

    The draws come from `default_rng(seed)`, `_CHECK_BLOCK` rows at a time.
    Consecutive `uniform` calls on one generator give the same floats as one
    call for all rows, and each check acts on every row alone, so the total
    is the one-draw count while the temporaries stay the size of one block.
    """
    rng = np.random.default_rng(seed)
    total = 0
    for start in range(0, samples, _CHECK_BLOCK):
        rows = min(_CHECK_BLOCK, samples - start)
        total += count(rng.uniform(-1.0, 1.0, size=(rows, 4)))
    return total


def _mu_equivalence_check(samples: int, seed: int, tolerance: float) -> dict:
    """Check that x is in Q exactly when mu(x) is in C.

    The points are `samples` uniform draws of seed `seed`, checked a block at
    a time by `_blocked_count`.  Verdicts within `_MU_BAND` of the arcsine
    bound are not compared.
    """

    def block_disagreements(points: np.ndarray) -> int:
        q_margins = membership.quantum_margins(points)
        c_margins = membership.classical_margins(membership.mu_array(points))
        verdict_q = q_margins >= -tolerance
        verdict_c = c_margins >= -tolerance
        off_band = np.abs(q_margins) > _MU_BAND
        return int((verdict_q != verdict_c)[off_band].sum())

    disagreements = _blocked_count(samples, seed, block_disagreements)
    return {
        "name": "mu-equivalence",
        "passed": disagreements == 0,
        "samples": samples,
        "disagreements_outside_band": disagreements,
    }


def _oracle_agreement_check(samples: int, seed: int, tolerance: float) -> dict:
    """Check that the facet and vertex descriptions of C agree.

    The points are `samples` uniform draws of seed `seed + 1`, checked a
    block at a time by `_blocked_count`; `checks.lvt_oracle_batch` also
    compares its two support values on every block.
    """

    def block_disagreements(points: np.ndarray) -> int:
        facet = membership.classical_margins(points) >= -tolerance
        vertex = checks.lvt_oracle_batch(points, tolerance)
        return int((facet != vertex).sum())

    disagreements = _blocked_count(samples, seed + 1, block_disagreements)
    return {
        "name": "vertex-oracle-agreement",
        "passed": disagreements == 0,
        "samples": samples,
        "disagreements": disagreements,
    }


def cmd_check_lemmas(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    if _pick_format(args, "json") != "json":
        raise DomainError("check-lemmas emits nested results and supports only json")
    if args.samples < 1:
        raise DomainError(f"sample count must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise DomainError(f"check-lemmas seed must be non-negative, got {args.seed}")
    hessian_step = args.hessian_step if args.step is None else args.step
    angle_step = args.anglesum_step if args.step is None else args.step
    # refuse either grid before the other scan runs
    checks._check_scan_params(hessian_step, args.hessian_margin)
    checks._check_scan_params(angle_step, None)

    results = []

    scan = checks.curvature_positivity_scan(
        step=hessian_step, margin=args.hessian_margin
    )
    results.append(
        {
            "name": "curvature-positivity",
            "passed": scan.violations == 0
            and scan.min_value >= checks.CURVATURE_THRESHOLD,
            **scan.to_json_dict(),
        }
    )

    scan = checks.angle_sum_max_scan(step=angle_step)
    attained = math.pi - scan.min_value
    results.append(
        {
            "name": "angle-sum-maximum",
            "passed": scan.violations == 0
            and scan.min_value >= -checks.ANGLE_SUM_THRESHOLD
            and scan.min_value <= 2.0 * angle_step,
            "max_value": attained,
            **scan.to_json_dict(),
        }
    )

    results.append(
        {
            "name": "parity-contradiction",
            "passed": checks.ghz_contradiction()
            and not checks.ghz_contradiction(relaxed=True),
        }
    )

    results.append(_mu_equivalence_check(args.samples, args.seed, tolerance))
    results.append(_oracle_agreement_check(args.samples, args.seed, tolerance))

    if args.self_test_fail:
        results.append({"name": "forced-self-test-failure", "passed": False})

    all_passed = all(r["passed"] for r in results)
    payload = {"all_passed": all_passed, "checks": results}
    _emit(args, _json_dump(payload))
    if not all_passed:
        failed = [r["name"] for r in results if not r["passed"]]
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _classical_slice_bounds(u2: float, u3: float) -> tuple[float, float]:
    low = max(u2 + u3 - 1.0, -1.0 - u2 - u3)
    high = min(1.0 - u2 + u3, 1.0 + u2 - u3)
    return (low, high)


def _check_slice_relation(x2: float, x3: float) -> None:
    # the classical slice is the component-wise mu image of the quantum one
    scale = 2.0 / math.pi
    q_low, q_high = geometry.face_segment(x2, x3)
    c_low, c_high = _classical_slice_bounds(
        scale * math.asin(x2), scale * math.asin(x3)
    )
    if (
        abs(scale * math.asin(q_low) - c_low) > _SLICE_RELATION_TOLERANCE
        or abs(scale * math.asin(q_high) - c_high) > _SLICE_RELATION_TOLERANCE
    ):
        raise InternalCheckError(
            f"slice relation violated at (x2, x3) = ({x2!r}, {x3!r})"
        )


def cmd_slice(args: argparse.Namespace) -> int:
    _resolve_tolerance(args)
    if args.grid < 2:
        raise DomainError(f"grid must be at least 2, got {args.grid}")
    axis = np.linspace(-1.0, 1.0, args.grid).tolist()
    bounds = geometry.face_segment if args.which == "Q" else _classical_slice_bounds
    rows = []
    for x2 in axis:
        for x3 in axis:
            _check_slice_relation(x2, x3)
            rows.append([x2, x3, *bounds(x2, x3)])
    fmt = _pick_format(args, "csv")
    if fmt == "csv":
        _emit(args, _csv_text(["x2", "x3", "x4_low", "x4_high"], rows))
    else:
        _emit(args, _json_dump({"which": args.which, "rows": rows}))
    return 0


def cmd_mu(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    x = _read_vector(args, tolerance)
    result = membership.mu_inverse(x) if args.inverse else membership.mu(x)
    fmt = _pick_format(args, "json")
    if fmt == "json":
        _emit(args, result.to_json())
    else:
        _emit(args, _csv_text(["x1", "x2", "x3", "x4"], [list(result.as_tuple())]))
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def _add_vector_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "vector",
        nargs="*",
        type=float,
        help="the four correlators x1 x2 x3 x4",
    )
    parser.add_argument(
        "--input",
        metavar="FILE",
        help="read the vector from a JSON file (array of 4 numbers)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=f"numeric tolerance (default {_ENV_TOLERANCE} or 1e-9)",
    )
    common.add_argument("--seed", type=int, default=0, help="PRNG seed")
    common.add_argument(
        "--format", choices=("json", "csv"), default=None, help="output format"
    )
    common.add_argument(
        "--output", metavar="FILE", default=None, help="write output to FILE"
    )
    common.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sampling (at least 1)",
    )

    parser = argparse.ArgumentParser(
        prog="corrset",
        description="membership, decomposition and realization for "
        "bipartite correlation vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "membership", parents=[common], help="classify one vector"
    )
    _add_vector_arguments(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser(
        "decompose",
        parents=[common],
        help="split a vector into extremal generators",
    )
    _add_vector_arguments(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "realize",
        parents=[common],
        help="synthesize a state and observables for a vector",
    )
    _add_vector_arguments(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="validate a stored realization and classify its correlations",
    )
    p.add_argument("realization", help="path to a realization JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "sample", parents=[common], help="sample random quantum strategies"
    )
    p.add_argument("count", type=int, help="number of strategies")
    p.add_argument(
        "--dims",
        type=_parse_dims,
        default=(2, 2),
        help="local dimensions as 'A,B' (default 2,2)",
    )
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "check-lemmas",
        parents=[common],
        help="run the self-verification suite",
    )
    p.add_argument(
        "--hessian-step", type=float, default=0.01, help="curvature grid step"
    )
    p.add_argument(
        "--hessian-margin",
        type=float,
        default=0.05,
        help="curvature grid margin",
    )
    p.add_argument(
        "--anglesum-step", type=float, default=0.02, help="angle-sum grid step"
    )
    p.add_argument(
        "--step",
        type=float,
        default=None,
        help="override both grid steps at once",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=100_000,
        help="sample count for the randomized checks",
    )
    p.add_argument(
        "--self-test-fail",
        action="store_true",
        help="inject a failing check to exercise the failure path",
    )
    p.set_defaults(func=cmd_check_lemmas)

    p = sub.add_parser(
        "slice",
        parents=[common],
        help="tabulate x4 bounds over an (x2, x3) grid at x1 = 1",
    )
    p.add_argument("grid", type=int, help="points per axis (>= 2)")
    p.add_argument(
        "which", choices=("C", "Q"), help="which set to slice"
    )
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser(
        "mu",
        parents=[common],
        help="apply the rescaled arcsine map to a vector",
    )
    _add_vector_arguments(p)
    p.add_argument(
        "--inverse", action="store_true", help="apply the inverse map"
    )
    p.set_defaults(func=cmd_mu)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.parallel < 1:
            raise DomainError(f"--parallel must be at least 1, got {args.parallel}")
        return args.func(args)
    except NotInQuantumSetError as exc:
        print(f"outside Q: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. `| head`); exit quietly
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 1
    except (CorrSetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
