"""Command line interface: it parses arguments, reads and writes the
streams and files, and sets the exit code.  The numbers come from the
library modules; the `check-lemmas` suite is `checks.lemma_checks`.

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

Each subcommand takes only the options it reads; any other is refused by
the parser with exit 2 before anything is computed.  Every subcommand
takes `--output`, every one but `slice` `--tolerance`, and every one but
`realize` and `check-lemmas` `--format` (csv by default for `slice`, json
elsewhere).  `--seed` belongs to `sample` and `check-lemmas`, `--parallel`
to `sample`, `--input` to the commands that read one vector.

Exit codes: 0 on success (for `membership`: vector in the quantum set),
1 when the vector is outside the quantum set or a verification check
failed, 2 on input errors and out of memory, 3 when a self-check of the
library failed (an `internal error:` line on stderr carries the numbers).
`--tolerance` is 1e-9 unless given, and the parser refuses a value that
is not finite and positive.  No command reads the environment: all are
deterministic given identical flags and seed, JSON key order is fixed,
every number is computed before the first byte is written, and
`--output` is replaced atomically (no partial files on error paths).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import re
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

_REALIZE_RESIDUAL_BOUND = 1e-8
# the start of any negative float() token: every subcommand reads it as a value
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
_SLICE_RELATION_TOLERANCE = 1e-9
# the CSV columns of a membership report's verdicts and margins
_VERDICT_COLUMNS = ("in_C", "in_Q", "margin_C", "margin_Q")


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def _emit(args: argparse.Namespace, text: str, more=()) -> None:
    """Write `text`, each piece of the iterable `more` and a newline to
    stdout or `--output`.  A regular file is replaced once all of it is in a
    temporary file beside it; a device or a pipe is written in place."""
    pieces = itertools.chain((text,), more, ("\n",))
    if not args.output:
        sys.stdout.writelines(pieces)
        return
    target = Path(args.output).resolve()  # through a link, not over it
    if target.exists() and not target.is_file():
        with open(target, "w", encoding="utf-8") as file:
            file.writelines(pieces)
        return
    temporary = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        with open(temporary, "x", encoding="utf-8") as file:
            file.writelines(pieces)
        if target.exists():
            os.chmod(temporary, target.stat().st_mode)
        os.replace(temporary, target)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temporary):
            exc.filename = args.output  # the path given, not the temporary
        raise


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header:
        writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_format_float(v) if isinstance(v, float) else v for v in row]
        )
    return buffer.getvalue().rstrip("\n")


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what} is not UTF-8 text: {exc}") from exc


def _read_vector(args: argparse.Namespace) -> CorrelationVector:
    tolerance, inline = args.tolerance, args.vector or []
    if args.input is not None:
        if inline:
            raise DomainError("give the vector inline or via --input, not both")
        text = _read_text(args.input, "vector file")
        try:
            return CorrelationVector.from_json(text, tolerance=tolerance)
        except json.JSONDecodeError as exc:
            raise DomainError(f"vector file is not valid JSON: {exc}") from exc
    if len(inline) != 4:
        raise DomainError(
            f"expected 4 components inline or --input FILE, got {len(inline)}"
        )
    return CorrelationVector.validate(inline, tolerance=tolerance)


# ---------------------------------------------------------------------------
# subcommands


def cmd_membership(args: argparse.Namespace) -> int:
    x = _read_vector(args)
    report = membership.evaluate(x, args.tolerance)
    fields = report.to_json_dict()
    if args.format == "json":
        _emit(args, _json_dump(fields))
    else:
        sums = [f"{name}_{k}" for name in ("chsh", "f") for k in range(1, 9)]
        row = [fields[key] for key in _VERDICT_COLUMNS]
        row += fields["chsh_values"] + fields["f_values"]
        _emit(args, _csv_text([*_VERDICT_COLUMNS, *sums], [row]))
    return 0 if report.in_quantum else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    x = _read_vector(args)
    decomposition = geometry.decompose(x, args.tolerance)
    pairs = zip(decomposition.reconstruct().as_tuple(), x.as_tuple())
    residual = [r - v for r, v in pairs]
    if args.format == "json":
        payload = {"terms": decomposition.to_json_list(), "residual": residual}
        _emit(args, _json_dump(payload))
    else:
        rows = [[w, g.phi1, g.phi2, g.phi3] for w, g in decomposition.terms]
        _emit(args, _csv_text(["weight", "phi1", "phi2", "phi3"], rows))
        print("residual:", *map(_format_float, residual), file=sys.stderr)
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    x = _read_vector(args)
    decomposition = geometry.decompose(x, args.tolerance)
    realization = quantum.realize_mixture(decomposition)
    reproduced = quantum.expectation(realization).as_tuple()
    # checked against the vector realized, reported against x
    realized = decomposition.reconstruct().as_tuple()
    error = max(abs(a - b) for a, b in zip(reproduced, realized))
    if error >= _REALIZE_RESIDUAL_BOUND:
        raise InternalCheckError(
            f"realization residual {error:.3e} exceeds "
            f"{_REALIZE_RESIDUAL_BOUND:g}"
        )
    payload = realization.to_json_dict()
    pairs = zip(reproduced, x.as_tuple())
    payload["verified_residual"] = max(abs(a - b) for a, b in pairs)
    _emit(args, _json_dump(payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.realization, "realization file")
    try:
        data = json.loads(text)
    except ValueError as exc:  # or an integer past int's digit limit
        raise DomainError(f"realization file is not valid JSON: {exc}") from exc
    realization = quantum.Realization.from_json_dict(data)
    vector = quantum.expectation(realization)
    fields = membership.evaluate(vector, args.tolerance).to_json_dict()
    if args.format == "json":
        _emit(args, _json_dump({"vector": list(vector.as_tuple()), "report": fields}))
    else:
        row = [*vector.as_tuple(), *(fields[key] for key in _VERDICT_COLUMNS)]
        _emit(args, _csv_text(["x1", "x2", "x3", "x4", *_VERDICT_COLUMNS], [row]))
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


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {value!r}")
    return value


def _json_rows(blocks: list[np.ndarray]):
    """The text after `"vectors": [` in `_json_dump({..., "vectors": rows})`,
    one piece per block of the rows.  The C encoder writes a block on one
    line, and its separators are turned into the indented layout: exact, as
    the text of a float contains neither ", " nor "], ["."""
    for k, block in enumerate(blocks):
        line = json.dumps(block.tolist())[2:-2]
        rows = line.replace("], [", "\n    ],\n    [\n      ")
        rows = rows.replace(", ", ",\n      ")
        yield (",\n" if k else "") + "    [\n      " + rows + "\n    ]"
    yield "\n  ]\n}"


def cmd_sample(args: argparse.Namespace) -> int:
    if args.parallel < 1:
        raise DomainError(f"--parallel must be at least 1, got {args.parallel}")
    if args.count < 1:
        raise DomainError(f"sample count must be at least 1, got {args.count}")
    dim_a, dim_b = args.dims
    vectors = quantum.sample_correlations(
        args.count, dim_a, dim_b, seed=args.seed, workers=args.parallel
    )
    # blocks of at most membership._PASS_ROWS rows; a row's sums are the
    # same floats in a block of any size
    blocks = np.array_split(vectors, -(-args.count // membership._PASS_ROWS))
    verdicts = (
        membership.quantum_verdicts(block, args.tolerance)[1] for block in blocks
    )
    maxima = [membership._largest_combination(block).max() for block in blocks]
    summary = {
        "count": int(args.count),
        "dims": [dim_a, dim_b],
        "seed": int(args.seed),
        "tolerance": args.tolerance,
        "failures": sum(int(np.count_nonzero(~inside)) for inside in verdicts),
        "max_chsh": float(np.max(maxima)),
    }
    if args.format == "json":
        head = _json_dump({"summary": summary})[:-2] + ',\n  "vectors": [\n'
        _emit(args, head, _json_rows(blocks))
    else:
        first = _csv_text(["x1", "x2", "x3", "x4"], blocks[0].tolist())
        _emit(args, first, ("\n" + _csv_text([], b.tolist()) for b in blocks[1:]))
        print("summary:", *(f"{k}={v}" for k, v in summary.items()), file=sys.stderr)
    return 0


def cmd_check_lemmas(args: argparse.Namespace) -> int:
    results = checks.lemma_checks(
        args.hessian_step, args.hessian_margin, args.anglesum_step,
        args.samples, args.seed, args.tolerance,
    )
    all_passed = all(r["passed"] for r in results)
    _emit(args, _json_dump({"all_passed": all_passed, "checks": results}))
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
    if args.grid < 2:
        raise DomainError(f"grid must be at least 2, got {args.grid}")
    axis = np.linspace(-1.0, 1.0, args.grid).tolist()
    bounds = geometry.face_segment if args.which == "Q" else _classical_slice_bounds
    rows = []
    for x2 in axis:
        for x3 in axis:
            _check_slice_relation(x2, x3)
            rows.append([x2, x3, *bounds(x2, x3)])
    if args.format == "csv":
        _emit(args, _csv_text(["x2", "x3", "x4_low", "x4_high"], rows))
    else:
        _emit(args, _json_dump({"which": args.which, "rows": rows}))
    return 0


def cmd_mu(args: argparse.Namespace) -> int:
    x = _read_vector(args)
    result = membership.mu_inverse(x) if args.inverse else membership.mu(x)
    if args.format == "json":
        _emit(args, result.to_json())
    else:
        _emit(args, _csv_text(["x1", "x2", "x3", "x4"], [list(result.as_tuple())]))
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


# the options more than one subcommand reads, each added to only those
_SHARED_OPTIONS = {
    "--input": dict(
        metavar="FILE", help="read the vector from a JSON file (array of 4 numbers)"
    ),
    "--tolerance": dict(
        type=_parse_tolerance,
        default=DEFAULT_TOLERANCE,
        help=f"numeric tolerance (default {DEFAULT_TOLERANCE:g})",
    ),
    "--seed": dict(type=int, default=0, help="PRNG seed"),
    "--output": dict(metavar="FILE", help="write output to FILE"),
}


def _add_command(sub, name, func, summary, options, fmt=None):
    """Add subcommand `name`, running `func`, with the shared `options`, the
    inline vector with `--input`, and `--format` with default `fmt`."""
    parser = sub.add_parser(name, help=summary)
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    if "--input" in options:
        parser.add_argument(
            "vector", nargs="*", help="the four correlators x1 x2 x3 x4"
        )
    for flag in options:
        parser.add_argument(flag, **_SHARED_OPTIONS[flag])
    if fmt:
        parser.add_argument(
            "--format",
            choices=("json", "csv"),
            default=fmt,
            help=f"output format (default {fmt})",
        )
    parser.set_defaults(func=func)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrset",
        description="membership, decomposition and realization for "
        "bipartite correlation vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    vector = ("--input", "--tolerance", "--output")
    run = ("--tolerance", "--seed", "--output")
    # name: handler, help, the shared options it reads, --format default
    commands = {
        "membership": (cmd_membership, "classify one vector", vector, "json"),
        "decompose": (
            cmd_decompose, "split a vector into extremal generators", vector, "json"
        ),
        "realize": (
            cmd_realize, "synthesize a state and observables for a vector", vector
        ),
        "verify": (
            cmd_verify,
            "validate a stored realization and classify its correlations",
            ("--tolerance", "--output"),
            "json",
        ),
        "sample": (cmd_sample, "sample random quantum strategies", run, "json"),
        "check-lemmas": (cmd_check_lemmas, "run the self-verification suite", run),
        "slice": (
            cmd_slice,
            "tabulate x4 bounds over an (x2, x3) grid at x1 = 1",
            ("--output",),
            "csv",
        ),
        "mu": (cmd_mu, "apply the rescaled arcsine map to a vector", vector, "json"),
    }
    p = {name: _add_command(sub, name, *spec) for name, spec in commands.items()}

    p["verify"].add_argument("realization", help="path to a realization JSON file")

    p["sample"].add_argument("count", type=int, help="number of strategies")
    p["sample"].add_argument(
        "--dims",
        type=_parse_dims,
        default=(2, 2),
        help="local dimensions as 'A,B' (default 2,2)",
    )
    p["sample"].add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (at least 1); the rows never depend on it",
    )

    p["check-lemmas"].add_argument(
        "--hessian-step", type=float, default=0.01, help="curvature grid step"
    )
    p["check-lemmas"].add_argument(
        "--hessian-margin", type=float, default=0.05, help="curvature grid margin"
    )
    p["check-lemmas"].add_argument(
        "--anglesum-step", type=float, default=0.02, help="angle-sum grid step"
    )
    p["check-lemmas"].add_argument(
        "--samples",
        type=int,
        default=100_000,
        help="sample count for the randomized checks",
    )

    p["slice"].add_argument("grid", type=int, help="points per axis (>= 2)")
    p["slice"].add_argument("which", choices=("C", "Q"), help="which set to slice")

    p["mu"].add_argument("--inverse", action="store_true", help="apply the inverse map")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
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
    except (CorrSetError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
