"""Self-tests of the benchmark's oracles.

    python3 bench/selftest.py

Each oracle must pass the program's real outputs and reject a deliberately
corrupted copy: a vector outside the quantum set reported as inside, a
density matrix with a negative eigenvalue, a permuted sample row, and an op
that failed outside the known fault.  A rejection counts only when the
oracle names the corruption it was given.  Exits 0 when every case
behaves, 1 otherwise.
"""

from __future__ import annotations

import sys

import numpy as np

import run

run.import_program()

import oracles  # noqa: E402
import workloads  # noqa: E402


def classify_cases():
    work = workloads.Classify(seed=0)
    outputs = [work.op(k) for k in range(work.size)]
    yield "classify outputs pass", work.check(outputs), None

    failed = list(outputs)
    failed[1] = run.Failure("InternalCheckError")
    yield (
        "a failure outside the known fault makes the run incorrect",
        run.correctness_problems(work, failed, [{"mismatched": 0}]),
        "ops failed outside the known fault",
    )

    # the PR box (1, 1, 1, -1) is outside Q by a wide margin
    work.points[0] = (1.0, 1.0, 1.0, -1.0)
    corrupted = list(outputs)
    corrupted[0] = (False, True)
    yield (
        "classify rejects an outside vector reported as inside",
        work.check(corrupted),
        "quantum verdicts disagree",
    )


def _negative_direction(state, a0, a1, b0, b1, lowest):
    """A copy of `state` whose lowest eigenvalue is `lowest`, moved along a
    Hermitian direction orthogonal to the identity and to every A_a x B_b,
    so that its trace and its four correlators do not change."""
    span = [np.eye(state.shape[0])] + [np.kron(a, b) for a in (a0, a1) for b in (b0, b1)]
    basis = np.array([m.ravel() for m in span]).T
    rng = np.random.default_rng(7)
    raw = rng.standard_normal(state.shape) + 1j * rng.standard_normal(state.shape)
    coefficients = np.linalg.lstsq(basis, raw.ravel(), rcond=None)[0]
    direction = (raw.ravel() - basis @ coefficients).reshape(state.shape)
    direction = 0.5 * (direction + direction.conj().T)

    def low(t):
        return np.linalg.eigvalsh(state + t * direction)[0]

    # the lowest eigenvalue is concave in t; bisect for the step that
    # brings it to `lowest`
    near, far = 0.0, 1.0
    while low(far) > lowest:
        far *= 2.0
    for _ in range(200):
        mid = 0.5 * (near + far)
        near, far = (mid, far) if low(mid) > lowest else (near, mid)
    return state + far * direction


def construct_cases():
    work = workloads.Construct(seed=0)
    outputs = [work.op(k) for k in range(0, work.corner_start)]
    inputs = work.points[: work.corner_start]
    yield "construct outputs pass", oracles.check_construct(inputs, outputs), None

    weights, vector, (state, a0, a1, b0, b1) = outputs[0]
    # an eigenvalue of -1e-9, ten times past the required floor of -1e-10,
    # with the correlators kept, so only the positivity check can fire
    broken = _negative_direction(state, a0, a1, b0, b1, -1e-9)
    corrupted = [(weights, vector, (broken, a0, a1, b0, b1))]
    problems = oracles.check_construct(inputs[:1], corrupted)
    yield "construct rejects a state with a negative eigenvalue", problems, "not a density matrix"
    yield (
        "the negative-eigenvalue state keeps its correlators",
        [p for p in problems if "not a density matrix" not in p],
        None,
    )


def sample_cases():
    work = workloads.Sample(seed=0)
    outputs = [work.op(k) for k in range(work.size)]
    yield "sample outputs pass", work.check(outputs), None

    code, text, summary, rows = outputs[0]
    swapped = rows.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    corrupted = [(code, text, summary, swapped)] + outputs[1:]
    yield "sample rejects a permuted row", work.check(corrupted), "row 0 is"
    yield "sample rejects an op without output", work.check([None] + outputs[1:]), "gave no output"


def lemmas_cases():
    work = workloads.Lemmas(seed=0)
    yield "lemmas rejects an op without output", work.check([None]), "gave no output"


def main() -> int:
    failures = 0
    for cases in (classify_cases, construct_cases, sample_cases, lemmas_cases):
        for label, problems, named in cases():
            if named is None:
                ok = not problems
            else:
                ok = any(named in problem for problem in problems)
            failures += not ok
            detail = problems[0] if problems else "no problem found"
            print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
