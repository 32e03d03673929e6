"""Correctness oracles for the benchmark, computed apart from corrset.

Each `check_*` function takes the outputs of one workload as plain data
and returns a list of problems; an empty list means the outputs passed.
The arithmetic here is deliberately different from the program's:

* quantum-set membership uses Landau's closed-form condition
  (Found. Phys. 18, 449, 1988) instead of the arcsine inequality;
* classical membership is a linear-programming feasibility test over the
  16 deterministic strategies instead of the CHSH facets;
* correlators of a realization are an `einsum` contraction of the density
  matrix against the two observables, not `np.kron` or `np.vdot`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Verdicts are compared only where Landau's slack is farther than this from
# zero; inside the band the two statements of the boundary may round apart.
LANDAU_BAND = 1e-7
# The LP feasibility tolerance of the solver is about 1e-7 in the equality
# residual, so the classical comparison skips points this close to a facet.
CHSH_BAND = 1e-6
TSIRELSON = 2.0 * math.sqrt(2.0)
CORRELATOR_RESIDUAL = 1e-8
EIGENVALUE_FLOOR = -1e-10
INVOLUTION_RESIDUAL = 1e-10
WEIGHT_SUM_RESIDUAL = 1e-12
SAMPLE_ROW_RESIDUAL = 1e-10
SAMPLE_MEMBER_SLACK = -1e-9
LEMMA_VALUE_RESIDUAL = 1e-9
LEMMA_NAMES = (
    "curvature-positivity",
    "angle-sum-maximum",
    "parity-contradiction",
    "mu-equivalence",
    "vertex-oracle-agreement",
)


def landau_slack(xs: np.ndarray) -> np.ndarray:
    """Landau's condition for x = (<A0B0>, <A0B1>, <A1B0>, <A1B1>):

        |x1 x2 - x3 x4| <= sqrt((1-x1^2)(1-x2^2)) + sqrt((1-x3^2)(1-x4^2)),

    returned as right side minus left side; nonnegative exactly on the
    quantum set."""
    xs = np.asarray(xs, dtype=float)
    one_minus = np.clip(1.0 - xs * xs, 0.0, None)
    x1, x2, x3, x4 = np.moveaxis(xs, -1, 0)
    o1, o2, o3, o4 = np.moveaxis(one_minus, -1, 0)
    return np.sqrt(o1 * o2) + np.sqrt(o3 * o4) - np.abs(x1 * x2 - x3 * x4)


def chsh_values(xs: np.ndarray) -> np.ndarray:
    """The eight sums +-x1 +- x2 +- x3 +- x4 with an odd number of minus
    signs; input (..., 4), output (..., 8)."""
    signs = np.array(
        [s for s in itertools.product((1.0, -1.0), repeat=4) if np.prod(s) < 0]
    )
    return np.asarray(xs, dtype=float) @ signs.T


def strategy_vectors() -> np.ndarray:
    """Correlation vectors of the 16 deterministic +-1 strategies."""
    return np.array(
        [
            (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
            for a0, a1, b0, b1 in itertools.product((1.0, -1.0), repeat=4)
        ]
    )


def lp_classical(x: np.ndarray) -> bool:
    """Whether x is a convex mixture of the 16 deterministic strategies,
    decided by a linear-programming feasibility test."""
    from scipy.optimize import linprog

    vertices = strategy_vectors()
    a_eq = np.vstack([vertices.T, np.ones(len(vertices))])
    b_eq = np.append(np.asarray(x, dtype=float), 1.0)
    result = linprog(
        np.zeros(len(vertices)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    if result.status not in (0, 2):
        raise RuntimeError(f"linprog ended with status {result.status}: {result.message}")
    return result.status == 0


def correlators(state, a0, a1, b0, b1) -> np.ndarray:
    """tr(rho (A_a x B_b)) for (a, b) = 00, 01, 10, 11 by index contraction:
    rho[(i j), (k l)] A[k, i] B[l, j]."""
    dim_a, dim_b = a0.shape[0], b0.shape[0]
    rho = np.asarray(state).reshape(dim_a, dim_b, dim_a, dim_b)
    values = [
        np.einsum("ijkl,ki,lj->", rho, a, b)
        for a, b in ((a0, b0), (a0, b1), (a1, b0), (a1, b1))
    ]
    return np.array(values)


def _first(mask: np.ndarray, limit: int = 3) -> list[int]:
    return [int(i) for i in np.flatnonzero(mask)[:limit]]


def check_classify(
    points: np.ndarray,
    image_of: np.ndarray,
    valid: np.ndarray,
    in_c: np.ndarray,
    in_q: np.ndarray,
    lp_stride: int,
) -> list[str]:
    """Verdicts against Landau's condition, symmetry images against their
    sources, and classical verdicts on every `lp_stride`-th point against
    the LP test.  Points whose op failed (`valid` false) are skipped."""
    problems = []
    slack = landau_slack(points)
    decided = valid & (np.abs(slack) > LANDAU_BAND)
    wrong_q = decided & (in_q != (slack > 0.0))
    if wrong_q.any():
        problems.append(
            f"classify: {int(wrong_q.sum())} quantum verdicts disagree with "
            f"Landau's condition, first at indices {_first(wrong_q)}"
        )

    chsh_slack = 2.0 - chsh_values(points).max(axis=-1)
    has_source = image_of >= 0
    source = np.where(has_source, image_of, 0)
    both_q = has_source & decided & decided[source]
    flipped_q = both_q & (in_q != in_q[source])
    both_c = (
        has_source
        & valid
        & valid[source]
        & (np.abs(chsh_slack) > CHSH_BAND)
        & (np.abs(chsh_slack[source]) > CHSH_BAND)
    )
    flipped_c = both_c & (in_c != in_c[source])
    if flipped_q.any() or flipped_c.any():
        problems.append(
            "classify: signed-permutation images change verdict at indices "
            f"{_first(flipped_q | flipped_c)}"
        )

    checked = 0
    for i in range(0, len(points), lp_stride):
        if not valid[i] or abs(chsh_slack[i]) <= CHSH_BAND:
            continue
        checked += 1
        if bool(in_c[i]) != lp_classical(points[i]):
            problems.append(
                f"classify: classical verdict at index {i} disagrees with the "
                "LP over deterministic strategies"
            )
    if checked == 0:
        problems.append("classify: no point qualified for the LP check")
    return problems


def check_realization(x, weights, vector, state, a0, a1, b0, b1) -> list[str]:
    """One constructive answer: weights, the realization and the correlation
    vector the program read back from it."""
    problems = []
    weights = np.asarray(weights, dtype=float)
    if not 1 <= len(weights) <= 3:
        problems.append(f"{len(weights)} terms")
    if (weights < 0.0).any() or abs(math.fsum(weights) - 1.0) > WEIGHT_SUM_RESIDUAL:
        problems.append(f"weights {weights.tolist()} are not a convex mixture")
    x = np.asarray(x, dtype=float)
    own = correlators(state, a0, a1, b0, b1)
    residual = float(np.abs(own - x).max())
    if residual > CORRELATOR_RESIDUAL or float(np.abs(own.imag).max()) > CORRELATOR_RESIDUAL:
        problems.append(f"contracted correlators miss the input by {residual:.3e}")
    reported = float(np.abs(np.asarray(vector) - x).max())
    if reported > CORRELATOR_RESIDUAL:
        problems.append(f"reported correlators miss the input by {reported:.3e}")
    hermitian = 0.5 * (state + state.conj().T)
    lowest = float(np.linalg.eigvalsh(hermitian)[0])
    if lowest < EIGENVALUE_FLOOR or float(np.abs(state - hermitian).max()) > 1e-12:
        problems.append(f"state is not a density matrix (lowest eigenvalue {lowest:.3e})")
    for name, obs in (("A0", a0), ("A1", a1), ("B0", b0), ("B1", b1)):
        square = float(np.abs(obs @ obs - np.eye(obs.shape[0])).max())
        if square > INVOLUTION_RESIDUAL:
            problems.append(f"{name}^2 misses the identity by {square:.3e}")
    return problems


def check_construct(inputs: np.ndarray, outputs: list) -> list[str]:
    """`outputs[i]` is None for a failed op, else
    (weights, vector, (state, a0, a1, b0, b1))."""
    problems = []
    for i, out in enumerate(outputs):
        if out is None:
            continue
        weights, vector, parts = out
        for problem in check_realization(inputs[i], weights, vector, *parts):
            problems.append(f"construct: input {i}: {problem}")
    return problems


def check_sample(ops: list, outputs: list, reference) -> list[str]:
    """`ops[i]` is (count, (dim_a, dim_b), seed); `outputs[i]` is
    (exit code, summary, rows).  `reference(dims, seed, index)` returns the
    (state, a0, a1, b0, b1) that `quantum.sample_quantum` draws, and row
    `index` must equal the contraction of exactly that strategy."""
    problems = []
    exceeds_classical = False
    for (count, dims, seed), (code, summary, rows) in zip(ops, outputs):
        label = f"sample dims={dims} seed={seed}"
        if code != 0:
            problems.append(f"{label}: exit code {code}")
            continue
        expected = {"count": count, "dims": list(dims), "seed": seed}
        if any(summary.get(k) != v for k, v in expected.items()):
            problems.append(f"{label}: summary {summary} does not match the request")
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (count, 4) or not np.isfinite(rows).all():
            problems.append(f"{label}: rows have shape {rows.shape} or are not finite")
            continue
        outside = landau_slack(rows) < SAMPLE_MEMBER_SLACK
        if outside.any():
            problems.append(f"{label}: rows {_first(outside)} violate Landau's condition")
        peak = chsh_values(rows).max(axis=-1)
        if (peak > TSIRELSON + 1e-9).any():
            problems.append(f"{label}: rows {_first(peak > TSIRELSON + 1e-9)} exceed Tsirelson's bound")
        # rows at the deterministic vertices round to 2 + 4e-16; they do not count
        if tuple(dims) == (2, 2) and (peak > 2.0 + 1e-9).any():
            exceeds_classical = True
        for index in sorted({0, 1, count // 2, count - 1}):
            own = correlators(*reference(dims, seed, index)).real
            gap = float(np.abs(own - rows[index]).max())
            if gap > SAMPLE_ROW_RESIDUAL:
                problems.append(
                    f"{label}: row {index} is {gap:.3e} away from the "
                    "contraction of its own strategy"
                )
    if not exceeds_classical:
        problems.append("sample: no 2x2 row exceeds the classical bound 2")
    return problems


def curvature_value(g: tuple[float, float, float]) -> float:
    """sum tan g_i sec^4 g_i - tan(g1+g2+g3) (sum sec^2 g_i)^2."""
    sec2 = [1.0 / math.cos(v) ** 2 for v in g]
    first = sum(math.tan(v) * s * s for v, s in zip(g, sec2))
    return first - math.tan(sum(g)) * sum(sec2) ** 2


def folded_angle_sum(nu: tuple[float, float, float]) -> float:
    """asin sin nu1 + asin sin nu2 + asin sin nu3 + asin sin (nu1+nu2+nu3)."""
    fold = lambda v: math.asin(math.sin(v))  # noqa: E731
    return fold(nu[0]) + fold(nu[1]) + fold(nu[2]) + fold(sum(nu))


def check_lemmas(code: int, payload: dict) -> list[str]:
    problems = []
    if code != 0 or payload.get("all_passed") is not True:
        problems.append(f"lemmas: exit code {code}, all_passed {payload.get('all_passed')}")
    entries = {c.get("name"): c for c in payload.get("checks", [])}
    if tuple(entries) != LEMMA_NAMES:
        return problems + [f"lemmas: checks {list(entries)} are not {list(LEMMA_NAMES)}"]
    if not all(c.get("passed") is True for c in entries.values()):
        problems.append("lemmas: a check reports passed != true")

    curvature = entries["curvature-positivity"]
    own = curvature_value(tuple(curvature["argmin"]))
    if abs(own - curvature["min_value"]) > LEMMA_VALUE_RESIDUAL * max(1.0, abs(own)):
        problems.append(
            f"lemmas: curvature at the argmin is {own!r}, reported {curvature['min_value']!r}"
        )
    if not own > 0.0:
        problems.append(f"lemmas: curvature minimum {own!r} is not positive")

    angle = entries["angle-sum-maximum"]
    step = angle["grid_step"]
    peak = angle["max_value"]
    if not math.pi - 2.0 * step <= peak <= math.pi + 1e-9:
        problems.append(f"lemmas: angle-sum maximum {peak!r} outside [pi - 2 step, pi + 1e-9]")
    own = folded_angle_sum(tuple(angle["argmin"]))
    if abs(own - peak) > LEMMA_VALUE_RESIDUAL:
        problems.append(f"lemmas: angle sum at the argmax is {own!r}, reported {peak!r}")
    return problems
