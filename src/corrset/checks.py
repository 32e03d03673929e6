"""Independent brute-force and grid-scan verification oracles.

Nothing here reuses the decision logic of `membership` or `geometry`; the
point of this module is redundancy.  It provides:

* `lvt_oracle_batch` - classical-set membership decided from the vertex
  description of the polytope instead of its facet inequalities.  The 16
  deterministic strategies collapse to 8 distinct vertices which split into
  plus/minus pairs of four mutually orthogonal vectors, so barycentric
  coordinates come from a closed-form orthogonal expansion; feasibility is
  the l1 condition on those coordinates.  A facet evaluation runs alongside
  and the two paths are cross-checked on every call.

* `curvature_positivity_scan` - verifies on a grid that the curvature
  expression controlling convexity of the curved boundary surface is
  positive.  The grid keeps a safety margin away from the domain edges
  where tangents and secants blow up; on that excluded shell every term of
  the expression diverges to +infinity, so positivity there needs no
  numerics (the per-axis factors 1/cos^2 and sin/cos^5 grow without bound
  while the remaining factors stay bounded below).

* `angle_sum_max_scan` - verifies on a grid that the folded arcsine sum
  asin(sin nu1) + ... + asin(sin nu4) under the closure constraint
  nu4 = nu1 + nu2 + nu3 (taken modulo 2*pi) never exceeds pi, which pins
  the extremal generators inside the quantum set.

* `ghz_contradiction` - the 64-case enumeration showing that no local
  +-1 assignment reproduces the four three-party correlators (1, 1, 1, -1)
  of the canonical parity argument.

Both scans run through one driver, `_min_scan`: it splits the rows i of
the grid among workers, and each row yields a slab of values over (j, k),
j >= i, from which it takes the violation count below a bound and the
first minimum.  Only the slab function differs between the scans.  The angle
scan looks for a maximum, so it runs on the negated sum, with tables
-asin(sin nu) added in the same order as the sum: IEEE negation is exact
and rounding is symmetric, so every scanned value is exactly minus the
sum and the maximum, its first grid point and the count above pi +
threshold come out as a maximum scan would give them.  Results are
deterministic for fixed parameters and do not depend on the worker count:
chunks merge by (value, grid point).

The slabs read the grid total's tan, or asin(sin), from a pair-sum table.
The total at (i, j, k) is the float fl(fl(axis[i] + axis[j]) + axis[k]), so
it depends on (i, j) only through the pair sum, and the default grids have
about 2,000 distinct pair sums among 10^5 pairs.  Each scan evaluates the
transcendental once on the (pair sums, n) array of totals and gathers a
slab's rows by pair.  Every total is formed by the same two roundings and
goes through the same elementwise ufunc as in a direct evaluation, so every
scanned value is bitwise the direct one.  The table is built on the first
slab, as `_min_scan` asks for slabs only to read the axis.

IEEE addition is commutative, so the total and per-axis sums such as
sin_term[i] + sin_term[j] make every value the same float at (i, j, k) and
at its mirror (j, i, k).  A slab holds rows j >= i alone, the count is
2 x (hits with j > i) + (hits with j == i), and the first minimizer has
i <= j, as its mirror would come first otherwise.  The total is neither a
function of i + j + k nor symmetric in j and k.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import membership
from .corrvec import DEFAULT_TOLERANCE
from .errors import DomainError, InternalCheckError

_PATH_AGREEMENT_TOLERANCE = 1e-9

CURVATURE_THRESHOLD = -1e-9
ANGLE_SUM_THRESHOLD = 1e-9

# Four mutually orthogonal strategy vertices; the full vertex set of the
# classical polytope is {+-row}.  Each row has squared norm 4.
_VERTEX_BASIS = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)
_VERTEX_BASIS.flags.writeable = False


# ---------------------------------------------------------------------------
# classical polytope oracle


def deterministic_strategy_vectors() -> np.ndarray:
    """Correlation vectors of all 16 deterministic strategies, shape (16, 4).

    Strategies assign fixed +-1 outcomes (a0, a1, b0, b1); the vector is
    (a0*b0, a0*b1, a1*b0, a1*b1).  Global flips of both parties collapse
    the 16 strategies onto 8 distinct vertices.
    """
    rows = [
        (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
        for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4)
    ]
    return np.array(rows, dtype=float)


def lvt_oracle_batch(
    xs: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Vectorized classical-set oracle; input (..., 4), output booleans.

    Vertex path: expand x in the orthogonal vertex basis and test the l1
    norm of the coordinates.  Facet path: the box bounds together with the
    eight CHSH combinations.  The two paths compute the same support value
    through different arithmetic and are compared on every call.
    """
    xs = np.asarray(xs, dtype=float)
    coords = xs @ _VERTEX_BASIS.T / 4.0
    vertex_value = np.abs(coords).sum(axis=-1)

    box_value = membership._row_max(np.abs(xs))
    chsh_value = membership._row_max(membership.chsh_combinations(xs))
    facet_value = np.maximum(box_value, 0.5 * chsh_value)

    disagreement = float(np.max(np.abs(vertex_value - facet_value)))
    if disagreement > _PATH_AGREEMENT_TOLERANCE:
        raise InternalCheckError(
            f"vertex and facet oracle paths disagree by {disagreement:.3e}"
        )
    return vertex_value <= 1.0 + 0.5 * tolerance


# ---------------------------------------------------------------------------
# grid scans


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a grid scan.

    `min_value` is the smallest margin-to-threshold found and `argmin` the
    grid point attaining it; `violations` counts grid points whose margin
    fell below the threshold, so passing scans have violations == 0.  For
    the maximum scan the margin is (pi - value), hence the scanned maximum
    equals pi - min_value.
    """

    grid_step: float
    min_value: float
    argmin: tuple[float, ...]
    violations: int

    def to_json_dict(self) -> dict:
        return {
            "grid_step": self.grid_step,
            "min_value": self.min_value,
            "argmin": list(self.argmin),
            "violations": self.violations,
        }


def _grid_axis(limit: float, step: float) -> np.ndarray:
    count = int(math.floor(2.0 * limit / step)) + 1
    return -limit + step * np.arange(count)


def _pair_sum_table(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pair sums of the axis and where each pair finds its own:
    (heads, where) with heads[where] bitwise axis[:, None] + axis[None, :]."""
    heads, where = np.unique(axis[:, None] + axis[None, :], return_inverse=True)
    return heads, where.reshape(axis.size, axis.size)


def _scan_chunk(args: tuple) -> tuple[float, tuple[float, ...] | None, int]:
    """Rows start..stop-1 of a minimum scan: the first smallest value with
    its grid point, and the count of values below `bound`.
    `make_slabs(*params)` gives the axis, `slab(i)`: (first, values), the
    values at (axis[i], axis[j], axis[k]) for rows j = first, first + 1, ...
    with first >= i, or None when row i has no grid point with j >= i, and
    the number of rows each slab(i) holds.  A value is the same at
    (j, i, k), so a row j > i counts twice."""
    start, stop, make_slabs, params, bound = args
    axis, slab, _ = make_slabs(*params)
    count = axis.size
    best = math.inf
    best_arg: tuple[float, ...] | None = None
    violations = 0
    for i in range(start, stop):
        rows = slab(i)
        if rows is None:
            continue
        first, values = rows
        flat = int(np.argmin(values))
        value = float(values.flat[flat])
        if value < bound:
            hits = np.count_nonzero(values < bound, axis=1)
            violations += 2 * int(hits.sum()) - int(hits[0]) * (first == i)
        if value < best:
            best = value
            best_arg = (
                float(axis[i]),
                float(axis[first + flat // count]),
                float(axis[flat % count]),
            )
    return best, best_arg, violations


def _min_scan(
    make_slabs, params: tuple, bound: float, workers: int
) -> tuple[float, tuple[float, ...], int]:
    """(min value, its grid point, count below `bound`) over the grid.
    Ties go to the smallest grid point, whatever the split into chunks.
    Row i's work is its slab rows, and one more row's worth to find them."""
    rows = make_slabs(*params)[2]
    args = [
        (start, stop, make_slabs, params, bound)
        for start, stop in _chunk_ranges(rows + 1, workers)
    ]
    results = _run_chunks(_scan_chunk, args, workers)
    candidates = [r for r in results if r[1] is not None]
    if not candidates:
        raise DomainError("scan grid is empty; decrease step or margin")
    best, best_arg, _ = min(candidates, key=lambda r: (r[0], r[1]))
    return best, best_arg, sum(r[2] for r in results)


def _curvature_slabs(step: float, margin: float):
    limit = 0.5 * math.pi - margin
    axis = _grid_axis(limit, step)
    low_sum = 0.5 * math.pi + margin
    high_sum = 1.5 * math.pi - margin
    sin_term = np.sin(axis) / np.cos(axis) ** 5
    weight_term = 1.0 / np.cos(axis) ** 2
    # slab(i)'s rows: j >= i from the first whose sum can reach low_sum
    reach = np.searchsorted(axis, low_sum - axis[-1] - axis)
    rows = axis.size - np.maximum(np.arange(axis.size), reach)

    @functools.cache
    def table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        heads, where = _pair_sum_table(axis)
        totals = heads[:, None] + axis[None, :]
        in_range = (totals >= low_sum) & (totals <= high_sum)
        tan_totals = np.tan(totals, out=totals)
        # finite terms minus -inf times a weight >= 9: +inf off the range
        tan_totals[~in_range] = -np.inf
        return tan_totals, in_range.any(axis=1), where

    def slab(i: int) -> tuple[int, np.ndarray] | None:
        tan_totals, head_in_range, where = table()
        rows = i + np.flatnonzero(head_in_range[where[i, i:]])
        if rows.size == 0:
            return None
        # rows j outside the first..last with a point in range are all +inf
        j = slice(rows[0], rows[-1] + 1)
        return int(rows[0]), (
            sin_term[i] + sin_term[j, None] + sin_term[None, :]
        ) - tan_totals[where[i, j]] * (
            weight_term[i] + weight_term[j, None] + weight_term[None, :]
        ) ** 2

    return axis, slab, rows


def curvature_positivity_scan(
    step: float = 0.01,
    margin: float = 0.05,
    threshold: float = CURVATURE_THRESHOLD,
    workers: int = 1,
) -> ScanResult:
    """Scan the curvature expression over its admissible grid.

    The expression is sum_i sin g_i / cos^5 g_i minus
    tan(g1 + g2 + g3) (sum_i 1 / cos^2 g_i)^2; its positivity makes the
    curved boundary bulge outward and the set convex.  The grid covers |g_i| <= pi/2 - margin restricted to
    g1 + g2 + g3 in [pi/2 + margin, 3pi/2 - margin].  Passing means
    min_value >= threshold (violations == 0).
    """
    _check_scan_params(step, margin)
    return ScanResult(
        step, *_min_scan(_curvature_slabs, (step, margin), threshold, workers)
    )


def _negated_angle_sum_slabs(step: float):
    axis = _grid_axis(math.pi, step)
    negated = -np.arcsin(np.sin(axis))

    @functools.cache
    def table() -> tuple[np.ndarray, np.ndarray]:
        heads, where = _pair_sum_table(axis)
        totals = heads[:, None] + axis[None, :]
        return np.arcsin(np.sin(totals, out=totals), out=totals), where

    def slab(i: int) -> tuple[int, np.ndarray]:
        folded, where = table()
        return i, (negated[i] + negated[i:, None] + negated[None, :]) - folded[
            where[i, i:]
        ]

    return axis, slab, axis.size - np.arange(axis.size)


def angle_sum_max_scan(
    step: float = 0.02,
    threshold: float = ANGLE_SUM_THRESHOLD,
    workers: int = 1,
) -> ScanResult:
    """Scan the constrained folded arcsine sum for its maximum.

    Grid: nu1, nu2, nu3 over [-pi, pi]; nu4 closed by the constraint.  The
    mathematical maximum is pi, reached on the diagonal through
    (pi/2, pi/2, pi/2), so a passing scan has min_value = pi - max >= -threshold
    with violations == 0, and attainment min_value <= 2 * step.
    """
    _check_scan_params(step, None)
    best, best_arg, violations = _min_scan(
        _negated_angle_sum_slabs, (step,), -(math.pi + threshold), workers
    )
    return ScanResult(step, math.pi + best, best_arg, violations)


def _check_scan_params(step: float, margin: float | None) -> None:
    """Reject a grid before anything is allocated for it; margin None is
    the angle scan's grid over [-pi, pi]."""
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive, got {step!r}")
    if margin is not None:
        if not (math.isfinite(margin) and 0.0 < margin < 0.5 * math.pi):
            raise DomainError(
                f"margin must lie strictly between 0 and pi/2, got {margin!r}"
            )
    limit = math.pi if margin is None else 0.5 * math.pi - margin
    # _grid_axis's count up to its floor, found without making an array
    count = 2.0 * limit / step + 1.0
    # the largest arrays a scan builds from the axis are (n, n) float64:
    # the pair sums, and a slab; numpy allocates no array of more bytes
    # than its index type counts, which also bounds the axis itself
    if count * count * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise DomainError(
            f"step {step!r} gives {count:.4g} grid points per axis, too many "
            "to allocate the (n, n) pair sums and slabs"
        )


def _chunk_ranges(costs: np.ndarray, workers: int) -> list[tuple[int, int]]:
    """Split the indices of the positive `costs` into contiguous (start,
    stop) pieces, one per worker when every worker gets at least 4 indices,
    else one; each cut falls where the running total is nearest its share."""
    size = len(costs)
    pieces = workers if workers > 1 and size >= 4 * workers else 1
    totals = np.concatenate(([0], np.cumsum(costs)))
    shares = totals[-1] * np.arange(pieces + 1) / pieces
    cuts = np.rint(np.interp(shares, totals, np.arange(size + 1))).astype(int)
    return [(int(cuts[k]), int(cuts[k + 1])) for k in range(pieces)]


def _run_chunks(func, args: list, workers: int) -> list:
    """func over args, in order; in a pool of processes when there is more
    than one chunk.  The pool holds no more processes than `workers`, the
    chunks or the host's CPUs, since a fork pool starts all of them at
    once.  func must be picklable by name."""
    if len(args) <= 1:
        return [func(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    size = min(workers, len(args), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(func, args))


# ---------------------------------------------------------------------------
# parity argument


def ghz_contradiction(relaxed: bool = False) -> bool:
    """Enumerate all 64 deterministic three-party +-1 assignments.

    Returns True when no assignment satisfies all four correlator
    constraints a0*b0*c1 = a0*b1*c0 = a1*b0*c0 = 1 and a1*b1*c1 = -1
    simultaneously (it cannot: the product of the first three forces
    a1*b1*c1 = +1).  With `relaxed` the fourth constraint is dropped and
    satisfying assignments exist, so the function returns False; that
    serves as a control for the enumeration itself.
    """
    for a0, a1, b0, b1, c0, c1 in itertools.product((1, -1), repeat=6):
        if a0 * b0 * c1 != 1 or a0 * b1 * c0 != 1 or a1 * b0 * c0 != 1:
            continue
        if relaxed or a1 * b1 * c1 == -1:
            return False
    return True
