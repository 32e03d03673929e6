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

Both scans run through one driver, `_min_scan`, in one process.  The
scanned value at (i, j, k) is the same float at its mirror (j, i, k): IEEE
addition is commutative, and every term enters through the pair sum
axis[i] + axis[j] or a per-row sum such as sin_term[i] + sin_term[j].  So the
driver scans the rows i <= j alone, counts a row j > i twice, and the first
minimizer has i <= j, as its mirror would come first otherwise.  The angle
scan looks for a maximum, so it runs on the negated sum, with tables
-asin(sin nu) added in the same order as the sum: IEEE negation is exact
and rounding is symmetric, so every scanned value is exactly minus the
sum, and the maximum, its first grid point and the count above pi +
threshold come out as a maximum scan would give them.

The grid total at (i, j, k) is the float fl(fl(axis[i] + axis[j]) + axis[k]),
so it depends on (i, j) only through the pair sum, and the default grids
have about 2,000 distinct pair sums among 5 x 10^4 rows.  Each scan
evaluates its transcendental once on the (pair sums, n) table of totals and
gathers a row's values by its pair sum.  Every total is formed by the same
two roundings and goes through the same elementwise ufunc as in a direct
evaluation, so every scanned value is bitwise the direct one.  The total
is neither a function of i + j + k nor symmetric in j and k.

The driver is a branch and bound that skips rows which can hold neither
the minimum nor a value below the bound.  Rows of one pair sum, taken in
grid order, are cut into buckets.  Within a bucket a value depends on the
row only through its per-row sums, and each rounded step (add, subtract,
square a positive number, multiply by a factor of fixed sign) is monotone
in each input.  So the expression evaluated once at the bucket's corner,
with its least sum and, for the curvature scan, its greatest weight sum
where tan > 0 and its least where tan < 0, is a float at most every value
in the bucket, with no margin.  Rows run in the order of these bounds, a
block at a time, until the next bound exceeds both the best value so far
and the bound counted against; the result is the full scan's, bit for bit,
whatever the bucket size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import membership
from .corrvec import DEFAULT_TOLERANCE
from .errors import DomainError, InternalCheckError

_PATH_AGREEMENT_TOLERANCE = 1e-9

# Grid rows per evaluated block: 128 x n values, 320 kB at n = 315
_BLOCK_ROWS = 128
# Rows per bucket.  A bucket costs one corner row and is evaluated whole or
# not at all; at the default grids 32 to 128 scan fastest, 4 about 30% slower.
_BUCKET_ROWS = 64

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

    gap = np.abs(vertex_value - facet_value)
    if np.max(gap) > _PATH_AGREEMENT_TOLERANCE:
        # the first disagreeing row, counted over the leading axes
        row = int(np.argmax(gap.reshape(-1) > _PATH_AGREEMENT_TOLERANCE))
        point = ", ".join(repr(float(v)) for v in xs.reshape(-1, 4)[row])
        vertex = float(vertex_value.reshape(-1)[row])
        facet = float(facet_value.reshape(-1)[row])
        raise InternalCheckError(
            f"vertex and facet oracle paths disagree by {abs(vertex - facet):.3e} "
            f"at row {row}, x = ({point}): vertex value {vertex!r}, "
            f"facet value {facet!r}"
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


def _pair_sum_table(axis: np.ndarray) -> tuple[np.ndarray, ...]:
    """The half grid's rows, i <= j in grid order, the distinct pair sums
    and where each row finds its own: (i, j, heads, pair, order) with
    heads[pair] bitwise axis[i] + axis[j] and heads increasing; `order`
    lists the rows by pair sum, in grid order within one."""
    i, j = np.triu_indices(axis.size)
    sums = axis[i] + axis[j]
    order = np.argsort(sums, kind="stable")
    ranked = sums[order]
    opens = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    pair = np.empty_like(order)
    pair[order] = np.cumsum(opens) - 1
    return i, j, ranked[opens], pair, order


def _bucket_starts(pair: np.ndarray, order: np.ndarray, size: int) -> np.ndarray:
    """Where `order`, rows grouped by pair sum, is cut into buckets of at
    most `size` rows of one pair sum."""
    position = np.arange(order.size)
    opens = np.diff(pair[order], prepend=-1) != 0
    class_start = np.maximum.accumulate(np.where(opens, position, 0))
    return np.flatnonzero((position - class_start) % size == 0)


def _bucket_lows(corner, count: int) -> np.ndarray:
    """Row minima of corner(buckets), the values at `count` bucket corners,
    a block of corners at a time."""
    return np.concatenate(
        [
            corner(slice(start, start + _BLOCK_ROWS)).min(axis=1)
            for start in range(0, count, _BLOCK_ROWS)
        ]
    )


def _min_scan(
    axis: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    lows: np.ndarray,
    values,
    bound: float,
) -> tuple[float, tuple[float, ...], int]:
    """(min value, its grid point, count below `bound`) over the grid.

    (i, j) lists the rows i <= j of the grid in grid order, and values(rows)
    their values at (axis[i], axis[j], axis[k]) for every k; a row left out
    holds +inf alone.  Bucket b is rows order[starts[b]:starts[b + 1]], and
    lows[b] is at most every value in it.  Rows run in the order of their
    bucket's low, a block at a time, until the next low exceeds both the
    best value so far and `bound`: no row left can hold the minimum or a
    value below `bound`.  Ties go to the first grid point, and a row j > i
    counts twice, as its mirror (j, i) holds the same values.
    """
    row_lows = np.repeat(lows, np.diff(starts, append=order.size))
    ranked = np.argsort(row_lows, kind="stable")
    sequence, row_lows = order[ranked], row_lows[ranked]
    best = math.inf
    violations = 0
    done = []
    for start in range(0, sequence.size, _BLOCK_ROWS):
        if row_lows[start] > max(best, bound):
            break
        rows = sequence[start : start + _BLOCK_ROWS]
        block = values(rows)
        first = np.argmin(block, axis=1)
        minima = block[np.arange(rows.size), first]
        done.append((rows, minima, first))
        best = min(best, float(minima.min()))
        if minima.min() < bound:
            hits = np.count_nonzero(block < bound, axis=1)
            violations += int(hits @ (2 - (i[rows] == j[rows])))
    rows, minima, first = (np.concatenate(part) for part in zip(*done))
    ties = np.flatnonzero(minima == best)
    won = ties[np.argmin(rows[ties])]
    row = rows[won]
    return (
        best,
        (float(axis[i[row]]), float(axis[j[row]]), float(axis[first[won]])),
        violations,
    )


def _curvature_rows(step: float, margin: float, bucket: int) -> tuple:
    """`_min_scan`'s grid and buckets for the curvature expression."""
    limit = 0.5 * math.pi - margin
    axis = _grid_axis(limit, step)
    low_sum = 0.5 * math.pi + margin
    high_sum = 1.5 * math.pi - margin
    sin_term = np.sin(axis) / np.cos(axis) ** 5
    weight_term = 1.0 / np.cos(axis) ** 2
    i, j, heads, pair, order = _pair_sum_table(axis)
    totals = heads[:, None] + axis[None, :]
    in_range = (totals >= low_sum) & (totals <= high_sum)
    tan_totals = np.tan(totals, out=totals)
    # finite terms minus -inf times a weight >= 9: +inf off the range
    tan_totals[~in_range] = -np.inf
    # a row whose pair sum puts no total in range is +inf alone
    order = order[in_range.any(axis=1)[pair[order]]]
    if order.size == 0:
        raise DomainError("scan grid is empty; decrease step or margin")
    sums = sin_term[i] + sin_term[j]
    weights = weight_term[i] + weight_term[j]

    def expression(sums, weights, pairs):
        return (sums[:, None] + sin_term) - tan_totals[pairs] * (
            weights + weight_term
        ) ** 2

    starts = _bucket_starts(pair, order, bucket)
    least = np.minimum.reduceat(sums[order], starts)
    light = np.minimum.reduceat(weights[order], starts)
    heavy = np.maximum.reduceat(weights[order], starts)
    classes = pair[order[starts]]

    def corner(b):
        pairs = classes[b]
        # a value falls as the weight sum grows where tan > 0, rises where < 0
        chosen = np.where(tan_totals[pairs] > 0.0, heavy[b, None], light[b, None])
        return expression(least[b], chosen, pairs)

    def values(rows):
        return expression(sums[rows], weights[rows, None], pair[rows])

    return axis, i, j, order, starts, _bucket_lows(corner, starts.size), values


def curvature_positivity_scan(
    step: float = 0.01,
    margin: float = 0.05,
    threshold: float = CURVATURE_THRESHOLD,
) -> ScanResult:
    """Scan the curvature expression over its admissible grid.

    The expression is sum_i sin g_i / cos^5 g_i minus
    tan(g1 + g2 + g3) (sum_i 1 / cos^2 g_i)^2; its positivity makes the
    curved boundary bulge outward and the set convex.  The grid covers |g_i| <= pi/2 - margin restricted to
    g1 + g2 + g3 in [pi/2 + margin, 3pi/2 - margin].  Passing means
    min_value >= threshold (violations == 0).
    """
    _check_scan_params(step, margin)
    rows = _curvature_rows(step, margin, _BUCKET_ROWS)
    return ScanResult(step, *_min_scan(*rows, threshold))


def _negated_angle_sum_rows(step: float, bucket: int) -> tuple:
    """`_min_scan`'s grid and buckets for the negated folded arcsine sum."""
    axis = _grid_axis(math.pi, step)
    negated = -np.arcsin(np.sin(axis))
    i, j, heads, pair, order = _pair_sum_table(axis)
    totals = heads[:, None] + axis[None, :]
    folded = np.arcsin(np.sin(totals, out=totals), out=totals)
    sums = negated[i] + negated[j]

    def expression(sums, pairs):
        return (sums[:, None] + negated) - folded[pairs]

    starts = _bucket_starts(pair, order, bucket)
    least = np.minimum.reduceat(sums[order], starts)
    classes = pair[order[starts]]

    def values(rows):
        return expression(sums[rows], pair[rows])

    lows = _bucket_lows(lambda b: expression(least[b], classes[b]), starts.size)
    return axis, i, j, order, starts, lows, values


def angle_sum_max_scan(
    step: float = 0.02,
    threshold: float = ANGLE_SUM_THRESHOLD,
) -> ScanResult:
    """Scan the constrained folded arcsine sum for its maximum.

    Grid: nu1, nu2, nu3 over [-pi, pi]; nu4 closed by the constraint.  The
    mathematical maximum is pi, reached on the diagonal through
    (pi/2, pi/2, pi/2), so a passing scan has min_value = pi - max >= -threshold
    with violations == 0, and attainment min_value <= 2 * step.
    """
    _check_scan_params(step, None)
    rows = _negated_angle_sum_rows(step, _BUCKET_ROWS)
    best, best_arg, violations = _min_scan(*rows, -(math.pi + threshold))
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
    # the largest array a scan builds is its (pair sums, n) table of totals;
    # the pair sums include the n exact doubles 2 axis[i], so it holds at
    # least n x n float64, more than the n(n + 1)/2 half-grid rows of 8
    # bytes each or np.triu_indices's n x n mask of one; numpy allocates no
    # array of more bytes than its index type counts, which also bounds the
    # axis itself
    if count * count * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise DomainError(
            f"step {step!r} gives {count:.4g} grid points per axis, too many "
            "to allocate the (pair sums, n) table of totals"
        )


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
