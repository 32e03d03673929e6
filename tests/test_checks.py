"""Self-verification tests: vertex oracle, grid scans and the parity argument."""

import concurrent.futures
import itertools
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from corrset.corrvec import CorrelationVector
from corrset.errors import DomainError
from corrset import checks, quantum
from corrset.checks import (
    ANGLE_SUM_THRESHOLD,
    CURVATURE_THRESHOLD,
    ScanResult,
    _curvature_rows,
    _grid_axis,
    _min_scan,
    _negated_angle_sum_rows,
    _pair_sum_table,
    angle_sum_max_scan,
    curvature_positivity_scan,
    deterministic_strategy_vectors,
    ghz_contradiction,
    lvt_oracle_batch,
)
from corrset.membership import chsh_combinations, classical_margins, evaluate
from corrset.quantum import _chunk_ranges

# first grid point, in (nu1, nu2, nu3) order, where the scans reach the maximum
ANGLE_SUM_ARGMAX = (-1.541592653589793, 1.558407346410207, 1.558407346410207)


def test_deterministic_strategies():
    xs = deterministic_strategy_vectors()
    assert xs.shape == (16, 4)
    assert (np.abs(xs) == 1.0).all()
    # parity: the component product of every strategy vector is +1
    assert (np.prod(xs, axis=1) == 1.0).all()
    # each strategy hits the classical bound on exactly four combinations
    combos = chsh_combinations(xs)
    assert ((combos == 2.0).sum(axis=1) == 4).all()
    assert (np.abs(combos) == 2.0).all()


def test_vertices_are_eight():
    # the oracle's basis rows and their negations are the polytope's vertices
    vs = np.concatenate([checks._VERTEX_BASIS, -checks._VERTEX_BASIS])
    assert vs.shape == (8, 4)
    strategies = {tuple(row) for row in deterministic_strategy_vectors()}
    assert {tuple(row) for row in vs} <= strategies
    assert len({tuple(row) for row in vs}) == 8
    # vertices come in antipodal pairs spanning orthogonal directions
    gram = vs[:4] @ vs[:4].T
    assert np.array_equal(gram, 4.0 * np.eye(4))


def test_lvt_oracle_frozen_values():
    t = 1 / math.sqrt(2)
    points = [(1, 1, 1, 1), (1, 1, 1, -1), (0.5, 0, 0, 0), (t, t, t, -t)]
    assert lvt_oracle_batch(np.array(points)).tolist() == [True, False, True, False]


def test_lvt_oracle_on_an_empty_batch():
    # np.max over the empty gap array raised "zero-size array to reduction
    # operation maximum which has no identity"
    for shape in ((0, 4), (3, 0, 4)):
        xs = np.zeros(shape)
        verdicts = lvt_oracle_batch(xs)
        assert verdicts.dtype == bool
        assert verdicts.shape == classical_margins(xs).shape == shape[:-1]


def test_lvt_oracle_matches_facets():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, size=(100_000, 4))
    vertex_side = lvt_oracle_batch(xs)
    facet_side = classical_margins(xs) >= -1e-9
    assert np.array_equal(vertex_side, facet_side)


def test_lone_row_reaches_its_in_array_vertex_value():
    # v, a row's vertex value inside an array, summed left to right; for v
    # in (1, 2] the tolerance 2(v - 1) puts the bound 1 + tolerance/2 at v
    # exactly, so a lone row of shape (4,) or (1, 4) is admitted only if its
    # sums round as they do inside the array
    rows = np.random.default_rng(25).uniform(-1.0, 1.0, size=(4000, 4))
    coords = [
        sum(rows[:, j] * sign for j, sign in enumerate(signs))
        for signs in checks._VERTEX_BASIS
    ]
    values = sum(np.abs(c / 4.0) for c in coords)
    boundary = np.flatnonzero((values > 1.0) & (values <= 2.0))
    assert len(boundary) > 1000
    for r in boundary:
        tolerance = 2.0 * (values[r] - 1.0)
        assert 1.0 + 0.5 * tolerance == values[r]
        assert lvt_oracle_batch(rows[r], tolerance)
        assert lvt_oracle_batch(rows[r : r + 1], tolerance).tolist() == [True]


def test_lvt_oracle_scalar_agrees():
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = CorrelationVector(*rng.uniform(-1, 1, size=4))
        assert lvt_oracle_batch(x.as_array()) == evaluate(x).in_classical


def test_curvature_scan_coarse():
    res = curvature_positivity_scan(step=0.1, margin=0.05)
    assert res.violations == 0
    assert res.min_value >= CURVATURE_THRESHOLD
    assert res.min_value == pytest.approx(48.0, rel=0.01)
    # pinned bit for bit, so the argmin tie-break and the count cannot move
    assert res == ScanResult(0.1, 48.01860850970014, (0.7792036732051038,) * 3, 0)
    assert res == curvature_positivity_scan(step=0.1, margin=0.05)


def test_angle_sum_scan_coarse():
    res = angle_sum_max_scan(step=0.1)
    assert res.violations == 0
    # min_value stores pi minus the scanned maximum
    assert res.min_value >= -ANGLE_SUM_THRESHOLD
    assert math.pi - res.min_value == pytest.approx(math.pi, abs=0.2)
    assert res == ScanResult(0.1, -1.554312234475219e-14, ANGLE_SUM_ARGMAX, 0)
    assert res == angle_sum_max_scan(step=0.1)


def test_angle_sum_scan_counts_violations():
    # with the bound lowered to pi - 1 most of the grid exceeds it
    expected = ScanResult(0.05, -1.554312234475219e-14, ANGLE_SUM_ARGMAX, 298_690)
    assert angle_sum_max_scan(step=0.05, threshold=-1.0) == expected


def test_scan_violation_counts_pinned():
    # thresholds moved into the range of values, so many grid points count
    curvature = ScanResult(0.03, 48.00691003067614, (0.7892036732051035,) * 3, 12_161)
    angle = ScanResult(
        0.03, -1.2434497875801753e-14, (1.5684073464102068,) * 3, 824_223
    )
    assert curvature_positivity_scan(step=0.03, threshold=100.0) == curvature
    assert angle_sum_max_scan(step=0.03, threshold=-0.5) == angle


def test_default_grids_pinned():
    # what check-lemmas prints at its default steps
    assert curvature_positivity_scan() == ScanResult(
        0.01, 48.00691003067614, (0.7892036732051035,) * 3, 0
    )
    assert angle_sum_max_scan() == ScanResult(
        0.02, -1.554312234475219e-14, ANGLE_SUM_ARGMAX, 0
    )


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "limit, step",
    [
        (0.5 * math.pi - 0.05, 0.01),
        (math.pi, 0.02),
        (math.pi, 0.037),
        (0.5 * math.pi - 0.2, 0.0123),
        (1.0, 1.0 / 3.0),
    ],
)
def test_pair_sum_table_is_bitwise(limit, step):
    axis = _grid_axis(limit, step)
    i, j, heads, pair, order = _pair_sum_table(axis)
    rows = np.triu_indices(axis.size)
    assert (i == rows[0]).all() and (j == rows[1]).all()
    assert (np.diff(heads) > 0.0).all()
    assert (_bits(heads[pair]) == _bits(axis[i] + axis[j])).all()
    # the n doubles 2 axis[i] are pair sums, so the table has n rows or more
    assert np.isin(2.0 * axis, heads).all()
    # by pair sum, and in grid order within one
    assert (np.sort(order) == np.arange(i.size)).all()
    assert (np.diff(pair[order]) >= 0).all()
    assert (np.diff(order)[np.diff(pair[order]) == 0] > 0).all()


def _direct_curvature_slab(axis, i, margin):
    # the scan's values evaluated point by point on the whole grid
    totals = axis[i] + axis[:, None] + axis[None, :]
    mask = (totals >= 0.5 * math.pi + margin) & (totals <= 1.5 * math.pi - margin)
    if not mask.any():
        return None
    sin_term = np.sin(axis) / np.cos(axis) ** 5
    weight_term = 1.0 / np.cos(axis) ** 2
    values = (sin_term[i] + sin_term[:, None] + sin_term[None, :]) - np.tan(
        totals
    ) * (weight_term[i] + weight_term[:, None] + weight_term[None, :]) ** 2
    return np.where(mask, values, np.inf)


def _direct_angle_slab(axis, i):
    totals = axis[i] + axis[:, None] + axis[None, :]
    negated = -np.arcsin(np.sin(axis))
    return (negated[i] + negated[:, None] + negated[None, :]) - np.arcsin(
        np.sin(totals)
    )


SLAB_GRIDS = [(0.1, 0.05), (0.07, 0.2), (0.043, 0.5)]


def _direct_cube(axis, direct_slab):
    # the whole grid, point by point; a row without grid points is all +inf
    rows = [direct_slab(axis, i) for i in range(axis.size)]
    full = np.full((axis.size, axis.size), np.inf)
    return np.stack([full if row is None else row for row in rows])


@pytest.mark.parametrize("step, margin", SLAB_GRIDS)
def test_slabs_match_direct_evaluation(step, margin):
    # every listed row i <= j evaluates bitwise to the direct one, a row left
    # out holds +inf alone, and each bucket is rows of one pair sum whose
    # bound is at most every value in it
    def check(made, direct_slab, bucket):
        axis, i, j, order, starts, lows, values = made
        cube = _direct_cube(axis, direct_slab)
        assert (i <= j).all() and np.unique(order).size == order.size
        left_out = np.ones(i.size, dtype=bool)
        left_out[order] = False
        assert (cube[i[left_out], j[left_out]] == np.inf).all()
        pair = _pair_sum_table(axis)[3]
        stops = np.append(starts[1:], order.size)
        for b, (start, stop) in enumerate(zip(starts, stops)):
            rows = order[start:stop]
            assert 0 < rows.size <= bucket
            assert (pair[rows] == pair[rows[0]]).all()
            block = values(rows)
            assert block.shape == (rows.size, axis.size)
            assert (_bits(block) == _bits(cube[i[rows], j[rows]])).all()
            assert lows[b] <= block.min()

    for bucket in (1, 3, 64):
        check(
            _curvature_rows(step, margin, bucket),
            lambda axis, i: _direct_curvature_slab(axis, i, margin),
            bucket,
        )
        check(_negated_angle_sum_rows(step, bucket), _direct_angle_slab, bucket)


@pytest.mark.parametrize("step, margin", SLAB_GRIDS)
def test_direct_slabs_are_mirror_images(step, margin):
    # the scans evaluate rows j >= i only because (i, j, k) and (j, i, k)
    # give the same float
    axis = _grid_axis(0.5 * math.pi - margin, step)
    cube = _direct_cube(axis, lambda axis, i: _direct_curvature_slab(axis, i, margin))
    assert (_bits(cube) == _bits(cube.transpose(1, 0, 2))).all()
    axis = _grid_axis(math.pi, step)
    cube = _direct_cube(axis, _direct_angle_slab)
    assert (_bits(cube) == _bits(cube.transpose(1, 0, 2))).all()


@pytest.mark.parametrize("bucket", [1, 2, 3])
@pytest.mark.parametrize(
    "scan, step, threshold",
    [
        ("curvature", 0.1, 60.0),
        ("curvature", 0.07, 49.0),
        ("angle", 0.1, -0.5),
        ("angle", 0.13, -0.05),
    ],
)
def test_scans_match_brute_force(monkeypatch, scan, step, threshold, bucket):
    # the whole n^3 cube, with violations both on the diagonal j == i and off it
    monkeypatch.setattr(checks, "_BUCKET_ROWS", bucket)
    if scan == "curvature":
        axis = _grid_axis(0.5 * math.pi - 0.05, step)
        cube = _direct_cube(axis, lambda axis, i: _direct_curvature_slab(axis, i, 0.05))
        bound, offset = threshold, 0.0
        result = curvature_positivity_scan(step, 0.05, threshold)
    else:
        axis = _grid_axis(math.pi, step)
        cube = _direct_cube(axis, _direct_angle_slab)
        bound, offset = -(math.pi + threshold), math.pi
        result = angle_sum_max_scan(step, threshold)
    hits = cube < bound
    diagonal = np.arange(axis.size)
    assert hits[diagonal, diagonal].any()
    assert hits.sum() > hits[diagonal, diagonal].sum()
    first = np.unravel_index(np.argmin(cube), cube.shape)
    assert result == ScanResult(
        step,
        offset + float(cube[first]),
        tuple(float(axis[n]) for n in first),
        int(hits.sum()),
    )


@pytest.mark.parametrize("scan", ["curvature", "angle"])
def test_bounded_scan_matches_brute_force_on_random_grids(scan):
    # random small grids, bucket sizes and bounds through the driver itself:
    # the bound at the exact minimum (the count is strict), one float above
    # it (every tied minimum counts), at a grid value and past every value
    rng = np.random.default_rng(18 if scan == "angle" else 19)
    split_ties = 0
    for _ in range(8):
        bucket = int(rng.choice([1, 2, 3, 5, 8, 64]))
        if scan == "curvature":
            margin = rng.uniform(0.05, 0.6)
            made = _curvature_rows(rng.uniform(0.06, 0.2), margin, bucket)
            cube = _direct_cube(
                made[0], lambda axis, i: _direct_curvature_slab(axis, i, margin)
            )
        else:
            made = _negated_angle_sum_rows(rng.uniform(0.1, 0.3), bucket)
            cube = _direct_cube(made[0], _direct_angle_slab)
        axis, i, j, order, starts = made[:5]
        first = np.unravel_index(np.argmin(cube), cube.shape)
        low = float(cube[first])
        point = tuple(float(axis[n]) for n in first)
        finite = cube[np.isfinite(cube)]
        for bound in (low, math.nextafter(low, math.inf), rng.choice(finite), math.inf):
            count = int((cube < bound).sum())
            assert _min_scan(*made, float(bound)) == (low, point, count)
        # the rows tied at the minimum, by the bucket holding each
        buckets = np.repeat(np.arange(starts.size), np.diff(starts, append=order.size))
        tied = cube[i[order], j[order]].min(axis=1) == low
        split_ties += np.unique(buckets[tied]).size > 1
    # the angle scan's plateau at pi ties whole rows exactly
    assert split_ties >= 2 or scan == "curvature"


@pytest.mark.parametrize(
    "scan, listed, at_most",
    [("curvature", 21_756, 3_840), ("angle", 49_770, 128)],
)
def test_bounded_scan_prunes_the_default_grids(scan, listed, at_most):
    # the bounds leave all but a few rows unevaluated, each row once at most,
    # and the result is still the pinned one
    if scan == "curvature":
        made = _curvature_rows(0.01, 0.05, checks._BUCKET_ROWS)
        bound, offset = CURVATURE_THRESHOLD, 0.0
        expected = ScanResult(0.01, 48.00691003067614, (0.7892036732051035,) * 3, 0)
    else:
        made = _negated_angle_sum_rows(0.02, checks._BUCKET_ROWS)
        bound, offset = -(math.pi + ANGLE_SUM_THRESHOLD), math.pi
        expected = ScanResult(0.02, -1.554312234475219e-14, ANGLE_SUM_ARGMAX, 0)
    evaluated = []

    def values(rows):
        evaluated.append(rows)
        return made[-1](rows)

    best, point, violations = _min_scan(*made[:-1], values, bound)
    assert ScanResult(expected.grid_step, offset + best, point, violations) == expected
    rows = np.concatenate(evaluated)
    assert made[3].size == listed
    assert np.unique(rows).size == rows.size <= at_most


def test_min_scan_stop_rule_ties_and_mirror_counts(monkeypatch):
    # six rows i <= j over a three-point axis, one bucket each, run one at a
    # time; row (1, 1) has the loosest low, so it runs first
    monkeypatch.setattr(checks, "_BLOCK_ROWS", 1)
    axis = np.array([0.0, 1.0, 2.0])
    i, j = np.triu_indices(3)
    table = np.array(
        [
            [5.0, 6.0, 7.0],  # (0, 0)
            [4.0, 2.0, 1.0],  # (0, 1): ties (1, 1) and comes first in grid order
            [3.0, 3.5, 3.0],  # (0, 2)
            [1.0, 1.5, 9.0],  # (1, 1)
            [8.0, 8.0, 8.0],  # (1, 2)
            [9.0, 9.0, 9.0],  # (2, 2)
        ]
    )
    lows = np.array([5.0, 1.0, 3.0, 0.5, 8.0, 9.0])
    order = starts = np.arange(6)
    evaluated = []

    def values(rows):
        evaluated.extend(rows.tolist())
        return table[rows]

    def scan(bound):
        evaluated.clear()
        return _min_scan(axis, i, j, order, starts, lows, values, bound)

    # a low equal to the best value still runs, since it may hold an earlier
    # tie; a row j > i counts twice, a diagonal row once
    assert scan(2.0) == (1.0, (0.0, 1.0, 2.0), 2 * 1 + 1 * 2)
    assert evaluated == [3, 1]
    # a bound above a low makes its row run; the count below it is strict
    assert scan(3.0) == (1.0, (0.0, 1.0, 2.0), 2 * 2 + 1 * 2)
    assert evaluated == [3, 1, 2]
    assert scan(3.25) == (1.0, (0.0, 1.0, 2.0), 2 * 2 + 1 * 2 + 2 * 2)
    assert evaluated == [3, 1, 2]
    # past every value, every row runs and every point counts
    assert scan(math.inf) == (1.0, (0.0, 1.0, 2.0), 27)
    assert sorted(evaluated) == list(range(6))


def test_curvature_scan_rejects_empty_grid():
    # |g_i| <= 0.07 keeps every total below pi/2 + margin
    with pytest.raises(DomainError, match="scan grid is empty"):
        curvature_positivity_scan(step=0.01, margin=1.5)


def _positional_bucket_starts(pair, order, size):
    # a row opens a bucket when its place among its pair sum's rows is a
    # multiple of `size`
    position = np.arange(order.size)
    opens = np.diff(pair[order], prepend=-1) != 0
    class_start = np.maximum.accumulate(np.where(opens, position, 0))
    return np.flatnonzero((position - class_start) % size == 0)


def _index_cases():
    # (pair, order) of real half grids and of random classes, each with
    # every row and with a random part of them
    rng = np.random.default_rng(24)
    for limit, step in [(0.5 * math.pi - 0.05, 0.05), (math.pi, 0.1), (1.0, 0.3)]:
        pair, order = _pair_sum_table(_grid_axis(limit, step))[3:]
        yield pair, order
        yield pair, order[rng.random(order.size) < 0.3]
    for _ in range(20):
        sizes = rng.integers(1, 150, size=rng.integers(1, 40))
        pair = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
        order = np.argsort(pair, kind="stable")
        yield pair, order[rng.random(order.size) < rng.uniform(0.0, 1.0)]


@pytest.mark.parametrize("size", [1, 4, 64, 10**6])
def test_bucket_starts_match_the_positional_rule(size):
    for pair, order in _index_cases():
        starts = checks._bucket_starts(pair, order, size)
        assert starts.tolist() == _positional_bucket_starts(pair, order, size).tolist()


@pytest.mark.parametrize("size", [1, 4, 64, 10**6])
def test_ranked_buckets_expand_to_the_stable_row_sort(size):
    # past every value, _min_scan runs every row, in the order it ranks
    # them; lows drawn from few values, so that many buckets tie
    rng = np.random.default_rng(size)
    for pair, order in _index_cases():
        starts = checks._bucket_starts(pair, order, size)
        lows = rng.choice([-1.5, 0.0, 0.25, 0.25, 3.0, np.inf], size=starts.size)
        row_lows = np.repeat(lows, np.diff(starts, append=order.size))
        evaluated = []

        def values(rows):
            evaluated.extend(rows.tolist())
            return np.zeros((rows.size, 1))

        same = np.zeros(pair.size, dtype=int)
        _min_scan(np.zeros(1), same, same, order, starts, lows, values, math.inf)
        assert evaluated == order[np.argsort(row_lows, kind="stable")].tolist()


def _brute_curvature_scan(axis, margin, threshold):
    # every total of the n^3 grid through np.tan, -inf off the range, so
    # that a point off it holds +inf
    totals = (axis[:, None, None] + axis[None, :, None]) + axis
    in_range = (totals >= 0.5 * math.pi + margin) & (totals <= 1.5 * math.pi - margin)
    if not in_range.any():
        raise DomainError("scan grid is empty; decrease step or margin")
    tans = np.where(in_range, np.tan(totals), -np.inf)
    sin_term = np.sin(axis) / np.cos(axis) ** 5
    weight_term = 1.0 / np.cos(axis) ** 2
    sums = sin_term[:, None, None] + sin_term[None, :, None]
    weights = weight_term[:, None, None] + weight_term[None, :, None]
    cube = (sums + sin_term) - tans * (weights + weight_term) ** 2
    first = np.unravel_index(np.argmin(cube), cube.shape)
    point = tuple(float(axis[n]) for n in first)
    return float(cube[first]), point, int((cube < threshold).sum())


def _tan_rows(monkeypatch):
    # the rows of every 2-d table the curvature scan takes np.tan of
    rows = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def tan(x, *args, **kwargs):
            rows.append(np.array(x).shape[0])
            return np.tan(x, *args, **kwargs)

    monkeypatch.setattr(checks, "np", RecordingNumpy())
    return rows


@pytest.mark.parametrize("step, margin", [(0.09, 0.2), (0.06, 0.45), (0.05, 0.7)])
def test_restricted_curvature_table_matches_brute_force(monkeypatch, step, margin):
    # the table holds the pair sums h with some total h + axis[k] in range,
    # the ones reaching it, and the scan is the brute force's at a threshold
    # below every value and at one inside them
    axis = _grid_axis(0.5 * math.pi - margin, step)
    heads = _pair_sum_table(axis)[2]
    totals = heads[:, None] + axis
    reaching = (totals >= 0.5 * math.pi + margin).any(axis=1)
    assert 0 < reaching.argmax() and reaching.sum() < heads.size
    tan_rows = _tan_rows(monkeypatch)
    low = _brute_curvature_scan(axis, margin, -math.inf)[0]
    for threshold in (CURVATURE_THRESHOLD, low + 5.0):
        tan_rows.clear()
        result = curvature_positivity_scan(step, margin, threshold)
        assert tan_rows == [reaching.sum()]
        expected = _brute_curvature_scan(axis, margin, threshold)
        assert result == ScanResult(step, *expected)
        assert threshold < low or result.violations > 0


def test_restricted_curvature_table_from_the_first_pair_sum(monkeypatch):
    # on a grid of positive angles the least pair sum already reaches the
    # range, so the table starts at pair sum 0
    axis = np.linspace(0.6, 1.4, 17)
    monkeypatch.setattr(checks, "_grid_axis", lambda limit, step: axis)
    heads = _pair_sum_table(axis)[2]
    assert heads[0] + axis[-1] >= 0.5 * math.pi + 0.3
    tan_rows = _tan_rows(monkeypatch)
    result = curvature_positivity_scan(0.05, 0.3)
    assert tan_rows == [heads.size]
    expected = _brute_curvature_scan(axis, 0.3, CURVATURE_THRESHOLD)
    assert result == ScanResult(0.05, *expected)


def test_restricted_curvature_table_empty_when_no_pair_sum_reaches():
    # just past margin pi/4, 3 (pi/2 - margin) < pi/2 + margin: no total
    # reaches the range
    margin = 0.79
    axis = _grid_axis(0.5 * math.pi - margin, 0.03)
    assert 3.0 * axis[-1] < 0.5 * math.pi + margin
    with pytest.raises(DomainError, match="scan grid is empty"):
        curvature_positivity_scan(step=0.03, margin=margin)


def test_chunk_ranges_one_worker_and_even_costs():
    assert _chunk_ranges(100, 1, 4) == [(0, 100)]
    # too few indices for every worker to get a whole block: one chunk
    assert _chunk_ranges(7, 2, 4) == [(0, 7)]
    assert _chunk_ranges(400, 2, 204) == [(0, 400)]
    assert _chunk_ranges(408, 2, 204) == [(0, 204), (204, 408)]
    chunks = _chunk_ranges(103, 4, 25)
    assert chunks[0][0] == 0 and chunks[-1][1] == 103
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    sizes = [stop - start for start, stop in chunks]
    assert len(sizes) == 4 and max(sizes) - min(sizes) <= 1


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes asked of ProcessPoolExecutor, whose stand-in maps in this
    process, so no process is started."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, args):
            return map(func, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize(
    "workers, chunks, cpus, size",
    [(10_000, 3, 2, 2), (2, 5, 8, 2), (9, 3, 16, 3), (8, 3, None, 1)],
)
def test_run_chunks_caps_the_pool(monkeypatch, pool_sizes, workers, chunks, cpus, size):
    monkeypatch.setattr(quantum.os, "cpu_count", lambda: cpus)
    args = list(range(-chunks, 0))
    assert quantum._run_chunks(abs, args, workers) == [-a for a in args]
    assert pool_sizes == [size]


def test_sample_pool_is_capped_and_rows_unchanged(monkeypatch, pool_sizes):
    # 100 workers split 400 rows into 100 chunks of one 4-index block each,
    # which share 2 CPUs
    monkeypatch.setattr(quantum, "_SAMPLE_BLOCK_BYTES", 4 * 16 * 20)
    assert quantum._sample_block_size(2, 2) == 4
    monkeypatch.setattr(quantum.os, "cpu_count", lambda: 2)
    rows = quantum.sample_correlations(400, seed=5, workers=100)
    assert pool_sizes == [2]
    assert (rows == quantum.sample_correlations(400, seed=5)).all()


def test_scan_rejects_bad_parameters():
    with pytest.raises(DomainError):
        curvature_positivity_scan(step=0.0)
    with pytest.raises(DomainError):
        curvature_positivity_scan(step=-0.1)
    with pytest.raises(DomainError):
        angle_sum_max_scan(step=math.nan)
    with pytest.raises(DomainError):
        curvature_positivity_scan(step=0.01, margin=2.0)


def test_scan_rejects_unindexable_grid():
    # refused from the step alone: no axis or slab is allocated
    for step in (1e-300, 5e-324):
        with pytest.raises(DomainError, match=f"step {step!r} gives"):
            curvature_positivity_scan(step=step)
        with pytest.raises(DomainError, match=f"step {step!r} gives"):
            angle_sum_max_scan(step=step)


def test_scan_table_cap():
    # the n x n float64 lower bound of the table is capped at 4 GiB: a step
    # of 1e-3 (6,284 points per axis, 0.3 GB) passes, 2.7e-4 (23,271) not
    checks._check_scan_params(1e-3, None)
    assert 23_170**2 * 8 <= checks._MAX_TABLE_BYTES < 23_171**2 * 8
    with pytest.raises(DomainError, match="step 0.00027 gives 2.327e"):
        angle_sum_max_scan(step=2.7e-4)
    with pytest.raises(DomainError, match="4 GiB cap"):
        curvature_positivity_scan(step=1.3e-4, margin=0.05)


def test_scan_result_json():
    res = curvature_positivity_scan(step=0.2, margin=0.05)
    d = res.to_json_dict()
    assert list(d) == ["grid_step", "min_value", "argmin", "violations"]
    assert d["violations"] == 0
    assert len(d["argmin"]) == 3


def test_verification_scans_demo(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "verification_scans.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert re.findall(r"violations: (\S+)", out) == ["0", "0"]


def test_ghz_contradiction():
    assert ghz_contradiction() is True
    assert ghz_contradiction(relaxed=True) is False


def test_ghz_exhaustive_oracle():
    # independent re-derivation: no sign assignment satisfies all four
    found_strict = False
    found_relaxed = False
    for a0, a1, b0, b1, c0, c1 in itertools.product((-1, 1), repeat=6):
        strict = (
            a1 * b0 * c0 == 1
            and a0 * b1 * c0 == 1
            and a0 * b0 * c1 == 1
            and a1 * b1 * c1 == -1
        )
        relaxed = (
            a1 * b0 * c0 == 1
            and a0 * b1 * c0 == 1
            and a0 * b0 * c1 == 1
            and a1 * b1 * c1 == 1
        )
        found_strict = found_strict or strict
        found_relaxed = found_relaxed or relaxed
    assert not found_strict
    assert found_relaxed
