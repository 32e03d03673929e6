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
from corrset import checks
from corrset.checks import (
    ANGLE_SUM_THRESHOLD,
    CURVATURE_THRESHOLD,
    ScanResult,
    _chunk_ranges,
    _curvature_slabs,
    _grid_axis,
    _negated_angle_sum_slabs,
    _pair_sum_table,
    angle_sum_max_scan,
    curvature_positivity_scan,
    deterministic_strategy_vectors,
    ghz_contradiction,
    lvt_oracle_batch,
)
from corrset.membership import chsh_combinations, classical_margins, evaluate

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


def test_lvt_oracle_matches_facets():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, size=(100_000, 4))
    vertex_side = lvt_oracle_batch(xs)
    facet_side = classical_margins(xs) >= -1e-9
    assert np.array_equal(vertex_side, facet_side)


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
    # deterministic and worker-count independent
    assert res == curvature_positivity_scan(step=0.1, margin=0.05)
    assert res == curvature_positivity_scan(step=0.1, margin=0.05, workers=2)


def test_angle_sum_scan_coarse():
    res = angle_sum_max_scan(step=0.1)
    assert res.violations == 0
    # min_value stores pi minus the scanned maximum
    assert res.min_value >= -ANGLE_SUM_THRESHOLD
    assert math.pi - res.min_value == pytest.approx(math.pi, abs=0.2)
    assert res == ScanResult(0.1, -1.554312234475219e-14, ANGLE_SUM_ARGMAX, 0)
    assert res == angle_sum_max_scan(step=0.1)
    assert res == angle_sum_max_scan(step=0.1, workers=2)


def test_angle_sum_scan_counts_violations():
    # with the bound lowered to pi - 1 most of the grid exceeds it
    expected = ScanResult(0.05, -1.554312234475219e-14, ANGLE_SUM_ARGMAX, 298_690)
    assert angle_sum_max_scan(step=0.05, threshold=-1.0) == expected
    assert angle_sum_max_scan(step=0.05, threshold=-1.0, workers=2) == expected


def test_scan_violation_counts_pinned():
    # thresholds moved into the range of values, so many grid points count
    curvature = ScanResult(0.03, 48.00691003067614, (0.7892036732051035,) * 3, 12_161)
    angle = ScanResult(
        0.03, -1.2434497875801753e-14, (1.5684073464102068,) * 3, 824_223
    )
    for workers in (1, 2):
        assert (
            curvature_positivity_scan(step=0.03, threshold=100.0, workers=workers)
            == curvature
        )
        assert angle_sum_max_scan(step=0.03, threshold=-0.5, workers=workers) == angle


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
    heads, where = _pair_sum_table(axis)
    assert (np.diff(heads) > 0.0).all()
    assert (_bits(heads[where]) == _bits(axis[:, None] + axis[None, :])).all()


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
    # a slab holds rows j >= i; the rows it leaves out have no grid point,
    # and its row count is the one the slab maker reports
    def check(axis, slab, counts, direct_slab):
        cube = _direct_cube(axis, direct_slab)
        for i in range(axis.size):
            rows = slab(i)
            if rows is None:
                assert counts[i] == 0
                assert (cube[i, i:] == np.inf).all()
                continue
            assert counts[i] == rows[1].shape[0]
            first, values = rows
            last = first + values.shape[0]
            assert i <= first < last <= axis.size
            assert values.shape[1] == axis.size
            assert (_bits(values) == _bits(cube[i, first:last])).all()
            assert (cube[i, i:first] == np.inf).all()
            assert (cube[i, last:] == np.inf).all()

    axis, slab, counts = _curvature_slabs(step, margin)
    check(axis, slab, counts, lambda axis, i: _direct_curvature_slab(axis, i, margin))
    axis, slab, counts = _negated_angle_sum_slabs(step)
    check(axis, slab, counts, _direct_angle_slab)


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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "scan, step, threshold",
    [
        ("curvature", 0.1, 60.0),
        ("curvature", 0.07, 49.0),
        ("angle", 0.1, -0.5),
        ("angle", 0.13, -0.05),
    ],
)
def test_scans_match_brute_force(scan, step, threshold, workers):
    # the whole n^3 cube, with violations both on the diagonal j == i and off it
    if scan == "curvature":
        axis = _grid_axis(0.5 * math.pi - 0.05, step)
        cube = _direct_cube(axis, lambda axis, i: _direct_curvature_slab(axis, i, 0.05))
        bound, offset = threshold, 0.0
        result = curvature_positivity_scan(step, 0.05, threshold, workers)
    else:
        axis = _grid_axis(math.pi, step)
        cube = _direct_cube(axis, _direct_angle_slab)
        bound, offset = -(math.pi + threshold), math.pi
        result = angle_sum_max_scan(step, threshold, workers)
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


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "make_slabs, params",
    [
        (_curvature_slabs, (0.01, 0.05)),
        (_curvature_slabs, (0.03, 0.3)),
        (_negated_angle_sum_slabs, (0.02,)),
        (_negated_angle_sum_slabs, (0.1,)),
    ],
)
def test_scan_chunks_balance_work(monkeypatch, make_slabs, params, workers):
    # row i evaluates its slab rows of n points each and looks them up in
    # one more row's worth; an even split of the rows i gave the first of
    # two workers about 3/4 of the angle scan's points
    chunks = []

    def record(func, args, workers):
        chunks.extend((start, stop) for start, stop, *_ in args)
        return [func(a) for a in args]

    monkeypatch.setattr(checks, "_run_chunks", record)
    checks._min_scan(make_slabs, params, 0.0, workers)
    axis, _, rows = make_slabs(*params)
    n = axis.size
    assert len(chunks) == workers
    assert chunks[0][0] == 0 and chunks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    work = [n * int((rows[start:stop] + 1).sum()) for start, stop in chunks]
    row = n * int(rows.max() + 1)  # the largest row's worth
    share = sum(work) / workers
    assert all(abs(w - share) <= row for w in work)
    if workers == 2:
        assert max(work) - min(work) <= row


def test_chunk_ranges_one_worker_and_even_costs():
    assert _chunk_ranges(100 - np.arange(100), 1) == [(0, 100)]
    # too few indices for every worker to get 4: one chunk
    assert _chunk_ranges(np.ones(7), 2) == [(0, 7)]
    sizes = [stop - start for start, stop in _chunk_ranges(np.ones(103), 4)]
    assert sum(sizes) == 103 and max(sizes) - min(sizes) <= 1


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
    monkeypatch.setattr(checks.os, "cpu_count", lambda: cpus)
    args = list(range(-chunks, 0))
    assert checks._run_chunks(abs, args, workers) == [-a for a in args]
    assert pool_sizes == [size]


def test_sample_pool_is_capped_and_rows_unchanged(monkeypatch, pool_sizes):
    # 100 workers split 400 rows into 100 chunks, which share 2 CPUs
    from corrset.quantum import sample_correlations

    monkeypatch.setattr(checks.os, "cpu_count", lambda: 2)
    rows = sample_correlations(400, seed=5, workers=100)
    assert pool_sizes == [2]
    assert (rows == sample_correlations(400, seed=5)).all()


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
