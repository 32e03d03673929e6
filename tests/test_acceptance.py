"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line with its runtime; tests/conftest.py
repeats those lines in the terminal summary, so they show in a plain run.
Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines and
any intermediate output inline).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from corrset.checks import (
    angle_sum_max_scan,
    curvature_positivity_scan,
    deterministic_strategy_vectors,
    ghz_contradiction,
    lvt_oracle_batch,
)
from corrset.corrvec import CorrelationVector, full_symmetry_group
from corrset.errors import NotInQuantumSetError
from corrset.geometry import decompose, generator_values
from corrset.membership import (
    TSIRELSON_BOUND,
    chsh_combinations,
    chsh_max,
    classical_margins,
    evaluate,
    mu_array,
    quantum_margins,
)
from corrset.quantum import expectation, realize_mixture, sample_correlations

T = 1.0 / math.sqrt(2.0)
TOLERANCE = 1e-9


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number:2d}: {label} ({elapsed:.1f}s)")


def test_criterion_01_tsirelson_saturation():
    with criterion(1, "Tsirelson point saturates the quantum bound"):
        x = CorrelationVector(T, T, T, -T)
        report = evaluate(x, TOLERANCE)
        assert report.in_quantum
        assert abs(report.quantum_margin) <= 1e-9
        assert abs(chsh_max(x) - TSIRELSON_BOUND) <= 1e-12
        assert not report.in_classical


def test_criterion_02_pr_box_rejection():
    with criterion(2, "PR box rejected with arcsine value 2*pi"):
        report = evaluate(CorrelationVector(1, 1, 1, -1), TOLERANCE)
        assert not report.in_quantum
        assert abs(max(report.arcsine_values) - 2.0 * math.pi) <= 1e-12


def test_criterion_03_mu_equivalence():
    with criterion(3, "mu maps the quantum set onto the polytope (1e6 pts)"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        xs = rng.uniform(-1.0, 1.0, size=(1_000_000, 4))
        q_margins = quantum_margins(xs)
        c_margins = classical_margins(mu_array(xs))
        in_q = q_margins >= -TOLERANCE
        in_c = c_margins >= -TOLERANCE
        outside_band = np.abs(q_margins) > 1e-7
        assert int((in_q != in_c)[outside_band].sum()) == 0
        assert time.perf_counter() - start < 30.0


def test_criterion_04_sampled_strategies_stay_inside():
    with criterion(4, "random strategies pass the quantum test (1e5 + 1e4)"):
        start = time.perf_counter()
        two_qubit = sample_correlations(100_000, 2, 2, seed=404)
        dim_four = sample_correlations(10_000, 4, 4, seed=405)
        assert quantum_margins(two_qubit).min() >= -1e-7
        assert quantum_margins(dim_four).min() >= -1e-7
        peak = max(
            chsh_combinations(two_qubit).max(),
            chsh_combinations(dim_four).max(),
        )
        assert peak <= TSIRELSON_BOUND + 1e-7
        assert time.perf_counter() - start < 60.0


def test_criterion_05_decompose_realize_round_trip():
    with criterion(5, "decompose + realize reproduces mixtures (1e4)"):
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        for _ in range(10_000):
            phis = rng.uniform(-math.pi, math.pi, size=(3, 3))
            w = rng.dirichlet(np.ones(3))
            x = CorrelationVector(*(w @ generator_values(phis)))
            d = decompose(x, TOLERANCE)
            assert len(d.terms) <= 3
            assert abs(math.fsum(d.weights) - 1.0) <= 1e-12
            back = expectation(realize_mixture(d))
            gap = max(
                abs(a - b) for a, b in zip(back.as_tuple(), x.as_tuple())
            )
            assert gap <= 1e-8
        assert time.perf_counter() - start < 60.0


def test_criterion_06_curvature_positivity():
    with criterion(6, "boundary curvature positive on the 0.01 grid"):
        start = time.perf_counter()
        result = curvature_positivity_scan(step=0.01, margin=0.05)
        assert result.violations == 0
        assert result.min_value >= -1e-9
        assert time.perf_counter() - start < 120.0


def test_criterion_07_angle_sum_maximum():
    with criterion(7, "constrained arcsine sum peaks at pi (0.02 grid)"):
        start = time.perf_counter()
        result = angle_sum_max_scan(step=0.02)
        attained = math.pi - result.min_value
        assert result.violations == 0
        assert math.pi - 0.04 <= attained <= math.pi + 1e-9
        assert time.perf_counter() - start < 60.0


def test_criterion_08_parity_contradiction():
    with criterion(8, "64-case parity contradiction, relaxed control"):
        assert ghz_contradiction() is True
        assert ghz_contradiction(relaxed=True) is False


def test_criterion_09_vertex_oracle_agreement():
    with criterion(9, "vertex oracle matches facet test (1e6 pts)"):
        start = time.perf_counter()
        rng = np.random.default_rng(909)
        xs = rng.uniform(-1.0, 1.0, size=(1_000_000, 4))
        vertex_side = lvt_oracle_batch(xs, TOLERANCE)
        facet_side = classical_margins(xs) >= -TOLERANCE
        assert np.array_equal(vertex_side, facet_side)

        strategies = deterministic_strategy_vectors()
        assert lvt_oracle_batch(strategies, TOLERANCE).all()
        assert (classical_margins(strategies) >= -TOLERANCE).all()
        combos = chsh_combinations(strategies)
        assert ((combos == 2.0).sum(axis=1) == 4).all()
        assert time.perf_counter() - start < 60.0


def test_criterion_10_symmetry_suite():
    with criterion(10, "verdicts and decompositions respect all 192 ops"):
        start = time.perf_counter()
        group = full_symmetry_group()
        identity = group[0].compose(group[0].inverse())

        # group laws hold exactly
        members = set(group)
        assert len(members) == 192
        for g in group:
            assert g.inverse() in members
            assert g.compose(g.inverse()) == identity
        for g in group[::13]:
            for h in group:
                assert g.compose(h) in members

        rng = np.random.default_rng(1001)
        xs = rng.uniform(-1.0, 1.0, size=(1_000, 4))
        matrices = np.stack([g.matrix() for g in group])
        orbit = np.einsum("oij,nj->noi", matrices, xs)
        flat = orbit.reshape(-1, 4)
        q_side = (quantum_margins(flat) >= -TOLERANCE).reshape(-1, 192)
        c_side = (classical_margins(flat) >= -TOLERANCE).reshape(-1, 192)
        assert (q_side == q_side[:, :1]).all()
        assert (c_side == c_side[:, :1]).all()

        # members decompose across the whole orbit with bounded residual
        max_residual = 0.0
        for row, inside in zip(xs, q_side[:, 0]):
            if not inside:
                continue
            x = CorrelationVector(*row)
            for g in group:
                image = g.apply(x)
                d = decompose(image, TOLERANCE)
                gap = max(
                    abs(a - b)
                    for a, b in zip(
                        d.reconstruct().as_tuple(), image.as_tuple()
                    )
                )
                max_residual = max(max_residual, gap)
        assert max_residual <= 1e-9

        # non-members stay undecomposable in every frame
        outside = [row for row, ok in zip(xs, q_side[:, 0]) if not ok][:10]
        for row in outside:
            x = CorrelationVector(*row)
            for g in group:
                try:
                    decompose(g.apply(x), TOLERANCE)
                except NotInQuantumSetError:
                    continue
                raise AssertionError(
                    f"orbit image of non-member decomposed: {row!r}"
                )
        assert time.perf_counter() - start < 30.0
