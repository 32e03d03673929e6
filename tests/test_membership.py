"""Membership tests: CHSH facets, arcsine bound, margins and the mu map."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrset import membership
from corrset.checks import deterministic_strategy_vectors
from corrset.corrvec import CanonicalForm, CorrelationVector, full_symmetry_group
from corrset.errors import InternalCheckError
from corrset.membership import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    SIGN_PATTERNS,
    TSIRELSON_BOUND,
    arcsine_combinations,
    chsh_combinations,
    chsh_max,
    classical_margins,
    evaluate,
    in_classical,
    in_quantum,
    mu,
    mu_array,
    mu_inverse,
    mu_inverse_array,
    quantum_margins,
)

T = 1.0 / math.sqrt(2.0)

components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vectors = st.tuples(components, components, components, components)


def test_bound_constants():
    assert CLASSICAL_BOUND == 2.0
    assert QUANTUM_BOUND == math.pi
    assert TSIRELSON_BOUND == pytest.approx(2.0 * math.sqrt(2.0), abs=0)


def test_sign_patterns_shape():
    assert SIGN_PATTERNS.shape == (8, 4)
    # each row has an odd number of minus signs
    assert all(int((row < 0).sum()) % 2 == 1 for row in SIGN_PATTERNS)
    assert not SIGN_PATTERNS.flags.writeable


def test_origin():
    report = evaluate(CorrelationVector(0, 0, 0, 0))
    assert report.in_classical and report.in_quantum
    assert report.classical_margin == 2.0
    assert report.quantum_margin == math.pi


def test_pr_box():
    report = evaluate(CorrelationVector(1, 1, 1, -1))
    assert not report.in_classical
    assert not report.in_quantum
    assert max(report.chsh_values) == 4.0
    assert max(report.arcsine_values) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert report.classical_margin == -2.0


def test_tsirelson_point():
    x = CorrelationVector(T, T, T, -T)
    report = evaluate(x)
    assert report.in_quantum
    assert not report.in_classical
    assert abs(report.quantum_margin) <= 1e-9
    assert chsh_max(x) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)


def test_all_ones_is_boundary():
    report = evaluate(CorrelationVector(1, 1, 1, 1))
    assert report.in_classical and report.in_quantum
    assert report.classical_margin == 0.0
    assert abs(report.quantum_margin) <= 1e-12


def test_report_json_keys():
    d = evaluate(CorrelationVector(0.1, 0.2, 0.3, 0.4)).to_json_dict()
    assert list(d) == [
        "in_C",
        "in_Q",
        "chsh_values",
        "f_values",
        "margin_C",
        "margin_Q",
    ]
    assert len(d["chsh_values"]) == 8
    assert len(d["f_values"]) == 8


def test_batch_matches_scalar():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, size=(64, 4))
    cm = classical_margins(xs)
    qm = quantum_margins(xs)
    for row, c, q in zip(xs, cm, qm):
        report = evaluate(CorrelationVector(*row))
        assert report.classical_margin == pytest.approx(c, abs=1e-15)
        assert report.quantum_margin == pytest.approx(q, abs=1e-15)
        assert in_classical(CorrelationVector(*row)) == (c >= -1e-9)
        assert in_quantum(CorrelationVector(*row)) == (q >= -1e-9)


def test_eight_vs_canonical_fast_path():
    # the maximum over all eight equals the canonical single evaluation
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1, 1, size=(100_000, 4))
    full_c = chsh_combinations(xs).max(axis=1)
    full_q = arcsine_combinations(xs).max(axis=1)

    mags = np.sort(np.abs(xs), axis=1)[:, ::-1]
    odd = np.prod(np.sign(np.where(xs == 0.0, 1.0, xs)), axis=1) < 0
    canon4 = np.where(odd, -mags[:, 3], mags[:, 3])
    fast_c = mags[:, 0] + mags[:, 1] + mags[:, 2] - canon4
    fast_q = (
        np.arcsin(mags[:, 0])
        + np.arcsin(mags[:, 1])
        + np.arcsin(mags[:, 2])
        - np.arcsin(canon4)
    )
    assert np.abs(full_c - fast_c).max() <= 1e-9
    assert np.abs(full_q - fast_q).max() <= 1e-9


@given(vectors)
def test_mu_round_trip(t):
    x = CorrelationVector(*t)
    there = mu(x)
    back = mu_inverse(there)
    assert np.abs(np.array(back.as_tuple()) - t).max() <= 1e-12
    assert all(abs(v) <= 1.0 for v in there.as_tuple())


def test_mu_array_round_trip():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, size=(1000, 4))
    assert np.abs(mu_inverse_array(mu_array(xs)) - xs).max() <= 1e-12


def test_mu_margin_scaling():
    # margin_C(mu(x)) = (2/pi) margin_Q(x)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, size=(2000, 4))
    lhs = classical_margins(mu_array(xs))
    rhs = (2.0 / math.pi) * quantum_margins(xs)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_mu_fixes_tsirelson_to_half_box():
    y = mu(CorrelationVector(T, T, T, -T))
    assert np.allclose(y.as_tuple(), (0.5, 0.5, 0.5, -0.5), atol=1e-15)


@given(vectors)
def test_verdicts_symmetry_invariant(t):
    x = CorrelationVector(*t)
    base = evaluate(x)
    for g in full_symmetry_group()[::29]:
        moved = evaluate(g.apply(x))
        assert moved.in_classical == base.in_classical
        assert moved.in_quantum == base.in_quantum
        assert moved.classical_margin == pytest.approx(
            base.classical_margin, abs=1e-12
        )
        assert moved.quantum_margin == pytest.approx(
            base.quantum_margin, abs=1e-12
        )


def test_classical_subset_of_quantum():
    rng = np.random.default_rng(19)
    strategies = deterministic_strategy_vectors()
    for _ in range(300):
        w = rng.dirichlet(np.ones(16))
        x = CorrelationVector(*(w @ strategies))
        assert in_classical(x)
        assert in_quantum(x)


def test_ray_monotonicity():
    # along t*x for s-ordered x the canonical arcsine sum never decreases
    rng = np.random.default_rng(23)
    for _ in range(200):
        mags = np.sort(rng.uniform(0, 1, size=4))[::-1]
        x = np.array([mags[0], mags[1], mags[2], -mags[3]])
        ts = np.linspace(0.0, 1.0, 101)
        values = arcsine_combinations(ts[:, None] * x[None, :]).max(axis=1)
        assert (np.diff(values) >= -1e-12).all()


def test_chsh_combinations_columns():
    x = np.array([0.1, 0.2, 0.3, 0.4])
    got = chsh_combinations(x)
    assert got.shape == (8,)
    assert np.allclose(got, SIGN_PATTERNS @ x, atol=0)


def test_cross_check_fires_on_wrong_canonical_value(monkeypatch):
    # a canonical form that drops x4's minus sign undercounts the binding
    # combination, and the eight-value maxima must catch it
    x = CorrelationVector(0.9, 0.5, 0.3, -0.2)
    wrong = CorrelationVector(0.9, 0.5, 0.3, 0.2)
    max_chsh = max(evaluate(x).chsh_values)
    monkeypatch.setattr(membership, "canonicalize", lambda v: CanonicalForm(wrong, v))
    with pytest.raises(InternalCheckError) as info:
        evaluate(x)
    message = str(info.value)
    assert repr(0.9 + 0.5 + 0.3 - 0.2) in message
    assert repr(max_chsh) in message
