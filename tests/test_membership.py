"""Membership tests: CHSH facets, arcsine bound, margins and the mu map."""

import itertools
import math
import runpy
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrset import membership
from corrset.checks import (
    _VERTEX_BASIS,
    deterministic_strategy_vectors,
    lvt_oracle_batch,
)
from corrset.corrvec import (
    DEFAULT_TOLERANCE,
    CorrelationVector,
    full_symmetry_group,
)
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
    mu,
    mu_array,
    mu_inverse,
    quantum_margins,
)

T = 1.0 / math.sqrt(2.0)

components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vectors = st.tuples(components, components, components, components)

# mostly signed zeros and values whose sums cancel exactly, some uniform
special = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0))
zero_prone = st.one_of(special, special, special, components)
zero_prone_vectors = st.tuples(zero_prone, zero_prone, zero_prone, zero_prone)


def _bits(values) -> list[bytes]:
    """Each float's IEEE bytes, so that +0.0 and -0.0 differ."""
    return [struct.pack("<d", v) for v in values]


def _direct_sums(comps) -> list[float]:
    """The eight combinations as each pattern row reads, term by term."""
    return [
        p[0] * comps[0] + p[1] * comps[1] + p[2] * comps[2] + p[3] * comps[3]
        for p in SIGN_PATTERNS.tolist()
    ]


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
        assert report.in_classical == (c >= -1e-9)
        assert report.in_quantum == (q >= -1e-9)


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
    back = [mu_inverse(CorrelationVector(*row)).as_tuple() for row in mu_array(xs)]
    assert np.abs(np.array(back) - xs).max() <= 1e-12


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
        report = evaluate(x)
        assert report.in_classical and report.in_quantum


# components at and next to the box corners, where the arcsine's slope is
# unbounded, and uniform ones
near_corner = st.sampled_from(
    (1.0, -1.0, 0.9999999999999999, -0.9999999999999999, 0.9999999999999996,
     -0.9999999999999996, 0.0)
)
corner_prone_vectors = st.tuples(*[st.one_of(near_corner, components)] * 4)


@given(corner_prone_vectors, st.sampled_from((1e-12, 1e-9, 1e-6, 0.3)))
def test_quantum_verdict_reads_the_margin_again_one_ulp_inward(t, tolerance):
    # admitted when margin_Q reaches -tolerance, or when it is within 1e-7
    # below and the margin of x / (1 + 2**-52) reaches it; so the rule never
    # refuses what the plain margin admits
    x = CorrelationVector(*t)
    inward = [v / (1.0 + 2.0**-52) for v in x.as_tuple()]
    values, margin, inside = membership.quantum_verdict(x.as_tuple(), tolerance)
    assert values == evaluate(x).arcsine_values
    assert margin == QUANTUM_BOUND - max(values)
    shifted = evaluate(CorrelationVector(*inward)).quantum_margin
    band = -tolerance - 1e-7 <= margin
    assert inside == (margin >= -tolerance or band and shifted >= -tolerance)
    assert inside or margin < -tolerance

    margins, verdicts = membership.quantum_verdicts(np.array([x.as_tuple()]), tolerance)
    plain = quantum_margins(np.array([x.as_tuple()]))[0]
    shifted = quantum_margins(np.array([inward]))[0]
    assert margins[0] == plain
    band = -tolerance - 1e-7 <= plain
    assert verdicts[0] == (plain >= -tolerance or band and shifted >= -tolerance)
    assert verdicts[0] or plain < -tolerance


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
    monkeypatch.setattr(membership, "canonicalize", lambda v: wrong)
    with pytest.raises(InternalCheckError) as info:
        evaluate(x)
    message = str(info.value)
    assert repr(0.9 + 0.5 + 0.3 - 0.2) in message
    assert repr(max_chsh) in message


@given(zero_prone_vectors)
def test_four_sum_systems_bitwise_the_eight_pattern_sums(t):
    # rows 4-7 come from negating rows 0-3; an exact zero must stay +0.0
    x = CorrelationVector(*t)
    comps = x.as_tuple()
    report = evaluate(x)
    chsh = _direct_sums(comps)
    assert _bits(report.chsh_values) == _bits(chsh)
    assert _bits(report.arcsine_values) == _bits(
        _direct_sums([math.asin(v) for v in comps])
    )
    assert _bits([chsh_max(x)]) == _bits([max(chsh)])


def test_evaluate_canonicalizes_once(monkeypatch):
    # the traced benchmark counts calls of `membership.canonicalize` per op
    original = membership.canonicalize
    calls = []

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(membership, "canonicalize", counting)
    xs = [CorrelationVector(0.9, 0.5, 0.3, -0.2), CorrelationVector(1, 1, 1, -1)]
    for x in xs:
        evaluate(x)
    assert calls == xs


def _restated_lvt_oracle_batch(xs, tolerance=DEFAULT_TOLERANCE):
    # lvt_oracle_batch with numpy's own maximum over the last axis
    vertex_value = np.abs(xs @ _VERTEX_BASIS.T / 4.0).sum(axis=-1)
    facet_value = np.maximum(
        np.abs(xs).max(axis=-1), 0.5 * chsh_combinations(xs).max(axis=-1)
    )
    if float(np.max(np.abs(vertex_value - facet_value))) > 1e-9:
        raise InternalCheckError("vertex and facet oracle paths disagree")
    return vertex_value <= 1.0 + 0.5 * tolerance


def _arrays_of_shape(shape):
    size = math.prod(shape)
    values = st.lists(zero_prone, min_size=size, max_size=size)
    return values.map(lambda v: np.array(v).reshape(shape))


vector_arrays = st.one_of(
    st.just((4,)),
    st.tuples(st.integers(1, 12), st.just(4)),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(4)),
).flatmap(_arrays_of_shape)


@given(vector_arrays)
def test_array_row_maxima_bitwise_the_last_axis_max(xs):
    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64).tolist()

    combos = chsh_combinations(xs)
    arcsines = arcsine_combinations(xs)
    for values in (combos, arcsines, np.abs(xs)):
        assert bits(membership._row_max(values)) == bits(values.max(axis=-1))
    assert bits(classical_margins(xs)) == bits(CLASSICAL_BOUND - combos.max(axis=-1))
    assert bits(quantum_margins(xs)) == bits(QUANTUM_BOUND - arcsines.max(axis=-1))
    verdict = lvt_oracle_batch(xs)
    assert np.shape(verdict) == xs.shape[:-1]
    assert np.array_equal(verdict, _restated_lvt_oracle_batch(xs))


@pytest.mark.parametrize(
    "func",
    [
        chsh_combinations,
        arcsine_combinations,
        classical_margins,
        quantum_margins,
        lvt_oracle_batch,
    ],
)
def test_one_row_is_bitwise_its_row_in_a_longer_array(func):
    # a row's pattern sums are the same floats alone, of shape (4,) or
    # (1, 4), as inside a longer array; a matrix product would round a lone
    # row's sums in another order
    rng = np.random.default_rng(24)
    grid = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=4)))
    rows = np.concatenate([grid, rng.uniform(-1.0, 1.0, size=(1000, 4))])
    whole = np.asarray(func(rows))
    for r, row in enumerate(rows):
        assert np.asarray(func(row)).tobytes() == whole[r].tobytes()
        assert np.asarray(func(row[None])).tobytes() == whole[r : r + 1].tobytes()


@given(vector_arrays)
def test_row_sums_bitwise_the_last_axis_sum(xs):
    # lvt_oracle_batch's vertex value, l1 norms of the vertex coordinates
    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64).tolist()

    for values in (np.abs(xs), np.abs(xs @ _VERTEX_BASIS.T / 4.0)):
        assert bits(membership._row_sum(values)) == bits(values.sum(axis=-1))


def test_row_sums_bitwise_over_wide_exponents():
    # addends 2**60 apart, where the order of the additions shows
    rng = np.random.default_rng(22)
    values = rng.uniform(0.5, 1.0, (4096, 4)) * np.exp2(rng.integers(-60, 1, (4096, 4)))
    for shape in ((4096, 4), (16, 16, 16, 4), (4,)):
        block = values.reshape(-1)[: math.prod(shape)].reshape(shape)
        expected = block.sum(axis=-1)
        assert np.array_equal(
            np.asarray(membership._row_sum(block)).view(np.int64),
            np.asarray(expected).view(np.int64),
        )


def test_membership_tour_demo(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "membership_tour.py"
    runpy.run_path(str(demo), run_name="__main__")
    rows = {
        line[:24].strip(): line[24:].split()
        for line in capsys.readouterr().out.splitlines()[1:7]
    }
    assert rows["Tsirelson point"][:2] == ["False", "True"]
    assert rows["PR box"] == ["False", "False", "-2.000000", "-3.141593"]
