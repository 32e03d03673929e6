"""Quantum realization tests: synthesis, expectation oracle and sampling."""

import hashlib
import itertools
import math
import re
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrset import quantum
from corrset.checks import deterministic_strategy_vectors
from corrset.corrvec import CorrelationVector, full_symmetry_group
from corrset import geometry
from corrset.errors import (
    DimensionError,
    DomainError,
    InvariantViolationError,
    NonFiniteInputError,
)
from corrset.geometry import (
    Decomposition,
    GeneratorPoint,
    decompose,
    face_segment,
    generator_values,
)
from corrset.membership import chsh_combinations, quantum_margins
from corrset.quantum import (
    _sample_block_size,
    _sample_draws,
    Realization,
    expectation,
    realize_mixture,
    sample_correlations,
    sample_quantum,
)

T = 1.0 / math.sqrt(2.0)
HALF_PI = 0.5 * math.pi


def realize_generator(g: GeneratorPoint) -> Realization:
    return realize_mixture(Decomposition(((1.0, g),)))


def max_component_gap(x: CorrelationVector, y: CorrelationVector) -> float:
    return max(abs(a - b) for a, b in zip(x.as_tuple(), y.as_tuple()))


def test_block_diagonal_layout_frozen_points(block_diagonal_realization):
    # G(pi/2, 0, 0) is the zero-phase pair with alpha = beta = -pi/2, and
    # G(pi/2, pi/2, pi/2) the all-ones vector with every phase 0
    for angles, want in (
        ((HALF_PI, 0.0, 0.0), (1, 0, 0, -1)),
        ((HALF_PI, HALF_PI, HALF_PI), (1, 1, 1, 1)),
    ):
        d = Decomposition(((1.0, GeneratorPoint(*angles)),))
        r = block_diagonal_realization(d)
        assert r.dims == (2, 2)
        assert expectation(r).as_tuple() == pytest.approx(want, abs=1e-15)


def test_block_diagonal_layout_matches_generator(block_diagonal_realization):
    rng = np.random.default_rng(1)
    for _ in range(500):
        g = GeneratorPoint(*rng.uniform(-math.pi, math.pi, size=3))
        r = block_diagonal_realization(Decomposition(((1.0, g),)))
        assert max_component_gap(expectation(r), g.evaluate()) <= 1e-12


def test_realize_generator_fidelity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = GeneratorPoint(*rng.uniform(-math.pi, math.pi, size=3))
        r = realize_generator(g)
        r.validate()
        assert r.dims == (2, 2)
        assert max_component_gap(expectation(r), g.evaluate()) <= 1e-12


def test_realize_generator_tsirelson():
    q = math.pi / 4
    r = realize_generator(GeneratorPoint(q, q, q))
    x = expectation(r)
    assert x.as_tuple() == pytest.approx((T, T, T, -T), abs=1e-12)
    assert chsh_combinations(np.array(x.as_tuple())).max() == pytest.approx(
        2 * math.sqrt(2), abs=1e-12
    )


def test_realize_mixture_is_two_by_two_for_any_term_count():
    g1 = GeneratorPoint(HALF_PI, 0.0, 0.0)
    g2 = GeneratorPoint(0.3, -0.2, 0.9)
    g3 = GeneratorPoint(-1.0, 0.4, 0.1)
    for terms in (
        ((1.0, g2),),
        ((0.5, g1), (0.5, g2)),
        ((0.2, g1), (0.3, g2), (0.5, g3)),
    ):
        r = realize_mixture(Decomposition(terms))
        assert r.dims == (2, 2)
        assert r.state.shape == (4, 4)
        assert np.diagonal(r.state).all()


def test_decomposition_is_reconstructed_once(monkeypatch):
    # decompose checks the mixture's vector and realize_mixture realizes the
    # same one: each generator is evaluated once, not twice
    calls = []
    components = GeneratorPoint._components

    def counted(g):
        calls.append(g)
        return components(g)

    monkeypatch.setattr(GeneratorPoint, "_components", counted)
    d = decompose(CorrelationVector(0.5, 0.3, 0.2, -0.1))
    r = realize_mixture(d)
    assert len(calls) == len(d.terms)
    assert expectation(r).as_tuple() == pytest.approx(d.reconstruct().as_tuple())


def test_realize_mixture_reproduces_mixture():
    rng = np.random.default_rng(5)
    for _ in range(100):
        gs = [GeneratorPoint(*rng.uniform(-math.pi, math.pi, size=3)) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        d = Decomposition(tuple(zip(w.tolist(), gs)))
        r = realize_mixture(d)
        r.validate()
        mixed = np.array([w @ np.array([g.evaluate().as_tuple() for g in gs])])[0]
        assert np.abs(
            np.array(expectation(r).as_tuple()) - mixed
        ).max() <= 1e-12


def test_decompose_realize_round_trip():
    x = CorrelationVector(0.5, 0.0, 0.0, 0.0)
    assert len(decompose(x).terms) == 3
    r = realize_mixture(decompose(x))
    assert r.dims == (2, 2)
    assert max_component_gap(expectation(r), x) <= 1e-12


def test_expectation_validates_observables():
    r = realize_generator(GeneratorPoint(0.2, 0.4, -0.1))
    bad_a0 = r.a0.copy()
    bad_a0[0, 0] = 3.0
    broken = Realization(state=r.state, a0=bad_a0, a1=r.a1, b0=r.b0, b1=r.b1)
    with pytest.raises(InvariantViolationError, match="involution|hermitian"):
        expectation(broken)


def test_expectation_validates_state():
    r = realize_generator(GeneratorPoint(0.2, 0.4, -0.1))
    not_normalized = Realization(
        state=2.0 * r.state, a0=r.a0, a1=r.a1, b0=r.b0, b1=r.b1
    )
    with pytest.raises(InvariantViolationError, match="trace"):
        expectation(not_normalized)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(r.state.shape)
    indefinite = r.state - 0.5 * (noise + noise.T) / np.abs(noise).max()
    indefinite = indefinite / np.trace(indefinite).real
    with pytest.raises(InvariantViolationError, match="positive|hermitian"):
        expectation(
            Realization(state=indefinite, a0=r.a0, a1=r.a1, b0=r.b0, b1=r.b1)
        )


def test_positivity_check_at_joint_dimension_36(block_diagonal_realization):
    gs = [GeneratorPoint(0.3, -0.2, 0.9), GeneratorPoint(-1.0, 0.4, 0.1),
          GeneratorPoint(HALF_PI, 0.0, 0.0)]
    d = Decomposition(tuple(zip((0.2, 0.3, 0.5), gs)))
    r = block_diagonal_realization(d)
    assert r.state.shape == (36, 36)
    r.validate()
    # move 1e-8 of weight from the top eigenvector onto a null vector with
    # a minus sign: trace and Hermiticity stay, one eigenvalue is -1e-8
    _, vectors = np.linalg.eigh(r.state)
    null, top = vectors[:, 0], vectors[:, -1]
    shifted = (
        r.state
        - 1e-8 * np.outer(null, null.conj())
        + 1e-8 * np.outer(top, top.conj())
    )
    assert abs(np.trace(shifted) - 1.0) <= 1e-15
    broken = Realization(state=shifted, a0=r.a0, a1=r.a1, b0=r.b0, b1=r.b1)
    with pytest.raises(
        InvariantViolationError, match=r"state-positive.*-1\.0\d*e-08"
    ):
        broken.validate()


def _unequal_dims_realization() -> Realization:
    _, r = sample_quantum(dim_a=2, dim_b=4, seed=31, index=0)
    r.validate()
    assert r.dims == (2, 4)
    return r


def _non_finite(obs):
    bad = obs.copy()
    bad[0, 1] = complex(math.nan, 0.0)
    return bad


def _non_hermitian(obs):
    bad = obs.copy()
    bad[0, 1] += 0.1
    return bad


def _non_involutive(obs):
    return 1.5 * obs


@pytest.mark.parametrize("name", ["A0", "A1", "B0", "B1"])
@pytest.mark.parametrize(
    "corrupt, check",
    [
        (_non_finite, "observable-finite"),
        (_non_hermitian, "observable-hermitian"),
        (_non_involutive, "observable-involution"),
    ],
)
def test_observable_checks_name_the_observable(name, corrupt, check):
    r = _unequal_dims_realization()
    fields = {"a0": r.a0, "a1": r.a1, "b0": r.b0, "b1": r.b1}
    fields[name.lower()] = corrupt(fields[name.lower()])
    broken = Realization(state=r.state, **fields)
    with pytest.raises(InvariantViolationError) as info:
        broken.validate()
    assert re.fullmatch(rf"check '{check}' failed for {name}(: .*)?", str(info.value))


def _reference_observable_failure(r: Realization) -> str | None:
    """The message of the first observable check that `r` fails, each
    observable checked alone in the order A0, A1, B0, B1: finite, then
    Hermitian, then involution; None when every observable passes."""
    for name in ("A0", "A1", "B0", "B1"):
        obs = getattr(r, name.lower())
        if not np.isfinite(obs).all():
            return f"check 'observable-finite' failed for {name}"
        if np.abs(obs - obs.conj().T).max() > 1e-12:
            return f"check 'observable-hermitian' failed for {name}"
        residual = np.abs(obs @ obs - np.eye(len(obs))).max()
        if residual > 1e-12:
            return (
                f"check 'observable-involution' failed for {name}: "
                f"|O^2 - I| = {residual:.3e}"
            )
    return None


_CORRUPTIONS = {
    "nan": lambda obs: obs.__setitem__((0, 1), math.nan),
    "inf": lambda obs: obs.__setitem__((1, 1), -math.inf),
    "hermitian": lambda obs: obs.__setitem__((0, 1), obs[0, 1] + 0.1),
    "involution": lambda obs: obs.__imul__(1.5),
}


@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(sorted(_CORRUPTIONS))),
        max_size=2,
    ),
)
@settings(max_examples=400, deadline=None)
def test_validate_messages_match_per_observable_checks(dims, real, seed, corruptions):
    # reflections I - 2 v v^dagger, real (float64) or complex, corrupted in
    # place; the state is the maximally mixed one, which passes every check
    rng = np.random.default_rng(seed)
    observables = []
    for k, is_real in enumerate(real):
        d = dims[k // 2]
        v = rng.normal(size=d) + (0.0 if is_real else 1j * rng.normal(size=d))
        v /= np.linalg.norm(v)
        observables.append(np.eye(d) - 2.0 * np.outer(v, v.conj()))
    with np.errstate(invalid="ignore"):  # inf times a complex 1.5 + 0j
        for k, kind in corruptions:
            _CORRUPTIONS[kind](observables[k])
    joint = dims[0] * dims[1]
    r = Realization(np.eye(joint, dtype=complex) / joint, *observables)
    expected = _reference_observable_failure(r)
    if expected is None:
        r.validate()
        return
    with pytest.raises(InvariantViolationError) as info:
        r.validate()
    assert str(info.value) == expected


def test_positivity_check_reads_off_diagonal_support():
    # row 2 has a zero diagonal entry but a nonzero off-diagonal one; the
    # [[0.5, 0.1], [0.1, 0]] block has eigenvalue 0.25 - sqrt(0.0725) =
    # -1.926e-2
    r = realize_generator(GeneratorPoint(0.2, 0.4, -0.1))
    state = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    state[0, 2] = state[2, 0] = 0.1
    broken = Realization(state=state, a0=r.a0, a1=r.a1, b0=r.b0, b1=r.b1)
    with pytest.raises(
        InvariantViolationError, match=r"state-positive.*-1\.926e-02"
    ):
        broken.validate()


def test_positivity_check_on_full_support():
    # a I + b J with all entries nonzero: eigenvalues a + 4b and a = -0.05
    r = realize_generator(GeneratorPoint(0.2, 0.4, -0.1))
    state = -0.05 * np.eye(4) + 0.3 * np.ones((4, 4)) + 0j
    assert np.count_nonzero(state) == 16
    broken = Realization(state=state, a0=r.a0, a1=r.a1, b0=r.b0, b1=r.b1)
    with pytest.raises(
        InvariantViolationError, match=r"state-positive.*-5\.000e-02"
    ):
        broken.validate()


@pytest.mark.parametrize("full_diagonal", [False, True])
@pytest.mark.parametrize(
    "entry, value, check",
    [
        ((0, 0), complex(math.nan, 0.0), "state-finite"),
        ((1, 2), complex(math.inf, 0.0), "state-finite"),
        ((1, 2), 0.1, "state-hermitian"),
        # an inf that also breaks the trace is still named as not finite
        ((0, 0), complex(math.inf, 0.0), "state-finite"),
        ((0, 0), -0.1, "state-trace"),
    ],
)
def test_state_checks_with_and_without_a_zero_diagonal(
    full_diagonal, entry, value, check, block_diagonal_realization
):
    # `value` is added to the entry: a NaN or inf replaces it, 0.1 off the
    # diagonal breaks the Hermitian symmetry and -0.1 on it lowers the
    # trace to 0.9
    r = _pair_realization(full_diagonal, block_diagonal_realization)
    state = r.state.copy()
    state[entry] += value
    broken = Realization(state, r.a0, r.a1, r.b0, r.b1)
    with pytest.raises(InvariantViolationError, match=rf"^check '{check}' failed"):
        broken.validate()


def _pair_realization(full_diagonal, block_diagonal_realization):
    """A valid realization of one generator whose state has zeros on its
    diagonal (the block-diagonal layout) or none (realize_generator's)."""
    g = GeneratorPoint(0.2, 0.4, -0.1)
    if full_diagonal:
        r = realize_generator(g)
    else:
        r = block_diagonal_realization(Decomposition(((1.0, g),)))
    assert np.diagonal(r.state).all() == full_diagonal
    r.validate()
    return r


@pytest.mark.parametrize("full_diagonal", [False, True])
@pytest.mark.parametrize(
    "changes, expected",
    [
        # a trace of 0.9 and a non-Hermitian entry: the trace comes first
        (
            [("state", (0, 0), -0.1), ("state", (1, 2), 0.1)],
            "check 'state-trace' failed: |tr - 1| = 1.000e-01",
        ),
        # a NaN in A1 and a non-Hermitian A0: A0 comes first
        (
            [("a1", (0, 0), math.nan), ("a0", (0, 1), 0.1)],
            "check 'observable-hermitian' failed for A0",
        ),
    ],
    ids=["trace-and-hermitian", "a1-nan-and-a0-hermitian"],
)
def test_validate_names_the_first_of_two_failed_checks(
    full_diagonal, changes, expected, block_diagonal_realization
):
    r = _pair_realization(full_diagonal, block_diagonal_realization)
    fields = {f: getattr(r, f).copy() for f in ("state", "a0", "a1", "b0", "b1")}
    for field, entry, change in changes:
        fields[field][entry] += change
    with pytest.raises(InvariantViolationError) as info:
        Realization(**fields).validate()
    assert str(info.value) == expected


def test_validate_accepts_non_contiguous_arrays():
    # the transpose of a density matrix or of an observable is one too; a
    # transposed view is not C-contiguous, and a failed check still names
    # its observable
    r = realize_generator(GeneratorPoint(0.2, 0.4, -0.1))
    Realization(r.state.T, r.a0, r.a1.T, r.b0, r.b1).validate()
    broken = Realization(r.state.T, r.a0, 1.5 * r.a1.T, r.b0, r.b1)
    with pytest.raises(
        InvariantViolationError, match=r"^check 'observable-involution' failed for A1"
    ):
        broken.validate()


def test_validate_accepts_integer_observables():
    # an int64 -1 read as float64 bits is a NaN; the finiteness test must
    # not read integer entries that way
    z = np.diag([1, -1])
    r = realize_generator(GeneratorPoint(0.5, 0.0, 0.0))
    Realization(r.state, z, z, z, z).validate()


def test_validate_local_dimensions_beyond_sampling():
    # a stored realization may have d > MAX_LOCAL_DIMENSION, past the
    # module's identity matrices
    d = quantum.MAX_LOCAL_DIMENSION + 2
    a = np.diag([1.0, -1.0] * (d // 2)).astype(complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    state = np.zeros((2 * d, 2 * d), complex)
    state[0, 0] = 1.0
    Realization(state, a, a, b, b).validate()
    with pytest.raises(
        InvariantViolationError, match=r"^check 'observable-involution' failed for A1"
    ):
        Realization(state, a, 0.5 * a, b, b).validate()


@pytest.mark.parametrize("name", ["a1", "b1"])
def test_validate_requires_one_observable_shape_per_party(name):
    # a 3x3 involution beside a 2x2 one: named before any other check, and
    # before expectation would stack the two
    r = realize_generator(GeneratorPoint(0.5, 0.2, -0.1))
    parts = {k: getattr(r, k) for k in ("state", "a0", "a1", "b0", "b1")}
    parts[name] = np.diag([1.0, -1.0, 1.0]).astype(complex)
    broken = Realization(**parts)
    message = rf"^check 'observable-shape' failed for {name.upper()}$"
    with pytest.raises(InvariantViolationError, match=message):
        broken.validate()
    with pytest.raises(InvariantViolationError, match=message):
        expectation(broken)


def test_realize_mixture_agrees_with_the_block_diagonal_layout(
    block_diagonal_realization,
):
    rng = np.random.default_rng(41)
    for _ in range(300):
        count = int(rng.integers(1, 4))
        gs = [GeneratorPoint(*rng.uniform(-math.pi, math.pi, size=3)) for _ in range(count)]
        w = rng.dirichlet(np.ones(count))
        d = Decomposition(tuple(zip(w.tolist(), gs)))
        got, old = realize_mixture(d), block_diagonal_realization(d)
        assert got.dims == (2, 2) and old.dims == (2 * count, 2 * count)
        assert max_component_gap(expectation(got), expectation(old)) <= 1e-12


def _landau_slack(x) -> float:
    """Landau's condition |x1 x2 - x3 x4| <= sqrt((1 - x1^2)(1 - x2^2)) +
    sqrt((1 - x3^2)(1 - x4^2)) as right side minus left side, nonnegative
    exactly on the quantum set."""
    x1, x2, x3, x4 = x
    return (
        math.sqrt((1.0 - x1 * x1) * (1.0 - x2 * x2))
        + math.sqrt((1.0 - x3 * x3) * (1.0 - x4 * x4))
        - abs(x1 * x2 - x3 * x4)
    )


def _realization_residual(x) -> float:
    """Largest gap between the correlators of realize_mixture(decompose(x))
    and the vector its decomposition reconstructs.  Every observable must
    square to the identity within rounding, far inside validate's 1e-12."""
    d = decompose(CorrelationVector(*x))
    r = realize_mixture(d)
    assert r.dims == (2, 2)
    for obs in (r.a0, r.a1, r.b0, r.b1):
        assert np.abs(obs @ obs - np.eye(2)).max() <= 1e-15
    return max_component_gap(expectation(r), d.reconstruct())


def _uniform_members():
    rng = np.random.default_rng(51)
    xs = rng.uniform(-1.0, 1.0, size=(3000, 4)).tolist()
    return [x for x in xs if _landau_slack(x) > 0]


def _curved_boundary_images():
    # sin of t1 >= t2 >= t3 in [0, pi/2] and t4 = t1 + t2 + t3 - pi with
    # |t4| <= t3, so the arcsine sum is pi; each with three random images
    rng = np.random.default_rng(52)
    group = full_symmetry_group()
    rows = []
    while len(rows) < 2000:
        t1, t2, t3 = sorted(rng.uniform(0.0, HALF_PI, size=3), reverse=True)
        t4 = t1 + t2 + t3 - math.pi
        if abs(t4) <= t3:
            x = CorrelationVector(*(math.sin(t) for t in (t1, t2, t3, t4)))
            ops = [group[k] for k in rng.integers(0, len(group), size=3)]
            rows += [x.as_tuple()] + [op.apply(x).as_tuple() for op in ops]
    return rows


def _face_points():
    # x1 = 1, with x4 at both ends of the face segment and inside it
    rng = np.random.default_rng(53)
    rows = []
    for x2, x3 in rng.uniform(-1.0, 1.0, size=(1000, 2)).tolist():
        low, high = face_segment(x2, x3)
        rows += [(1.0, x2, x3, x4) for x4 in (low, high, rng.uniform(low, high))]
    return rows


def _tied_pairs():
    # (a, a, b, b) meets Landau's condition for every a, b in [-1, 1]
    rng = np.random.default_rng(54)
    pairs = rng.uniform(-1.0, 1.0, size=(2000, 2)).tolist()
    pairs += [[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, -0.5, 0.0, 1.0)]
    return [(a, a, b, b) for a, b in pairs]


def _deterministic_vertices():
    return sorted({tuple(row) for row in deterministic_strategy_vectors().tolist()})


def _corner_hugging_members():
    """The construct benchmark's 16 corner-hugging members: rays leaving the
    curved boundary within 1e-8..1e-6 of the face x1 = 1, scaled inward
    and moved by a signed permutation with an even number of flips."""
    rng = np.random.default_rng(20031)
    rows = []
    while len(rows) < 16:
        excess = math.exp(rng.uniform(*np.log((1e-8, 1e-6))))
        t2, t3 = sorted(rng.uniform(0.0, 0.5 * np.pi, size=2), reverse=True)
        t4 = t2 + t3 - 0.5 * np.pi - excess
        if abs(t4) > t3:
            continue
        face_point = np.array([1.0, math.sin(t2), math.sin(t3), math.sin(t4)])
        rows.append(rng.uniform(0.3, 0.95) * face_point)
    masks = [m for m in itertools.product((1.0, -1.0), repeat=4) if np.prod(m) > 0]
    group = []
    for perm in itertools.permutations(range(4)):
        for mask in masks:
            m = np.zeros((4, 4))
            m[range(4), perm] = mask
            group.append(m)
    ops = np.array(group)[rng.integers(0, len(group), size=len(rows))]
    return np.einsum("nij,nj->ni", ops, np.array(rows)).tolist()


@pytest.mark.parametrize(
    "corpus",
    [
        _uniform_members,
        _curved_boundary_images,
        _face_points,
        _tied_pairs,
        _deterministic_vertices,
        _corner_hugging_members,
    ],
    ids=lambda corpus: corpus.__name__.strip("_"),
)
def test_realization_residual(corpus):
    assert max(map(_realization_residual, corpus())) <= 1e-12


def test_realization_on_the_boundary_keeps_unit_vectors():
    # a curved-boundary point: I12 and I34 touch, c sits at both ends within
    # rounding and s = 0.016; the unclipped t1 = (x4 - x3 c) / s would give
    # |u1|^2 = 1 + 1.15e-12, and A1 would fail validate's involution check
    x = (0.999880764592967, 0.9999997949478382, 0.45825006932480267, 0.44389643279505414)
    assert abs(_landau_slack(x)) <= 1e-14
    assert _realization_residual(x) <= 1e-12


@pytest.mark.parametrize("x1, x3", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
@pytest.mark.parametrize("x2", [-1.0, -0.6, 0.0, 0.6, 1.0])
def test_realization_at_the_interval_edge(x1, x2, x3):
    # |x1| = |x3| = 1 pins v0 . v1 to x1 x2 = x3 x4, which is +-1, and so
    # s = 0, when |x2| = 1
    x = (x1, x2, x3, x1 * x3 * x2)
    assert _landau_slack(x) == 0.0
    assert _realization_residual(x) <= 1e-12
    r = realize_mixture(decompose(CorrelationVector(*x)))
    if abs(x2) == 1.0:
        assert np.array_equal(r.b1, x1 * x2 * r.b0)


angles = st.floats(min_value=-math.pi, max_value=math.pi)
weighted_generators = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(GeneratorPoint, angles, angles, angles),
)


@given(st.lists(weighted_generators, min_size=1, max_size=3))
@settings(max_examples=300)
def test_realization_reproduces_every_mixture(terms):
    # Q is the set of these mixtures; rounding can put their vectors
    # outside Landau's condition by 1e-12 near the box corners, so the
    # property draws mixtures, not box points filtered by the slack
    total = math.fsum(w for w, _ in terms)
    assume(total > 0.0)
    d = Decomposition(tuple((w / total, g) for w, g in terms))
    r = realize_mixture(d)
    assert r.dims == (2, 2)
    for obs in (r.a0, r.a1, r.b0, r.b1):
        assert np.abs(obs @ obs - np.eye(2)).max() <= 1e-15
    assert max_component_gap(expectation(r), d.reconstruct()) <= 1e-12


def test_expectation_real_check_names_the_correlator():
    r = realize_generator(GeneratorPoint(0.2, 0.4, -0.1))
    # an anti-Hermitian part 0.25e-3 i K with K = A0 x B0 adds 1e-3 i to the
    # first correlator (tr K^2 = 4) and less to the others
    skewed = r.state + 0.25e-3j * np.kron(r.a0, r.b0)
    broken = Realization(state=skewed, a0=r.a0, a1=r.a1, b0=r.b0, b1=r.b1)
    with pytest.raises(
        InvariantViolationError,
        match=r"correlator x1 \(A0 B0\) has imaginary residue 1\.000e-03",
    ):
        expectation(broken, validate=False)


def test_expectation_raises_on_a_non_finite_trace():
    # the clamp to [-1, 1] must not turn a NaN trace into a correlator
    r = realize_generator(GeneratorPoint(0.2, 0.4, -0.1))
    state = r.state.copy()
    state[0, 0] = math.nan
    broken = Realization(state, r.a0, r.a1, r.b0, r.b1)
    with pytest.raises(NonFiniteInputError, match="^component x1 is not finite: nan$"):
        expectation(broken, validate=False)


def _construct_inputs() -> list[CorrelationVector]:
    """Members of Q for every exit of `decompose`, with two random
    signed-permutation images each: the four exit examples, boundary
    generators, the same scaled inward, and box points inside Q."""
    rng = np.random.default_rng(21)
    s = 0.7071067811865476
    examples = [(0, 0, 0, 0), (0.5, 0.2, -0.1, 0), (0.6, 0.6, 0.6, -0.6), (s, s, s, -s)]
    boundary = generator_values(rng.uniform(-math.pi, math.pi, size=(40, 3)))
    scaled = boundary * rng.uniform(0.2, 1.0, size=(40, 1))
    box = rng.uniform(-1.0, 1.0, size=(400, 4))
    box = box[quantum_margins(box) > 1e-6][:80]
    rows = examples + np.concatenate([boundary, scaled, box]).tolist()
    base = [CorrelationVector.validate(row) for row in rows]
    group = full_symmetry_group()
    images = [group[k].apply(x) for x in base for k in rng.integers(0, 192, size=2)]
    return base + images


def test_construct_outputs_pinned(monkeypatch):
    # the construct path bitwise: decomposition terms, the five realization
    # arrays and the expectation of each input, and the exit each one takes
    routes = []
    for name, route in (("_face_terms", "face"), ("_boundary_angle", "curved")):
        def spy(z, _f=getattr(geometry, name), _route=route):
            routes.append(_route)
            return _f(z)

        monkeypatch.setattr(geometry, name, spy)
    inputs = _construct_inputs()
    digest = hashlib.md5()
    for x in inputs:
        taken = len(routes)
        d = decompose(x)
        if len(routes) == taken:
            origin = d.terms[0][1] == GeneratorPoint.origin()
            routes.append("origin" if origin else "boundary")
        r = realize_mixture(d)
        digest.update(repr([(w, g.phi1, g.phi2, g.phi3) for w, g in d.terms]).encode())
        for array in (r.state, r.a0, r.a1, r.b0, r.b1):
            digest.update(array.tobytes())
        digest.update(repr(expectation(r).as_tuple()).encode())
    counts = {route: routes.count(route) for route in set(routes)}
    assert counts == {"origin": 3, "boundary": 45, "face": 303, "curved": 141}
    assert digest.hexdigest() == "a160c70572dceabef1d11fcc1081ccde"


def test_decompose_and_realize_demo_round_trip(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "decompose_and_realize.py"
    runpy.run_path(str(demo), run_name="__main__")
    found = re.search(r"round-trip residual: (\S+)", capsys.readouterr().out)
    assert found is not None
    assert float(found.group(1)) <= 1e-8


def test_random_strategy_sweep_demo(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "random_strategy_sweep.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("5000 strategies") == 3
    assert out.rstrip().endswith(
        "gets close to, but never beyond, the 2*sqrt(2) ceiling."
    )


def test_realization_json_round_trip():
    r = realize_mixture(decompose(CorrelationVector(0.5, 0.25, 0.0, 0.125)))
    data = r.to_json_dict()
    assert set(data) == {"state", "A0", "A1", "B0", "B1", "dims"}
    back = Realization.from_json_dict(data)
    back.validate()
    assert max_component_gap(expectation(back), expectation(r)) == 0.0
    assert np.array_equal(back.state, r.state)


def test_sample_quantum_deterministic():
    x1, r1 = sample_quantum(seed=42, index=7)
    x2, r2 = sample_quantum(seed=42, index=7)
    assert x1 == x2
    assert np.array_equal(r1.state, r2.state)
    assert np.array_equal(r1.a0, r2.a0)
    x3, _ = sample_quantum(seed=42, index=8)
    assert x1 != x3
    x4, _ = sample_quantum(seed=43, index=7)
    assert x1 != x4


def test_sample_quantum_realization_consistent():
    for index in range(10):
        x, r = sample_quantum(dim_a=2, dim_b=3, seed=5, index=index)
        r.validate()
        assert r.dims == (2, 3)
        assert max_component_gap(expectation(r), x) <= 1e-9


def test_sample_correlations_matches_per_index():
    rows = sample_correlations(20, seed=9)
    assert rows.shape == (20, 4)
    for index in (0, 7, 19):
        x, _ = sample_quantum(seed=9, index=index)
        assert tuple(rows[index]) == x.as_tuple()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (8, 8)])
def test_sample_rows_do_not_depend_on_block(dims, workers):
    block = _sample_block_size(*dims)
    count = 2 * block + 3
    rows = sample_correlations(count, *dims, seed=17, workers=workers)
    for index in (block - 1, block, count - 1):
        x, _ = sample_quantum(*dims, seed=17, index=index)
        assert tuple(rows[index]) == x.as_tuple()


def test_sample_block_size_is_a_byte_cap():
    # 16 bytes per complex normal: the state's dim_a dim_b and the four
    # matrices' 2 dim_a^2 + 2 dim_b^2
    assert [_sample_block_size(d, d) for d in (2, 5, 8)] == [3276, 524, 204]
    for dims in itertools.product(range(2, 9), repeat=2):
        block = _sample_block_size(*dims)
        per_index = 16 * (dims[0] * dims[1] + 2 * dims[0] ** 2 + 2 * dims[1] ** 2)
        assert block * per_index <= quantum._SAMPLE_BLOCK_BYTES
        assert (block + 1) * per_index > quantum._SAMPLE_BLOCK_BYTES


@pytest.mark.parametrize("dims", list(itertools.product(range(2, 9), repeat=2)))
def test_hundred_rows_are_one_kernel_call(monkeypatch, dims):
    calls = []
    kernel = quantum._sample_block

    def counting(*args):
        calls.append(args[3:])
        return kernel(*args)

    monkeypatch.setattr(quantum, "_sample_block", counting)
    sample_correlations(100, *dims, seed=3)
    assert calls == [(0, 100)]


def test_sample_memory_is_bounded_by_the_block():
    dims = (8, 8)
    block = _sample_block_size(*dims)
    sample_correlations(block, *dims, seed=1)  # warm-up: numpy's lazy set-up
    peaks = []
    for count in (2 * block, 8 * block):
        tracemalloc.start()
        try:
            sample_correlations(count, *dims, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one block's temporaries at either count, plus the larger (count, 4) result
    assert peaks[1] <= peaks[0] + 2**20 + 8 * block * 4 * 8


def test_sample_correlations_returns_a_lone_chunk_uncopied(monkeypatch):
    # concatenating a single chunk would copy it and double the peak
    chunks = []

    def recording(args):
        chunks.append(kernel(args))
        return chunks[-1]

    kernel = quantum._sample_chunk
    monkeypatch.setattr(quantum, "_sample_chunk", recording)
    rows = sample_correlations(300, 2, 2, seed=1)
    assert len(chunks) == 1 and rows is chunks[0]


@pytest.mark.parametrize("seed", [np.int64(5), np.int64(-3), np.uint64(7)])
def test_sampling_takes_numpy_integer_seeds(seed):
    x, r = sample_quantum(2, 3, seed=seed, index=2)
    want_x, want_r = sample_quantum(2, 3, seed=int(seed), index=2)
    assert x == want_x
    assert np.array_equal(r.state, want_r.state)
    rows = sample_correlations(5, 2, 2, seed=seed)
    assert np.array_equal(rows, sample_correlations(5, 2, 2, seed=int(seed)))


def test_sampling_refuses_a_float_seed():
    with pytest.raises(TypeError):
        sample_quantum(seed=5.0)
    with pytest.raises(TypeError):
        sample_correlations(3, seed=5.0)


def _documented_draws(dim_a, dim_b, seed, index):
    """State normals, then per observable its matrix normals and 0/1
    pattern, drawn call by call in the order the quantum module docstring
    states."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed % 2**64, index)))
    )
    joint = dim_a * dim_b
    state = np.array([rng.standard_normal(joint), rng.standard_normal(joint)])
    matrices, patterns = [], []
    for dim in (dim_a, dim_a, dim_b, dim_b):
        real = rng.standard_normal((dim, dim))
        imag = rng.standard_normal((dim, dim))
        matrices.append(np.array([real, imag]))
        patterns.append(rng.integers(0, 2, size=dim))
    return state, matrices, patterns


def _assert_draws_match(dims, seed, start, stop):
    state, raws, bits = _sample_draws(*dims, seed, start, stop)
    for k, index in enumerate(range(start, stop)):
        want_state, matrices, patterns = _documented_draws(*dims, seed, index)
        assert state[k].tobytes() == want_state.tobytes()
        for raw, pattern_bits, matrix, pattern in zip(raws, bits, matrices, patterns):
            assert np.ascontiguousarray(raw[k]).tobytes() == matrix.tobytes()
            assert pattern_bits[k].tolist() == pattern.tolist()


@pytest.mark.parametrize("dims", list(itertools.product(range(2, 9), repeat=2)))
def test_sample_draws_are_numpys_calls_bit_for_bit(dims):
    # the block from 2**32 - 1 crosses to two-word indices; 2**64 + 1 has
    # three words, so with a two-word seed the entropy outgrows the pool
    blocks = ((0, 1), (33, 34), (2**32 - 1, 2**32 + 1), (2**64 + 1, 2**64 + 2))
    for seed in (0, -3, 2**32 - 1, 2**32, 2**64 + 4):
        for start, stop in blocks:
            _assert_draws_match(dims, seed, start, stop)


@pytest.mark.parametrize("dims", list(itertools.product(range(2, 9), repeat=2)))
def test_sample_stream_layout(dims):
    for seed, index in ((4, 0), (4, 33), (-3, 5), (2**64 + 4, 33)):
        _assert_draws_match(dims, seed, index, index + 1)
        # the realization goes through BLAS and LAPACK, in other calls here
        (psi_re, psi_im), matrices, patterns = _documented_draws(*dims, seed, index)
        psi = psi_re + 1j * psi_im
        psi = psi / np.linalg.norm(psi)
        observables = []
        for (real, imag), pattern in zip(matrices, patterns):
            q, r = np.linalg.qr(real + 1j * imag)
            unitary = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
            observables.append(unitary @ np.diag(1 - 2 * pattern) @ unitary.conj().T)
        state = np.outer(psi, psi.conj())
        x, r = sample_quantum(*dims, seed=seed, index=index)
        assert np.abs(r.state - state).max() <= 1e-12
        for got, want in zip((r.a0, r.a1, r.b0, r.b1), observables):
            assert np.abs(got - want).max() <= 1e-12
        rho = state.reshape(dims * 2)
        want_x = [
            np.einsum("ijkl,ki,lj->", rho, a, b).real
            for a in observables[:2]
            for b in observables[2:]
        ]
        assert np.abs(np.array(x.as_tuple()) - want_x).max() <= 1e-12


def test_sample_quantum_rejects_a_negative_index():
    with pytest.raises(DomainError, match="got -1"):
        sample_quantum(dim_a=2, dim_b=3, seed=0, index=-1)


def test_sample_correlations_empty():
    assert sample_correlations(0).shape == (0, 4)
    assert sample_correlations(0, 3, 5, seed=2, workers=2).shape == (0, 4)


def test_sample_correlations_workers_agree(monkeypatch):
    # blocks of 4 indices, so that 64 rows give each of 3 workers a chunk
    monkeypatch.setattr(quantum, "_SAMPLE_BLOCK_BYTES", 4 * 16 * 20)
    assert quantum._chunk_ranges(64, 3, _sample_block_size(2, 2)) == [
        (0, 21),
        (21, 42),
        (42, 64),
    ]
    a = sample_correlations(64, dim_a=2, dim_b=2, seed=1)
    b = sample_correlations(64, dim_a=2, dim_b=2, seed=1, workers=3)
    assert np.array_equal(a, b)


def test_samples_stay_in_quantum_set():
    rows = sample_correlations(500, seed=21)
    assert quantum_margins(rows).min() >= -1e-7
    rows4 = sample_correlations(50, dim_a=4, dim_b=4, seed=22)
    assert quantum_margins(rows4).min() >= -1e-7


def test_dimension_limits():
    with pytest.raises(DimensionError):
        sample_quantum(dim_a=1, dim_b=2, seed=0)
    with pytest.raises(DimensionError):
        sample_quantum(dim_a=2, dim_b=9, seed=0)


def test_observable_laws_on_samples():
    for dims in ((3, 2), (2, 2), (3, 5), (8, 8)):
        _, r = sample_quantum(*dims, seed=13, index=2)
        for obs in (r.a0, r.a1, r.b0, r.b1):
            dim = obs.shape[0]
            assert np.abs(obs - obs.conj().T).max() <= 1e-12
            assert np.abs(obs @ obs - np.eye(dim)).max() <= 1e-12
