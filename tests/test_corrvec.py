"""Tests for correlation vectors, the symmetry group and canonical forms."""

import fractions
import itertools
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrset import corrvec
from corrset.corrvec import (
    CorrelationVector,
    SymmetryOp,
    canonicalize,
    full_symmetry_group,
)
from corrset.errors import NonFiniteInputError, OutOfBoxError, PreconditionError
from corrset.geometry import decompose
from corrset.membership import evaluate, mu

components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vectors = st.tuples(components, components, components, components)

# mostly ties, signed zeros and odd sign parities, some uniform values
special = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0))
tie_prone = st.one_of(special, special, special, components)
tie_prone_vectors = st.tuples(tie_prone, tie_prone, tie_prone, tie_prone)


def _signed(x: CorrelationVector) -> tuple:
    """Components paired with their sign bits, so +0.0 and -0.0 differ."""
    return tuple((v, math.copysign(1.0, v)) for v in x.as_tuple())


def _canonical_op(x: CorrelationVector) -> SymmetryOp:
    """The op of `canonicalize`'s sort-and-flip rule, built through the
    public constructor."""
    return SymmetryOp(*corrvec._sort_and_flip(x.as_tuple()))


def _is_s_ordered(t) -> bool:
    return t[0] >= t[1] >= t[2] >= abs(t[3])


def any_group_op():
    return st.sampled_from(full_symmetry_group())


def test_constructor_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteInputError):
            CorrelationVector(bad, 0.0, 0.0, 0.0)


def test_validate_clamps_within_tolerance():
    x = CorrelationVector.validate((1.0 + 5e-10, -1.0 - 5e-10, 0.0, 0.0))
    assert x.x1 == 1.0
    assert x.x2 == -1.0


def test_validate_rejects_out_of_box():
    with pytest.raises(OutOfBoxError, match="x3"):
        CorrelationVector.validate((0.0, 0.0, 1.5, 0.0))


@pytest.mark.parametrize("raw", [None, 5, 0.5])
def test_validate_refuses_a_non_sequence_naming_it(raw):
    # these raised a bare TypeError: ... is not iterable
    with pytest.raises(OutOfBoxError) as info:
        CorrelationVector.validate(raw)
    assert str(info.value) == f"expected a sequence of 4 components, got {raw!r}"


TOL = 1e-9


@pytest.mark.parametrize(
    "raw",
    [
        (-0.0, 0.0, -0.0, 0.25),
        (1.0 + TOL / 2, -1.0 - TOL / 2, -0.0, 1.0),
        (np.float64(-0.0), np.float32(0.1), np.int64(-1), np.float64(0.75)),
        ("0.5", "-0.0", "1", "-1.0000000005"),
        [True, 0, -1, 0.5],
    ],
)
def test_validate_builds_the_clamped_vector(raw):
    x = CorrelationVector.validate(raw, tolerance=TOL)
    clamped = [min(1.0, max(-1.0, float(v))) for v in raw]
    y = CorrelationVector(*clamped)
    assert _signed(x) == _signed(y)
    assert all(type(v) is float for v in x.as_tuple())
    assert x == y
    assert hash(x) == hash(y)


@pytest.mark.parametrize(
    "raw, error, message",
    [
        ((math.nan, 0, 0, 0), NonFiniteInputError, "component x1 is not finite: nan"),
        ((0, math.inf, 0, 0), NonFiniteInputError, "component x2 is not finite: inf"),
        (
            (0, 0, 1.5, math.nan),
            OutOfBoxError,
            "component x3 = 1.5 lies outside [-1, 1] beyond tolerance 1e-09",
        ),
        (
            (0, 0, 0, -1 - 2 * TOL),
            OutOfBoxError,
            "component x4 = -1.000000002 lies outside [-1, 1] beyond tolerance 1e-09",
        ),
        ((0, 0, 0), OutOfBoxError, "expected 4 components, got 3"),
        ((0, 0, 0, 0, 0), OutOfBoxError, "expected 4 components, got 5"),
        (("a", 0.2, 0.1, 0), OutOfBoxError, "component x1 is not a number: 'a'"),
        ((0.5, None, 0.1, 0), OutOfBoxError, "component x2 is not a number: None"),
        ((0.5, 0.2, [0.1], 0), OutOfBoxError, "component x3 is not a number: [0.1]"),
    ],
)
def test_validate_errors(raw, error, message):
    with pytest.raises(error) as info:
        CorrelationVector.validate(raw, tolerance=TOL)
    assert str(info.value) == message


def _loop_validate(raw, tolerance):
    """The per-component loop `validate` ran before its one-comparison rule,
    kept as the oracle: the clamped components, or the first refusal."""
    values = list(raw)
    if len(values) != 4:
        raise OutOfBoxError(f"expected 4 components, got {len(values)}")
    cleaned = []
    for name, v in zip(("x1", "x2", "x3", "x4"), values):
        try:
            v = float(v)
        except (TypeError, ValueError):
            message = f"component {name} is not a number: {v!r}"
            raise OutOfBoxError(message) from None
        if not math.isfinite(v):
            raise NonFiniteInputError(f"component {name} is not finite: {v!r}")
        if abs(v) > 1.0 + tolerance:
            raise OutOfBoxError(
                f"component {name} = {v!r} lies outside [-1, 1] "
                f"beyond tolerance {tolerance:g}"
            )
        cleaned.append(min(1.0, max(-1.0, v)) + 0.0)
    return tuple(cleaned)


def _outcome(validate, raw, tolerance):
    """The component bits and types of the vector, or the refusal's type and
    text."""
    try:
        comps = validate(raw, tolerance)
    except Exception as exc:  # the oracle's refusals are part of the outcome
        return type(exc), str(exc)
    return tuple((struct.pack("<d", v), type(v)) for v in comps)


def _assert_validate_matches_the_loop(raw, tolerance):
    # no case holds an int too large for a float: the loop let its
    # OverflowError escape, and validate now refuses it by name
    expected = _outcome(_loop_validate, raw, tolerance)
    got = _outcome(
        lambda r, t: CorrelationVector.validate(r, t).as_tuple(), raw, tolerance
    )
    assert got == expected


_TOLERANCES = (0.0, 1e-9, 1e-6, -1e-3, -2.5, math.nan, math.inf, -math.inf)


def _box_edges(tolerance):
    """Components at and beside the box and its tolerance bound."""
    edges = [1.0, -1.0, 0.0, -0.0, math.nan, math.inf, -math.inf]
    for b in (1.0, 1.0 + tolerance):
        for v in (b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)):
            edges += [v, -v]
    return edges


_ODD_COMPONENTS = (
    np.float64(-0.0),
    np.float64(1.0 + 1e-9),
    np.float32(-1.0),
    np.int64(-1),
    np.int64(2),
    True,
    False,
    "0.5",
    "-0.0",
    "1.0000000005",
    "nan",
    "-inf",
    "abc",
    None,
    [0.1],
    (),
)


@pytest.mark.parametrize("tolerance", _TOLERANCES)
def test_validate_matches_the_loop_at_the_edges(tolerance):
    edges = _box_edges(tolerance)
    for v in edges + list(_ODD_COMPONENTS):
        for position in range(4):
            raw = [0.5, -0.25, 0.0, 0.75]
            raw[position] = v
            _assert_validate_matches_the_loop(raw, tolerance)
    for a, b in itertools.product(edges, repeat=2):
        _assert_validate_matches_the_loop((a, 0.0, b, -0.0), tolerance)
        _assert_validate_matches_the_loop([b, a, "x", 2.0], tolerance)
    for raw in ([0.5] * 3, [0.5] * 5, [], (0.5, None, 0.0), "0.51", b"0.51"):
        _assert_validate_matches_the_loop(raw, tolerance)


_any_component = st.one_of(
    st.floats(),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from(_box_edges(1e-9) + _box_edges(1e-6) + list(_ODD_COMPONENTS)),
    st.integers(-3, 3),
    st.integers(-3, 3).map(np.int64),
    st.floats(-2.0, 2.0).map(np.float64),
    st.booleans(),
    st.floats(-2.0, 2.0).map(repr),
)


@settings(max_examples=500, deadline=None)
@given(
    raw=st.lists(_any_component, min_size=3, max_size=5),
    tolerance=st.one_of(st.sampled_from(_TOLERANCES), st.floats()),
)
def test_validate_matches_the_loop(raw, tolerance):
    _assert_validate_matches_the_loop(raw, tolerance)


def _constructed(raw, tolerance):
    return CorrelationVector(*raw).as_tuple()


def _validated(raw, tolerance):
    return CorrelationVector.validate(raw, tolerance).as_tuple()


def _assert_constructor_matches_validate(raw):
    # the constructor's rule is `validate` at tolerance 0, the box itself
    expected = _outcome(_validated, raw, 0.0)
    assert _outcome(_constructed, raw, 0.0) == expected


_ONE_PAST_ONE = math.nextafter(1.0, 2.0)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize(
    "value",
    [
        1.0,
        -1.0,
        _ONE_PAST_ONE,
        -_ONE_PAST_ONE,
        5.0,
        0.0,
        -0.0,
        math.nan,
        math.inf,
        -math.inf,
        None,
        "abc",
        "0.5",
        "-0.0",
        "5",
        True,
        False,
        np.float64(-0.0),
        np.float32(0.5),
        np.float64(_ONE_PAST_ONE),
        np.int64(-1),
        np.int64(5),
    ],
    ids=repr,
)
def test_constructor_admits_what_validate_admits_at_tolerance_0(value, position):
    raw = [0.5, -0.25, -0.0, 0.75]
    raw[position] = value
    _assert_constructor_matches_validate(raw)


@settings(max_examples=500, deadline=None)
@given(raw=st.lists(_any_component, min_size=4, max_size=4))
def test_constructor_matches_validate_at_tolerance_0(raw):
    _assert_constructor_matches_validate(raw)


@pytest.mark.parametrize(
    "raw, error, message",
    [
        (
            (5, 0, 0, 0),
            OutOfBoxError,
            "component x1 = 5.0 lies outside [-1, 1] beyond tolerance 0",
        ),
        ((0, None, 0, 0), OutOfBoxError, "component x2 is not a number: None"),
    ],
)
@pytest.mark.parametrize("stage", [evaluate, decompose, mu])
def test_no_stage_is_reached_with_a_vector_outside_the_box(stage, raw, error, message):
    # CorrelationVector(5, 0, 0, 0) was built, and each stage then failed
    # with a bare ValueError: math domain error; None raised a bare TypeError
    with pytest.raises(error) as info:
        stage(CorrelationVector(*raw))
    assert str(info.value) == message


def test_admitted_vectors_never_enter_the_diagnosis(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return refuse(*args, **kwargs)

    refuse = corrvec._refuse
    monkeypatch.setattr(corrvec, "_refuse", counted)
    admitted = [
        (1.0 + TOL, -1.0 - TOL, -0.0, 0.25),
        (np.float64(0.5), True, "-1", np.int64(0)),
        *itertools.product((-1.0, -0.5, -0.0, 0.0, 1.0), repeat=4),
    ]
    for raw in admitted:
        CorrelationVector.validate(raw, tolerance=TOL)
    assert calls == []
    with pytest.raises(OutOfBoxError):
        CorrelationVector.validate((0.0, 0.0, 1.5, 0.0), tolerance=TOL)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "raw, message",
    [
        ((10**400, 0, 0, 0), "component x1"),
        ((0.5, -(10**400), 0, 0), "component x2"),
        ((0.5, 0, 0, fractions.Fraction(10**400)), "component x4"),
    ],
)
def test_validate_refuses_a_number_too_large_for_a_float(raw, message):
    with pytest.raises(OutOfBoxError) as info:
        CorrelationVector.validate(raw, tolerance=TOL)
    assert str(info.value).startswith(f"{message} lies outside [-1, 1]: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[true, false, 0, 0]", "component x1 is not a number: True"),
        ('[0, 0, 0, "0.5"]', "component x4 is not a number: '0.5'"),
        ("[0, false, 0, 0]", "component x2 is not a number: False"),
        # the first bad component, and the count, still come first
        (
            "[2.0, true, 0, 0]",
            "component x1 = 2.0 lies outside [-1, 1] beyond tolerance 1e-09",
        ),
        ("[true, 0, 0]", "expected 4 components, got 3"),
        pytest.param(
            "[1" + "0" * 400 + ", 0, 0, 0]",
            "component x1 lies outside [-1, 1]: int too large to convert to float",
            id="400-digit integer",
        ),
    ],
)
def test_from_json_takes_json_numbers_only(text, message):
    with pytest.raises(OutOfBoxError) as info:
        CorrelationVector.from_json(text, tolerance=TOL)
    assert str(info.value) == message


def test_from_json_refuses_an_integer_past_the_digit_limit():
    with pytest.raises(OutOfBoxError, match=r"^expected a JSON array of 4 numbers: "):
        CorrelationVector.from_json("[1" + "0" * 5000 + ", 0, 0, 0]")


def test_json_round_trip():
    x = CorrelationVector(0.25, -0.5, 1.0, -0.125)
    back = CorrelationVector.from_json(x.to_json())
    assert back == x
    assert json.loads(x.to_json()) == [0.25, -0.5, 1.0, -0.125]


def test_negative_zero_normalized():
    x = CorrelationVector(-0.0, 0.0, -0.0, 0.0)
    assert all(math.copysign(1.0, v) == 1.0 for v in x.as_tuple())


def test_apply_signs_example():
    op = SymmetryOp(perm=(0, 1, 2, 3), signs=(-1, -1, 1, 1))
    x = CorrelationVector(1.0, 1.0, 1.0, -1.0)
    assert op.apply(x).as_tuple() == (-1.0, -1.0, 1.0, -1.0)


def test_apply_permutation_example():
    # swap slots 1 and 4: result picks source component perm^{-1}(i)
    op = SymmetryOp(perm=(3, 1, 2, 0), signs=(1, 1, 1, 1))
    x = CorrelationVector(0.1, 0.2, 0.3, 0.4)
    assert op.apply(x).as_tuple() == (0.4, 0.2, 0.3, 0.1)


def test_odd_sign_mask_rejected():
    with pytest.raises(ValueError):
        SymmetryOp(perm=(0, 1, 2, 3), signs=(-1, 1, 1, 1))


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        SymmetryOp(perm=(0, 0, 2, 3), signs=(1, 1, 1, 1))


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        SymmetryOp(perm=(0, 1, 2, 3), signs=(2, 1, 1, 1))


@pytest.mark.parametrize(
    "perm, signs, message",
    [
        ((0, 0, 2, 3), (1, 1, 1, 1), "is not a permutation of 0..3"),
        (None, (1, 1, 1, 1), "must be integers"),
        ((0, 1, 2, 3), None, "must be integers"),
        # int() truncated both of these to the identity
        ((0, 1, 2, 3), (1.5, 1, 1, 1), "must be integers"),
        ((0.9, 1, 2, 3), (1, 1, 1, 1), "must be integers"),
        ((0, 1, 2, 3), (1, 1, 1), "must have 4 entries"),
        ((0, 1, 2, 3), (-1, 1, 1, 1), "flip an odd number of components"),
    ],
)
def test_symmetry_op_refuses_with_precondition_error(perm, signs, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        SymmetryOp(perm, signs)
    # numpy integers are integers
    op = SymmetryOp(np.array([1, 0, 2, 3]), np.array([-1, -1, 1, 1], dtype=np.int8))
    assert op == SymmetryOp((1, 0, 2, 3), (-1, -1, 1, 1))
    assert all(type(v) is int for v in op.perm + op.signs)


@pytest.mark.parametrize(
    "t",
    [
        (0.9, 0.5, 0.3, 0.1),
        # ties
        (0.7, 0.7, -0.3, 0.1),
        (0.3, -0.3, 0.3, -0.3),
        # signed zeros
        (0.5, -0.0, 0.25, 0.0),
        # one minus and a zero: the zero absorbs the odd flip
        (-0.5, 0.0, 0.25, 0.75),
        (-0.4, -0.3, -0.2, 0.1),
    ],
)
def test_canonical_ops_equal_public_construction(t):
    # over the whole orbit, the sort-and-flip op and its inverse equal the
    # op built from the same fields, and carry plain ints
    for g in full_symmetry_group():
        source = g.apply(CorrelationVector(*t))
        forward = _canonical_op(source)
        inverse = forward.inverse()
        for op in (forward, inverse):
            public = SymmetryOp(op.perm, op.signs)
            assert op == public and hash(op) == hash(public)
            assert all(type(v) is int for v in op.perm + op.signs)
        assert inverse.apply(canonicalize(source)) == source


def test_inverse_and_compose_stay_in_the_group():
    # every result of inverse() and compose() is a group element equal to
    # the op built from its fields, and the group laws hold
    group = full_symmetry_group()
    identity = SymmetryOp((0, 1, 2, 3), (1, 1, 1, 1))
    x = CorrelationVector(0.9, -0.5, 0.3, -0.1)
    for a in group:
        inverse = a.inverse()
        assert inverse == SymmetryOp(inverse.perm, inverse.signs)
        assert a.compose(inverse) == identity == inverse.compose(a)
        for b in group[::7]:
            product = a.compose(b)
            assert product == SymmetryOp(product.perm, product.signs)
            assert product.apply(x) == a.apply(b.apply(x))


def test_group_size():
    group = full_symmetry_group()
    assert len(group) == 192
    assert len(set(group)) == 192


def test_group_closure_and_inverses():
    group = set(full_symmetry_group())
    sample = full_symmetry_group()[::17]
    for g in sample:
        assert g.inverse() in group
        assert g.compose(g.inverse()) == SymmetryOp((0, 1, 2, 3), (1, 1, 1, 1))
        for h in sample:
            assert g.compose(h) in group


def test_matrix_matches_apply():
    x = CorrelationVector(0.3, -0.7, 0.2, 0.9)
    for op in full_symmetry_group()[::23]:
        via_matrix = op.matrix() @ np.array(x.as_tuple())
        assert np.allclose(via_matrix, op.apply(x).as_tuple(), atol=0)


@given(vectors, any_group_op(), any_group_op())
def test_group_action_laws(t, g, h):
    x = CorrelationVector(*t)
    composed = g.compose(h).apply(x)
    nested = g.apply(h.apply(x))
    assert composed == nested
    assert g.inverse().apply(g.apply(x)) == x


def test_canonicalize_examples():
    cf = canonicalize(CorrelationVector(0.5, -0.9, 0.3, -0.2))
    assert cf.as_tuple() == (0.9, 0.5, 0.3, 0.2)
    cf = canonicalize(CorrelationVector(-1.0, 0.0, 0.0, 0.0))
    assert cf.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_canonicalize_odd_flip_lands_on_x4():
    # all components nonzero, three flips needed: the minus survives on x4
    cf = canonicalize(CorrelationVector(-0.4, -0.3, -0.2, 0.1))
    assert cf.as_tuple() == (0.4, 0.3, 0.2, -0.1)


@given(vectors)
def test_canonical_is_s_ordered_and_in_orbit(t):
    x = CorrelationVector(*t)
    cf = canonicalize(x)
    assert _is_s_ordered(cf.as_tuple())
    assert _canonical_op(x).apply(x) == cf
    # brute-force orbit oracle: the canonical form maximizes the s-order key
    orbit = [g.apply(x).as_tuple() for g in full_symmetry_group()]
    assert cf.as_tuple() in orbit


@given(vectors)
@settings(max_examples=30)
def test_canonicalize_dominates_orbit(t):
    x = CorrelationVector(*t)
    z = canonicalize(x).as_tuple()
    for g in full_symmetry_group():
        y = g.apply(x).as_tuple()
        if _is_s_ordered(y):
            # every s-ordered orbit member shares the canonical magnitudes
            assert np.allclose(np.abs(y), np.abs(z), atol=0)


@given(vectors, any_group_op())
def test_canonicalize_orbit_invariant(t, g):
    x = CorrelationVector(*t)
    assert canonicalize(g.apply(x)) == canonicalize(x)


@given(vectors)
def test_canonicalize_idempotent(t):
    z = canonicalize(CorrelationVector(*t))
    again = canonicalize(z)
    assert again == z
    assert _canonical_op(z).apply(z) == z


@given(tie_prone_vectors)
@settings(max_examples=150)
def test_canonical_values_match_op_and_orbit(t):
    x = CorrelationVector(*t)
    form = canonicalize(x)
    assert _signed(_canonical_op(x).apply(x)) == _signed(form)
    for g in full_symmetry_group():
        assert _signed(canonicalize(g.apply(x))) == _signed(form)


@pytest.mark.parametrize(
    "t, perm, signs, canonical",
    [
        # tie between x2 and x3: the lower index goes first
        ((0.3, 0.7, -0.7, 0.1), (2, 0, 1, 3), (1, -1, 1, -1), (0.7, 0.7, 0.3, -0.1)),
        # one minus and a zero: the zero absorbs the odd flip and stays +0.0
        ((-0.5, 0.0, 0.25, 0.75), (1, 3, 2, 0), (1, -1, 1, -1), (0.75, 0.5, 0.25, 0.0)),
        # three minuses, no zero: the leftover minus lands on x4
        ((-0.4, -0.3, -0.2, 0.1), (0, 1, 2, 3), (-1, -1, -1, -1), (0.4, 0.3, 0.2, -0.1)),
    ],
)
def test_canonical_group_element_pinned(t, perm, signs, canonical):
    x = CorrelationVector(*t)
    assert _canonical_op(x) == SymmetryOp(perm, signs)
    assert _signed(canonicalize(x)) == _signed(CorrelationVector(*canonical))


def test_canonical_form_carries_op():
    x = CorrelationVector(0.5, -0.9, 0.3, -0.2)
    cf = canonicalize(x)
    assert isinstance(cf, CorrelationVector)
    assert _canonical_op(x).inverse().apply(cf) == x


def test_compose_order_is_other_first():
    g = SymmetryOp(perm=(1, 0, 2, 3), signs=(1, 1, 1, 1))
    h = SymmetryOp(perm=(0, 1, 2, 3), signs=(-1, 1, -1, 1))
    x = CorrelationVector(0.1, 0.2, 0.3, 0.4)
    assert g.compose(h).apply(x) == g.apply(h.apply(x))


def test_orbit_size_divides_group():
    # generic point: trivial stabilizer, full orbit
    x = CorrelationVector(0.9, 0.51, 0.3, 0.17)
    orbit = {g.apply(x).as_tuple() for g in full_symmetry_group()}
    assert len(orbit) == 192
