"""Tests for correlation vectors, the symmetry group and canonical forms."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrset.corrvec import (
    CanonicalForm,
    CorrelationVector,
    SymmetryOp,
    canonicalize,
    full_symmetry_group,
    is_s_ordered,
    vectors_to_array,
)
from corrset.errors import NonFiniteInputError, OutOfBoxError

components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vectors = st.tuples(components, components, components, components)

# mostly ties, signed zeros and odd sign parities, some uniform values
special = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0))
tie_prone = st.one_of(special, special, special, components)
tie_prone_vectors = st.tuples(tie_prone, tie_prone, tie_prone, tie_prone)


def _signed(x: CorrelationVector) -> tuple:
    """Components paired with their sign bits, so +0.0 and -0.0 differ."""
    return tuple((v, math.copysign(1.0, v)) for v in x.as_tuple())


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


def test_group_size():
    group = full_symmetry_group()
    assert len(group) == 192
    assert len(set(group)) == 192


def test_group_closure_and_inverses():
    group = set(full_symmetry_group())
    sample = full_symmetry_group()[::17]
    for g in sample:
        assert g.inverse() in group
        assert g.compose(g.inverse()).is_identity
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
    assert cf.canonical.as_tuple() == (0.9, 0.5, 0.3, 0.2)
    cf = canonicalize(CorrelationVector(-1.0, 0.0, 0.0, 0.0))
    assert cf.canonical.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_canonicalize_odd_flip_lands_on_x4():
    # all components nonzero, three flips needed: the minus survives on x4
    cf = canonicalize(CorrelationVector(-0.4, -0.3, -0.2, 0.1))
    assert cf.canonical.as_tuple() == (0.4, 0.3, 0.2, -0.1)


@given(vectors)
def test_canonical_is_s_ordered_and_in_orbit(t):
    x = CorrelationVector(*t)
    cf = canonicalize(x)
    assert is_s_ordered(cf.canonical)
    assert cf.op.apply(x) == cf.canonical
    # brute-force orbit oracle: the canonical form maximizes the s-order key
    orbit = [g.apply(x).as_tuple() for g in full_symmetry_group()]
    assert cf.canonical.as_tuple() in orbit


@given(vectors)
@settings(max_examples=30)
def test_canonicalize_dominates_orbit(t):
    x = CorrelationVector(*t)
    z = canonicalize(x).canonical.as_tuple()
    for g in full_symmetry_group():
        y = g.apply(x).as_tuple()
        if is_s_ordered(CorrelationVector(*y)):
            # every s-ordered orbit member shares the canonical magnitudes
            assert np.allclose(np.abs(y), np.abs(z), atol=0)


@given(vectors, any_group_op())
def test_canonicalize_orbit_invariant(t, g):
    x = CorrelationVector(*t)
    assert canonicalize(g.apply(x)).canonical == canonicalize(x).canonical


@given(vectors)
def test_canonicalize_idempotent(t):
    z = canonicalize(CorrelationVector(*t)).canonical
    again = canonicalize(z)
    assert again.canonical == z
    assert again.op.is_identity or again.op.apply(z) == z


@given(tie_prone_vectors)
@settings(max_examples=150)
def test_canonical_values_match_op_and_orbit(t):
    x = CorrelationVector(*t)
    form = canonicalize(x)
    assert _signed(form.op.apply(x)) == _signed(form.canonical)
    for g in full_symmetry_group():
        assert _signed(canonicalize(g.apply(x)).canonical) == _signed(form.canonical)


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
    form = canonicalize(CorrelationVector(*t))
    assert form.op == SymmetryOp(perm, signs)
    assert _signed(form.canonical) == _signed(CorrelationVector(*canonical))


def test_is_s_ordered_cases():
    assert is_s_ordered(CorrelationVector(0.9, 0.5, 0.3, -0.3))
    assert is_s_ordered(CorrelationVector(0.9, 0.5, 0.3, 0.3))
    assert not is_s_ordered(CorrelationVector(0.5, 0.9, 0.3, 0.0))
    assert not is_s_ordered(CorrelationVector(0.9, 0.5, 0.3, -0.4))
    assert not is_s_ordered(CorrelationVector(-0.1, -0.2, -0.3, 0.0))


def test_vectors_to_array():
    xs = [CorrelationVector(0.1, 0.2, 0.3, 0.4), CorrelationVector(1, 0, 0, 0)]
    arr = vectors_to_array(xs)
    assert arr.shape == (2, 4)
    assert arr[1, 0] == 1.0


def test_canonical_form_carries_op():
    x = CorrelationVector(0.5, -0.9, 0.3, -0.2)
    cf = canonicalize(x)
    assert isinstance(cf, CanonicalForm)
    assert cf.op.inverse().apply(cf.canonical) == x


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
