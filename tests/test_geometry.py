"""Geometry tests: generators, faces, transport and the decomposition."""

import itertools
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrset.corrvec import (
    CorrelationVector,
    SymmetryOp,
    _sort_and_flip,
    canonicalize,
    full_symmetry_group,
)
from corrset.errors import InternalCheckError, NotInQuantumSetError, PreconditionError
from corrset import geometry
from corrset.geometry import (
    Decomposition,
    GeneratorPoint,
    angle_transport,
    decompose,
    face_segment,
    generator_values,
    reduce_angle,
)
from corrset.membership import evaluate, quantum_margins

T = 1.0 / math.sqrt(2.0)

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def _phis(g: GeneratorPoint) -> tuple[float, float, float]:
    return (g.phi1, g.phi2, g.phi3)


def _face_decompose(x2, x3, x4):
    # on the face x1 = 1 the ray's weight is 1 and no origin term is added,
    # so decompose returns the face split itself
    d = decompose(CorrelationVector(1.0, x2, x3, x4))
    assert all(g.phi1 == 0.5 * math.pi for _, g in d.terms)
    return d


def test_reduce_angle_range():
    for raw in (-7.0, -math.pi, 0.0, math.pi, 9.5, 2 * math.pi):
        folded = reduce_angle(raw)
        assert -math.pi < folded <= math.pi
        assert math.isclose(
            math.sin(folded), math.sin(raw), abs_tol=1e-12
        )


def test_generator_frozen_points():
    assert GeneratorPoint(math.pi / 2, 0, 0).evaluate().as_tuple() == pytest.approx(
        (1, 0, 0, -1), abs=1e-15
    )
    assert GeneratorPoint(
        math.pi / 2, math.pi / 2, math.pi / 2
    ).evaluate().as_tuple() == pytest.approx((1, 1, 1, 1), abs=1e-15)
    q = math.pi / 4
    assert GeneratorPoint(q, q, q).evaluate().as_tuple() == pytest.approx(
        (T, T, T, -T), abs=1e-15
    )
    assert GeneratorPoint.origin().evaluate().as_tuple() == (0, 0, 0, 0)


def test_generator_values_batch():
    phis = np.array([[math.pi / 2, 0, 0], [0, 0, 0]])
    got = generator_values(phis)
    assert got.shape == (2, 4)
    assert got[0] == pytest.approx([1, 0, 0, -1], abs=1e-15)
    assert got[1] == pytest.approx([0, 0, 0, 0], abs=0)


def test_generators_lie_in_quantum_set():
    rng = np.random.default_rng(2)
    phis = rng.uniform(-math.pi, math.pi, size=(100_000, 3))
    margins = quantum_margins(generator_values(phis))
    assert margins.min() >= -1e-9


def test_boundary_saturation():
    # angle triples whose sum lands in [pi/2, pi] sit on the arcsine boundary
    rng = np.random.default_rng(4)
    count = 0
    while count < 500:
        phi = rng.uniform(0, math.pi / 2, size=3)
        if not math.pi / 2 <= phi.sum() <= math.pi:
            continue
        count += 1
        x = GeneratorPoint(*phi).evaluate()
        assert abs(evaluate(x).quantum_margin) <= 1e-9


def test_arcsine_sum_values():
    assert geometry._arcsine_sum((1, 0, 0, 0)) == pytest.approx(
        math.pi / 2, abs=1e-15
    )
    assert geometry._arcsine_sum((T, T, T, -T)) == pytest.approx(
        math.pi, abs=1e-12
    )
    assert geometry._arcsine_sum((1, 1, 1, 1)) == pytest.approx(
        math.pi, abs=1e-12
    )
    assert geometry._arcsine_sum((0, 0, 0, 0)) == 0.0


@pytest.mark.parametrize(
    "x, phis",
    [
        ((T, T, T, -T), (math.pi / 4,) * 3),
        ((1, 1, 1, 1), (math.pi / 2,) * 3),
        ((1, 1, 0, 0), (math.pi / 2, math.pi / 2, 0)),
    ],
)
def test_decompose_boundary_point_is_one_generator(x, phis):
    # a point of the curved boundary is its own generator, phi_i = asin x_i
    d = decompose(CorrelationVector(*x))
    assert len(d.terms) == 1
    assert d.weights[0] == 1.0
    assert _phis(d.terms[0][1]) == pytest.approx(phis, abs=1e-12)


def test_face_decompose_split():
    terms = _face_decompose(0, 0, 0).terms
    assert len(terms) == 2
    (w_low, g_low), (w_high, g_high) = terms
    assert w_low == pytest.approx(0.5, abs=1e-12)
    assert w_high == pytest.approx(0.5, abs=1e-12)
    assert g_low.evaluate().as_tuple() == pytest.approx((1, 0, 0, -1), abs=1e-12)
    assert g_high.evaluate().as_tuple() == pytest.approx((1, 0, 0, 1), abs=1e-12)


def test_face_decompose_degenerate():
    y = 0.62
    terms = _face_decompose(1, y, y).terms
    assert len(terms) == 1
    assert terms[0][0] == pytest.approx(1.0, abs=0)
    assert terms[0][1].evaluate().as_tuple() == pytest.approx(
        (1, 1, y, y), abs=1e-12
    )


def test_face_decompose_endpoint_collapses():
    # x4 at the lower face edge: the high-end term carries zero weight
    theta2, theta3 = 1.0, 0.5
    terms = _face_decompose(
        math.sin(theta2), math.sin(theta3), -math.cos(theta2 + theta3)
    ).terms
    assert len(terms) == 1
    assert terms[0][0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "x2, x3, x4", [(0.3, 0.2, 0.1), (0.9, 0.8, 0.6), (0.5, 0.5, 0.0)]
)
def test_face_decompose_generators_at_segment_ends(x2, x3, x4):
    low, high = face_segment(x2, x3)
    assert low < x4 < high
    d = _face_decompose(x2, x3, x4)
    assert len(d.terms) == 2
    fourth = [g.evaluate().x4 for _, g in d.terms]
    assert fourth == pytest.approx([low, high], abs=1e-12)
    assert d.reconstruct().as_tuple() == pytest.approx((1.0, x2, x3, x4), abs=1e-12)


@pytest.mark.parametrize("x3", [0.0, 0.37, 1.0])
def test_face_segment_pinned_on_box_edge(x3):
    # at |x2| = 1 the segment is the single point x2*x3, and one term
    assert face_segment(1.0, x3) == (x3, x3)
    assert face_segment(-x3, -1.0) == (x3, x3)
    d = _face_decompose(1.0, x3, x3)
    assert len(d.terms) == 1
    assert d.reconstruct().as_tuple() == pytest.approx((1.0, 1.0, x3, x3), abs=1e-12)


def test_decompose_frozen_examples():
    d = decompose(CorrelationVector(0.5, 0, 0, 0))
    assert sorted(d.weights) == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)

    d = decompose(CorrelationVector(T, T, T, -T))
    assert len(d.terms) == 1
    assert d.weights[0] == pytest.approx(1.0, abs=0)

    d = decompose(CorrelationVector(0, 0, 0, 0))
    assert len(d.terms) == 1
    assert d.reconstruct().as_tuple() == (0, 0, 0, 0)


def test_decompose_rejects_outside_q():
    with pytest.raises(NotInQuantumSetError):
        decompose(CorrelationVector(1, 1, 1, -1))


def test_decompose_term_count_and_weights():
    rng = np.random.default_rng(9)
    for _ in range(300):
        phis = rng.uniform(-math.pi, math.pi, size=(3, 3))
        w = rng.dirichlet(np.ones(3))
        x = CorrelationVector(*(w @ generator_values(phis)))
        d = decompose(x)
        assert 1 <= len(d.terms) <= 3
        assert math.fsum(d.weights) == pytest.approx(1.0, abs=1e-12)
        # built unchecked, it passes the public constructor's checks unchanged
        assert all(type(w) is float for w in d.weights)
        assert Decomposition(d.terms) == d
        residual = np.abs(
            np.array(d.reconstruct().as_tuple()) - np.array(x.as_tuple())
        ).max()
        assert residual <= 1e-9


@given(
    st.tuples(angles, angles, angles),
    st.tuples(angles, angles, angles),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100)
def test_decompose_round_trip_property(p, q, lam):
    a = np.array(GeneratorPoint(*p).evaluate().as_tuple())
    b = np.array(GeneratorPoint(*q).evaluate().as_tuple())
    x = CorrelationVector(*(lam * a + (1 - lam) * b))
    assert evaluate(x).in_quantum
    d = decompose(x)
    residual = np.abs(
        np.array(d.reconstruct().as_tuple()) - np.array(x.as_tuple())
    ).max()
    assert residual <= 1e-9


def test_angle_transport_coherence():
    rng = np.random.default_rng(13)
    group = full_symmetry_group()
    for _ in range(200):
        g = GeneratorPoint(*rng.uniform(-math.pi, math.pi, size=3))
        op = group[rng.integers(len(group))]
        moved = angle_transport(op, g)
        direct = op.apply(g.evaluate())
        assert np.abs(
            np.array(moved.evaluate().as_tuple())
            - np.array(direct.as_tuple())
        ).max() <= 1e-12


def test_angle_transport_sign_flip_example():
    # flipping the first two signs shifts the first two angles by pi
    flip12 = None
    for op in full_symmetry_group():
        if op.perm == (0, 1, 2, 3) and op.signs == (-1, -1, 1, 1):
            flip12 = op
            break
    assert flip12 is not None
    moved = angle_transport(flip12, GeneratorPoint.origin())
    assert _phis(moved) == pytest.approx((math.pi, math.pi, 0.0), abs=0)
    assert moved.evaluate().as_tuple() == pytest.approx(
        (0, 0, 0, 0), abs=1e-15
    )


def test_angle_transport_identity():
    g = GeneratorPoint(0.4, -1.1, 2.2)
    identity = full_symmetry_group()[0].compose(
        full_symmetry_group()[0].inverse()
    )
    moved = angle_transport(identity, g)
    assert _phis(moved) == pytest.approx(_phis(g), abs=1e-15)


def test_angle_transport_swap_example():
    op_swap = None
    for op in full_symmetry_group():
        if op.perm == (3, 1, 2, 0) and op.signs == (1, 1, 1, 1):
            op_swap = op
            break
    assert op_swap is not None
    g = GeneratorPoint(math.pi / 2, 0, 0)
    moved = angle_transport(op_swap, g)
    assert moved.evaluate().as_tuple() == pytest.approx(
        (-1, 0, 0, 1), abs=1e-12
    )


def test_decompose_transport_consistency():
    # decomposing an orbit image reconstructs to the image
    rng = np.random.default_rng(17)
    group = full_symmetry_group()
    for _ in range(100):
        phis = rng.uniform(-math.pi, math.pi, size=(2, 3))
        w = rng.dirichlet(np.ones(2))
        x = CorrelationVector(*(w @ generator_values(phis)))
        op = group[rng.integers(len(group))]
        y = op.apply(x)
        d = decompose(y)
        residual = np.abs(
            np.array(d.reconstruct().as_tuple()) - np.array(y.as_tuple())
        ).max()
        assert residual <= 1e-9


def test_decomposition_validation():
    g = GeneratorPoint.origin()
    with pytest.raises(ValueError):
        Decomposition(terms=())
    with pytest.raises(ValueError):
        Decomposition(terms=((0.5, g),))
    with pytest.raises(ValueError):
        Decomposition(terms=((0.5, g), (0.25, g), (0.2, g), (0.05, g)))
    with pytest.raises(ValueError):
        Decomposition(terms=((1.5, g), (-0.5, g)))


@pytest.mark.parametrize(
    "angle",
    ["a", None, 10**400, math.nan, -math.inf],
    ids=["string", "None", "int-past-float", "nan", "-inf"],
)
def test_generator_point_refuses_with_precondition_error(angle):
    # a string or None raised a bare ValueError or TypeError
    with pytest.raises(PreconditionError, match=r"^angle phi1 is not "):
        GeneratorPoint(angle, 0, 0)


@pytest.mark.parametrize(
    "terms, message",
    [
        ((("a", GeneratorPoint.origin()),), "are not (weight, GeneratorPoint) pairs"),
        (None, "are not (weight, GeneratorPoint) pairs"),
        (((1.0,),), "are not (weight, GeneratorPoint) pairs"),
        # admitted before, and its reconstruct() failed with AttributeError
        (((1.0, (0, 0, 0)),), "term (0, 0, 0) is not a GeneratorPoint"),
    ],
)
def test_decomposition_refuses_with_precondition_error(terms, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        Decomposition(terms)


def test_canonical_interior_bisection_path():
    # strictly inside Q, x1 < 1, so decompose must go through the ray search
    x = CorrelationVector(0.8, 0.45, 0.2, -0.1)
    assert evaluate(x).in_quantum
    cf = canonicalize(x)
    assert cf.x1 < 1.0
    d = decompose(x)
    assert math.fsum(d.weights) == pytest.approx(1.0, abs=1e-12)
    residual = np.abs(
        np.array(d.reconstruct().as_tuple()) - np.array(x.as_tuple())
    ).max()
    assert residual <= 1e-9


def _max_residual(x: CorrelationVector, tolerance: float = 1e-9) -> float:
    d = decompose(x, tolerance)
    assert 1 <= len(d.terms) <= 3
    return float(
        np.abs(np.array(d.reconstruct().as_tuple()) - np.array(x.as_tuple())).max()
    )


def test_decompose_corner_hugging_reproducer():
    # the ray leaves the curved boundary next to the face corner; bisecting
    # on the ray parameter could not bound the arcsine residual there
    x = CorrelationVector(
        0.6713521847279182, 0.8667155707840724,
        -0.10818871675350317, 0.46017182894860476,
    )
    assert _max_residual(x) <= 1e-9


@given(
    st.floats(min_value=0.0, max_value=0.5 * math.pi),
    st.floats(min_value=0.0, max_value=0.5 * math.pi),
    st.floats(min_value=-12.0, max_value=-4.0),
    st.floats(min_value=0.0, max_value=1.0 - 1e-6, exclude_min=True),
    st.integers(min_value=0, max_value=191),
)
@settings(max_examples=300)
def test_decompose_corner_hugging_rays(a, b, log_excess, scale, op_index):
    # face point z = (1, sin t2, sin t3, sin t4) whose arcsine sum exceeds pi
    # by 10**log_excess, so the ray through it leaves Q just below the face
    t2, t3 = max(a, b), min(a, b)
    t4 = t2 + t3 - 0.5 * math.pi - 10.0**log_excess
    assume(abs(t4) <= t3)
    face_point = np.array([1.0, math.sin(t2), math.sin(t3), math.sin(t4)])
    op = full_symmetry_group()[op_index]
    x = op.apply(CorrelationVector(*(scale * face_point)))
    assert _max_residual(x) <= 1e-9


def test_decompose_tied_leading_components():
    # y1 == y2 puts asin(z2 sin theta) at the edge of its domain near the
    # corner, where a plain arcsine of the rounded product is off by 1e-8
    rng = np.random.default_rng(23)
    for _ in range(2000):
        c = rng.uniform(0.2, 0.99)
        t3 = rng.uniform(0.1, 1.4)
        excess = math.exp(rng.uniform(math.log(2e-9), math.log(1e-5)))
        x = CorrelationVector(c, c, c * math.sin(t3), c * math.sin(t3 - excess))
        assert _max_residual(x) <= 1e-9


def test_decompose_loose_tolerance_only_admits():
    # a tolerance above the 1e-9 reconstruction bound must not pick the exit:
    # each input sits within 1e-6 of a shortcut keyed on the caller's value
    z = (1.0, math.sin(1.0), math.sin(0.8), math.sin(1.8 - 0.5 * math.pi - 5e-7))
    # the face segment over (1, x2, x3) is x4 in [low, high]
    t2, t3 = math.asin(1.0 - 1e-13), math.asin(math.sin(0.4))
    low, high = -math.cos(t2 + t3), math.cos(t2 - t3)
    assert 1e-7 < high - low < 1e-6
    cases = [
        # interior member with arcsine margin +5e-7: not on the boundary
        (0.9320390859672263, 0.8414709848078965,
         0.7833269096274834, -0.041580162865710035),
        # face point 5e-7 outside Q: the ray leaves through the curved part
        tuple(0.5 * v for v in z),
        # a face segment 8.2e-7 wide is not degenerate
        (1.0, 1.0 - 1e-13, math.sin(0.4), 0.5 * (low + high)),
    ]
    for values in cases:
        assert _max_residual(CorrelationVector(*values), tolerance=1e-6) <= 1e-9
    d = decompose(CorrelationVector(T, T, T, -T), tolerance=1e-6)
    assert len(d.terms) == 1


def _check_admitted_outside_q(points, tolerance):
    """Every point membership admits at `tolerance` decomposes into a point
    of Q within `tolerance` of it; returns how many admitted points lie
    outside Q by more than 1e-9, which the boundary exit cannot take."""
    outside = 0
    for values in points.tolist():
        x = CorrelationVector(*values)
        report = evaluate(x, tolerance)
        if not report.in_quantum:
            continue
        outside += report.quantum_margin < -1e-9
        point = decompose(x, tolerance).reconstruct()
        assert np.abs(np.array(point.as_tuple()) - values).max() <= tolerance
        assert evaluate(point).in_quantum
    return outside


@pytest.mark.parametrize("tolerance", [1e-8, 1e-6, 1e-4])
def test_decompose_admitted_points_past_the_curved_boundary(tolerance):
    # points of the curved boundary scaled outward by up to 1 + tolerance:
    # each admitted one is decomposed as the point where its ray leaves Q.
    # At the boundary exit most missed x by their margin and exited 3
    rng = np.random.default_rng(31)
    phis = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(15000, 3))
    phis = np.column_stack([phis, phis.sum(axis=1) - math.pi])
    boundary = np.sin(phis[np.abs(phis[:, 3]) <= 0.5 * math.pi])
    points = boundary * rng.uniform(1.0, 1.0 + tolerance, size=(len(boundary), 1))
    points = points[np.abs(points).max(axis=1) <= 1.0]
    # about one point in six lies on the boundary, one in eight is admitted
    assert _check_admitted_outside_q(points, tolerance) > 200


@pytest.mark.parametrize("tolerance", [1e-8, 1e-6, 1e-4])
def test_decompose_admitted_face_points_past_the_segment(tolerance):
    # x1 = +-1 and x4 up to `tolerance` beyond an end of `face_segment`;
    # x1 = -1 is the image of x1 = 1 under the flip of (x1, x2)
    rng = np.random.default_rng(37)
    rows = []
    for _ in range(1000):
        x2, x3 = rng.uniform(-1.0, 1.0, size=2)
        low, high = face_segment(x2, x3)
        past = tolerance * rng.random()
        x4 = high + past if rng.random() < 0.5 else low - past
        x1 = rng.choice((1.0, -1.0))
        if abs(x4) <= 1.0:
            rows.append((x1, x1 * x2, x3, x4))
    assert _check_admitted_outside_q(np.array(rows), tolerance) > 500


def test_decompose_member_whose_face_point_lies_just_outside_q():
    # the ray meets the face at (1, 1, 1e-9, 0), whose arcsine sum is
    # pi + 1e-9; the face split clamps its weight there, and it left a
    # residual of 1.000e-09, over the bound
    x = CorrelationVector(0.0, 0.9999999999999999, 0.9999999999999999, 1e-09)
    assert evaluate(x).quantum_margin > 0.0
    assert _max_residual(x) <= 1e-12


def test_decompose_rays_whose_face_points_lie_just_outside_q():
    # members on rays that meet the face at an arcsine sum in (pi, pi + 1e-9]
    rng = np.random.default_rng(29)
    count = 0
    while count < 2000:
        t2, t3 = sorted(rng.uniform(0.0, 0.5 * math.pi, size=2), reverse=True)
        if rng.random() < 0.25:
            t2 = 0.5 * math.pi
        x4 = -math.cos(t2 + t3) - 1e-9 * rng.random() ** 4
        z = (1.0, math.sin(t2), math.sin(t3), x4)
        if abs(x4) > z[2] or not 0.0 < geometry._arcsine_sum(z) - math.pi <= 1e-9:
            continue
        scale = rng.uniform(0.5, 1.0)
        x = CorrelationVector(*(scale * v for v in z))
        if evaluate(x).quantum_margin >= 0.0:
            count += 1
            assert _max_residual(x) <= 1e-12


# the deterministic vertices of C: +-1 components with an even number of -1
_VERTICES = [
    v for v in itertools.product((1.0, -1.0), repeat=4) if math.prod(v) > 0.0
]


@given(
    st.sampled_from(_VERTICES),
    st.tuples(*[st.integers(min_value=0, max_value=8)] * 4),
)
@settings(max_examples=200)
def test_rounded_classical_vertex_is_a_member_that_decomposes(vertex, steps):
    # a vertex moved a few ulps inward, as a sampled strategy rounds it: C
    # lies inside Q, and the arcsine margin there can read -1.5e-8
    comps = list(vertex)
    for i, count in enumerate(steps):
        for _ in range(count):
            comps[i] = math.nextafter(comps[i], 0.0)
    x = CorrelationVector(*comps)
    report = evaluate(x)
    assert report.in_classical and report.in_quantum
    assert _max_residual(x) <= 1e-9


@given(
    st.tuples(*[st.floats(min_value=0.2, max_value=1.0)] * 4),
    st.tuples(*[st.sampled_from((1.0, -1.0))] * 4),
)
@settings(max_examples=100)
def test_decompose_admits_what_membership_admits_at_the_threshold(size, sign):
    # the ray through (sign * size), bisected to the last float steps at
    # which membership's verdict turns at tolerance 1e-9: on both sides
    # decompose refuses exactly when membership does, and the members
    # decompose
    d = np.array(sign) * np.array(size)

    def point(t):
        return CorrelationVector.validate((t * d).tolist())

    lo, hi = 0.0, 1.0 / np.abs(d).max()
    assume(not evaluate(point(hi)).in_quantum)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if evaluate(point(mid)).in_quantum:
            lo = mid
        else:
            hi = mid
    assert evaluate(point(lo)).in_quantum
    assert _max_residual(point(lo)) <= 1e-9
    with pytest.raises(NotInQuantumSetError):
        decompose(point(hi))


def _g(z, theta):
    """g(theta) of `_boundary_angle`'s docstring, from `_ray_arcsines`."""
    (a2, a3, a4), _ = geometry._ray_arcsines(z, 0.5 * math.pi - theta)
    return theta + a2 + a3 - a4 - math.pi


def _bisected_angle(z):
    """The root of g by bisection to a one-ulp bracket, returning hi."""
    lo, hi = 0.25 * math.pi, 0.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if _g(z, mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _corner_face_point(t2, t3, log_excess):
    # arcsine sum of (1, sin t2, sin t3, sin t4) exceeds pi by 10**log_excess
    t4 = t2 + t3 - 0.5 * math.pi - 10.0**log_excess
    return (1.0, math.sin(t2), math.sin(t3), math.sin(t4)), t4


@given(
    st.one_of(st.just(0.5 * math.pi), st.floats(0.0, 0.5 * math.pi)),
    st.floats(0.0, 0.5 * math.pi),
    st.floats(min_value=-14.0, max_value=-1.0),
)
@settings(max_examples=300)
def test_boundary_angle_newton_property(a, b, log_excess):
    # the first strategy puts z2 = 1 (a tie with z1) among the examples
    t2, t3 = max(a, b), min(a, b)
    z, t4 = _corner_face_point(t2, t3, log_excess)
    assume(abs(t4) <= t3 and _g(z, 0.5 * math.pi) > 0.0)
    calls = []
    arcsines = geometry._ray_arcsines
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            geometry,
            "_ray_arcsines",
            lambda *args: calls.append(1) or arcsines(*args),
        )
        theta = geometry._boundary_angle(z)
    assert len(calls) <= 16
    assert _g(z, theta) >= 0.0 > _g(z, math.nextafter(theta, 0.0))
    # Both searches promise only a sign change of the computed g, which may
    # not be monotone over a few ulps.  With u = 2**-53 the computed g is
    # within E = 40 u of the exact g: up to 6 u per arcsine from rounding
    # its atan2 arguments, 2 u per atan2, 0.5 u per term from delta's pi/2,
    # 10 u from the additions and 1.1 u from math.pi, 37 u in all.  So
    # g(theta) >= -E, g(theta-) < E and, with slope 1..4, each root lies
    # within E + 4 ulp of the exact one, and the two within twice that.
    reference = _bisected_angle(z)
    assert abs(theta - reference) <= 2 * (40 * 2.0**-53 + 4 * math.ulp(reference))


def test_boundary_angle_matches_bisection_on_seeded_rays():
    # 10,000 curved exits of uniform canonical vectors and 10,000 rays that
    # leave next to the box corner; Newton and bisection share the
    # postcondition, so they differ only where the computed g is not monotone
    rng = np.random.default_rng(2024)
    rays = []
    while len(rays) < 10_000:
        y = np.sort(np.abs(rng.uniform(-1.0, 1.0, size=4)))[::-1]
        z = (1.0, y[1] / y[0], y[2] / y[0], rng.choice((-1.0, 1.0)) * y[3] / y[0])
        if _g(z, 0.5 * math.pi) > 0.0:
            rays.append(z)
    while len(rays) < 20_000:
        t2, t3 = sorted(rng.uniform(0.0, 0.5 * math.pi, size=2), reverse=True)
        z, t4 = _corner_face_point(t2, t3, rng.uniform(-14.0, -1.0))
        if abs(t4) <= t3 and _g(z, 0.5 * math.pi) > 0.0:
            rays.append(z)
    same = sum(geometry._boundary_angle(z) == _bisected_angle(z) for z in rays)
    assert same >= 0.99 * len(rays)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_boundary_angle_bounded_with_a_poor_slope(scale):
    # a derivative 1e6 times too large makes Newton crawl, one 1e6 times
    # too small makes it overshoot; the midpoint rule still ends the search
    # within nine evaluations per halving of the bracket
    arcsines = geometry._ray_arcsines
    calls = []

    def poor(*args):
        angles, slope = arcsines(*args)
        calls.append(1)
        return angles, (1.0 + slope) * scale - 1.0

    for z in [
        _corner_face_point(1.2, 0.9, -6.0)[0],
        (1.0, 0.9, 0.5, -0.2),
        (1.0, 1.0, 0.999, 0.998),
    ]:
        assert _g(z, 0.5 * math.pi) > 0.0
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_ray_arcsines", poor)
            theta = geometry._boundary_angle(z)
        assert len(calls) <= 9 * 53
        assert _g(z, theta) >= 0.0 > _g(z, math.nextafter(theta, 0.0))


def test_face_slices_demo(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "face_slices.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    number = r"\s*(-?[\d.]+)"
    rows = re.findall(rf"\[{number},{number}\] \| \[{number},{number}\]", out)
    assert len(rows) == 25
    for c_low, c_high, q_low, q_high in (map(float, row) for row in rows):
        # each quantum x4 interval contains the classical one
        assert q_low <= c_low <= c_high <= q_high
    # mu sends the quantum bounds onto the classical ones
    mapped = re.search(r"gives \[(\S+), (\S+)\]", out).groups()
    assert mapped == re.search(r"is \[(\S+), (\S+)\]", out).groups()


@pytest.mark.parametrize(
    "x, route",
    [
        ((0.0, 0.0, 0.0, 0.0), "origin"),
        ((0.5, 0.2, -0.1, 0.0), "face"),
        ((0.6, 0.6, 0.6, -0.6), "curved"),
        ((0.7071067811865476,) * 3 + (-0.7071067811865476,), "boundary"),
        # a signed-permutation image of the face input
        ((0.0, -0.1, 0.2, -0.5), "face"),
    ],
)
def test_reconstruction_error_names_the_exit(monkeypatch, x, route):
    # a reconstruction moved by 1e-8 fails every check, and leaves the
    # exit each input takes as it is
    reconstruct = Decomposition.reconstruct

    def moved(self):
        v = reconstruct(self).as_tuple()
        return CorrelationVector(v[0] + 1e-8, *v[1:])

    monkeypatch.setattr(Decomposition, "reconstruct", moved)
    message = (
        r"^decomposition residual \S+ exceeds 1e-09 for input "
        rf"\(.*\) at the {route} exit$"
    )
    with pytest.raises(InternalCheckError, match=message):
        decompose(CorrelationVector(*x))


@pytest.mark.parametrize(
    "x",
    [
        (0.0, 0.0, 0.0, 0.0),
        (0.5, 0.2, -0.1, 0.0),
        (0.6, 0.6, 0.6, -0.6),
        (0.7071067811865476,) * 3 + (-0.7071067811865476,),
        (0.0, -0.1, 0.2, -0.5),
    ],
)
def test_decompose_builds_each_generator_once(monkeypatch, x):
    # the exits give angles, which are moved to x's position before the
    # generator is built, also for an input outside canonical position
    calls = []
    build = geometry._generator

    def counted(*phis):
        calls.append(phis)
        return build(*phis)

    monkeypatch.setattr(geometry, "_generator", counted)
    d = decompose(CorrelationVector(*x))
    assert len(calls) == len(d.terms)


def test_decompose_transport_is_angle_transport():
    # for every op of the group, decompose moves the canonical terms to the
    # input's position bit for bit as angle_transport through the inverse
    # op does; distinct nonzero magnitudes make the op the canonical one
    rng = np.random.default_rng(31)
    phis = rng.uniform(-math.pi, math.pi, size=(12, 3))
    points = generator_values(phis) * rng.uniform(0.3, 1.0, size=(12, 1))
    # angles in (0.6, 1.5) sum to within (pi/2, 3 pi/2): boundary points
    points[:4] = generator_values(rng.uniform(0.6, 1.5, size=(4, 3)))
    canonical = [canonicalize(CorrelationVector(*p)) for p in points]
    canonical = [y for y in canonical if len(set(map(abs, y.as_tuple()))) == 4]
    canonical = [y for y in canonical if 0.0 not in y.as_tuple()]
    routes = set()
    for y in canonical:
        base = decompose(y)
        face = base.terms[0][1].phi1 == 0.5 * math.pi
        routes.add("boundary" if len(base.terms) == 1 else "face" if face else "curved")
        for op in full_symmetry_group():
            x = op.inverse().apply(y)
            assert SymmetryOp(*_sort_and_flip(x.as_tuple())) == op
            d = decompose(x)
            assert d.weights == base.weights
            for (_, g), (_, g0) in zip(d.terms, base.terms):
                assert _phis(g) == _phis(angle_transport(op.inverse(), g0))
    assert routes == {"boundary", "face", "curved"}


def test_reconstruct_clamps_weight_dust_to_the_box():
    # weights may sum to 1 + 1e-12; the reconstructed vector, built without
    # a check, must still lie in the box
    g = GeneratorPoint(0.5 * math.pi, 0.5 * math.pi, 0.0)
    d = Decomposition(((0.5 + 4e-13, g), (0.5 + 4e-13, g)))
    assert 0.5 + 4e-13 + 0.5 + 4e-13 > 1.0
    x = d.reconstruct().as_tuple()
    assert x[:3] == (1.0, 1.0, 0.0) and abs(x[3]) < 1e-15
