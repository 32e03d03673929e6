"""Extremal generators of the quantum set and constructive decomposition.

The quantum correlation set is the convex hull of a three-parameter family
of extremal points

    G(phi1, phi2, phi3) = (sin phi1, sin phi2, sin phi3, -sin(phi1+phi2+phi3)),

each realizable with a single entangled qubit pair.  `decompose` writes any
member of the quantum set as a convex combination of at most three such
generators.  The algorithm:

1. Canonicalize, so the working vector y satisfies y1 >= y2 >= y3 >= |y4|.
   In canonical position membership reduces to the single inequality

       asin y1 + asin y2 + asin y3 - asin y4 <= pi.

2. Walk the ray t -> t*y outward from the origin.  The arcsine sum at t*y
   is nondecreasing in t for s-ordered y, so the ray leaves the set either
   through the face y1 = 1 of the box (split the face point z = y/y1
   between the two generators that pin its fourth coordinate from below
   and above) or through the curved arcsine boundary.  The curved crossing
   is the point sin(theta1) * z, and the root search runs on the angle
   theta1 in [pi/4, pi/2], not on t: each term asin(z_i sin theta1) has
   slope at most 1 in theta1, so a one-ulp bracket bounds the arcsine
   residual even where the ray leaves next to the box corner, where the
   slope in t is unbounded.  Safeguarded Newton steps shrink the bracket,
   and single-ulp probes finish it, in about 7 evaluations of the arcsine
   sum (see `_boundary_angle`).  The hit point is the generator
   G(theta1, asin(z2 s), asin(z3 s)) with s = sin theta1, taken with
   weight y1 / s.

3. Mix in the zero generator G(0,0,0) to account for the radial scaling,
   and transport every term back through the inverse symmetry op.  Its
   angles move before its generator is built: a generator is equivalently
   a 4-tuple of angles (nu1..nu4) summing to a multiple of 2*pi via
   nu4 = -(phi1+phi2+phi3); permuting the four angles and adding pi at the
   flipped positions commutes with evaluation.

The weights are read off the ray parameter, so no linear programming is
involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import membership
from .corrvec import DEFAULT_TOLERANCE, CorrelationVector, SymmetryOp, canonicalize
from .corrvec import _sort_and_flip, _unchecked
from .errors import InternalCheckError, NotInQuantumSetError, PreconditionError

_TWO_PI = 2.0 * math.pi
_RECONSTRUCTION_TOLERANCE = 1e-9
_WEIGHT_SUM_TOLERANCE = 1e-12


def reduce_angle(phi: float) -> float:
    """Reduce an angle to the half-open interval (-pi, pi]."""
    r = math.remainder(phi, _TWO_PI)
    if r <= -math.pi:
        r += _TWO_PI
    return r + 0.0


@dataclass(frozen=True)
class GeneratorPoint:
    """One extremal generator, stored by its three defining angles.

    Angles must be finite numbers, or PreconditionError is raised.  They
    are reduced to (-pi, pi] on construction; evaluation only feeds them to
    sine, so the reduction never changes the vector.  Generators built from
    the package's own finite floats skip the check through `_generator`,
    which reduces them alike: `origin` and the transport of
    `angle_transport` and `decompose`.
    """

    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self) -> None:
        for name in ("phi1", "phi2", "phi3"):
            v = getattr(self, name)
            try:
                v = float(v)
            except (TypeError, ValueError, OverflowError):
                message = f"angle {name} is not a number: {v!r}"
                raise PreconditionError(message) from None
            if not math.isfinite(v):
                raise PreconditionError(f"angle {name} is not finite: {v!r}")
            object.__setattr__(self, name, reduce_angle(v))

    @classmethod
    def origin(cls) -> "GeneratorPoint":
        """The zero generator G(0,0,0), evaluating to the origin."""
        return _generator(0.0, 0.0, 0.0)

    def evaluate(self) -> CorrelationVector:
        """The correlation vector this generator produces."""
        return CorrelationVector(*self._components())

    def _components(self) -> tuple[float, float, float, float]:
        return (
            math.sin(self.phi1),
            math.sin(self.phi2),
            math.sin(self.phi3),
            -math.sin(self.phi1 + self.phi2 + self.phi3),
        )


@dataclass(frozen=True)
class Decomposition:
    """Convex combination of at most three generators.

    Each term is a (weight, GeneratorPoint) pair; weights are in [0, 1] and
    sum to 1 within 1e-12, or PreconditionError is raised.  Zero-weight
    terms are never stored; `decompose` drops them on the fly.
    """

    terms: tuple[tuple[float, GeneratorPoint], ...]

    def __post_init__(self) -> None:
        try:
            terms = tuple((float(w), g) for w, g in self.terms)
        except (TypeError, ValueError, OverflowError):
            message = f"terms {self.terms!r} are not (weight, GeneratorPoint) pairs"
            raise PreconditionError(message) from None
        if not 1 <= len(terms) <= 3:
            raise PreconditionError(
                f"a decomposition has 1 to 3 terms, got {len(terms)}"
            )
        for w, g in terms:
            if not 0.0 <= w <= 1.0:
                raise PreconditionError(f"weight {w!r} outside [0, 1]")
            if not isinstance(g, GeneratorPoint):
                raise PreconditionError(f"term {g!r} is not a GeneratorPoint")
        total = math.fsum(w for w, _ in terms)
        if abs(total - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise PreconditionError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "terms", terms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.terms)

    def reconstruct(self) -> CorrelationVector:
        """Weighted sum of the evaluated generators."""
        # kept in the instance, with no lock: `decompose` checks the point
        # and `realize_mixture` realizes it
        if "_point" in self.__dict__:
            return self.__dict__["_point"]
        acc = [0.0, 0.0, 0.0, 0.0]
        for w, g in self.terms:
            for i, v in enumerate(g._components()):
                acc[i] += w * v
        # convex combinations of box points overshoot by float dust only,
        # which `validate` clamps at any tolerance
        point = CorrelationVector.validate(acc, math.inf)
        self.__dict__["_point"] = point
        return point

    def to_json_list(self) -> list[dict]:
        return [
            {"weight": w, "phi": [g.phi1, g.phi2, g.phi3]}
            for w, g in self.terms
        ]


def _generator(phi1: float, phi2: float, phi3: float) -> GeneratorPoint:
    """GeneratorPoint(phi1, phi2, phi3) for finite floats, bitwise, built
    without the checks of `GeneratorPoint.__post_init__`."""
    phis = (reduce_angle(phi1), reduce_angle(phi2), reduce_angle(phi3))
    return _unchecked(GeneratorPoint, zip(("phi1", "phi2", "phi3"), phis))


def generator_values(phis: np.ndarray) -> np.ndarray:
    """Vectorized generator evaluation; input (..., 3), output (..., 4)."""
    phis = np.asarray(phis, dtype=float)
    values = np.sin(phis)
    last = -np.sin(phis.sum(axis=-1))
    return np.concatenate([values, last[..., None]], axis=-1)


def _arcsine_sum(t: tuple[float, float, float, float]) -> float:
    return math.asin(t[0]) + math.asin(t[1]) + math.asin(t[2]) - math.asin(t[3])


def face_segment(x2: float, x3: float) -> tuple[float, float]:
    """The fourth coordinates [low, high] of the quantum set over (1, x2, x3).

    With theta_i = asin x_i the segment is

        x4 in [-cos(theta2 + theta3), cos(theta2 - theta3)],

    and on the box edge |x2| = 1 or |x3| = 1 it collapses to the single
    point x2*x3, which is pinned exactly instead of leaving a last-ulp gap
    from the cosines.
    """
    if abs(x2) == 1.0 or abs(x3) == 1.0:
        pinned = x2 * x3 + 0.0
        return (pinned, pinned)
    theta2 = math.asin(x2)
    theta3 = math.asin(x3)
    return (-math.cos(theta2 + theta3), math.cos(theta2 - theta3))


def _face_terms(
    z: tuple[float, float, float, float]
) -> tuple[tuple[float, tuple[float, float, float]], ...]:
    """Split the face point z = (1, z2, z3, z4), s-ordered and in the
    quantum set, between two extremal generators, each given by its angles.

    The quantum set meets the line over (1, z2, z3) in the segment
    `face_segment(z2, z3)`, whose endpoints are generated by
    G(pi/2, theta2, theta3) and G(pi/2, theta2, pi - theta3) with
    theta_i = asin z_i.  The fourth coordinate z4 picks the mixing weight.
    A degenerate segment (endpoints closer than 1e-9, the reconstruction
    bound) gives a single term of weight 1.
    """
    theta2, theta3 = math.asin(z[1]), math.asin(z[2])
    low, high = face_segment(z[1], z[2])
    g_low = (0.5 * math.pi, theta2, theta3)
    if high - low < _RECONSTRUCTION_TOLERANCE:
        return ((1.0, g_low),)
    g_high = (0.5 * math.pi, theta2, math.pi - theta3)
    lam = min(1.0, max(0.0, (z[3] - low) / (high - low)))
    return tuple((w, g) for w, g in ((1.0 - lam, g_low), (lam, g_high)) if w > 0.0)


def angle_transport(op: SymmetryOp, g: GeneratorPoint) -> GeneratorPoint:
    """Transport a generator through a symmetry op at the angle level.

    Expands to the 4-angle form (phi1, phi2, phi3, nu4) with
    nu4 = -(phi1 + phi2 + phi3) reduced to (-pi, pi], permutes the angles
    like the op permutes components, and adds pi at each sign-flipped
    position.  Since the op flips an even number of signs, the angle sum
    stays a multiple of 2*pi, and

        angle_transport(op, g).evaluate() == op.apply(g.evaluate())

    up to floating point roundoff.
    """
    shifts = [math.pi if s < 0 else 0.0 for s in op.signs]
    return _transport(op.source_indices(), shifts, g.phi1, g.phi2, g.phi3)


def _transport(q, shift, phi1, phi2, phi3) -> GeneratorPoint:
    """G(phis) moved by the op of source indices q and pi shifts; phis in (-pi, pi]."""
    nus = (phi1, phi2, phi3, reduce_angle(-(phi1 + phi2 + phi3)))
    return _generator(nus[q[0]] + shift[0], nus[q[1]] + shift[1], nus[q[2]] + shift[2])


def _ray_arcsines(
    z: tuple[float, float, float, float], delta: float
) -> tuple[list[float], float]:
    """asin(z_i cos delta) for i = 2, 3, 4, each accurate in absolute terms,
    and the slope of asin(z2 s) + asin(z3 s) - asin(z4 s) in theta, where
    s = sin theta = cos delta.

    Every |z_i| <= 1, so no argument leaves [-1, 1] and no clamp is needed.
    Each is formed as atan2(u, sqrt(1 - u^2)) with 1 - |u| = (1 - |z_i|) +
    |z_i| 2 sin^2(delta/2), a sum of two nonnegative terms, so nothing
    cancels where u = z_i cos delta is within rounding of +-1.  A plain
    asin(z_i * sin theta) there turns the last-ulp rounding of its argument
    into an error of up to 1.5e-8 in the angle (for example when z2 = 1).
    The slope sums +-z_i cos theta / sqrt(1 - u^2) over the same roots.
    """
    c = math.cos(delta)
    s = math.sin(delta)
    h = 2.0 * math.sin(0.5 * delta) ** 2
    angles = []
    slope = 0.0
    for sign, v in zip((1.0, 1.0, -1.0), z[1:]):
        w = (1.0 - abs(v)) + abs(v) * h
        root = math.sqrt(w * (2.0 - w))
        angles.append(math.atan2(v * c, root))
        # root vanishes only at delta = 0 with |z_i| = 1, where s / root -> 1
        slope += sign * v * (s / root if root else 1.0)
    return angles, slope


def _boundary_angle(z: tuple[float, float, float, float]) -> float:
    """The angle theta1 where the ray through the face point z crosses the
    curved boundary: the root in [pi/4, pi/2] of

        g(theta) = theta + asin(z2 s) + asin(z3 s) - asin(z4 s) - pi,
        s = sin theta.

    The caller guarantees that the arcsine sum at z exceeds pi.  Where it
    does so by a few ulps, this function's own g(pi/2) can still read <= 0;
    the search then returns pi/2, or an angle a few ulps below it at which
    g's rounding reads nonnegative.  Since |z_i| <= 1, each term
    asin(z_i sin theta) has slope at most 1 in theta, and the s-order
    z3 >= |z4| keeps the z4 term from outweighing the z3 term: g increases
    with slope between 1 and 4.  No term exceeds theta, so g(pi/4) <= 0.

    Safeguarded Newton finds the root.  The bracket [lo, hi] starts at
    [pi/4, pi/2] and keeps g(lo) < 0 <= g(hi) as each iterate replaces one
    end.  The Newton step g / g' uses the slope `_ray_arcsines` returns
    with the terms.  A step that would leave the open bracket goes to the
    inner neighbour of the end it crosses instead, since the root then lies
    next to that end; if the step before did that too, it goes to the
    midpoint.  A step that rounds back to its own iterate moves one ulp
    toward the other end.  Whenever the bracket has not halved over the
    last eight evaluations, the next one is at the midpoint, so the bracket
    halves at least every nine evaluations and the search ends within
    9 x 53 of them, whatever z is and however poor the slope.  On 150,000
    test rays that rule never fires.  A shorter window would cut into
    healthy runs, where Newton closes in from one side while the far end
    stays put: over two evaluations the mean count rises from 7.7 to 9.7,
    the most from 14 to 19.  The search stops when the bracket is one ulp
    wide and returns hi: the smallest float at which g reads nonnegative,
    wherever the computed g is monotone, as a bisection run to a one-ulp
    bracket would return.  That takes about 7 evaluations of g instead of
    54 halvings, and the slope bound holds the residual to a few ulps of
    pi/2, however close to the box corner the crossing lies.  The terms
    come from `_ray_arcsines`, whose rounding does not break that bound.
    """
    lo, hi = 0.25 * math.pi, 0.5 * math.pi
    theta = 0.375 * math.pi
    clamped = False
    widths = [hi - lo] * 8  # the bracket after each of the last eight evaluations
    while True:
        (a2, a3, a4), slope = _ray_arcsines(z, 0.5 * math.pi - theta)
        g = theta + a2 + a3 - a4 - math.pi
        if g < 0.0:
            lo = theta
        else:
            hi = theta
        if math.nextafter(lo, hi) == hi:
            return hi
        slow = hi - lo > 0.5 * widths[0]
        widths = widths[1:] + [hi - lo]
        step = theta - g / (1.0 + slope)
        if step == theta:
            step = math.nextafter(theta, hi if g < 0.0 else lo)
        clamped = not (lo < step < hi or clamped or slow)
        if clamped:
            step = math.nextafter(lo, hi) if step <= lo else math.nextafter(hi, lo)
        elif slow or not lo < step < hi:
            step = 0.5 * (lo + hi)
        theta = step


def decompose(
    x: CorrelationVector, tolerance: float = DEFAULT_TOLERANCE
) -> Decomposition:
    """Write a quantum-set member as a mixture of at most 3 generators.

    Admission is `membership`'s (`membership.quantum_verdict`): x outside
    Q at `tolerance` raises NotInQuantumSetError naming x, margin_C and
    margin_Q as `evaluate` reports them.  `tolerance` only admits the input.
    Whether the input is taken as a point of the curved boundary is decided
    by the same margin's size against the fixed 1e-9 reconstruction bound,
    and which exit the ray takes against pi itself: the face split clamps
    its weight, so a face point just outside the set would leave its clamp
    in the residual.  An admitted input outside Q by more than that takes
    the curved exit, whose weight clamps at 1: it is decomposed as x / gamma,
    the point where its ray leaves Q, with gamma = y1 / sin(theta1) > 1.
    The result reconstructs x / gamma (x itself, gamma = 1, for any other
    input) within 1e-9 per component; that bound is verified before
    returning, and its failure raises InternalCheckError naming the input,
    the residual and the exit taken: origin, boundary, face or curved.
    """
    _, margin, inside = membership.quantum_verdict(x.as_tuple(), tolerance)
    if not inside:
        raise NotInQuantumSetError(
            f"{x.as_tuple()!r} lies outside the quantum set: margin_C="
            f"{membership.CLASSICAL_BOUND - membership.chsh_max(x)!r} "
            f"margin_Q={margin!r}"
        )
    y = canonicalize(x).as_tuple()

    # each term's weight and canonical angles, in (-pi, pi] and none -0.0
    angles: tuple[tuple[float, tuple[float, float, float]], ...]
    gamma = 1.0  # the reconstruction is checked against x / gamma
    if y[0] == 0.0:
        # the zero vector; s-order forces all components to vanish with y1
        route, angles = "origin", ((1.0, (0.0, 0.0, 0.0)),)
    elif abs(margin) <= _RECONSTRUCTION_TOLERANCE:
        # on the curved boundary: single extremal term
        route, angles = "boundary", ((1.0, tuple(map(math.asin, y[:3]))),)
    else:
        weight = y[0]  # of the exit point; the origin takes the rest
        # the face point: s-ordered, with z1 = 1 exactly
        z = (1.0, y[1] / y[0], y[2] / y[0], y[3] / y[0])
        if _arcsine_sum(z) <= math.pi:
            # the ray exits through the box face x1 = 1
            route = "face"
            angles = tuple((w * weight, g) for w, g in _face_terms(z))
        else:
            # the ray exits through the curved boundary at sin(theta1) * z
            theta1 = _boundary_angle(z)
            (phi2, phi3, _), _ = _ray_arcsines(z, 0.5 * math.pi - theta1)
            gamma = weight / math.sin(theta1)
            weight, gamma = min(1.0, gamma), max(1.0, gamma)
            route, angles = "curved", ((weight, (theta1, phi2, phi3)),)
        if 1.0 - weight > 0.0:
            angles += ((1.0 - weight, (0.0, 0.0, 0.0)),)

    # back through SymmetryOp(perm, signs)'s inverse: sources perm, signs signs[perm]
    perm, signs = _sort_and_flip(x.as_tuple())
    shifts = [math.pi if signs[j] < 0 else 0.0 for j in perm]
    terms = tuple((w, _transport(perm, shifts, *phis)) for w, phis in angles)

    # 1 to 3 weights in [0, 1] summing to 1 by construction: skip the checks
    result = _unchecked(Decomposition, {"terms": terms})
    residual = max(
        abs(a - b / gamma)
        for a, b in zip(result.reconstruct().as_tuple(), x.as_tuple())
    )
    if residual > _RECONSTRUCTION_TOLERANCE:
        raise InternalCheckError(
            f"decomposition residual {residual:.3e} exceeds "
            f"{_RECONSTRUCTION_TOLERANCE:g} for input {x.as_tuple()!r} "
            f"at the {route} exit"
        )
    return result
