"""Correlation vectors and their signed-permutation symmetries.

A correlation vector collects the four expectation values of products of
two-outcome (+1/-1) measurements in the two-setting bipartite scenario,
ordered as

    x = (<A0 B0>, <A0 B1>, <A1 B0>, <A1 B1>).

Each component lies in [-1, 1].  Both correlation sets handled by this
package (the classical polytope and the quantum body) are invariant under a
group of 192 signed permutations: an arbitrary permutation of the four
components combined with sign flips on an even number of them (24 * 8).

Inside that group every vector has a canonical representative satisfying
the sorting condition

    x1 >= x2 >= x3 >= |x4|,

for which each eight-inequality membership system collapses to a single
binding inequality.  `canonicalize` returns that representative, straight
from the component values: the magnitudes in descending order, the last
one negated when the sign parity is odd.  `_sort_and_flip` gives the perm
and signs of the group element carrying a vector there, chosen
deterministically so results are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NoReturn, Sequence

import numpy as np

from .errors import InternalCheckError, NonFiniteInputError, OutOfBoxError
from .errors import PreconditionError

# Default tolerance for box validation; membership tests share it.
DEFAULT_TOLERANCE = 1e-9

_COMPONENT_NAMES = ("x1", "x2", "x3", "x4")

_LARGEST_FLOAT = sys.float_info.max


@dataclass(frozen=True)
class CorrelationVector:
    """Immutable vector of the four correlators, each in [-1, 1]: the
    constructor admits what `validate` admits at tolerance 0, bit for bit."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self) -> None:
        box = CorrelationVector.validate((self.x1, self.x2, self.x3, self.x4), 0.0)
        self.__dict__.update(box.__dict__)

    @classmethod
    def validate(
        cls, raw: Sequence[float], tolerance: float = DEFAULT_TOLERANCE
    ) -> "CorrelationVector":
        """Validate four raw reals and clamp them to the box [-1, 1]^4.

        Components may overshoot the box by at most `tolerance`; anything
        further out, or not a number, raises OutOfBoxError naming the
        offending component.
        One rule admits a vector: each component converts with `float` and
        lies within [-b, b], b = 1 + tolerance, or the largest finite float
        when that is NaN or +inf, so only finite values pass.  `_refuse`
        names what the rule refuses, so no input has a second path to
        admission.  Admitted values are clamped, with -0.0 turned into +0.0,
        and set without `__post_init__`, which runs this rule at tolerance
        0; so the vector equals `cls(*clamped)` bit for bit.
        """
        try:
            values = tuple(raw)
        except TypeError:
            message = f"expected a sequence of 4 components, got {raw!r}"
            raise OutOfBoxError(message) from None
        try:
            a, b, c, d = values
            a = float(a)
            b = float(b)
            c = float(c)
            d = float(d)
        except (TypeError, ValueError, OverflowError):
            _refuse(values, tolerance)
        bound = 1.0 + tolerance
        if not bound <= _LARGEST_FLOAT:  # NaN or +inf
            bound = _LARGEST_FLOAT
        low = -bound
        if not (
            low <= a <= bound
            and low <= b <= bound
            and low <= c <= bound
            and low <= d <= bound
        ):
            _refuse(values, tolerance)
        return _unchecked(
            cls,
            {
                "x1": 1.0 if a > 1.0 else -1.0 if a < -1.0 else a + 0.0,
                "x2": 1.0 if b > 1.0 else -1.0 if b < -1.0 else b + 0.0,
                "x3": 1.0 if c > 1.0 else -1.0 if c < -1.0 else c + 0.0,
                "x4": 1.0 if d > 1.0 else -1.0 if d < -1.0 else d + 0.0,
            },
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=float)

    def to_json(self) -> str:
        """Serialize as a JSON array of 4 numbers."""
        return json.dumps(list(self.as_tuple()))

    @classmethod
    def from_json(
        cls, text: str, tolerance: float = DEFAULT_TOLERANCE
    ) -> "CorrelationVector":
        """Read a JSON array of four numbers through `validate`.  Unlike
        `validate`, it takes JSON numbers only: a boolean or a string is not
        a number, and neither is an integer too long for `int` to read."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # an integer past int's digit limit
            message = f"expected a JSON array of 4 numbers: {exc}"
            raise OutOfBoxError(message) from None
        if not isinstance(data, list):
            raise OutOfBoxError("expected a JSON array of 4 numbers")
        if any(isinstance(v, (bool, str)) for v in data):
            _refuse(tuple(data), tolerance, json_numbers_only=True)
        return cls.validate(data, tolerance=tolerance)


@dataclass(frozen=True)
class SymmetryOp:
    """One signed permutation of the four components.

    `perm[j]` is the target position of source component j, and `signs[i]`
    is the sign applied at target position i, so that

        apply(op, x)[i] = signs[i] * x[perm^-1(i)].

    Entries are integers (numpy integers count).  The sign mask must flip
    an even number of components; odd masks do not preserve the correlation
    sets.  Anything else raises PreconditionError.
    """

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        try:
            perm = tuple(map(operator.index, self.perm))
            signs = tuple(map(operator.index, self.signs))
        except TypeError:
            message = f"perm {self.perm!r} and signs {self.signs!r} must be integers"
            raise PreconditionError(message) from None
        if sorted(perm) != [0, 1, 2, 3]:
            raise PreconditionError(f"perm {perm!r} is not a permutation of 0..3")
        if len(signs) != 4:
            raise PreconditionError(f"signs {signs!r} must have 4 entries")
        if any(s not in (-1, 1) for s in signs):
            raise PreconditionError(f"signs {signs!r} must be +1 or -1")
        if signs[0] * signs[1] * signs[2] * signs[3] != 1:
            raise PreconditionError(
                f"signs {signs!r} flip an odd number of components"
            )
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    def source_indices(self) -> tuple[int, int, int, int]:
        """Inverse permutation: source index feeding each target position."""
        p = self.perm
        return (p.index(0), p.index(1), p.index(2), p.index(3))

    def apply(self, x: CorrelationVector) -> CorrelationVector:
        """Transform a vector.  Exact: only permutes and flips signs."""
        q = self.source_indices()
        comps = x.as_tuple()
        return CorrelationVector(
            self.signs[0] * comps[q[0]],
            self.signs[1] * comps[q[1]],
            self.signs[2] * comps[q[2]],
            self.signs[3] * comps[q[3]],
        )

    def compose(self, other: "SymmetryOp") -> "SymmetryOp":
        """Group product: `other` acts first, then `self`."""
        perm = tuple(self.perm[other.perm[j]] for j in range(4))
        q_self = self.source_indices()
        signs = tuple(self.signs[i] * other.signs[q_self[i]] for i in range(4))
        return SymmetryOp(perm, signs)

    def inverse(self) -> "SymmetryOp":
        p, s = self.perm, self.signs
        signs = (s[p[0]], s[p[1]], s[p[2]], s[p[3]])
        return SymmetryOp(self.source_indices(), signs)

    def matrix(self) -> np.ndarray:
        """The op as a 4x4 signed permutation matrix M with apply = M @ x."""
        m = np.zeros((4, 4))
        q = self.source_indices()
        for i in range(4):
            m[i, q[i]] = self.signs[i]
        return m


def _refuse(
    values: tuple, tolerance: float, json_numbers_only: bool = False
) -> NoReturn:
    """Raise the error for the first component of `values` that
    `CorrelationVector.validate` refuses, or for their count; with
    `json_numbers_only`, a boolean or a string is not a number either."""
    if len(values) != 4:
        raise OutOfBoxError(f"expected 4 components, got {len(values)}")
    for name, v in zip(_COMPONENT_NAMES, values):
        try:
            if json_numbers_only and isinstance(v, (bool, str)):
                raise TypeError
            v = float(v)
        except (TypeError, ValueError):
            message = f"component {name} is not a number: {v!r}"
            raise OutOfBoxError(message) from None
        except OverflowError as exc:  # an int too large for a float
            message = f"component {name} lies outside [-1, 1]: {exc}"
            raise OutOfBoxError(message) from None
        if not math.isfinite(v):
            raise NonFiniteInputError(f"component {name} is not finite: {v!r}")
        if abs(v) > 1.0 + tolerance:
            raise OutOfBoxError(
                f"component {name} = {v!r} lies outside [-1, 1] "
                f"beyond tolerance {tolerance:g}"
            )
    raise InternalCheckError(
        f"validate refused {values!r} at tolerance {tolerance!r}, "
        "but every component is a number within the box"
    )


def _unchecked(cls, fields):
    """An instance of the frozen dataclass `cls` with `fields` (a mapping or
    pairs of field name and value) set directly, without `__post_init__`.
    Only for values that already meet what that method would enforce."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _sort_and_flip(
    comps: tuple[float, float, float, float]
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """The perm and signs of the `SymmetryOp` carrying the vector `comps`
    to `canonicalize`'s representative: a sort by descending absolute value,
    ties broken by index, then pairwise flips that leave the first three
    components nonnegative; position 4 carries any leftover minus sign."""
    # a stable sort over range(4) breaks ties by index
    order = sorted(range(4), key=[-abs(v) for v in comps].__getitem__)
    perm = (order.index(0), order.index(1), order.index(2), order.index(3))
    signs = [-1 if comps[j] < 0.0 else 1 for j in order]
    if signs[0] * signs[1] * signs[2] * signs[3] == -1:
        # zeros sort last, so a zero absorbing the flip is at position 4
        signs[3] = -signs[3]
    return perm, tuple(signs)


def canonicalize(x: CorrelationVector) -> CorrelationVector:
    """Deterministic canonical representative under the 192-op group.

    Its components are the magnitudes of x's in descending order, the last
    one negated when an odd number of components is negative and it is
    nonzero (a zero absorbs the odd flip and stays +0.0).  The op
    `SymmetryOp(*_sort_and_flip(x.as_tuple()))` maps x onto it exactly.
    """
    comps = x.as_tuple()
    a, b, c, d = sorted(map(abs, comps), reverse=True)
    negatives = (
        (comps[0] < 0.0) + (comps[1] < 0.0) + (comps[2] < 0.0) + (comps[3] < 0.0)
    )
    if negatives % 2 and d != 0.0:
        d = -d
    # the magnitudes of a CorrelationVector's components lie in [0, 1] and
    # are never -0.0, so the constructor's box rule would admit them as they are
    return _unchecked(CorrelationVector, {"x1": a, "x2": b, "x3": c, "x4": d})


@lru_cache(maxsize=1)
def full_symmetry_group() -> tuple[SymmetryOp, ...]:
    """All 192 signed permutations, in a fixed deterministic order."""
    masks = [
        m
        for m in itertools.product((1, -1), repeat=4)
        if m[0] * m[1] * m[2] * m[3] == 1
    ]
    return tuple(
        SymmetryOp(p, s)
        for p in itertools.permutations(range(4))
        for s in masks
    )
