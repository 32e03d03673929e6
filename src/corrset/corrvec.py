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
binding inequality.  `canonicalize` computes that representative straight
from the component values: the magnitudes in descending order, with the
last one negated when the sign parity is odd.  The group element realizing
it is built only on demand, by `CanonicalForm.op`, and is chosen
deterministically so results are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import NonFiniteInputError, OutOfBoxError

# Default tolerance for box validation; membership tests share it.
DEFAULT_TOLERANCE = 1e-9

_COMPONENT_NAMES = ("x1", "x2", "x3", "x4")


def _clean(value: float) -> float:
    # normalize -0.0 to +0.0 so serialization and comparisons are stable
    return float(value) + 0.0


@dataclass(frozen=True)
class CorrelationVector:
    """Immutable vector of the four correlators, each in [-1, 1]."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self) -> None:
        for name in _COMPONENT_NAMES:
            v = _clean(getattr(self, name))
            if not math.isfinite(v):
                raise NonFiniteInputError(f"component {name} is not finite: {v!r}")
            object.__setattr__(self, name, v)

    @classmethod
    def validate(
        cls, raw: Sequence[float], tolerance: float = DEFAULT_TOLERANCE
    ) -> "CorrelationVector":
        """Validate four raw reals and clamp them to the box [-1, 1]^4.

        Components may overshoot the box by at most `tolerance`; anything
        further out raises OutOfBoxError naming the offending component.
        """
        values = list(raw)
        if len(values) != 4:
            raise OutOfBoxError(f"expected 4 components, got {len(values)}")
        cleaned = []
        for name, v in zip(_COMPONENT_NAMES, values):
            v = float(v)
            if not math.isfinite(v):
                raise NonFiniteInputError(f"component {name} is not finite: {v!r}")
            if abs(v) > 1.0 + tolerance:
                raise OutOfBoxError(
                    f"component {name} = {v!r} lies outside [-1, 1] "
                    f"beyond tolerance {tolerance:g}"
                )
            cleaned.append(min(1.0, max(-1.0, v)))
        return cls(*cleaned)

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
        data = json.loads(text)
        if not isinstance(data, list):
            raise OutOfBoxError("expected a JSON array of 4 numbers")
        return cls.validate(data, tolerance=tolerance)


@dataclass(frozen=True)
class SymmetryOp:
    """One signed permutation of the four components.

    `perm[j]` is the target position of source component j, and `signs[i]`
    is the sign applied at target position i, so that

        apply(op, x)[i] = signs[i] * x[perm^-1(i)].

    The sign mask must flip an even number of components; odd masks do not
    preserve the correlation sets.
    """

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        perm = tuple(int(p) for p in self.perm)
        signs = tuple(int(s) for s in self.signs)
        if sorted(perm) != [0, 1, 2, 3]:
            raise ValueError(f"perm {perm!r} is not a permutation of 0..3")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs {signs!r} must be +1 or -1")
        if signs[0] * signs[1] * signs[2] * signs[3] != 1:
            raise ValueError(
                f"signs {signs!r} flip an odd number of components"
            )
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def identity(cls) -> "SymmetryOp":
        return cls((0, 1, 2, 3), (1, 1, 1, 1))

    @property
    def is_identity(self) -> bool:
        return self.perm == (0, 1, 2, 3) and self.signs == (1, 1, 1, 1)

    def source_indices(self) -> tuple[int, int, int, int]:
        """Inverse permutation: source index feeding each target position."""
        q = [0, 0, 0, 0]
        for src, dst in enumerate(self.perm):
            q[dst] = src
        return tuple(q)

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
        q = self.source_indices()
        signs = tuple(self.signs[self.perm[i]] for i in range(4))
        return SymmetryOp(q, signs)

    def matrix(self) -> np.ndarray:
        """The op as a 4x4 signed permutation matrix M with apply = M @ x."""
        m = np.zeros((4, 4))
        q = self.source_indices()
        for i in range(4):
            m[i, q[i]] = self.signs[i]
        return m


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical representative of `source`, plus the op that produced it.

    `canonical` is computed from the component values alone; `op` is built
    from `source` on first read.  `op.apply(source)` equals `canonical`
    exactly, and `op.inverse().apply(canonical)` recovers `source` exactly,
    because the group acts by permutation and sign flip only.
    """

    canonical: CorrelationVector
    source: CorrelationVector

    @cached_property
    def op(self) -> SymmetryOp:
        """The group element of the sort-and-flip rule in `canonicalize`."""
        comps = self.source.as_tuple()
        order = sorted(range(4), key=lambda j: (-abs(comps[j]), j))
        perm = [0, 0, 0, 0]
        for target, j in enumerate(order):
            perm[j] = target
        signs = [-1 if comps[j] < 0.0 else 1 for j in order]
        if signs[0] * signs[1] * signs[2] * signs[3] == -1:
            # zeros sort last, so a zero absorbing the flip is at position 4
            signs[3] = -signs[3]
        return SymmetryOp(tuple(perm), tuple(signs))


def is_s_ordered(x: CorrelationVector, slack: float = 0.0) -> bool:
    """Whether x1 >= x2 >= x3 >= |x4| holds, up to `slack`."""
    t = x.as_tuple()
    return (
        t[0] >= t[1] - slack
        and t[1] >= t[2] - slack
        and t[2] >= abs(t[3]) - slack
    )


def canonicalize(x: CorrelationVector) -> CanonicalForm:
    """Deterministic canonical representative under the 192-op group.

    The values come first: the magnitudes in descending order, the last one
    negated when an odd number of components is negative and it is nonzero
    (a zero absorbs the odd flip and stays +0.0).  The group element, built
    only when `CanonicalForm.op` is read, sorts components by descending
    absolute value (ties broken by original index), then flips signs
    pairwise so the first three are nonnegative; position 4 carries any
    leftover minus sign.
    """
    comps = x.as_tuple()
    values = sorted(map(abs, comps), reverse=True)
    negatives = (
        (comps[0] < 0.0) + (comps[1] < 0.0) + (comps[2] < 0.0) + (comps[3] < 0.0)
    )
    if negatives % 2 and values[3] != 0.0:
        values[3] = -values[3]
    # the magnitudes of a CorrelationVector's components are finite and never
    # -0.0, which is all its constructor enforces, so they skip it
    canonical = object.__new__(CorrelationVector)
    canonical.__dict__.update(zip(_COMPONENT_NAMES, values))
    return CanonicalForm(canonical, x)


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


def vectors_to_array(vectors: Iterable[CorrelationVector]) -> np.ndarray:
    """Stack correlation vectors into an (n, 4) float array."""
    return np.array([v.as_tuple() for v in vectors], dtype=float)
