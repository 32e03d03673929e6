"""Membership tests for the classical and quantum correlation sets.

The classical set consists of the correlation vectors reachable with shared
randomness and local deterministic strategies.  It is cut out (inside the
box) by the eight CHSH combinations

    +-x1 +- x2 +- x3 +- x4   (odd number of minus signs)

each bounded by 2.  The quantum set consists of the vectors reachable by
measuring a shared quantum state; it is characterized by the same eight
combinations applied to the component arcsines, each bounded by pi.

Both systems are redundant: after canonicalization only one inequality can
bind.  `evaluate` still reports all eight values (callers want the full
report), from four sums per system: rows 4-7 of the patterns are rows 0-3
negated, taken as `0.0 - v` so that an exact zero stays +0.0 as the direct
sum gives it.  It cross-checks the maximum against the canonical fast path.

Scalars and arrays share one summation order, `_four_sums`: each of rows
0-3 summed left to right, as numpy's matrix product sums a block of rows.
So a row's values are the same floats alone, of shape (4,) or (1, 4), as
inside a longer array; a matrix product would send a lone row to a vector
kernel that rounds its sums differently.  The largest of the eight values
is the largest magnitude of rows 0-3, so the array maxima form no
negations; `_pattern_sums` adds rows 4-7 where all eight are reported.

Q's verdict is made in one place, `quantum_verdict` for a vector and
`quantum_verdicts` for an array.  margin_Q is the paper's arcsine margin
of x, pi minus f(x), the largest arcsine combination, and at tolerance tau

    x in Q  <=>  pi - f(x / (1 + 2**-52)) >= -tau  or  margin_Q(x) >= -tau:

the margin is read again one ulp inward along the ray, where the canonical
arcsine sum is nondecreasing.  At a rounded box corner the arcsine's
infinite slope turns the last-ulp rounding of a component into up to
2.1e-8 of margin.  The shift moves a margin by at most 4 sqrt(2 * 2**-52)
= 8.4e-8, so it is computed only for margins within 1e-7 below -tau.

`mu` is the component-wise rescaled arcsine map y_i = (2/pi) * asin(x_i).
It sends the quantum set exactly onto the classical one, which makes
"in quantum set" equivalent to "mu-image in classical set"; several tests
exploit that equivalence.

Array helpers (`chsh_combinations`, `classical_margins`, ...) operate on
float arrays of shape (..., 4) and vectorize over leading axes, which keeps
million-point sweeps cheap.  Scalar functions take CorrelationVector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .corrvec import DEFAULT_TOLERANCE, CorrelationVector, _unchecked, canonicalize
from .errors import InternalCheckError

CLASSICAL_BOUND = 2.0
QUANTUM_BOUND = math.pi
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# The eight sign patterns with an odd number of minus signs.  Rows 0..3 have
# the single minus at positions 1..4; rows 4..7 are their negations.  The
# entries of `chsh_values` and `f_values` in reports follow this order.
_PATTERNS = (
    (-1.0, 1.0, 1.0, 1.0),
    (1.0, -1.0, 1.0, 1.0),
    (1.0, 1.0, -1.0, 1.0),
    (1.0, 1.0, 1.0, -1.0),
    (1.0, -1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0, -1.0),
    (-1.0, -1.0, 1.0, -1.0),
    (-1.0, -1.0, -1.0, 1.0),
)

SIGN_PATTERNS = np.array(_PATTERNS)
SIGN_PATTERNS.flags.writeable = False

_CROSS_CHECK_TOLERANCE = 1e-9
# the one-ulp ray shift of Q's verdict and the band it is read in
_RAY_SHIFT = 1.0 + 2.0**-52
_SHIFT_BAND = 1e-7


# ---------------------------------------------------------------------------
# array paths


def chsh_combinations(xs: np.ndarray) -> np.ndarray:
    """All eight CHSH combination values; input (..., 4), output (..., 8)."""
    columns = np.moveaxis(np.asarray(xs, dtype=float), -1, 0)
    return np.stack(_pattern_sums(*columns), axis=-1)


def arcsine_combinations(xs: np.ndarray) -> np.ndarray:
    """All eight combination values of component arcsines."""
    return chsh_combinations(np.arcsin(np.asarray(xs, dtype=float)))


def _largest_combination(xs: np.ndarray) -> np.ndarray:
    """The largest of the eight pattern sums of each row of `xs`: the
    largest magnitude of rows 0-3, which rows 4-7 negate."""
    columns = np.moveaxis(np.asarray(xs, dtype=float), -1, 0)
    return functools.reduce(np.maximum, map(np.abs, _four_sums(*columns)))


def _row_max(values: np.ndarray) -> np.ndarray:
    """`values.max(axis=-1)`, taken column by column: the same floats, but
    numpy reduces a short last axis several times slower."""
    return functools.reduce(np.maximum, np.moveaxis(values, -1, 0))


def _row_sum(values: np.ndarray) -> np.ndarray:
    """`values.sum(axis=-1)` over a last axis of 4, bitwise, column by column."""
    return functools.reduce(np.add, np.moveaxis(values, -1, 0))


def classical_margins(xs: np.ndarray) -> np.ndarray:
    """2 minus the largest CHSH combination; nonnegative inside the set."""
    return CLASSICAL_BOUND - _largest_combination(xs)


def quantum_margins(xs: np.ndarray) -> np.ndarray:
    """pi minus the largest arcsine combination."""
    return _arcsine_margins(np.arcsin(np.asarray(xs, dtype=float)))


def _arcsine_margins(angles: np.ndarray) -> np.ndarray:
    """`quantum_margins` of the points whose component arcsines are `angles`."""
    return QUANTUM_BOUND - _largest_combination(angles)


def quantum_verdicts(
    xs: np.ndarray, tolerance: float, angles: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """margin_Q of each row of `xs` and Q's verdict at `tolerance`; a
    caller that has `np.arcsin(xs)` passes it as `angles`."""
    xs = np.asarray(xs, dtype=float)
    margins = quantum_margins(xs) if angles is None else _arcsine_margins(angles)
    inside = margins >= -tolerance
    band = ~inside & (margins >= -tolerance - _SHIFT_BAND)
    if band.any():
        inside[band] = quantum_margins(xs[band] / _RAY_SHIFT) >= -tolerance
    return margins, inside


def mu_array(xs: np.ndarray) -> np.ndarray:
    """Component-wise (2/pi) * asin, mapping the quantum set onto the
    classical one.  Fixes 0 and +-1."""
    return (2.0 / np.pi) * np.arcsin(np.asarray(xs, dtype=float))


# ---------------------------------------------------------------------------
# scalar interface


@dataclass(frozen=True)
class MembershipReport:
    """Full record of one membership evaluation.

    `chsh_values` and `arcsine_values` list all eight combination values in
    the order of SIGN_PATTERNS.  Margins are bound minus largest value, so
    negative margins mean the vector is outside.  Membership verdicts embed
    the tolerance used at evaluation time.
    """

    in_classical: bool
    in_quantum: bool
    chsh_values: tuple[float, ...]
    arcsine_values: tuple[float, ...]
    classical_margin: float
    quantum_margin: float

    def to_json_dict(self) -> dict:
        return {
            "in_C": self.in_classical,
            "in_Q": self.in_quantum,
            "chsh_values": list(self.chsh_values),
            "f_values": list(self.arcsine_values),
            "margin_C": self.classical_margin,
            "margin_Q": self.quantum_margin,
        }


# Most rows per array membership pass over a long run (`sample`'s summary,
# the sampled checks); a pass's largest temporary, the (rows, 8) pattern
# sums, is then 0.5 MB
_PASS_ROWS = 8192


def _four_sums(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """Rows 0-3 of `_PATTERNS`, each summed left to right."""
    return (b - a + c + d, a - b + c + d, a + b - c + d, a + b + c - d)


def _pattern_sums(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """The eight combinations of `_PATTERNS`, bitwise the direct sums.

    Rows 4-7 negate rows 0-3 and IEEE rounding is symmetric, so `-v` agrees
    with the direct sum except at an exact zero: that sums to +0.0, which
    `0.0 - v` keeps and `-v` would turn into -0.0.
    """
    s0, s1, s2, s3 = _four_sums(a, b, c, d)
    return (s0, s1, s2, s3, 0.0 - s0, 0.0 - s1, 0.0 - s2, 0.0 - s3)


def quantum_verdict(
    comps: tuple[float, float, float, float], tolerance: float
) -> tuple[tuple[float, ...], float, bool]:
    """The eight arcsine combinations of the point `comps`, its margin_Q
    and Q's verdict."""
    a, b, c, d = comps
    values = _pattern_sums(math.asin(a), math.asin(b), math.asin(c), math.asin(d))
    margin = QUANTUM_BOUND - max(values)
    inside = margin >= -tolerance
    if not inside and margin >= -tolerance - _SHIFT_BAND:
        shifted = (math.asin(v / _RAY_SHIFT) for v in comps)
        inside = QUANTUM_BOUND - max(_pattern_sums(*shifted)) >= -tolerance
    return values, margin, inside


def evaluate(
    x: CorrelationVector, tolerance: float = DEFAULT_TOLERANCE
) -> MembershipReport:
    """Evaluate both membership systems and return the full report.

    Each system is four pattern sums, rows 0-3, with rows 4-7 taken as
    `0.0 - v` so that an exact zero stays +0.0 (`_pattern_sums`); the
    quantum values, margin and verdict are `quantum_verdict`'s.  The
    maxima of the eight-value systems are cross-checked against the single
    binding inequality of the canonical form; disagreement beyond 1e-9
    would indicate a library bug and raises InternalCheckError.
    """
    comps = x.as_tuple()
    chsh = _pattern_sums(*comps)
    fvals, quantum_margin, in_quantum = quantum_verdict(comps, tolerance)
    max_chsh = max(chsh)
    max_f = QUANTUM_BOUND - quantum_margin  # max(fvals) within an ulp of pi

    z = canonicalize(x).as_tuple()
    fast_chsh = z[0] + z[1] + z[2] - z[3]
    fast_f = (
        math.asin(z[0]) + math.asin(z[1]) + math.asin(z[2]) - math.asin(z[3])
    )
    if (
        abs(fast_chsh - max_chsh) > _CROSS_CHECK_TOLERANCE
        or abs(fast_f - max_f) > _CROSS_CHECK_TOLERANCE
    ):
        raise InternalCheckError(
            "canonical fast path disagrees with the eight-value system: "
            f"chsh {fast_chsh!r} vs {max_chsh!r}, arcsine {fast_f!r} vs {max_f!r}"
        )

    classical_margin = CLASSICAL_BOUND - max_chsh
    # every field is computed above, and the report has no checks to skip
    return _unchecked(
        MembershipReport,
        {
            "in_classical": classical_margin >= -tolerance,
            "in_quantum": in_quantum,
            "chsh_values": chsh,
            "arcsine_values": fvals,
            "classical_margin": classical_margin,
            "quantum_margin": quantum_margin,
        },
    )


def chsh_max(x: CorrelationVector) -> float:
    """Largest of the eight CHSH combination values."""
    return max(_pattern_sums(*x.as_tuple()))


def mu(x: CorrelationVector) -> CorrelationVector:
    """Apply the rescaled arcsine map component-wise."""
    scale = 2.0 / math.pi
    return CorrelationVector(
        scale * math.asin(x.x1),
        scale * math.asin(x.x2),
        scale * math.asin(x.x3),
        scale * math.asin(x.x4),
    )


def mu_inverse(y: CorrelationVector) -> CorrelationVector:
    """Invert `mu` component-wise."""
    half_pi = 0.5 * math.pi
    return CorrelationVector(
        math.sin(half_pi * y.x1),
        math.sin(half_pi * y.x2),
        math.sin(half_pi * y.x3),
        math.sin(half_pi * y.x4),
    )
