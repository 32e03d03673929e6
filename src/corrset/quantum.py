"""Explicit quantum realizations of correlation vectors.

Every member x = (<A0 B0>, <A0 B1>, <A1 B0>, <A1 B1>) of the quantum set
is realized on one maximally entangled qubit pair.  By Tsirelson's theorem
(Lett. Math. Phys. 4, 93, 1980) x_ab = u_a . v_b for unit vectors u_a, v_b
in R^3, and Landau's condition (Found. Phys. 18, 449, 1988), which cuts out
the same set as the arcsine inequality, gives them in closed form (see
`realize_mixture`).  On the state

    |psi> = (H x I)|Phi+> = (|00> + |01> + |10> - |11>)/2,

whose diagonal holds no zero, the observables

    A_a = H (u_a . sigma) H,    B_b = (v_b . sigma)^T

give <A_a B_b> = <Phi+| (u_a . sigma) x (v_b . sigma)^T |Phi+> = u_a . v_b.
A generator mixture is realized through the vector it reconstructs, so a
realization shows the mixture's correlations, not its terms; the
decomposition shows those.

Everything is a plain numpy complex array.  Random strategy sampling uses
numpy's PCG64 generator with explicit per-index stream splitting: sample
`index` of a run with seed s draws from

    Generator(PCG64(SeedSequence((s mod 2**64, index)))),

consuming, in order, the joint state vector (all real parts, then all
imaginary parts) followed by, for each of A0, A1, B0, B1: a complex square
matrix (reals, then imaginaries) fed to QR, then one integer draw per
dimension for the +-1 eigenvalue pattern p, `integers(0, 2, size=d)`.  The
observable is Q diag(p) Q^dagger, Q the QR unitary: the Haar unitary QD, D
the diagonal phase fix, gives the same matrix, as D commutes with diag(p).

The draws reproduce those calls bit for bit without building a generator
per index.  SeedSequence's hash (mix_entropy, then generate_state(4,
uint64)) runs on the 32-bit entropy words of every index of a block at
once, and PCG64's seeding (pcg_setseq_128_srandom_r) turns each result
into an internal (state, inc), loaded into one PCG64 through `.state`.
The state and A0's matrix are one `standard_normal` call, since they are
consecutive in the stream.  Each pattern comes from `random_raw` words.
This relies on numpy behaviours that the tests check against numpy's own
calls: an int seeds as its 32-bit words, low word first, 0 as one word;
`standard_normal` fills its output in order from whole 64-bit words; and
`integers(0, 2)` on int64 is Lemire's method on 32-bit halves with
threshold 0, so each bit is the top bit of a half, low half first.  An odd
d leaves the high half of a word unused; the next pattern begins with it,
as PCG64 keeps it across the normal draws between.  After the draws, the
algebra runs once per block, the indices whose normals fit in
`_SAMPLE_BLOCK_BYTES`, which bounds a block's memory at any dims.  Each
step acts on every index alone, by row reductions and per-matrix BLAS and
LAPACK calls, so a row depends neither on its block, chunk or worker count
nor on sampling order; `sample_quantum` is the block of one.  The draws
and that independence are fixed across versions; the floats of the rows,
which the algebra rounds, are pinned per version.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .corrvec import CorrelationVector, _unchecked
from .errors import DimensionError, DomainError, InvariantViolationError
from .geometry import Decomposition

_TRACE_TOLERANCE = 1e-12
_HERMITIAN_TOLERANCE = 1e-12
_INVOLUTION_TOLERANCE = 1e-12
_PSD_TOLERANCE = 1e-10
_IMAGINARY_TOLERANCE = 1e-10

MIN_LOCAL_DIMENSION = 2
MAX_LOCAL_DIMENSION = 8
_IDENTITIES = tuple(map(np.eye, range(MAX_LOCAL_DIMENSION + 1)))  # d x d at d

# Bytes of float64 normals per batched sampling kernel call.  Each call has
# a fixed cost, so blocks are large; the cap is in bytes, as the best index
# count depends on the dims.  Rows do not depend on it.
_SAMPLE_BLOCK_BYTES = 2**20

# |psi><psi| for |psi> = (H x I)|Phi+> = (|00> + |01> + |10> - |11>)/2
_PAIR_STATE = 0.25 * np.outer((1, 1, 1, -1), (1, 1, 1, -1)).astype(complex)


@dataclass(frozen=True, eq=False)
class Realization:
    """Concrete state and observables reproducing a correlation vector.

    `state` is a density matrix on the joint space of dimension
    dim_a * dim_b; `a0`, `a1`, `b0`, `b1` are the party observables.
    Invariants (checked by `validate`): the state is Hermitian, unit trace
    and positive semidefinite within 1e-10; every observable is Hermitian
    and squares to the identity within 1e-12.
    """

    state: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return (self.a0.shape[0], self.b0.shape[0])

    def validate(self) -> None:
        """Run all invariant checks; raise InvariantViolationError naming
        the first failed check.

        Each party's two observables must share one (d, d) shape, checked
        first, then the state's shape.  The observables form one (4, d, d)
        stack when both parties share d, as in every realization
        `realize_mixture` builds, else one stack per party, and one pass
        takes the stack's largest |O - O^dagger| and |O^2 - I|.  A NaN or
        inf fails one of those bounds, so only a failing stack is tested for
        finiteness and reduced per observable, to name the first failing
        one (A0, A1, B0, B1) and its first failed check (finite, Hermitian,
        involution).  The state's |tr - 1| and largest |rho - rho^dagger|
        work alike: only when one fails is the state tested for being
        finite, then of unit trace, then Hermitian.  PSD comes last.
        """
        names = ("A0", "A1", "B0", "B1")
        observables = (self.a0, self.a1, self.b0, self.b1)
        dim_a, dim_b = self.dims
        for name, obs, d in zip(names, observables, (dim_a, dim_a, dim_b, dim_b)):
            if obs.shape != (d, d):
                raise InvariantViolationError(
                    f"check 'observable-shape' failed for {name}"
                )
        joint = dim_a * dim_b
        if self.state.shape != (joint, joint):
            raise InvariantViolationError(
                f"check 'state-shape' failed: state is {self.state.shape}, "
                f"expected {(joint, joint)}"
            )
        parts = [slice(0, 4)] if dim_a == dim_b else [slice(0, 2), slice(2, 4)]
        state = self.state
        with np.errstate(invalid="ignore"):  # NaN and inf fail the bounds below
            for part in parts:
                stack = np.array(observables[part])
                d = stack.shape[1]
                eye = _IDENTITIES[d] if d <= MAX_LOCAL_DIMENSION else np.eye(d)
                skew = np.abs(stack - stack.conj().swapaxes(1, 2))
                residual = np.abs(stack @ stack - eye)
                if (
                    skew.max() <= _HERMITIAN_TOLERANCE
                    and residual.max() <= _INVOLUTION_TOLERANCE
                ):
                    continue
                skew, residual = skew.max(axis=(1, 2)), residual.max(axis=(1, 2))
                passed = [np.isfinite(stack).all(axis=(1, 2))]
                passed += [skew <= _HERMITIAN_TOLERANCE]
                passed += [residual <= _INVOLUTION_TOLERANCE]
                # rows are observables and columns checks, so the first
                # failure in row-major order is the one the message names
                k, j = np.argwhere(~np.column_stack(passed))[0]
                detail = f": |O^2 - I| = {residual[k]:.3e}" if j == 2 else ""
                check = ("finite", "hermitian", "involution")[j]
                raise InvariantViolationError(
                    f"check 'observable-{check}' failed for {names[part][k]}{detail}"
                )
            trace_residual = abs(state.trace() - 1.0)
            skew = np.abs(state - state.conj().T).max()
        if not (trace_residual <= _TRACE_TOLERANCE and skew <= _HERMITIAN_TOLERANCE):
            if not np.isfinite(state).all():
                raise InvariantViolationError("check 'state-finite' failed")
            if trace_residual > _TRACE_TOLERANCE:
                raise InvariantViolationError(
                    f"check 'state-trace' failed: |tr - 1| = {trace_residual:.3e}"
                )
            raise InvariantViolationError("check 'state-hermitian' failed")
        smallest = float(np.linalg.eigvalsh(state)[0])
        if smallest < -_PSD_TOLERANCE:
            raise InvariantViolationError(
                "check 'state-positive' failed: smallest eigenvalue "
                f"{smallest:.3e} is below -{_PSD_TOLERANCE:g}"
            )

    def to_json_dict(self) -> dict:
        fields = _JSON_FIELDS.items()
        matrices = {key: _complex_matrix_to_json(getattr(self, f)) for key, f in fields}
        return {**matrices, "dims": list(self.dims)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Realization":
        if not isinstance(data, dict):
            raise InvariantViolationError(
                "check 'serialization' failed: expected a JSON object with keys "
                f"{', '.join(_JSON_FIELDS)}, got {type(data).__name__}"
            )
        try:
            fields = _JSON_FIELDS.items()
            realization = cls(
                **{f: _complex_matrix_from_json(key, data[key]) for key, f in fields}
            )
        except KeyError as exc:
            raise InvariantViolationError(
                f"check 'serialization' failed: missing key {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise InvariantViolationError(
                f"check 'serialization' failed: {exc}"
            ) from exc
        dims = data.get("dims")
        if dims is not None and (
            not isinstance(dims, list) or tuple(dims) != realization.dims
        ):
            raise InvariantViolationError(
                f"check 'dims' failed: declared {dims}, matrices give "
                f"{realization.dims}"
            )
        return realization


# JSON key of each field, in the order the JSON lists them
_JSON_FIELDS = {"state": "state", "A0": "a0", "A1": "a1", "B0": "b0", "B1": "b1"}


def _complex_matrix_to_json(matrix: np.ndarray) -> list:
    # row-major nesting, each entry as [re, im]
    return [[[float(e.real), float(e.imag)] for e in row] for row in matrix]


def _complex_matrix_from_json(key: str, data: list) -> np.ndarray:
    # an error names the key and, as in A0[0][1], the row and entry
    rows, where = [], key
    try:
        for i, row in enumerate(data):
            rows.append([])
            where = f"{key}[{i}]"
            for j, entry in enumerate(row):
                where = f"{key}[{i}][{j}]"
                re, im = entry  # refuses an entry that is not two values
                if isinstance(re, bool) or isinstance(im, bool):
                    raise TypeError(f"a boolean is not a number: {entry!r}")
                rows[-1].append(complex(re, im))
        where = key
        matrix = np.array(rows, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    if matrix.ndim != 2:
        raise ValueError(f"{key}: matrix JSON must be a nested list of [re, im] pairs")
    return matrix


def realize_mixture(decomposition: Decomposition) -> Realization:
    """Qubit-pair realization of the vector x a generator mixture
    reconstructs.

    Tsirelson's vectors come from Landau's condition.  Let I12 = [x1 x2 -
    r12, x1 x2 + r12] with r12 = sqrt((1 - x1^2)(1 - x2^2)), the values of
    v0 . v1 that unit vectors with u0 . v0 = x1 and u0 . v1 = x2 allow, and
    I34 likewise from x3 and x4; the two meet exactly on Q.  With c the
    midpoint of I12 & I34 & [-1, 1] and s = sqrt(1 - c^2),

        v0 = (1, 0, 0),  v1 = (c, s, 0),
        u0 = (x1, t0, sqrt(1 - x1^2 - t0^2)),  t0 = (x2 - x1 c) / s,

    and u1 likewise from x3 and x4, with t = 0 when s = 0.  On the boundary
    of Q rounding can push |t0| past sqrt(1 - x1^2) by about 1e-16 / s, so
    t0 is clipped there, which keeps u0 a unit vector and moves u0 . v1 by
    about 1e-16; the square root's argument is clipped at 0.
    """
    x1, x2, x3, x4 = decomposition.reconstruct().as_tuple()
    r12 = math.sqrt((1.0 - x1 * x1) * (1.0 - x2 * x2))
    r34 = math.sqrt((1.0 - x3 * x3) * (1.0 - x4 * x4))
    low = max(x1 * x2 - r12, x3 * x4 - r34, -1.0)
    high = min(x1 * x2 + r12, x3 * x4 + r34, 1.0)
    c = 0.5 * (low + high)
    s = math.sqrt(1.0 - c * c)
    # the four 2x2 observables' entries in row-major order, each as re, im
    parts = []
    for p, q in ((x1, x2), (x3, x4)):
        bound = math.sqrt(1.0 - p * p)
        t = min(bound, max(-bound, (q - p * c) / s)) if s else 0.0
        w = math.sqrt(max(1.0 - p * p - t * t, 0.0))
        # H (u . sigma) H = u1 Z - u2 Y + u3 X
        parts += (p, 0.0, w, t, w, -t, -p, 0.0)
    # (v . sigma)^T = v1 X - v2 Y for v = e1 and (c, s, 0)
    parts += (0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, c, s, c, -s, 0.0, 0.0)
    fields = (_PAIR_STATE.copy(), *np.array(parts).view(complex).reshape(4, 2, 2))
    # Realization has no __post_init__: this only skips the frozen __init__
    return _unchecked(Realization, zip(_JSON_FIELDS.values(), fields))


def expectation(
    realization: Realization, *, validate: bool = True
) -> CorrelationVector:
    """Correlation vector tr(rho (A_a x B_b)) of a realization.

    Validates the realization invariants first (skippable for callers that
    just built a trusted one).  Each trace must be real within 1e-10; the
    real parts go through `CorrelationVector.validate` at tolerance inf,
    which clamps them to [-1, 1] and refuses a NaN or infinite one with
    NonFiniteInputError.
    """
    if validate:
        realization.validate()
    dim_a, dim_b = realization.dims
    rho = realization.state.reshape(dim_a, dim_b, dim_a, dim_b)
    a_obs = np.array((realization.a0, realization.a1))
    b_obs = np.array((realization.b0, realization.b1))
    # tr(rho (A_a x B_b)) = sum rho[(i,j),(k,l)] A_a[k,i] B_b[l,j]
    values = np.einsum("ijkl,aki,blj->ab", rho, a_obs, b_obs).ravel()
    imaginary = np.abs(values.imag)
    if imaginary.max() > _IMAGINARY_TOLERANCE:
        worst = int(np.argmax(imaginary))
        raise InvariantViolationError(
            f"check 'expectation-real' failed: correlator x{worst + 1} "
            f"(A{worst // 2} B{worst % 2}) has imaginary residue "
            f"{values.imag[worst]:.3e}"
        )
    return CorrelationVector.validate(values.real.tolist(), math.inf)


def _check_dims(dim_a: int, dim_b: int) -> None:
    for name, dim in (("dim_a", dim_a), ("dim_b", dim_b)):
        if not MIN_LOCAL_DIMENSION <= dim <= MAX_LOCAL_DIMENSION:
            raise DimensionError(
                f"{name} = {dim} outside supported range "
                f"[{MIN_LOCAL_DIMENSION}, {MAX_LOCAL_DIMENSION}]"
            )


def _haar_observables(raw: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Q diag(1 - 2 bits) Q^dagger per index, Q the QR unitary of the
    complex Gaussian matrix raw[:, 0] + i raw[:, 1], whose phase it drops."""
    q = np.linalg.qr(raw[:, 0] + 1j * raw[:, 1])[0]
    return (q * (1.0 - 2.0 * bits[:, None, :])) @ q.conj().swapaxes(1, 2)


# numpy's SeedSequence hash, after O'Neill's seed_seq_fe: hashing step k
# xors a word with INIT * MULT**k and multiplies it by INIT * MULT**(k + 1),
# and a pool word x takes in a hashed y as MIX_L x - MIX_R y; each result
# is then xored with itself shifted right by 16
_HASH_A = (0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A of mix_entropy
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_steps(init: int, mult: int, first: int, count: int):
    """The xor and multiply constants of hashing steps first..first+count-1,
    each a (count, 1) uint32 array."""
    c = [init * pow(mult, k, 2**32) % 2**32 for k in range(first, first + count + 1)]
    c = np.array(c, np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashmix(values: np.ndarray, steps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    values = (values ^ steps[0]) * steps[1]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = _MIX_L * x - _MIX_R * y
    return values ^ (values >> 16)


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a nonnegative int, low word first."""
    return [value >> s & 0xFFFFFFFF for s in range(0, max(value.bit_length(), 1), 32)]


_POOL_STEPS = _hash_steps(*_HASH_A, 0, 4)
# steps 4 + 3 src, +1, +2 hash pool[src] into the other pool words in
# order; row src, which keeps its word, gets placeholder constants
_CROSS_STEPS = [
    tuple(np.insert(c, src, 0, axis=0) for c in _hash_steps(*_HASH_A, 4 + 3 * src, 3))
    for src in range(4)
]
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 0, 8)  # INIT_B, MULT_B


def _stream_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The (state, inc) of PCG64(SeedSequence((seed mod 2**64, i))) for i in
    start..stop-1: SeedSequence's mix_entropy and generate_state(4, uint64)
    on every index at once, then pcg_setseq_128_srandom_r on each."""
    seed_words = _uint32_words(seed % 2**64)
    states = []
    low = start
    while low < stop:  # only word 0 of an index varies within 2**32-aligned runs
        high = min(stop, (low | 0xFFFFFFFF) + 1)
        words = seed_words + _uint32_words(low)
        entropy = np.zeros((max(len(words), 4), high - low), np.uint32)
        entropy[: len(words)] = np.array(words, np.uint32)[:, None]
        entropy[len(seed_words)] += np.arange(high - low, dtype=np.uint32)
        pool = _hashmix(entropy[:4], _POOL_STEPS)
        for src, steps in enumerate(_CROSS_STEPS):
            mixed = _mix(pool, _hashmix(pool[src], steps))
            mixed[src] = pool[src]
            pool = mixed
        for src in range(4, len(words)):  # entropy words past the pool's four
            pool = _mix(pool, _hashmix(entropy[src], _hash_steps(*_HASH_A, 4 * src, 4)))
        halves = _hashmix(np.concatenate((pool, pool)), _STATE_STEPS).astype(np.uint64)
        for s0, s1, i0, i1 in (halves[::2] | halves[1::2] << 32).T.tolist():
            inc = (i0 << 65 | i1 << 1 | 1) % 2**128
            state = ((s0 << 64 | s1) + inc) * _PCG_MULTIPLIER + inc
            states.append((state % 2**128, inc))
        low = high
    return states


def _sample_draws(
    dim_a: int, dim_b: int, seed: int, start: int, stop: int
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The documented draws of indices start..stop-1: state normals (n, 2,
    dim_a * dim_b), then per observable its matrix normals (n, 2, d, d) and
    its 0/1 pattern (n, d)."""
    n, joint = stop - start, dim_a * dim_b
    dims = (dim_a, dim_a, dim_b, dim_b)
    sizes = [2 * joint] + [2 * d * d for d in dims]
    # the state and A0's matrix are one draw; each pattern then takes the
    # raw words holding its bits, counted in 32-bit halves across patterns
    words_used = (np.cumsum(dims) + 1) // 2
    draws = list(
        zip([sizes[0] + sizes[1]] + sizes[2:], np.diff(words_used, prepend=0).tolist())
    )
    bit_generator = np.random.PCG64(0)  # reseeded for every index below
    rng = np.random.Generator(bit_generator)
    normals, words = [], []
    for state, inc in _stream_states(seed, start, stop):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for size, count in draws:
            normals.append(rng.standard_normal(size))
            words.append(bit_generator.random_raw(count))
    state, *raws = np.split(
        np.concatenate(normals).reshape(n, -1), np.cumsum(sizes[:-1]), axis=1
    )
    # integers(0, 2) is the top bit of a 32-bit half, low half first
    halves = np.concatenate(words).astype("<u8").view("<u4").reshape(n, -1)
    return (
        state.reshape(n, 2, joint),
        [raw.reshape(n, 2, d, d) for raw, d in zip(raws, dims)],
        np.split(halves >> 31, np.cumsum(dims[:-1]), axis=1),
    )


def _sample_block(
    dim_a: int, dim_b: int, seed: int, start: int, stop: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """Unit states (n, dim_a * dim_b), observables (A0, A1, B0, B1), each
    (n, d, d), and correlation rows (n, 4) of indices start..stop-1."""
    n, joint = stop - start, dim_a * dim_b
    state, raws, bits = _sample_draws(dim_a, dim_b, seed, start, stop)
    # each step below acts on every index alone, so rows do not depend on n
    psi = state[:, 0] + 1j * state[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    a0, a1, b0, b1 = observables = tuple(map(_haar_observables, raws, bits))
    b_t = np.stack((b0, b1), axis=1).swapaxes(2, 3)[:, None]
    # vdot(M, A_a M B_b^T) for (a, b) = (0, 0), (0, 1), (1, 0), (1, 1)
    matrix = psi.reshape(n, 1, dim_a, dim_b)
    products = (np.stack((a0, a1), axis=1) @ matrix)[:, :, None] @ b_t
    values = psi.conj()[:, None, None, None] @ products.reshape(n, 2, 2, joint, 1)
    return psi, observables, np.clip(values.reshape(n, 4).real, -1.0, 1.0)


def sample_quantum(
    dim_a: int = 2, dim_b: int = 2, seed: int = 0, index: int = 0
) -> tuple[CorrelationVector, Realization]:
    """Draw one random quantum strategy and its correlation vector.

    The state is a Haar-like random pure state (normalized complex
    Gaussian); observables conjugate random +-1 eigenvalue patterns by
    Haar unitaries.  Deterministic in (seed, index); see the module
    docstring for the exact stream layout.  `seed` and `index` are
    integers, numpy's included (a float raises TypeError); a negative
    index raises DomainError.
    """
    _check_dims(dim_a, dim_b)
    seed = operator.index(seed)
    index = operator.index(index)
    if index < 0:
        raise DomainError(f"sample index must be nonnegative, got {index}")
    psi, observables, values = _sample_block(dim_a, dim_b, seed, index, index + 1)
    state = np.outer(psi[0], psi[0].conj())
    realization = Realization(state, *(obs[0] for obs in observables))
    return CorrelationVector(*values[0].tolist()), realization


def _sample_block_size(dim_a: int, dim_b: int) -> int:
    """Indices per kernel call: their state and matrix normals take 16 bytes
    per complex entry (3276 indices at 2x2, 524 at 5x5, 204 at 8x8)."""
    per_index = 16 * (dim_a * dim_b + 2 * dim_a * dim_a + 2 * dim_b * dim_b)
    return max(1, _SAMPLE_BLOCK_BYTES // per_index)


def _sample_chunk(args: tuple[int, int, int, int, int, int]) -> np.ndarray:
    start, stop, dim_a, dim_b, seed, block = args
    out = np.empty((stop - start, 4))
    for low in range(start, stop, block):
        high = min(low + block, stop)
        out[low - start:high - start] = _sample_block(
            dim_a, dim_b, seed, low, high
        )[2]
    return out


def _chunk_ranges(size: int, workers: int, block: int) -> list[tuple[int, int]]:
    """Split range(size) into contiguous (start, stop) pieces whose sizes
    differ by at most 1: one per worker when each gets at least one kernel
    block of `block` indices, else one, as a pool costs more than it saves."""
    pieces = workers if workers > 1 and size >= block * workers else 1
    cuts = [size * k // pieces for k in range(pieces + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_chunks(func, args: list, workers: int) -> list:
    """func over args, in order; in a pool of processes when there is more
    than one chunk.  The pool holds no more processes than `workers`, the
    chunks or the host's CPUs, since a fork pool starts all of them at
    once.  func must be picklable by name."""
    if len(args) <= 1:
        return [func(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    size = min(workers, len(args), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(func, args))


def sample_correlations(
    count: int,
    dim_a: int = 2,
    dim_b: int = 2,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Correlation vectors of `count` random strategies, shape (count, 4).

    Row i equals sample_quantum(dim_a, dim_b, seed, index=i)[0]; per-index
    seed splitting makes the result independent of `workers`.  `seed` is
    an integer, numpy's included; a float raises TypeError.
    """
    _check_dims(dim_a, dim_b)
    seed = operator.index(seed)
    if count < 0:
        raise DimensionError(f"count must be nonnegative, got {count}")
    if 32 * count > np.iinfo(np.intp).max:  # bytes of the float64 rows
        raise DimensionError(f"count {count} is too large: numpy cannot size its rows")
    block = _sample_block_size(dim_a, dim_b)
    args = [
        (start, stop, dim_a, dim_b, seed, block)
        for start, stop in _chunk_ranges(count, workers, block)
    ]
    chunks = _run_chunks(_sample_chunk, args, workers)
    # concatenate would copy a lone chunk and double the peak
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)
