"""Explicit quantum realizations of correlation vectors.

A single generator G(phi1, phi2, phi3) is realized on a qubit pair: with
phases derived from the angles,

    phi   = pi/2 - phi1,
    alpha = phi3 + phi1 - pi,
    beta  = phi2 + phi1 - pi,

the state (|00> + e^{i phi} |11>)/sqrt(2) measured with the off-diagonal
observables

    A_a = e^{i a alpha} |0><1| + e^{-i a alpha} |1><0|   (a = 0, 1)

and B_b built the same way from beta yields <A_a B_b> = cos(phi + a alpha
+ b beta), which reproduces the generator's components.

Mixtures are realized block-diagonally: party observables are direct sums
of the per-term qubit observables and the state is the weighted direct sum
of the per-term pair states, placed on the matching diagonal blocks of the
tensor product.  A k-term mixture therefore uses local dimension 2k.

Everything is a plain numpy complex array.  Random strategy sampling uses
numpy's PCG64 generator with explicit per-index stream splitting: sample
`index` of a run with seed s draws from

    Generator(PCG64(SeedSequence((s mod 2**64, index)))),

consuming, in order, the joint state vector (all real parts, then all
imaginary parts) followed by, for each of A0, A1, B0, B1: a complex square
matrix (reals, then imaginaries) fed to QR for a Haar unitary, then one
integer draw per dimension for the +-1 eigenvalue pattern.  After the
draws, the algebra runs once over a block of at most `_SAMPLE_BLOCK`
indices, each step acting on every index alone through the same
per-matrix BLAS and LAPACK calls, so a row depends neither on its block,
chunk or worker count nor on sampling order; `sample_quantum` is the
block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import _chunk_ranges, _run_chunks
from .corrvec import CorrelationVector
from .errors import DimensionError, InvariantViolationError
from .geometry import Decomposition, GeneratorPoint, reduce_angle

_TRACE_TOLERANCE = 1e-12
_HERMITIAN_TOLERANCE = 1e-12
_INVOLUTION_TOLERANCE = 1e-12
_PSD_TOLERANCE = 1e-10
_IMAGINARY_TOLERANCE = 1e-10

MIN_LOCAL_DIMENSION = 2
MAX_LOCAL_DIMENSION = 8

# Indices per batched sampling kernel call; rows do not depend on it.
_SAMPLE_BLOCK = 32


@dataclass(frozen=True)
class PhaseParams:
    """State and observable phases realizing one generator."""

    phi: float
    alpha: float
    beta: float

    @classmethod
    def from_generator(cls, g: GeneratorPoint) -> "PhaseParams":
        return cls(
            phi=reduce_angle(0.5 * math.pi - g.phi1),
            alpha=reduce_angle(g.phi3 + g.phi1 - math.pi),
            beta=reduce_angle(g.phi2 + g.phi1 - math.pi),
        )

    def correlator(self, a: int, b: int) -> float:
        """<A_a B_b> for this phase assignment."""
        return math.cos(self.phi + a * self.alpha + b * self.beta)


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
        the first failed check."""
        dim_a, dim_b = self.dims
        joint = dim_a * dim_b
        if self.state.shape != (joint, joint):
            raise InvariantViolationError(
                f"check 'state-shape' failed: state is {self.state.shape}, "
                f"expected {(joint, joint)}"
            )
        for name, obs in (
            ("A0", self.a0),
            ("A1", self.a1),
            ("B0", self.b0),
            ("B1", self.b1),
        ):
            d = obs.shape[0]
            if obs.shape != (d, d):
                raise InvariantViolationError(
                    f"check 'observable-shape' failed for {name}"
                )
            if not np.all(np.isfinite(obs.view(float))):
                raise InvariantViolationError(
                    f"check 'observable-finite' failed for {name}"
                )
            if np.abs(obs - obs.conj().T).max() > _HERMITIAN_TOLERANCE:
                raise InvariantViolationError(
                    f"check 'observable-hermitian' failed for {name}"
                )
            square_residual = np.abs(obs @ obs - np.eye(d)).max()
            if square_residual > _INVOLUTION_TOLERANCE:
                raise InvariantViolationError(
                    f"check 'observable-involution' failed for {name}: "
                    f"|O^2 - I| = {square_residual:.3e}"
                )
        if not np.all(np.isfinite(self.state.view(float))):
            raise InvariantViolationError("check 'state-finite' failed")
        trace_residual = abs(np.trace(self.state) - 1.0)
        if trace_residual > _TRACE_TOLERANCE:
            raise InvariantViolationError(
                f"check 'state-trace' failed: |tr - 1| = {trace_residual:.3e}"
            )
        if np.abs(self.state - self.state.conj().T).max() > _HERMITIAN_TOLERANCE:
            raise InvariantViolationError("check 'state-hermitian' failed")
        smallest = float(np.linalg.eigvalsh(self.state)[0])
        if smallest < -_PSD_TOLERANCE:
            raise InvariantViolationError(
                "check 'state-positive' failed: smallest eigenvalue "
                f"{smallest:.3e} is below -{_PSD_TOLERANCE:g}"
            )

    def to_json_dict(self) -> dict:
        return {
            "state": _complex_matrix_to_json(self.state),
            "A0": _complex_matrix_to_json(self.a0),
            "A1": _complex_matrix_to_json(self.a1),
            "B0": _complex_matrix_to_json(self.b0),
            "B1": _complex_matrix_to_json(self.b1),
            "dims": list(self.dims),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Realization":
        try:
            realization = cls(
                state=_complex_matrix_from_json(data["state"]),
                a0=_complex_matrix_from_json(data["A0"]),
                a1=_complex_matrix_from_json(data["A1"]),
                b0=_complex_matrix_from_json(data["B0"]),
                b1=_complex_matrix_from_json(data["B1"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvariantViolationError(
                f"check 'serialization' failed: {exc}"
            ) from exc
        dims = data.get("dims")
        if dims is not None and tuple(dims) != realization.dims:
            raise InvariantViolationError(
                f"check 'dims' failed: declared {dims}, matrices give "
                f"{realization.dims}"
            )
        return realization


def _complex_matrix_to_json(matrix: np.ndarray) -> list:
    # row-major nesting, each entry as [re, im]
    return [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in matrix
    ]


def _complex_matrix_from_json(data: list) -> np.ndarray:
    rows = []
    for row in data:
        rows.append([complex(entry[0], entry[1]) for entry in row])
    matrix = np.array(rows, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("matrix JSON must be a nested list of [re, im] pairs")
    return matrix


def _phase_observable(theta: float) -> np.ndarray:
    return np.array(
        [[0.0, np.exp(1j * theta)], [np.exp(-1j * theta), 0.0]], dtype=complex
    )


def realize_generator(g: GeneratorPoint) -> Realization:
    """Two-qubit realization of a single generator."""
    params = PhaseParams.from_generator(g)
    amplitude = 1.0 / math.sqrt(2.0)
    psi = np.zeros(4, dtype=complex)
    psi[0] = amplitude
    psi[3] = amplitude * np.exp(1j * params.phi)
    return Realization(
        state=np.outer(psi, psi.conj()),
        a0=_phase_observable(0.0),
        a1=_phase_observable(params.alpha),
        b0=_phase_observable(0.0),
        b1=_phase_observable(params.beta),
    )


def realize_mixture(decomposition: Decomposition) -> Realization:
    """Block-diagonal realization of a generator mixture.

    Party dimension is 2 * (number of terms); a single term gives exactly
    `realize_generator` of that term.
    """
    terms = decomposition.terms
    count = len(terms)
    local = 2 * count
    a0 = np.zeros((local, local), dtype=complex)
    a1 = np.zeros((local, local), dtype=complex)
    b0 = np.zeros((local, local), dtype=complex)
    b1 = np.zeros((local, local), dtype=complex)
    # state indexed as rho[i, j, k, l] = <i j| rho |k l>
    state = np.zeros((local, local, local, local), dtype=complex)

    for k, (weight, generator) in enumerate(terms):
        block = realize_generator(generator)
        rows = slice(2 * k, 2 * k + 2)
        a0[rows, rows] = block.a0
        a1[rows, rows] = block.a1
        b0[rows, rows] = block.b0
        b1[rows, rows] = block.b1
        # the pair state of term k lives on the span of |2k+i, 2k+j>
        state[rows, rows, rows, rows] = weight * block.state.reshape(2, 2, 2, 2)

    return Realization(
        state=state.reshape(local * local, local * local),
        a0=a0, a1=a1, b0=b0, b1=b1,
    )


def expectation(
    realization: Realization, *, validate: bool = True
) -> CorrelationVector:
    """Correlation vector tr(rho (A_a x B_b)) of a realization.

    Validates the realization invariants first (skippable for callers that
    just built a trusted one).  Each trace must be real within 1e-10; the
    real parts are clamped to [-1, 1].
    """
    if validate:
        realization.validate()
    dim_a, dim_b = realization.dims
    rho = realization.state.reshape(dim_a, dim_b, dim_a, dim_b)
    a_obs = np.stack((realization.a0, realization.a1))
    b_obs = np.stack((realization.b0, realization.b1))
    # tr(rho (A_a x B_b)) = sum rho[(i,j),(k,l)] A_a[k,i] B_b[l,j]
    values = np.einsum("ijkl,aki,blj->ab", rho, a_obs, b_obs).ravel()
    worst = int(np.argmax(np.abs(values.imag)))
    residue = float(values.imag[worst])
    if abs(residue) > _IMAGINARY_TOLERANCE:
        raise InvariantViolationError(
            f"check 'expectation-real' failed: correlator x{worst + 1} "
            f"(A{worst // 2} B{worst % 2}) has imaginary residue "
            f"{residue:.3e}"
        )
    return CorrelationVector(*np.clip(values.real, -1.0, 1.0).tolist())


def _check_dims(dim_a: int, dim_b: int) -> None:
    for name, dim in (("dim_a", dim_a), ("dim_b", dim_b)):
        if not MIN_LOCAL_DIMENSION <= dim <= MAX_LOCAL_DIMENSION:
            raise DimensionError(
                f"{name} = {dim} outside supported range "
                f"[{MIN_LOCAL_DIMENSION}, {MAX_LOCAL_DIMENSION}]"
            )


def _haar_observables(raw: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """U diag(1 - 2 bits) U^dagger per index, U the phase-fixed QR unitary
    of the complex Gaussian matrix raw[:, 0] + i raw[:, 1]."""
    q, r = np.linalg.qr(raw[:, 0] + 1j * raw[:, 1])
    diagonal = np.diagonal(r, axis1=1, axis2=2)[:, None, :]
    # fix the QR phase ambiguity so the unitary is Haar distributed
    unitary = q * (diagonal / np.abs(diagonal))
    signed = unitary * (1.0 - 2.0 * bits[:, None, :])
    observable = signed @ unitary.conj().swapaxes(1, 2)
    return 0.5 * (observable + observable.conj().swapaxes(1, 2))


def _sample_block(
    dim_a: int, dim_b: int, seed: int, start: int, stop: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """States (n, dim_a * dim_b), observables (A0, A1, B0, B1), each
    (n, d, d), and correlation rows (n, 4) of indices start..stop-1."""
    n, joint = stop - start, dim_a * dim_b
    dims = (dim_a, dim_a, dim_b, dim_b)
    state = np.empty((n, 2, joint))
    raws = [np.empty((n, 2, d, d)) for d in dims]
    bits = [np.empty((n, d)) for d in dims]
    for k in range(n):  # each index draws from its own stream, in order
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed % 2**64, start + k)))
        )
        rng.standard_normal(out=state[k].reshape(-1))
        for raw, pattern_bits, d in zip(raws, bits, dims):
            rng.standard_normal(out=raw[k].reshape(-1))
            pattern_bits[k] = rng.integers(0, 2, size=d)
    # each step below acts on every index alone, so rows do not depend on n
    psi = state[:, 0] + 1j * state[:, 1]
    re, im = psi.real[:, None], psi.imag[:, None]
    # the strided dot products np.linalg.norm forms for one complex vector
    psi /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
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
    docstring for the exact stream layout.
    """
    _check_dims(dim_a, dim_b)
    psi, observables, values = _sample_block(dim_a, dim_b, seed, index, index + 1)
    state = np.outer(psi[0], psi[0].conj())
    realization = Realization(state, *(obs[0] for obs in observables))
    return CorrelationVector(*values[0].tolist()), realization


def _sample_chunk(args: tuple[int, int, int, int, int]) -> np.ndarray:
    start, stop, dim_a, dim_b, seed = args
    out = np.empty((stop - start, 4))
    for low in range(start, stop, _SAMPLE_BLOCK):
        high = min(low + _SAMPLE_BLOCK, stop)
        out[low - start:high - start] = _sample_block(
            dim_a, dim_b, seed, low, high
        )[2]
    return out


def sample_correlations(
    count: int,
    dim_a: int = 2,
    dim_b: int = 2,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Correlation vectors of `count` random strategies, shape (count, 4).

    Row i equals sample_quantum(dim_a, dim_b, seed, index=i)[0]; per-index
    seed splitting makes the result independent of `workers`.
    """
    _check_dims(dim_a, dim_b)
    if count < 0:
        raise DimensionError(f"count must be nonnegative, got {count}")
    args = [
        (start, stop, dim_a, dim_b, seed)
        for start, stop in _chunk_ranges(count, workers)
    ]
    return np.concatenate(_run_chunks(_sample_chunk, args, workers), axis=0)
