"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs one operation on
input `k` of a fixed-size round, and hands its outputs to the oracles in
`oracles.py`.  The program's functions are looked up through their
modules at call time (`membership.evaluate`, `cli.main`, ...), so the
traced run can wrap them without touching the program's source.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math

import numpy as np

from corrset import cli, geometry, membership, quantum
from corrset.corrvec import CorrelationVector

import oracles

# Inputs of the construct workload that exercise a known fault of
# `geometry.decompose`; they are drawn from this constant, never from the
# run's seed, so the same ops fail on every run.
CORNER_SEED = 20031
CORNER_COUNT = 16
CORNER_EXCESS = (1e-8, 1e-6)
# Seeded curved-boundary exits keep at least this excess of the arcsine sum
# at the face point over pi; closer rays belong to the fixed corner slice.
CURVED_MIN_EXCESS = 1e-2
SAMPLE_ROWS = 100
# Every other sample op is 2x2: only about 0.3% of random 2x2 strategies
# exceed the classical bound 2, so a round holds 4200 2x2 rows to make the
# oracle's "some row exceeds 2" hold on every seed (miss chance ~3e-6).
SAMPLE_DIMS = ((3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (3, 5))
SAMPLE_REPEATS = 6


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _signed_permutations() -> np.ndarray:
    """The 192 signed permutations with an even number of sign flips, as
    4x4 matrices."""
    masks = [m for m in itertools.product((1.0, -1.0), repeat=4) if np.prod(m) > 0]
    mats = []
    for perm in itertools.permutations(range(4)):
        for mask in masks:
            m = np.zeros((4, 4))
            m[range(4), perm] = mask
            mats.append(m)
    return np.array(mats)


def _apply_random_symmetry(rng: np.random.Generator, xs: np.ndarray) -> np.ndarray:
    group = _signed_permutations()
    ops = group[rng.integers(0, len(group), size=len(xs))]
    return np.einsum("nij,nj->ni", ops, xs)


def _boundary_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Points of the curved quantum boundary in sorted position: angles
    t1 >= t2 >= t3 in [0, pi/2] with t4 = t1 + t2 + t3 - pi and |t4| <= t3,
    so that t1 + t2 + t3 - t4 = pi exactly."""
    found = []
    while sum(len(f) for f in found) < count:
        t = -np.sort(-rng.uniform(0.0, 0.5 * np.pi, size=(4 * count, 3)), axis=1)
        t4 = t.sum(axis=1) - np.pi
        keep = np.abs(t4) <= t[:, 2]
        found.append(np.sin(np.column_stack([t[keep], t4[keep]])))
    return np.concatenate(found)[:count]


def _face_excess(xs: np.ndarray) -> np.ndarray:
    """Arcsine sum minus pi at the point where the ray through x meets the
    box face: positive when the ray leaves the quantum set through the
    curved boundary, nonpositive when it leaves through the face."""
    mags = -np.sort(-np.abs(xs), axis=1)
    sign = np.prod(np.sign(xs), axis=1)
    z = mags / mags[:, :1]
    z[:, 3] *= sign
    return (
        0.5 * np.pi
        + np.arcsin(z[:, 1])
        + np.arcsin(z[:, 2])
        - np.arcsin(z[:, 3])
        - np.pi
    )


def corner_hugging_members() -> np.ndarray:
    """Interior quantum-set members whose ray leaves the curved boundary
    within 1e-8..1e-6 of the face x1 = 1 (measured on the arcsine sum of
    the face point minus pi), scaled into the interior and moved by a
    signed permutation.  Independent of any run seed."""
    rng = np.random.default_rng(CORNER_SEED)
    rows = []
    while len(rows) < CORNER_COUNT:
        excess = math.exp(rng.uniform(*np.log(CORNER_EXCESS)))
        t2, t3 = sorted(rng.uniform(0.0, 0.5 * np.pi, size=2), reverse=True)
        t4 = t2 + t3 - 0.5 * np.pi - excess
        if abs(t4) > t3:
            continue
        face_point = np.array([1.0, math.sin(t2), math.sin(t3), math.sin(t4)])
        rows.append(rng.uniform(0.3, 0.95) * face_point)
    return _apply_random_symmetry(rng, np.array(rows))


def _capture(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def warm_up(name: str) -> None:
    """The program's own warm-up before the first timed op: first calls
    into the code paths the workload uses, on fixed inputs."""
    if name == "classify":
        for raw in ((0.5, 0.2, -0.1, 0.0), (1.0, 0.7, 0.7, -0.7), (0.9, 0.9, 0.9, -0.9)):
            membership.evaluate(CorrelationVector.validate(raw))
    elif name == "construct":
        for raw in ((0.5, 0.2, -0.1, 0.0), (0.6, 0.6, 0.6, -0.6), (0.7, 0.7, 0.7, -0.7071067811865476)):
            mixture = geometry.decompose(CorrelationVector.validate(raw))
            quantum.expectation(quantum.realize_mixture(mixture))
    elif name == "sample":
        _capture(["sample", "4", "--dims", "2,2", "--seed", "0"])
    elif name == "lemmas":
        # the first full-size scan runs ~40% slower than later ones, so the
        # warm-up is one whole default op
        _capture(["check-lemmas"])
    else:
        raise KeyError(name)


class Classify:
    """One op: `CorrelationVector.validate` plus `membership.evaluate` on
    one vector."""

    name = "classify"
    probe_parts = ("scalar_math", "small_arrays")
    UNIFORM, BOUNDARY, FACE, IMAGES = 1536, 1024, 512, 1024
    LP_STRIDE = 32
    window = 4096

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        uniform = rng.uniform(-1.0, 1.0, size=(self.UNIFORM, 4))
        scale = 1.0 + rng.uniform(-1e-6, 1e-6, size=(self.BOUNDARY, 1))
        boundary = np.clip(
            _apply_random_symmetry(rng, _boundary_points(rng, self.BOUNDARY)) * scale,
            -1.0,
            1.0,
        )
        face = rng.uniform(-1.0, 1.0, size=(self.FACE, 4))
        face[:, 0] = rng.choice((-1.0, 1.0), size=self.FACE)
        sources = np.concatenate([uniform, boundary, face])
        picks = rng.integers(0, len(sources), size=self.IMAGES)
        images = _apply_random_symmetry(rng, sources[picks])
        self.points = np.concatenate([sources, images])
        self.image_of = np.concatenate([np.full(len(sources), -1), picks])
        self.args = [tuple(row) for row in self.points.tolist()]
        self.size = len(self.args)

    def op(self, k: int):
        report = membership.evaluate(CorrelationVector.validate(self.args[k]))
        return (report.in_classical, report.in_quantum)

    def digest(self, out):
        return out

    def check(self, outputs: list) -> list[str]:
        valid = np.array([out is not None for out in outputs])
        verdicts = np.array([out or (False, False) for out in outputs], dtype=bool)
        return oracles.check_classify(
            self.points, self.image_of, valid, verdicts[:, 0], verdicts[:, 1], self.LP_STRIDE
        )


class Construct:
    """One op: validate, `geometry.decompose`, `quantum.realize_mixture`,
    then `quantum.expectation` with validation, on one quantum-set member."""

    name = "construct"
    probe_parts = ("scalar_math", "small_arrays")
    FACE_EXITS, CURVED_EXITS, BOUNDARY = 192, 128, 64
    window = 100

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        face, curved = [], []
        while sum(map(len, face)) < self.FACE_EXITS or sum(map(len, curved)) < self.CURVED_EXITS:
            xs = rng.uniform(-1.0, 1.0, size=(4096, 4))
            xs = xs[oracles.landau_slack(xs) > 1e-6]
            excess = _face_excess(xs)
            face.append(xs[excess <= 0.0])
            curved.append(xs[excess >= CURVED_MIN_EXCESS])
        boundary = _apply_random_symmetry(rng, _boundary_points(rng, self.BOUNDARY))
        self.corner_start = self.FACE_EXITS + self.CURVED_EXITS + self.BOUNDARY
        self.points = np.concatenate(
            [
                np.concatenate(face)[: self.FACE_EXITS],
                np.concatenate(curved)[: self.CURVED_EXITS],
                boundary,
                corner_hugging_members(),
            ]
        )
        self.args = [tuple(row) for row in self.points.tolist()]
        self.size = len(self.args)
        self.expected_failures = {
            k: "BisectionError" for k in range(self.corner_start, self.size)
        }

    def op(self, k: int):
        x = CorrelationVector.validate(self.args[k])
        mixture = geometry.decompose(x)
        realization = quantum.realize_mixture(mixture)
        vector = quantum.expectation(realization, validate=True)
        parts = (realization.state, realization.a0, realization.a1, realization.b0, realization.b1)
        return (mixture.weights, vector.as_tuple(), parts)

    def digest(self, out):
        return out[:2]

    def check(self, outputs: list) -> list[str]:
        return oracles.check_construct(self.points, outputs)


class Sample:
    """One op: `cli.main(["sample", N, "--dims", ..., "--seed", s])` with
    stdout captured in memory and parsed."""

    name = "sample"
    probe_parts = ("scalar_math", "small_arrays")
    window = 2 * len(SAMPLE_DIMS)

    def __init__(self, seed: int):
        cycle = [d for dims in SAMPLE_DIMS for d in ((2, 2), dims)] * SAMPLE_REPEATS
        seeds = _rng(seed, 3).integers(0, 2**31, size=len(cycle))
        self.ops = [(SAMPLE_ROWS, dims, int(s)) for dims, s in zip(cycle, seeds)]
        self.argvs = [
            ["sample", str(count), "--dims", f"{dims[0]},{dims[1]}", "--seed", str(s)]
            for count, dims, s in self.ops
        ]
        self.size = len(self.ops)

    def op(self, k: int):
        code, text = _capture(self.argvs[k])
        payload = json.loads(text)
        return (code, text, payload["summary"], np.array(payload["vectors"]))

    def digest(self, out):
        return out[:2]

    def check(self, outputs: list) -> list[str]:
        def reference(dims, seed, index):
            r = quantum.sample_quantum(dims[0], dims[1], seed, index)[1]
            return (r.state, r.a0, r.a1, r.b0, r.b1)

        failed = [k for k, out in enumerate(outputs) if out is None]
        done = [(op, out) for op, out in zip(self.ops, outputs) if out is not None]
        problems = [f"sample: ops {failed[:3]} gave no output"] if failed else []
        return problems + oracles.check_sample(
            [op for op, _ in done],
            [(code, summary, rows) for _, (code, _, summary, rows) in done],
            reference,
        )


class Lemmas:
    """One op: `cli.main(["check-lemmas", "--seed", s])` at its default
    grids and sample count."""

    name = "lemmas"
    probe_parts = ("large_arrays",)
    window = 1

    def __init__(self, seed: int):
        self.lemma_seed = int(_rng(seed, 4).integers(0, 2**31))
        self.size = 1

    def op(self, k: int):
        code, text = _capture(["check-lemmas", "--seed", str(self.lemma_seed)])
        return (code, text, json.loads(text))

    def digest(self, out):
        return out[:2]

    def check(self, outputs: list) -> list[str]:
        problems = []
        for out in outputs:
            if out is None:
                problems.append("lemmas: the op gave no output")
            else:
                problems += oracles.check_lemmas(out[0], out[2])
        return problems


WORKLOADS = {w.name: w for w in (Classify, Construct, Sample, Lemmas)}
