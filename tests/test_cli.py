"""CLI tests, driven through main() so exit codes and streams are visible."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from corrset import checks, cli, membership
from corrset.cli import main
from corrset.corrvec import CanonicalForm, CorrelationVector
from corrset.geometry import decompose

T = "0.7071067811865476"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_membership_inside(capsys):
    code, out, _ = run(capsys, "membership", "0.5", "0", "0", "0")
    data = json.loads(out)
    assert code == 0
    assert data["in_C"] is True
    assert data["in_Q"] is True
    assert len(data["chsh_values"]) == 8


def test_membership_tsirelson_boundary(capsys):
    code, out, _ = run(capsys, "membership", T, T, T, f"-{T}")
    data = json.loads(out)
    assert code == 0
    assert data["in_Q"] is True
    assert data["in_C"] is False


def test_membership_outside_q(capsys):
    code, out, _ = run(capsys, "membership", "1", "1", "1", "-1")
    assert code == 1
    assert json.loads(out)["in_Q"] is False


def test_membership_csv(capsys):
    code, out, _ = run(capsys, "membership", "--format", "csv", "0", "0", "0", "0")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("in_C,in_Q,margin_C,margin_Q,chsh_1")
    assert lines[1].split(",")[0] == "True"


def test_membership_bad_input(capsys):
    code, _, err = run(capsys, "membership", "2", "0", "0", "0")
    assert code == 2
    assert "x1" in err


def test_membership_wrong_arity(capsys):
    code, _, err = run(capsys, "membership", "0.1", "0.2")
    assert code == 2
    assert "4 components" in err


def test_membership_from_file(capsys, tmp_path):
    f = tmp_path / "vec.json"
    f.write_text("[0.1, 0.2, 0.3, 0.4]")
    code, out, _ = run(capsys, "membership", "--input", str(f))
    assert code == 0
    assert json.loads(out)["in_C"] is True


def test_tolerance_env_clamps(capsys, monkeypatch):
    monkeypatch.setenv("CORRSET_TOLERANCE", "1e-3")
    code, out, _ = run(capsys, "membership", "1.0000001", "0", "0", "0")
    assert code == 0
    # explicit flag beats the environment
    code, _, _ = run(
        capsys, "membership", "--tolerance", "1e-9", "1.0000001", "0", "0", "0"
    )
    assert code == 2


def test_tolerance_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("CORRSET_TOLERANCE", "soon")
    code, _, err = run(capsys, "membership", "0", "0", "0", "0")
    assert code == 2
    assert "CORRSET_TOLERANCE" in err


def test_tolerance_must_be_positive(capsys):
    code, _, err = run(capsys, "membership", "--tolerance", "-1", "0", "0", "0", "0")
    assert code == 2
    assert "positive" in err


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "0.5", "0", "0", "0")
    data = json.loads(out)
    assert code == 0
    assert len(data["terms"]) == 3
    assert math.fsum(t["weight"] for t in data["terms"]) == pytest.approx(
        1.0, abs=1e-12
    )
    assert max(abs(r) for r in data["residual"]) <= 1e-9


def test_decompose_outside_q(capsys):
    code, out, err = run(capsys, "decompose", "1", "1", "1", "-1")
    assert code == 1
    assert out == ""
    assert "margin_Q" in err


def test_decompose_internal_error_is_a_stderr_line(capsys):
    # admitted at 1e-6, but its reconstruction misses by 3.0e-7
    x = ("0.7071067811865475",) * 3 + ("-0.7071070811865474",)
    code, out, err = run(capsys, "decompose", "--tolerance", "1e-6", *x)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: decomposition residual 3.000e-07")
    assert "-0.7071070811865474" in err


def test_decompose_member_whose_face_point_lies_just_outside_q(capsys):
    # its ray meets the face at an arcsine sum of pi + 1e-9; this exited 3
    x = ("0.0", "0.9999999999999999", "0.9999999999999999", "1e-09")
    code, out, err = run(capsys, "decompose", *x)
    assert code == 0
    assert err == ""
    assert max(abs(r) for r in json.loads(out)["residual"]) <= 1e-12


def test_failing_cross_check_exits_3(capsys, monkeypatch):
    wrong = CorrelationVector(0.9, 0.5, 0.3, 0.2)
    monkeypatch.setattr(membership, "canonicalize", lambda v: CanonicalForm(wrong, v))
    code, out, err = run(capsys, "membership", "0.9", "0.5", "0.3", "-0.2")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: canonical fast path disagrees")
    assert repr(0.9 + 0.5 + 0.3 - 0.2) in err


def test_realize_verify_round_trip(capsys, tmp_path):
    target = tmp_path / "realization.json"
    code, out, _ = run(
        capsys, "realize", "0.5", "0", "0", "0", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    stored = json.loads(target.read_text())
    assert set(stored) == {"state", "A0", "A1", "B0", "B1", "dims", "verified_residual"}
    assert stored["dims"] == [2, 2]
    assert stored["verified_residual"] < 1e-8

    code, out, _ = run(capsys, "verify", str(target))
    data = json.loads(out)
    assert code == 0
    assert data["report"]["in_Q"] is True
    assert np.abs(
        np.array(data["vector"]) - np.array([0.5, 0, 0, 0])
    ).max() <= 1e-9


def test_verify_reads_a_stored_block_diagonal_realization(
    capsys, tmp_path, block_diagonal_realization
):
    # a 6x6-per-party file in the block-diagonal layout, three terms
    x = CorrelationVector(0.5, 0.0, 0.0, 0.0)
    realization = block_diagonal_realization(decompose(x))
    assert realization.dims == (6, 6)
    stored = realization.to_json_dict()
    stored["verified_residual"] = 0.0
    target = tmp_path / "realization.json"
    target.write_text(json.dumps(stored))
    code, out, _ = run(capsys, "verify", str(target))
    data = json.loads(out)
    assert code == 0
    assert data["report"]["in_Q"] is True
    assert np.abs(np.array(data["vector"]) - np.array(x.as_tuple())).max() <= 1e-12


def test_realize_csv_unsupported(capsys):
    code, _, err = run(capsys, "realize", "--format", "csv", "0.5", "0", "0", "0")
    assert code == 2
    assert "json" in err


def test_verify_rejects_corrupted(capsys, tmp_path):
    target = tmp_path / "realization.json"
    code, _, _ = run(capsys, "realize", "0.3", "0.1", "0", "0", "--output", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    data["A0"][0][0] = [5.0, 0.0]
    target.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(target))
    assert code == 2
    assert "observable" in err


@pytest.mark.parametrize("name", ["A1", "B1"])
def test_verify_rejects_mismatched_observable_size(capsys, tmp_path, name):
    target = tmp_path / "realization.json"
    code, _, _ = run(capsys, "realize", "0.5", "0.2", "-0.1", "0", "--output", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    data[name] = [
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    ]
    target.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: check 'observable-shape' failed for {name}\n"


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_sample_reproducible(capsys):
    code, out1, _ = run(capsys, "sample", "6", "--seed", "3")
    assert code == 0
    code, out2, _ = run(capsys, "sample", "6", "--seed", "3", "--parallel", "2")
    assert out1 == out2
    data = json.loads(out1)
    assert data["summary"]["count"] == 6
    assert data["summary"]["failures"] == 0
    assert len(data["vectors"]) == 6


def test_sample_csv_summary_on_stderr(capsys):
    code, out, err = run(capsys, "sample", "4", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,x4"
    assert len(lines) == 5
    assert "failures=0" in err


def test_sample_rejects_empty(capsys):
    code, _, err = run(capsys, "sample", "0")
    assert code == 2
    assert "at least 1" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_parallel_must_be_positive(capsys, workers):
    for argv in (["sample", "5"], ["check-lemmas"]):
        code, out, err = run(capsys, *argv, "--parallel", workers)
        assert code == 2
        assert out == ""
        assert err == f"error: --parallel must be at least 1, got {workers}\n"


def test_sample_bad_dims(capsys):
    code, _, err = run(capsys, "sample", "3", "--dims", "9,2")
    assert code == 2
    assert "dim" in err
    code, _, _ = run(capsys, "sample", "3", "--dims", "2x2")
    assert code == 2


def test_check_lemmas_passes(capsys):
    code, out, _ = run(
        capsys, "check-lemmas", "--step", "0.2", "--samples", "2000"
    )
    data = json.loads(out)
    assert code == 0
    assert data["all_passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert "curvature-positivity" in names
    assert "angle-sum-maximum" in names
    assert "parity-contradiction" in names
    assert "mu-equivalence" in names
    assert "vertex-oracle-agreement" in names


def test_check_lemmas_output_ignores_parallel(capsys):
    # the scans run in one process; --parallel is accepted and changes nothing
    argv = ("check-lemmas", "--step", "0.05", "--samples", "2000")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--parallel", "2") == (0, out, "")


def test_check_lemmas_self_test_fail(capsys):
    code, out, err = run(
        capsys,
        "check-lemmas",
        "--step",
        "0.2",
        "--samples",
        "500",
        "--self-test-fail",
    )
    assert code == 1
    assert json.loads(out)["all_passed"] is False
    assert "forced-self-test-failure" in err


def test_check_lemmas_csv_unsupported(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(cli.checks, "curvature_positivity_scan", no_scan)
    code, out, err = run(capsys, "check-lemmas", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "json" in err


def test_check_lemmas_rejects_bad_samples_and_step(capsys):
    for argv in (
        ["--samples", "0"],
        ["--samples", "-1"],
        ["--step", "1e-300"],
        ["--step", "0"],
        ["--step", "-0.0"],
    ):
        code, out, err = run(capsys, "check-lemmas", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert argv[1] in err


def test_check_lemmas_rejects_negative_seed(capsys, monkeypatch):
    # default_rng refuses a negative seed; the refusal comes before any scan
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(cli.checks, "curvature_positivity_scan", no_scan)
    monkeypatch.setattr(cli.checks, "angle_sum_max_scan", no_scan)
    for seed in ("-1", "-5"):
        code, out, err = run(capsys, "check-lemmas", "--seed", seed)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert seed in err
        assert "Traceback" not in err


def _one_draw_mu_check(samples, seed, tolerance):
    # the mu-equivalence check as one draw of all samples
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, 4))
    q_margins = membership.quantum_margins(points)
    c_margins = membership.classical_margins(membership.mu_array(points))
    verdict_q = q_margins >= -tolerance
    verdict_c = c_margins >= -tolerance
    off_band = np.abs(q_margins) > cli._MU_BAND
    disagreements = int((verdict_q != verdict_c)[off_band].sum())
    return {
        "name": "mu-equivalence",
        "passed": disagreements == 0,
        "samples": samples,
        "disagreements_outside_band": disagreements,
    }


def _one_draw_oracle_check(samples, seed, tolerance):
    # the vertex-oracle-agreement check as one draw of all samples
    rng = np.random.default_rng(seed + 1)
    points = rng.uniform(-1.0, 1.0, size=(samples, 4))
    facet = membership.classical_margins(points) >= -tolerance
    vertex = checks.lvt_oracle_batch(points, tolerance)
    disagreements = int((facet != vertex).sum())
    return {
        "name": "vertex-oracle-agreement",
        "passed": disagreements == 0,
        "samples": samples,
        "disagreements": disagreements,
    }


# at tolerance 0.3, seed 3 and 20,000 samples the mu check counts 256
# disagreements, 110 + 107 + 39 over its three blocks
@pytest.mark.parametrize("tolerance", [1e-9, 0.3])
@pytest.mark.parametrize(
    "samples",
    [1, cli._CHECK_BLOCK - 1, cli._CHECK_BLOCK, cli._CHECK_BLOCK + 1, 20_000],
)
def test_blocked_checks_match_one_draw(samples, tolerance):
    for seed in (0, 3):
        assert cli._mu_equivalence_check(
            samples, seed, tolerance
        ) == _one_draw_mu_check(samples, seed, tolerance)
        assert cli._oracle_agreement_check(
            samples, seed, tolerance
        ) == _one_draw_oracle_check(samples, seed, tolerance)


def test_check_lemmas_loose_tolerance_output_pinned(capsys):
    code, out, err = run(
        capsys,
        "check-lemmas",
        "--step", "0.2",
        "--seed", "3",
        "--samples", "20000",
        "--tolerance", "0.3",
    )
    assert code == 1
    assert err == "failed checks: mu-equivalence\n"
    digest = hashlib.md5(out.encode("utf-8")).hexdigest()
    assert digest == "bb51772d5b13429da0cf586b4206b04c"


def test_sampled_checks_see_every_row_once(capsys, monkeypatch):
    # the benchmark's tracer counts rows through these four module attributes;
    # their blocks, in call order, are the one-draw points of each check
    samples = 2 * cli._CHECK_BLOCK + 5
    seen = {}

    def recording(owner, name):
        func = getattr(owner, name)

        def wrapper(points, *args):
            assert len(points) <= cli._CHECK_BLOCK
            seen.setdefault(name, []).append(points)
            return func(points, *args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("quantum_margins", "classical_margins", "mu_array"):
        recording(membership, name)
    recording(checks, "lvt_oracle_batch")
    code, _, _ = run(
        capsys,
        "check-lemmas", "--step", "0.2", "--seed", "4", "--samples", str(samples),
    )
    assert code == 0
    rows = {name: sum(map(len, blocks)) for name, blocks in seen.items()}
    assert rows == {
        "quantum_margins": samples,
        "classical_margins": 2 * samples,
        "mu_array": samples,
        "lvt_oracle_batch": samples,
    }
    for name, seed in (("quantum_margins", 4), ("lvt_oracle_batch", 5)):
        drawn = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, 4))
        assert np.array_equal(np.concatenate(seen[name]), drawn)


def _traced_peak(check, samples):
    check(1, 0, 1e-9)  # one-time allocations of a first call are not the check's
    tracemalloc.start()
    try:
        check(samples, 0, 1e-9)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "check", [cli._mu_equivalence_check, cli._oracle_agreement_check]
)
def test_sampled_check_memory_does_not_grow_with_samples(check):
    # numpy reports its buffers to tracemalloc
    assert _traced_peak(check, 400_000) <= _traced_peak(check, 20_000) + 2**20


def test_oracle_path_disagreement_names_its_row(capsys, monkeypatch):
    monkeypatch.setattr(checks, "_VERTEX_BASIS", 2.0 * checks._VERTEX_BASIS)
    points = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, -0.2, 0.3, 0.25]])
    vertex = float(np.abs(points @ checks._VERTEX_BASIS.T / 4.0).sum(axis=-1)[1])
    facet = float(
        max(np.abs(points[1]).max(), 0.5 * membership.chsh_combinations(points)[1].max())
    )
    with pytest.raises(cli.InternalCheckError) as info:
        checks.lvt_oracle_batch(points)
    message = str(info.value)
    assert message == (
        f"vertex and facet oracle paths disagree by {abs(vertex - facet):.3e} "
        f"at row 1, x = (0.1, -0.2, 0.3, 0.25): vertex value {vertex!r}, "
        f"facet value {facet!r}"
    )

    code, out, err = run(capsys, "check-lemmas", "--step", "0.2", "--samples", "100")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: vertex and facet oracle paths disagree by ")
    assert "vertex value " in err and "facet value " in err


@pytest.mark.parametrize("flag", ["--anglesum-step", "--hessian-step"])
def test_check_lemmas_refuses_unallocatable_grid(capsys, monkeypatch, flag):
    # the grid passes the index bound but its (n, n) float64 arrays exceed
    # the bytes numpy can allocate; no axis may be built for either scan
    def no_axis(*args):
        raise AssertionError("a grid axis was built")

    monkeypatch.setattr(cli.checks, "_grid_axis", no_axis)
    code, out, err = run(capsys, "check-lemmas", flag, "2.1e-9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: step 2.1e-09 gives ")
    assert "Traceback" not in err


def test_slice_classical(capsys):
    code, out, _ = run(capsys, "slice", "3", "C")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "x2,x3,x4_low,x4_high"
    assert len(lines) == 10
    # corners pin x4: at (x2, x3) = (-1, -1) the range collapses to {1}
    first = lines[1].split(",")
    assert float(first[2]) == float(first[3]) == 1.0


def test_slice_quantum_wider(capsys):
    code, out, _ = run(capsys, "slice", "5", "Q")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    mid = [r for r in rows if float(r[0]) == 0.5 and float(r[1]) == 0.0][0]
    assert float(mid[3]) == pytest.approx(math.cos(math.asin(0.5)), abs=1e-12)
    code, out_c, _ = run(capsys, "slice", "5", "C")
    rows_c = [line.split(",") for line in out_c.strip().splitlines()[1:]]
    for q_row, c_row in zip(rows, rows_c):
        # the classical band never exceeds the quantum band
        assert float(c_row[2]) >= float(q_row[2]) - 1e-12
        assert float(c_row[3]) <= float(q_row[3]) + 1e-12


def test_slice_quantum_degenerate_edge(capsys):
    # with x2 on the box edge the quantum interval is a single point
    code, out, _ = run(capsys, "slice", "5", "Q")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        x2, x3, low, high = line.split(",")
        if abs(float(x2)) == 1.0 or abs(float(x3)) == 1.0:
            assert low == high


def test_slice_too_small(capsys):
    code, _, err = run(capsys, "slice", "1", "Q")
    assert code == 2
    assert "at least 2" in err


def test_slice_json(capsys):
    code, out, _ = run(capsys, "slice", "2", "Q", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["which"] == "Q"
    assert len(data["rows"]) == 4


def test_mu_round_trip(capsys):
    code, out, _ = run(capsys, "mu", "0.5", "-0.25", "0", "1")
    forward = json.loads(out)
    assert code == 0
    code, out, _ = run(capsys, "mu", "--inverse", *map(str, forward))
    back = json.loads(out)
    assert np.abs(np.array(back) - np.array([0.5, -0.25, 0, 1])).max() <= 1e-12


def test_mu_of_tsirelson_hits_half(capsys):
    code, out, _ = run(capsys, "mu", T, T, T, f"-{T}")
    assert code == 0
    assert json.loads(out) == pytest.approx([0.5, 0.5, 0.5, -0.5], abs=1e-12)


def test_output_not_written_on_error(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "membership", "7", "0", "0", "0", "--output", str(target)
    )
    assert code == 2
    assert not target.exists()


def test_output_file_written(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "membership", "0", "0", "0", "0", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["in_C"] is True


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_broken_pipe_exits_quietly(capsys, monkeypatch):
    def explode(text, output):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_emit", explode)
    code, _, err = run(capsys, "membership", "0", "0", "0", "0")
    assert code == 1
    assert err == ""
