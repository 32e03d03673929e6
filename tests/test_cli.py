"""CLI tests, driven through main() so exit codes and streams are visible."""

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import stat
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from corrset import checks, cli, membership, quantum
from corrset.cli import main
from corrset.corrvec import CorrelationVector
from corrset.geometry import decompose

T = "0.7071067811865476"
# both check-lemmas grids at step 0.2
COARSE = ("--hessian-step", "0.2", "--anglesum-step", "0.2")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_scan(*args, **kwargs):
    raise AssertionError("a scan ran")


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


def test_tolerance_flag_clamps(capsys):
    # the default refuses a component 1e-7 past the box; --tolerance 1e-3
    # admits it
    code, _, _ = run(capsys, "membership", "1.0000001", "0", "0", "0")
    assert code == 2
    code, _, _ = run(
        capsys, "membership", "--tolerance", "1e-3", "1.0000001", "0", "0", "0"
    )
    assert code == 0


def test_tolerance_must_be_positive(capsys):
    for value in ("-1", "0", "1e-400", "nan", "inf"):
        argv = ("membership", "--tolerance", value, "0", "0", "0", "0")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "tolerance must be positive, got " in err


def test_components_in_exponent_form_are_values(capsys):
    # argparse alone reads -1e-3 as an option; every token float() accepts
    # as negative is a value, of a component with or without `--`
    plain = run(capsys, "membership", "0.5", "0", "0", "-0.001")
    assert plain[0] == 0
    for token in ("-1e-3", "-1E-3", "-1.0e-03", "-.1e-2"):
        assert run(capsys, "membership", "0.5", "0", "0", token) == plain
        assert run(capsys, "membership", "--", "0.5", "0", "0", token) == plain
    code, out, _ = run(capsys, "membership", "--format", "csv", "-2.5E-1", *"000")
    assert code == 0 and out.splitlines()[1].startswith("True,True,1.75,")
    for token in ("-inf", "-nan", "-Infinity"):
        code, out, err = run(capsys, "membership", "0.5", "0", "0", token)
        assert (code, out) == (2, "")
        assert "error: component x4 is not finite: " in err
    # an option's value too, in every subcommand
    for argv in (["sample", "5"], ["membership", "0", "0", "0", "0"]):
        code, out, err = run(capsys, *argv, "--tolerance", "-1e-3")
        assert (code, out) == (2, "")
        assert "tolerance must be positive, got -0.001" in err
    # the program's own output, passed back inline
    code, out, _ = run(capsys, "mu", "0.5", "0", "0", "-1e-5")
    image = json.loads(out)
    assert code == 0 and "e-" in repr(image[3])
    code, out, _ = run(capsys, "mu", "--inverse", *map(repr, image))
    assert code == 0 and json.loads(out)[3] == pytest.approx(-1e-5, rel=1e-12)


def test_output_ignores_the_environment(capsys, monkeypatch):
    # the vector lies about 5e-7 outside Q, which a tolerance of 1e-3 would
    # admit, and sample's summary states its tolerance
    commands = (["membership", *["0.7071068"] * 3, "-0.7071068"], ["sample", "5"])
    plain = [run(capsys, *argv) for argv in commands]
    assert plain[0][0] == 1
    monkeypatch.setenv("CORRSET_TOLERANCE", "1e-3")
    assert [run(capsys, *argv) for argv in commands] == plain


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


# admitted at 1e-6, though its arcsine margin reads -3.0e-7
LOOSE = ("0.7071067811865475",) * 3 + ("-0.7071070811865474",)


def test_decompose_admitted_point_outside_q_decomposes_its_crossing(capsys):
    # decomposed as the point where its ray leaves Q; `residual` is the
    # difference from x.  Its reconstruction missed x by 3.0e-7 and exited 3
    code, out, err = run(capsys, "decompose", "--tolerance", "1e-6", *LOOSE)
    assert (code, err) == (0, "")
    residual = json.loads(out)["residual"]
    x = [float(v) for v in LOOSE]
    crossing = [v + r for v, r in zip(x, residual)]
    assert all(7.4e-8 < abs(r) < 7.6e-8 for r in residual)
    # on the ray through x, and in Q at the default tolerance
    assert max(abs(c / v - crossing[0] / x[0]) for c, v in zip(crossing, x)) < 1e-12
    code, out, _ = run(capsys, "membership", *map(repr, crossing))
    assert code == 0 and json.loads(out)["in_Q"] is True


@pytest.mark.parametrize(
    "tolerance, x, low, high",
    [
        ("1e-6", LOOSE, 7.4e-8, 7.6e-8),
        ("1e-3", (*LOOSE[:3], "-0.7075"), 9.8e-5, 9.9e-5),
    ],
)
def test_realize_admitted_point_outside_q(capsys, tolerance, x, low, high):
    # the realization reproduces the decomposition's point, and
    # `verified_residual` is its distance to x; it was checked against x and
    # exited 3 with "realization residual 7.500e-08 exceeds 1e-08"
    code, out, err = run(capsys, "realize", "--tolerance", tolerance, *x)
    assert (code, err) == (0, "")
    assert low < json.loads(out)["verified_residual"] < high


def test_realize_checks_the_realized_point(capsys, monkeypatch):
    # an expectation 2e-8 off the decomposition's point fails the check
    expectation = quantum.expectation

    def moved(realization):
        v = expectation(realization).as_tuple()
        return CorrelationVector(v[0] + 2e-8, *v[1:])

    monkeypatch.setattr(quantum, "expectation", moved)
    code, out, err = run(capsys, "realize", "0.5", "0", "0", "0")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: realization residual 2.000e-08 exceeds 1e-08")


def test_decompose_member_whose_face_point_lies_just_outside_q(capsys):
    # its ray meets the face at an arcsine sum of pi + 1e-9; this exited 3
    x = ("0.0", "0.9999999999999999", "0.9999999999999999", "1e-09")
    code, out, err = run(capsys, "decompose", *x)
    assert code == 0
    assert err == ""
    assert max(abs(r) for r in json.loads(out)["residual"]) <= 1e-12


def test_failing_cross_check_exits_3(capsys, monkeypatch):
    wrong = CorrelationVector(0.9, 0.5, 0.3, 0.2)
    monkeypatch.setattr(membership, "canonicalize", lambda v: wrong)
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
    # realize writes matrices as JSON only; the parser has no --format for it
    code, out, err = run(capsys, "realize", "0.5", "0", "0", "0", "--format", "csv")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format csv" in err


def test_inline_vector_refusals_name_the_real_fault(capsys):
    # an option given before the vector is refused as itself, not as a
    # component; a component that is not a number is named by its position
    code, out, err = run(capsys, "realize", "--format", "csv", "0.5", "0", "0", "0")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format" in err
    assert "invalid float value" not in err
    code, out, err = run(capsys, "membership", "0.5", "abc", "0", "0")
    assert (code, out) == (2, "")
    assert err == "error: component x2 is not a number: 'abc'\n"


# the first reads margin_Q -9.9999963865116115e-10 from its eight arcsine
# sums and below -1e-9 from its canonical sum; the second reads
# -1.000000082740371e-09, which Q's verdict admits one ulp inward along its
# ray; the third is the next point out on that ray, refused by all three
@pytest.mark.parametrize(
    "x, code",
    [
        (("0.76653173077291", "0.8023637975107221", "0.8949409250017465",
          "-0.22663902660244234"), 0),
        (("0.9689361753552524", "-0.4800699893699857", "-0.40418266626943117",
          "-0.7857333018872013"), 0),
        (("0.9689361753552527", "-0.4800699893699858", "-0.4041826662694313",
          "-0.7857333018872015"), 1),
    ],
)
def test_membership_decompose_and_realize_agree(capsys, x, code):
    commands = ("membership", "decompose", "realize")
    assert [run(capsys, command, *x)[0] for command in commands] == [code] * 3


def test_outside_q_line_carries_the_membership_margins(capsys):
    x = ("0.9689361753552527", "-0.4800699893699858", "-0.4041826662694313",
         "-0.7857333018872015")
    _, out, _ = run(capsys, "membership", *x)
    report = json.loads(out)
    for command in ("decompose", "realize"):
        code, out, err = run(capsys, command, *x)
        assert (code, out) == (1, "")
        assert err == (
            f"outside Q: ({', '.join(x)}) lies outside the quantum set: "
            f"margin_C={report['margin_C']!r} margin_Q={report['margin_Q']!r}\n"
        )


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


_MALFORMED_ENTRIES = {
    "one-number entry": lambda data: data["A0"][0].__setitem__(0, [0.5]),
    "string for a matrix": lambda data: data.__setitem__("A0", "oops"),
    "three-number entry": lambda data: data["A0"][0][0].append(99.0),
    "string in an entry": lambda data: data["B1"][1].__setitem__(0, ["x", 1.0]),
    "number for a row": lambda data: data["A1"].__setitem__(1, 5),
    "boolean entry": lambda data: data["B0"][1].__setitem__(1, [True, False]),
    "integer too large for a float": lambda data: data["A0"][1].__setitem__(
        0, [10**400, 0]
    ),
}
# the matrix and entry each message names
_MALFORMED_WHERE = {
    "one-number entry": "A0[0][0]",
    "string for a matrix": "A0[0][0]",
    "three-number entry": "A0[0][0]",
    "string in an entry": "B1[1][0]",
    "number for a row": "A1[1]",
    "boolean entry": "B0[1][1]",
    "integer too large for a float": "A0[1][0]",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ENTRIES))
def test_verify_refuses_malformed_matrix_entries(capsys, tmp_path, case):
    # every entry must be exactly [re, im]; anything else is an input error
    target = tmp_path / "realization.json"
    code, _, _ = run(
        capsys, "realize", "0.5", "0.2", "-0.1", "0", "--output", str(target)
    )
    assert code == 0
    data = json.loads(target.read_text())
    _MALFORMED_ENTRIES[case](data)
    target.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: check 'serialization' failed: ")
    assert err.count("\n") == 1
    assert err.startswith(
        f"error: check 'serialization' failed: {_MALFORMED_WHERE[case]}: "
    )


@pytest.mark.parametrize("key", ["state", "A0", "A1", "B0", "B1"])
def test_verify_names_a_missing_key(capsys, tmp_path, key):
    target = tmp_path / "realization.json"
    code, _, _ = run(
        capsys, "realize", "0.5", "0.2", "-0.1", "0", "--output", str(target)
    )
    assert code == 0
    data = json.loads(target.read_text())
    del data[key]
    target.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: check 'serialization' failed: missing key '{key}'\n"


@pytest.mark.parametrize("dims", [5, "22", None])
def test_verify_refuses_dims_that_are_not_a_list(capsys, tmp_path, dims):
    target = tmp_path / "realization.json"
    code, _, _ = run(
        capsys, "realize", "0.5", "0.2", "-0.1", "0", "--output", str(target)
    )
    assert code == 0
    data = json.loads(target.read_text())
    data["dims"] = dims
    target.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(target))
    if dims is None:  # no declared dims: nothing to compare
        assert code == 0
        return
    assert (code, out) == (2, "")
    assert err == (
        f"error: check 'dims' failed: declared {dims}, matrices give (2, 2)\n"
    )


_BAD_VECTOR_FILES = {
    "[0.5, 0.2,": "error: vector file is not valid JSON: Expecting value: "
    "line 1 column 11 (char 10)\n",
    '["a", 0.2, 0.1, 0]': "error: component x1 is not a number: 'a'\n",
    "[null, 0.2, 0.1, 0]": "error: component x1 is not a number: None\n",
    # a vector file holds JSON numbers only
    "[true, false, 0, 0]": "error: component x1 is not a number: True\n",
    '["0.5", 0.2, 0.1, 0]': "error: component x1 is not a number: '0.5'\n",
}


@pytest.mark.parametrize("command", ["membership", "decompose", "realize", "mu"])
@pytest.mark.parametrize("text", sorted(_BAD_VECTOR_FILES))
def test_input_file_errors_name_their_problem(capsys, tmp_path, command, text):
    source = tmp_path / "vector.json"
    source.write_text(text)
    code, out, err = run(capsys, command, "--input", str(source))
    assert (code, out, err) == (2, "", _BAD_VECTOR_FILES[text])


@pytest.mark.parametrize(
    "digits, message",
    [
        (400, "component x1 lies outside [-1, 1]: int too large to convert to float"),
        (5000, "expected a JSON array of 4 numbers: Exceeds the limit (4300 digits)"),
    ],
)
def test_input_file_refuses_an_integer_too_large_for_a_float(
    capsys, tmp_path, digits, message
):
    source = tmp_path / "vector.json"
    source.write_text("[1" + "0" * digits + ", 0, 0, 0]")
    code, out, err = run(capsys, "membership", "--input", str(source))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["5", '"abc"', "[1]", "null"])
def test_verify_refuses_a_file_that_is_not_an_object(capsys, tmp_path, text):
    target = tmp_path / "realization.json"
    target.write_text(text)
    code, out, err = run(capsys, "verify", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: check 'serialization' failed: expected a JSON object with keys "
        "state, A0, A1, B0, B1, got "
    )
    assert err.count("\n") == 1


def test_verify_refuses_an_integer_past_the_digit_limit(capsys, tmp_path):
    target = tmp_path / "realization.json"
    target.write_text('{"state": [[[1' + "0" * 5000 + ", 0]]]}")
    code, out, err = run(capsys, "verify", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: realization file is not valid JSON: ")
    assert err.count("\n") == 1


_NOT_UTF8 = (
    "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
    "invalid start byte\n"
)


def test_input_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    # this ended in a UnicodeDecodeError traceback with exit 1, the
    # "outside Q" code
    source = tmp_path / "vector.json"
    source.write_bytes(b"\xff\xfe[0.5, 0, 0, 0]")
    code, out, err = run(capsys, "membership", "--input", str(source))
    assert (code, out, err) == (2, "", f"error: vector file {_NOT_UTF8}")


def test_verify_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    target = tmp_path / "realization.json"
    target.write_bytes(b"\xff\xfe[0.5, 0, 0, 0]")
    code, out, err = run(capsys, "verify", str(target))
    assert (code, out, err) == (2, "", f"error: realization file {_NOT_UTF8}")


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


def _pins(*rows):
    # each (count, dims, seed, digest) row's id names only count, dims and
    # seed, so a re-pinned digest keeps the test's id
    return [pytest.param(*row, id="-".join(row[:3])) for row in rows]


# md5 of the JSON stdout; rows are the same whatever the block size.  The
# 2,3 and 2,2 runs hold rounded box vertices, which Q's verdict admits, so
# they count "failures": 0
@pytest.mark.parametrize(
    "count, dims, seed, digest",
    _pins(
        ("300", "2,3", "5", "743e22fe0d9e2250dfe700cd709919b5"),
        ("100", "8,8", "3", "851438fd0b704e2750b9a03f5a350249"),
        ("2500", "2,2", "11", "243452ca093d2f99ee90f7ebc6115087"),
        ("700", "5,7", "2", "73dc7fee23e4f9d105d33652248939e2"),
    ),
)
def test_sample_output_pinned(capsys, count, dims, seed, digest):
    code, out, _ = run(capsys, "sample", count, "--dims", dims, "--seed", seed)
    assert code == 0
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest
    assert json.loads(out)["summary"]["failures"] == 0


# md5 of the JSON text from the "vectors" key on: the rows without the summary
@pytest.mark.parametrize(
    "count, dims, seed, digest",
    _pins(
        ("300", "2,3", "5", "445577073ea0aba9f718d5bde963f1bc"),
        ("100", "8,8", "3", "0a6cfa6b251e0d445bb6ce6f7a08715a"),
        ("2500", "2,2", "11", "10dea715cf2270b813e35b0d434ba84c"),
        ("700", "5,7", "2", "8fe83dd57f55420a32c5c11f99e475ba"),
    ),
)
def test_sample_rows_pinned(capsys, count, dims, seed, digest):
    code, out, _ = run(capsys, "sample", count, "--dims", dims, "--seed", seed)
    assert code == 0
    rows = out[out.index('"vectors"'):]
    assert hashlib.md5(rows.encode("utf-8")).hexdigest() == digest
    assert json.loads(out)["summary"]["failures"] == 0


def test_sample_counts_no_rounded_vertex_as_a_failure(capsys):
    # row 26 is (1, -1, -0.9999999999999998, 0.9999999999999996), a
    # deterministic vertex whose rounding reads margin_Q -8.73e-9, which
    # only the one-ulp ray shift admits
    code, out, _ = run(capsys, "sample", "100", "--dims", "2,2", "--seed", "958438296")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failures"] == 0
    assert data["vectors"][26] == [1.0, -1.0, -0.9999999999999998, 0.9999999999999996]
    assert membership.quantum_margins(np.array(data["vectors"][26])) < -1e-9
    code, out, err = run(capsys, "decompose", *map(repr, data["vectors"][26]))
    assert (code, err) == (0, "")
    assert max(map(abs, json.loads(out)["residual"])) <= 1e-9


def _failures(rows, tolerance=1e-9):
    """The summary's failures count, restated through Q's one verdict."""
    return int(np.count_nonzero(~membership.quantum_verdicts(rows, tolerance)[1]))


# md5 of the CSV stdout
@pytest.mark.parametrize(
    "count, dims, seed, digest",
    _pins(
        ("300", "2,3", "5", "3e80b97ff765dd715859e44738caccd5"),
        ("2500", "2,2", "11", "60b7ca2557f80ac19ad97917e2b9ef1f"),
    ),
)
def test_sample_csv_output_pinned(capsys, count, dims, seed, digest):
    code, out, err = run(
        capsys, "sample", count, "--dims", dims, "--seed", seed, "--format", "csv"
    )
    assert code == 0
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest
    assert " failures=0 " in err


def _special_rows(count):
    """`count` rows in [-1, 1], the last ones holding NaN, +-inf, -0.0 and
    the least subnormal."""
    rows = np.random.default_rng(count).uniform(-1.0, 1.0, size=(count, 4))
    special = np.array(
        [[math.nan, math.inf, -math.inf, -0.0], [5e-324, -0.0, 1.0, -1.0]]
    )
    rows[-len(special):] = special[-count:]
    return rows


@pytest.mark.parametrize(
    "count",
    [1, membership._PASS_ROWS - 1, membership._PASS_ROWS, membership._PASS_ROWS + 1],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered in arcsin")
def test_sample_writer_matches_one_piece_encoders(capsys, monkeypatch, count):
    # the text a block at a time is json.dumps(..., indent=2) of the whole
    # payload, or the one-call CSV, byte for byte, summary included
    rows = _special_rows(count)
    monkeypatch.setattr(
        quantum, "sample_correlations", lambda *args, **kwargs: rows.copy()
    )
    summary = {
        "count": count,
        "dims": [2, 2],
        "seed": 0,
        "tolerance": 1e-9,
        "failures": _failures(rows),
        "max_chsh": float(membership.chsh_combinations(rows).max()),
    }
    code, out, _ = run(capsys, "sample", str(count))
    assert code == 0
    payload = {"summary": summary, "vectors": rows.tolist()}
    assert out == json.dumps(payload, indent=2) + "\n"
    code, out, err = run(capsys, "sample", str(count), "--format", "csv")
    assert code == 0
    assert out == cli._csv_text(["x1", "x2", "x3", "x4"], rows.tolist()) + "\n"
    assert err == "summary: " + " ".join(f"{k}={v}" for k, v in summary.items()) + "\n"


def test_sample_blocked_summary_matches_the_whole_array(capsys, monkeypatch):
    # the 2,500 rows of seed 11 at 2x2, 50 of them rounded box vertices
    # whose margin_Q reads below -1e-9, with every seventh row swapped for a
    # uniform draw from the box, many of which lie outside Q; the summary
    # in blocks of at most 97 rows is the summary of the whole array
    rows = quantum.sample_correlations(2500, 2, 2, seed=11)
    rows[::7] = np.random.default_rng(11).uniform(-1.0, 1.0, size=rows[::7].shape)
    monkeypatch.setattr(
        quantum, "sample_correlations", lambda *args, **kwargs: rows.copy()
    )
    code, whole_out, _ = run(capsys, "sample", "2500", "--seed", "11")
    assert code == 0
    monkeypatch.setattr(membership, "_PASS_ROWS", 97)
    code, out, _ = run(capsys, "sample", "2500", "--seed", "11")
    assert (code, out) == (0, whole_out)
    summary = json.loads(out)["summary"]
    outside = membership.quantum_margins(rows[::7]) < -1e-7
    assert summary["failures"] == _failures(rows) == np.count_nonzero(outside) > 0
    assert summary["max_chsh"] == float(membership.chsh_combinations(rows).max())


def _sample_peak(tmp_path, count, fmt):
    target = tmp_path / f"sample.{fmt}"
    tracemalloc.start()
    try:
        argv = ["sample", str(count), "--seed", "1", "--format", fmt]
        assert main([*argv, "--output", str(target)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sample_memory_grows_by_the_array(capsys, tmp_path, monkeypatch, fmt):
    # numpy reports its buffers to tracemalloc; the (count, 4) rows are 32
    # bytes each, and the text is held one block at a time.  Rows of the box
    # stand in for the draws, which are slow under tracemalloc and whose
    # memory tests/test_quantum.py bounds
    def rows(count, *args, **kwargs):
        return np.random.default_rng(count).uniform(-1.0, 1.0, size=(count, 4))

    monkeypatch.setattr(quantum, "sample_correlations", rows)
    _sample_peak(tmp_path, 100, fmt)  # one-time allocations of a first call
    small, large = (_sample_peak(tmp_path, n, fmt) for n in (20_000, 200_000))
    assert large - small <= 64 * (200_000 - 20_000)


def test_output_replaces_a_file_only_when_complete(capsys, tmp_path, monkeypatch):
    target = tmp_path / "rows.json"
    target.write_text("old")
    target.chmod(0o600)

    def failing(blocks):
        yield "partial"
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_json_rows", failing)
    code, out, err = run(capsys, "sample", "5", "--output", str(target))
    assert (code, out, err) == (2, "", "error: disk full\n")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.json"]
    monkeypatch.undo()
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    code, out, _ = run(capsys, "sample", "5", "--output", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink()  # written through the link, not over it
    assert target.read_text() == run(capsys, "sample", "5")[1]
    assert target.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "rows.json"]


def test_output_to_a_pipe_is_written_in_place(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True
    )
    reader.start()
    code, out, _ = run(capsys, "mu", "0.5", "0", "0", "0", "--output", str(fifo))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert (code, out) == (0, "")
    assert received == [run(capsys, "mu", "0.5", "0", "0", "0")[1]]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


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


def test_sample_count_numpy_cannot_size(capsys, monkeypatch):
    # refused before any sampling, naming the count
    def no_sampling(*args):
        raise AssertionError("sampling ran")

    monkeypatch.setattr(quantum, "_sample_chunk", no_sampling)
    count = "99999999999999999999"
    code, out, err = run(capsys, "sample", count, "--dims", "2,2")
    assert (code, out) == (2, "")
    assert err == f"error: count {count} is too large: numpy cannot size its rows\n"


def test_sample_out_of_memory_is_an_input_error(capsys, monkeypatch):
    # a row array that cannot be allocated exits 2 with numpy's message,
    # which names the count, not with a traceback
    message = "Unable to allocate 160. B for an array with shape (5, 4)"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(quantum, "_sample_chunk", no_memory)
    code, out, err = run(capsys, "sample", "5")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_parallel_must_be_positive(capsys, workers):
    code, out, err = run(capsys, "sample", "5", "--parallel", workers)
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
    code, out, _ = run(capsys, "check-lemmas", *COARSE, "--samples", "2000")
    data = json.loads(out)
    assert code == 0
    assert data["all_passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert "curvature-positivity" in names
    assert "angle-sum-maximum" in names
    assert "parity-contradiction" in names
    assert "mu-equivalence" in names
    assert "vertex-oracle-agreement" in names


def test_check_lemmas_refuses_parallel(capsys, monkeypatch):
    # the scans run in one process, so the command has no --parallel
    monkeypatch.setattr(cli.checks, "curvature_positivity_scan", _no_scan)
    code, out, err = run(capsys, "check-lemmas", "--parallel", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --parallel 2" in err


def test_check_lemmas_self_test_fail(capsys, monkeypatch):
    # a failing check turns all_passed false, exits 1 and is named on stderr
    monkeypatch.setattr(checks, "ghz_contradiction", lambda relaxed=False: relaxed)
    code, out, err = run(capsys, "check-lemmas", *COARSE, "--samples", "500")
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False
    assert [c["name"] for c in data["checks"] if not c["passed"]] == [
        "parity-contradiction"
    ]
    assert err == "failed checks: parity-contradiction\n"


def test_check_lemmas_csv_unsupported(capsys, monkeypatch):
    # the nested results are JSON only; the parser has no --format for it
    monkeypatch.setattr(cli.checks, "curvature_positivity_scan", _no_scan)
    code, out, err = run(capsys, "check-lemmas", "--format", "csv")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format csv" in err


def test_check_lemmas_rejects_bad_samples_and_step(capsys):
    for argv in (
        ["--samples", "0"],
        ["--samples", "-1"],
        *(
            [flag, step]
            for flag in ("--hessian-step", "--anglesum-step")
            for step in ("1e-300", "0", "-0.0")
        ),
    ):
        code, out, err = run(capsys, "check-lemmas", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert argv[1] in err


def test_check_lemmas_rejects_negative_seed(capsys, monkeypatch):
    # default_rng refuses a negative seed; the refusal comes before any scan
    monkeypatch.setattr(cli.checks, "curvature_positivity_scan", _no_scan)
    monkeypatch.setattr(cli.checks, "angle_sum_max_scan", _no_scan)
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
    q_margins, verdict_q = membership.quantum_verdicts(points, tolerance)
    c_margins = membership.classical_margins(membership.mu_array(points))
    verdict_c = c_margins >= -tolerance
    off_band = np.abs(q_margins) > checks._MU_BAND
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
    [
        1,
        membership._PASS_ROWS - 1,
        membership._PASS_ROWS,
        membership._PASS_ROWS + 1,
        20_000,
    ],
)
def test_blocked_checks_match_one_draw(samples, tolerance):
    for seed in (0, 3):
        assert checks._mu_equivalence_check(
            samples, seed, tolerance
        ) == _one_draw_mu_check(samples, seed, tolerance)
        assert checks._oracle_agreement_check(
            samples, seed, tolerance
        ) == _one_draw_oracle_check(samples, seed, tolerance)


def test_check_lemmas_loose_tolerance_output_pinned(capsys):
    code, out, err = run(
        capsys,
        "check-lemmas",
        *COARSE,
        "--seed", "3",
        "--samples", "20000",
        "--tolerance", "0.3",
    )
    assert code == 1
    assert err == "failed checks: mu-equivalence\n"
    digest = hashlib.md5(out.encode("utf-8")).hexdigest()
    assert digest == "bb51772d5b13429da0cf586b4206b04c"


def test_sampled_checks_see_every_row_once(capsys, monkeypatch):
    # each check makes one pass per block: the mu check takes the arcsines
    # once and reads them for both margins, the oracle check forms both
    # verdicts in one call; their blocks, in call order, are the one-draw
    # points of each check's seed, and the unshared paths are not taken
    samples = 2 * membership._PASS_ROWS + 5
    drawn = np.random.default_rng(4).uniform(-1.0, 1.0, size=(samples, 4))
    arcsines, mu = np.arcsin(drawn), membership.mu_array(drawn)
    oracle_drawn = np.random.default_rng(5).uniform(-1.0, 1.0, size=(samples, 4))
    seen = {}

    def recording(owner, name):
        func = getattr(owner, name)

        def wrapper(points, *args):
            assert len(points) <= membership._PASS_ROWS
            # a copy, as the mu check turns its arcsines into mu in place
            seen.setdefault(name, []).append(np.array(points))
            return func(points, *args)

        monkeypatch.setattr(owner, name, wrapper)

    shared = ("_arcsine_margins", "classical_margins")
    for name in (*shared, "quantum_margins", "mu_array"):
        recording(membership, name)
    for name in ("_oracle_verdicts", "lvt_oracle_batch"):
        recording(checks, name)
    code, _, _ = run(
        capsys,
        "check-lemmas", *COARSE, "--seed", "4", "--samples", str(samples),
    )
    assert code == 0
    rows = {name: sum(map(len, blocks)) for name, blocks in seen.items()}
    assert rows == {
        "_arcsine_margins": samples,
        "classical_margins": samples,
        "_oracle_verdicts": samples,
    }
    assert _bits(np.concatenate(seen["_arcsine_margins"])) == _bits(arcsines)
    assert _bits(np.concatenate(seen["classical_margins"])) == _bits(mu)
    assert np.array_equal(np.concatenate(seen["_oracle_verdicts"]), oracle_drawn)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_one_row_last_block_counts_as_in_one_draw(capsys, monkeypatch):
    # --samples one past a block leaves a last block of one row; each check's
    # values there are the bits its row has in one call over all the draws
    samples = membership._PASS_ROWS + 1
    angles = np.arcsin(np.random.default_rng(6).uniform(-1.0, 1.0, size=(samples, 4)))
    oracle_drawn = np.random.default_rng(7).uniform(-1.0, 1.0, size=(samples, 4))
    q_margins = membership._arcsine_margins(angles)
    c_margins = membership.classical_margins((2.0 / np.pi) * angles)
    vertex, facet = checks._oracle_verdicts(oracle_drawn, 1e-9)
    seen = {}

    def recording(owner, name):
        func = getattr(owner, name)

        def wrapper(points, *args):
            seen.setdefault(name, []).append((len(points), func(points, *args)))
            return seen[name][-1][1]

        monkeypatch.setattr(owner, name, wrapper)

    recording(membership, "_arcsine_margins")
    recording(membership, "classical_margins")
    recording(checks, "_oracle_verdicts")
    code, out, _ = run(
        capsys,
        "check-lemmas", *COARSE, "--seed", "6", "--samples", str(samples),
    )
    assert code == 0
    assert {name: [n for n, _ in calls] for name, calls in seen.items()} == {
        name: [membership._PASS_ROWS, 1] for name in seen
    }

    def joined(name, part=slice(None)):
        return np.concatenate([np.asarray(values)[part] for _, values in seen[name]])

    assert _bits(joined("_arcsine_margins")) == _bits(q_margins)
    assert _bits(joined("classical_margins")) == _bits(c_margins)
    assert np.array_equal(joined("_oracle_verdicts", 0), vertex)
    assert np.array_equal(joined("_oracle_verdicts", 1), facet)
    results = {r["name"]: r for r in json.loads(out)["checks"]}
    off_band = np.abs(q_margins) > checks._MU_BAND
    mu_count = ((q_margins >= -1e-9) != (c_margins >= -1e-9))[off_band].sum()
    assert results["mu-equivalence"]["disagreements_outside_band"] == mu_count
    oracle_count = (vertex != facet).sum()
    assert results["vertex-oracle-agreement"]["disagreements"] == oracle_count


def _edge_rows():
    # uniform draws plus the rows where the sampled checks' verdicts turn:
    # components at +-1 and 0, points of Q's boundary and within the mu band
    # of it, and points whose largest CHSH value is exactly 2 or 2.25
    rng = np.random.default_rng(2202)
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=4)))
    phis = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(4000, 3))
    phis = np.column_stack([phis, phis.sum(axis=1) - math.pi])
    boundary = np.sin(phis[np.abs(phis[:, 3]) <= 0.5 * math.pi])
    near = [boundary * scale for scale in (1.0 - 1e-8, 1.0 - 1e-10, 1.0 + 1e-10)]
    chsh_edges = np.array(
        [
            [0.5, 0.5, 0.5, -0.5],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 0.25, 0.75, 0.0],
            [0.5, 0.5, 0.625, -0.625],
        ]
    )
    uniform = rng.uniform(-1.0, 1.0, size=(3000, 4))
    rows = np.concatenate([grid, boundary, *near, chsh_edges, uniform])
    return np.clip(rows, -1.0, 1.0)


def test_shared_check_passes_match_the_unshared_ones(monkeypatch):
    # the per-block verdicts of both sampled checks, restated with one
    # arcsine and one CHSH pass per use and numpy's own row reductions; Q's
    # verdict reads the margin again one ulp inward along the ray where it
    # is within 1e-7 below -tolerance
    points = _edge_rows()
    patterns = membership.SIGN_PATTERNS.T
    angles = np.arcsin(points)
    q_margins = math.pi - (angles @ patterns).max(axis=-1)
    shifted = math.pi - (np.arcsin(points / (1.0 + 2.0**-52)) @ patterns).max(axis=-1)
    c_margins = 2.0 - (((2.0 / np.pi) * angles) @ patterns).max(axis=-1)
    facet_margins = 2.0 - (points @ patterns).max(axis=-1)
    vertex_values = np.abs(points @ checks._VERTEX_BASIS.T / 4.0).sum(axis=-1)
    assert (np.abs(q_margins) <= checks._MU_BAND).sum() > 100
    assert (facet_margins == 0.0).sum() >= 3 and (facet_margins == -0.25).any()
    seen = {}

    def recording(owner, name):
        func = getattr(owner, name)

        def wrapper(*args):
            # the first call of each check; the shifted margins come later
            value = func(*args)
            seen.setdefault(name, value)
            return value

        monkeypatch.setattr(owner, name, wrapper)

    recording(membership, "_arcsine_margins")
    recording(membership, "classical_margins")
    recording(checks, "_oracle_verdicts")
    # each check draws all the points as one block
    monkeypatch.setattr(checks, "_draws", lambda samples, seed: [points])
    # at tolerance 0.25 a facet margin and a vertex value sit on their bounds
    for tolerance in (1e-9, 1e-7, 1e-3, 0.25, 0.3):
        seen.clear()
        mu = checks._mu_equivalence_check(len(points), 0, tolerance)
        oracle = checks._oracle_agreement_check(len(points), 0, tolerance)
        assert _bits(seen["_arcsine_margins"]) == _bits(q_margins)
        assert _bits(seen["classical_margins"]) == _bits(c_margins)
        band = (q_margins < -tolerance) & (q_margins >= -tolerance - 1e-7)
        verdict_q = (q_margins >= -tolerance) | (band & (shifted >= -tolerance))
        verdict_c = c_margins >= -tolerance
        off_band = np.abs(q_margins) > checks._MU_BAND
        expected = int((verdict_q != verdict_c)[off_band].sum())
        assert mu["disagreements_outside_band"] == expected
        vertex, facet = seen["_oracle_verdicts"]
        assert np.array_equal(vertex, vertex_values <= 1.0 + 0.5 * tolerance)
        assert np.array_equal(facet, facet_margins >= -tolerance)
        assert oracle["disagreements"] == int((vertex != facet).sum())


def test_check_lemmas_output_pinned(capsys):
    # the default op's JSON, bitwise, at seed 5
    code, out, _ = run(capsys, "check-lemmas", "--seed", "5")
    assert code == 0
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == (
        "6938fe004fe0b76fc1b67c01fdde079f"
    )


def _traced_peak(check, samples):
    check(1, 0, 1e-9)  # one-time allocations of a first call are not the check's
    tracemalloc.start()
    try:
        check(samples, 0, 1e-9)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "check", [checks._mu_equivalence_check, checks._oracle_agreement_check]
)
def test_sampled_check_memory_does_not_grow_with_samples(check):
    # numpy reports its buffers to tracemalloc
    assert _traced_peak(check, 400_000) <= _traced_peak(check, 20_000) + 2**20


def test_oracle_path_disagreement_names_its_row(capsys, monkeypatch):
    # a fault in the facet path: every CHSH value doubled
    largest = membership._largest_combination
    monkeypatch.setattr(membership, "_largest_combination", lambda x: 2 * largest(x))
    points = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, -0.2, 0.3, 0.25]])
    vertex = float(np.abs(points @ checks._VERTEX_BASIS.T / 4.0).sum(axis=-1)[1])
    facet = float(
        max(np.abs(points[1]).max(), membership.chsh_combinations(points)[1].max())
    )
    with pytest.raises(cli.InternalCheckError) as info:
        checks.lvt_oracle_batch(points)
    message = str(info.value)
    assert message == (
        f"vertex and facet oracle paths disagree by {abs(vertex - facet):.3e} "
        f"at row 1, x = (0.1, -0.2, 0.3, 0.25): vertex value {vertex!r}, "
        f"facet value {facet!r}"
    )

    code, out, err = run(capsys, "check-lemmas", *COARSE, "--samples", "100")
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


def test_check_lemmas_refuses_a_grid_over_the_table_cap(capsys, monkeypatch):
    # 8.98e8 points per axis: numpy could index the (n, n) table, but it is
    # far over the 4 GiB cap, so the step is refused before an axis is built
    def no_axis(*args):
        raise AssertionError("a grid axis was built")

    monkeypatch.setattr(cli.checks, "_grid_axis", no_axis)
    code, out, err = run(capsys, "check-lemmas", "--anglesum-step", "7e-9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: step 7e-09 gives 8.976e+08 grid points per axis")
    assert "4 GiB cap" in err


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_error_names_the_path_given(capsys, tmp_path, monkeypatch, fmt):
    # the temporary file beside the target is not what the user gave
    monkeypatch.chdir(tmp_path)
    for target in (str(tmp_path / "missing" / "out.json"), "missing/out.json"):
        code, out, err = run(
            capsys, "mu", "0.5", "0", "0", "0", "--format", fmt, "--output", target
        )
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {target!r}\n"
    assert list(tmp_path.iterdir()) == []


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


# the options of each subcommand, 34 in all, and the ones it no longer takes
OPTIONS = {
    "membership": {"--input", "--tolerance", "--output", "--format"},
    "decompose": {"--input", "--tolerance", "--output", "--format"},
    "realize": {"--input", "--tolerance", "--output"},
    "verify": {"--tolerance", "--output", "--format"},
    "sample": {"--tolerance", "--seed", "--output", "--format", "--dims", "--parallel"},
    "check-lemmas": {
        "--tolerance",
        "--seed",
        "--output",
        "--hessian-step",
        "--hessian-margin",
        "--anglesum-step",
        "--samples",
    },
    "slice": {"--output", "--format"},
    "mu": {"--input", "--tolerance", "--output", "--format", "--inverse"},
}
REMOVED = {
    "membership": ("--seed", "--parallel"),
    "decompose": ("--seed", "--parallel"),
    "realize": ("--seed", "--parallel", "--format"),
    "verify": ("--seed", "--parallel"),
    "sample": (),
    "check-lemmas": ("--parallel", "--format", "--step", "--self-test-fail"),
    "slice": ("--seed", "--parallel", "--tolerance"),
    "mu": ("--seed", "--parallel"),
}
# a valid command line of each subcommand, and a valid value of each option
ARGV = {
    "membership": ["0.5", "0", "0", "0"],
    "decompose": ["0.5", "0", "0", "0"],
    "realize": ["0.5", "0", "0", "0"],
    "verify": ["realization.json"],
    "sample": ["3"],
    "check-lemmas": [*COARSE, "--samples", "100"],
    "slice": ["3", "Q"],
    "mu": ["0.5", "0", "0", "0"],
}
VALUES = {
    "--input": ["vector.json"],
    "--tolerance": ["1e-9"],
    "--seed": ["1"],
    "--output": ["out.json"],
    "--format": ["json"],
    "--parallel": ["2"],
    "--dims": ["2,3"],
    "--hessian-step": ["0.2"],
    "--hessian-margin": ["0.1"],
    "--anglesum-step": ["0.2"],
    "--samples": ["10"],
    "--step": ["0.2"],
    "--inverse": [],
    "--self-test-fail": [],
}


def parser_options():
    """The settable flags of each subcommand of `build_parser()`."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            flag for a in command._actions if a.dest != "help" for flag in a.option_strings
        }
        for name, command in sub.choices.items()
    }


def test_each_subcommand_takes_only_its_own_options(capsys, monkeypatch):
    assert parser_options() == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 34
    for command, flags in OPTIONS.items():
        for flag in flags:
            args = cli.build_parser().parse_args(
                [command, *ARGV[command], flag, *VALUES[flag]]
            )
            assert args.func.__name__ == "cmd_" + command.replace("-", "_")

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling ran")

    monkeypatch.setattr(cli.checks, "curvature_positivity_scan", _no_scan)
    monkeypatch.setattr(cli.checks, "angle_sum_max_scan", _no_scan)
    monkeypatch.setattr(cli.quantum, "sample_correlations", no_sampling)
    pairs = [(command, flag) for command, flags in REMOVED.items() for flag in flags]
    assert len(pairs) == 18
    for command, flag in pairs:
        given = [flag, *VALUES[flag]]
        argv = [command, *ARGV[command], *given]
        with pytest.raises(SystemExit) as refused:
            cli.build_parser().parse_args(argv)
        assert refused.value.code == 2
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(given)}" in err


def test_readme_lists_each_subcommands_options():
    # README's per-command bullets, `- `name`: ...`, name exactly the flags
    # each subparser has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme[readme.index("## Command line") : readme.index("## Library")]
    bullets = re.findall(r"^- `([\w-]+)`: (.*(?:\n  .*)*)", section, re.MULTILINE)
    listed = {name: set(re.findall(r"`(--[\w-]+)", text)) for name, text in bullets}
    assert listed == parser_options()
