import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import oracles
from soqrs import (
    GeneratorMatrix,
    QParam,
    RepSpec,
    SpectralParam,
    build_class1,
    build_degenerate,
    build_degenerate_primed,
    build_so3,
)
from soqrs import cli
from soqrs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_so3_dump(capsys):
    code, out, _ = run(capsys, "build", "--so3", "--l", "1", "--q", "1")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "so3"
    assert data["dim"] == 3
    diag_entries = [e for g in data["generators"] if g["i"] == 2
                    for e in g["entries"]]
    got = {(r, c): complex(re, im) for r, c, re, im in diag_entries}
    assert got == {(0, 0): -1j, (2, 2): 1j}


def test_build_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["build", "--degenerate", "--r", "3", "--s", "3", "--epsilon", "0",
            "--lambda-re", "1/2", "--cutoff", "4", "--q", "2"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    data = json.loads(b1)
    assert data["dim"] == 105  # blocks up to m+m' = 4


def test_verify_degenerate_passes(capsys):
    code, out, _ = run(capsys, "verify", "--degenerate", "--r", "3", "--s", "3",
                       "--epsilon", "1", "--lambda-re", "7/10", "--cutoff", "6")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_metric_reports_its_reason(capsys):
    args = ["verify", "--degenerate", "--r", "4", "--s", "4", "--epsilon", "0",
            "--cutoff", "8", "--metric"]
    code, out, _ = run(capsys, *args, "--lambda-re", "7/10", "--json")
    metric = json.loads(out)["checks"][-1]
    assert code == 2 and metric["status"] == "indefinite"
    assert metric["reason"].startswith("first nonpositive weight: block (0, 2)")
    code, out, _ = run(capsys, *args, "--lambda-re", "7/10")
    assert code == 2 and f"status=indefinite\nreason: {metric['reason']}\n" in out
    code, out, _ = run(capsys, *args, "--lambda-re", "3", "--lambda-im", "1", "--json")
    metric = json.loads(out)["checks"][-1]
    assert code == 0 and metric["status"] == "found" and metric["reason"] is None


@pytest.mark.parametrize("q,cutoff", [("50", "200"), ("1e6", "40")])
def test_verify_out_of_range_q_is_parameter_error(capsys, q, cutoff):
    code, _, err = run(capsys, "verify", "--degenerate", "--r", "3", "--s", "3",
                       "--epsilon", "0", "--lambda-re", "37/100", "--q", q,
                       "--cutoff", cutoff)
    assert code == 3
    assert "parameter error" in err and "out of floating-point range" in err
    assert "Traceback" not in err and "radicand" not in err


def test_verify_compact_suite(capsys):
    code, out, _ = run(capsys, "verify", "--compact-suite", "--q", "2")
    assert code == 0


@pytest.mark.parametrize("option,value", [("--max-n", "2"), ("--max-m", "-1")])
def test_verify_empty_compact_suite_is_usage_error(capsys, option, value):
    # a suite of no checks would PASS while checking nothing
    code, out, err = run(capsys, "verify", "--compact-suite", option, value, "--json")
    assert code == 3 and out == ""
    assert f"{option} {value} leaves --compact-suite nothing to check" in err


def test_verify_corrupted_dump_fails(tmp_path, capsys):
    dump = tmp_path / "rep.json"
    assert main(["build", "--degenerate", "--r", "3", "--s", "3",
                 "--epsilon", "0", "--lambda-re", "1/2", "--cutoff", "6",
                 "--q", "2", "--out", str(dump)]) == 0
    capsys.readouterr()
    data = json.loads(dump.read_text())
    data["generators"][2]["entries"][0][2] += 0.1
    dump.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--dump", str(dump))
    assert code == 2
    assert "FAIL" in out


def test_verify_refuses_a_bad_tol_or_depth(tmp_path, capsys):
    # an infinite --tol would pass this corrupted dump; a NaN or
    # nonpositive one would fail every row: each is refused before reading
    dump = tmp_path / "rep.json"
    assert main(["build", "--degenerate", "--r", "3", "--s", "3", "--epsilon", "0",
                 "--lambda-re", "1/3", "--cutoff", "6", "--out", str(dump)]) == 0
    capsys.readouterr()
    data = json.loads(dump.read_text())
    data["generators"][2]["entries"][0][2] += 0.5
    dump.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--dump", str(dump))
    assert code == 2 and "FAIL  overall" in out
    for tol in ("inf", "nan", "-1", "0"):
        code, out, err = run(capsys, "verify", "--dump", str(dump), f"--tol={tol}")
        assert code == 3 and out == "" and f"--tol {float(tol)} must be finite and positive" in err
    code, out, err = run(capsys, "verify", "--dump", str(dump), "--depth=-1")
    assert code == 3 and out == "" and "--depth -1 must be at least 0" in err
    code, out, err = run(capsys, "verify", "--so3", "--l", "1", "--tol=inf")
    assert code == 3 and out == "" and "--tol inf" in err


@pytest.mark.parametrize("corruption", ["repeated entry", "row past dim", "half-integer row",
                                        "nnz off by 7", "rows of eight numbers",
                                        "row as a string", "imaginary part as false"])
def test_verify_dump_refuses_bad_entries(tmp_path, capsys, corruption):
    dump = tmp_path / "rep.json"
    assert main(["build", "--class1", "--n", "6", "--m", "4", "--q", "0.5",
                 "--out", str(dump)]) == 0
    data = json.loads(dump.read_text())
    gen = data["generators"][1]
    entries = gen["entries"]
    row, col = entries[0][:2]
    if corruption == "repeated entry":
        # COO -> CSC would add the two, and the check would report on a
        # matrix the file does not hold
        entries.append(list(entries[0]))
        what = f"entry ({row}, {col}) is given twice"
    elif corruption == "row past dim":
        entries[0][0] = data["dim"]
        what = f"entry ({data['dim']}, {col}) lies outside the 105 x 105 matrix"
    elif corruption == "half-integer row":
        # an int cast would move it back to `row`, and the check would pass
        entries[0][0] += 0.5
        what = f"entry ({row}.5, {col}) has a row or col that is not an integer"
    elif corruption == "nnz off by 7":
        gen["nnz"] += 7
        what = f"the header gives nnz {len(entries) + 7} but the table holds {len(entries)}"
    elif corruption == "rows of eight numbers":
        # every pair of entries in one row: a reshape to four columns would undo it
        assert len(entries) % 2 == 0
        entries[:] = [a + b for a, b in zip(entries[::2], entries[1::2])]
        what = f"entry 0 is not [row, col, re, im]: {entries[0]!r}"
    elif corruption == "imaginary part as false":
        # numpy would read it among numbers as 0.0
        entries[0][3] = False
        what = f"entry 0 is not [row, col, re, im]: {entries[0]!r}"
    else:
        # a float conversion would read the string as the number
        entries[0][0] = str(row)
        what = f"entry 0 is not [row, col, re, im]: {entries[0]!r}"
    dump.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--dump", str(dump))
    assert code == 3 and out == ""
    assert f"parameter error: generator 3 of {dump}: {what}" in err, err


@pytest.mark.parametrize("damage", ["truncated", "not UTF-8"])
def test_verify_malformed_dump_is_an_input_error(tmp_path, capsys, damage):
    dump = tmp_path / "rep.json"
    assert main(["build", "--so3", "--l", "2", "--out", str(dump)]) == 0
    text = dump.read_bytes()
    dump.write_bytes(text[:len(text) // 2] if damage == "truncated" else b"\xff" + text)
    code, out, err = run(capsys, "verify", "--dump", str(dump))
    assert code == 2 and out == ""
    assert err.startswith("soqrs: input error: "), err


@pytest.mark.parametrize("field,value,shown", [
    (("dim",), "9", '"9"'), (("dim",), 9.5, "9.5"), (("dim",), True, "true"),
    (("generators", 1, "i"), "x", '"x"'), (("generators",), [], "[]"),
    (("generators",), None, "null"), (("config", "q"), None, "null"),
    (("config",), None, "null"), (("kind",), 7, "7")])
def test_verify_dump_refuses_a_header_field_of_the_wrong_type(tmp_path, capsys, field, value,
                                                              shown):
    dump = tmp_path / "rep.json"
    assert main(["build", "--class1", "--n", "4", "--m", "1", "--out", str(dump)]) == 0
    data = json.loads(dump.read_text())
    *at, last = field
    holder = data
    for key in at:
        holder = holder[key]
    holder[last] = value
    dump.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--dump", str(dump))
    name = ".".join(map(str, field)).replace(".1.", "[1].")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"soqrs: input error: {dump}: {name} is {shown}, not "), err


def test_verify_dump_refuses_a_missing_or_repeated_generator(tmp_path, capsys):
    # the checks key generators by index: with generator 2 deleted, or
    # replaced by a copy of generator 3, the dump passed on the rows left
    dump = tmp_path / "rep.json"
    for build, edit, found in (
            (["--degenerate", "--r", "3", "--s", "3", "--epsilon", "0", "--lambda-re", "1/3",
              "--cutoff", "6"], lambda gens: gens[1:], "2..6, each once; found [3, 4, 5, 6]"),
            (["--degenerate", "--r", "3", "--s", "3", "--epsilon", "0", "--lambda-re", "1/3",
              "--cutoff", "6"], lambda gens: gens[:2] + gens[3:],
             "2..6, each once; found [2, 3, 5, 6]"),
            (["--class1", "--n", "4", "--m", "1"], lambda gens: [gens[1]] + gens[1:],
             "2..4, each once; found [3, 3, 4]")):
        assert main(["build", *build, "--out", str(dump)]) == 0
        data = json.loads(dump.read_text())
        data["generators"] = edit(data["generators"])
        dump.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--dump", str(dump))
        assert code == 3 and out == ""
        assert err == f"soqrs: parameter error: generator indices must be {found}\n", err


def test_classify_reducible_with_ladder(capsys):
    code, out, _ = run(capsys, "classify", "--r", "4", "--s", "4",
                       "--epsilon", "0", "--lambda-re", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["irreducible"] is False
    assert len(data["constituents"]) == 3
    assert any("ladder" in n for n in data["notes"])


def test_classify_odd_odd_strip_is_irreducible(capsys):
    for lam in ("1", "3"):  # a mirror pair of so'(3,3), epsilon 1
        code, out, _ = run(capsys, "classify", "--r", "3", "--s", "3",
                           "--epsilon", "1", "--lambda-re", lam, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["irreducible"] is True
        assert data["star_series"] == "none"
        assert [c["name"] for c in data["constituents"]] == ["full"]


def test_scan_grid(capsys):
    code, out, _ = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "0",
                       "--lambda-int-min", "-4", "--lambda-int-max", "8",
                       "--lambda-rationals", "1/3,7/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["disagreements"] == 0
    assert len(data["rows"]) == 15


def test_scan_refuses_an_empty_lambda_list(capsys):
    code, out, err = run(capsys, "scan", "--r", "4", "--s", "4", "--epsilon", "0",
                         "--lambda-int-min", "5", "--lambda-int-max", "4")
    assert code == 3 and out == ""
    assert "no lambda to scan: the integer range 5..4 is empty" in err
    code, out, _ = run(capsys, "scan", "--r", "4", "--s", "4", "--epsilon", "0",
                       "--lambda-int-min", "5", "--lambda-int-max", "4",
                       "--lambda-rationals", "1/2", "--json")
    assert code == 0 and len(json.loads(out)["rows"]) == 1


def test_scan_refuses_a_bad_lambda_rational_as_a_usage_error(capsys):
    # each token is read as --lambda-re is; 1/0 escaped main as a ZeroDivisionError
    for token, why in (("1/0", "Fraction(1, 0)"), ("abc", "Invalid literal for Fraction: 'abc'")):
        code, out, err = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "0",
                             "--lambda-rationals", f"1/2,{token}")
        assert code == 3 and out == ""
        assert err.endswith("error: argument --lambda-rationals: not an exact rational: "
                            f"{token!r} ({why})\n"), err


def test_usage_error_exit_code(capsys):
    assert main(["build"]) == 3
    assert main(["nonsense"]) == 3
    code, _, _ = run(capsys, "classify", "--r", "2", "--s", "4",
                     "--epsilon", "0", "--lambda-re", "1")
    assert code == 3


def test_unread_options_are_usage_errors(capsys):
    code, _, err = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "0",
                       "--lambda-re", "5")
    assert code == 3 and "--lambda-re" in err
    code, _, err = run(capsys, "classify", "--r", "4", "--s", "4",
                       "--epsilon", "0", "--lambda-re", "2", "--cutoff", "4")
    assert code == 3 and "--cutoff" in err
    # scan works its window out from the walls
    code, out, err = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "1",
                         "--lambda-int-min", "0", "--lambda-int-max", "0", "--cutoff", "8")
    assert code == 3 and out == "" and "--cutoff" in err
    # a command builds one target: a second one is refused, not dropped
    for args in (("build", "--so3", "--degenerate"),
                 ("verify", "--compact-suite", "--degenerate")):
        code, out, err = run(capsys, *args, "--r", "3", "--s", "3", "--lambda-re", "1")
        assert code == 3 and out == "" and "--degenerate: not allowed with" in err


# the options build and verify register once, by their argparse dest
SHARED_OPTIONS = {"primed", "l", "n", "m", "r", "s", "epsilon", "lambda_re", "lambda_im_t",
                  "lambda_im", "q", "cutoff", "json", "out"}


def test_build_and_verify_read_their_shared_options_alike(capsys):
    parser = cli._build_parser()
    shared = ["--primed", "--l", "7/2", "--n", "6", "--m", "5", "--r", "3", "--s", "5",
              "--epsilon", "1", "--lambda-re", "-5/2", "--lambda-im-t", "1/3",
              "--lambda-im", "0.7", "--q", "1.5", "--cutoff", "9", "--json", "--out", "x.json"]
    for argv in (shared, []):
        build, verify = (vars(parser.parse_args(cli._attach_signed_values(
            [command, "--degenerate", *argv]))) for command in ("build", "verify"))
        assert set(build) - {"command", "func", "so3", "class1", "degenerate"} == SHARED_OPTIONS
        assert {k: build[k] for k in SHARED_OPTIONS} == {k: verify[k] for k in SHARED_OPTIONS}
    assert build["lambda_re"] is None and build["cutoff"] == 8  # the defaults
    for bad in (["--n", "x"], ["--epsilon", "2"], ["--cutoff", "1.5"], ["--q", "two"],
                ["--lambda-re", "1/0"], ["--r", "3.0"], ["--out"]):
        (code_b, out_b, err_b), (code_v, out_v, err_v) = (
            run(capsys, command, "--degenerate", *bad) for command in ("build", "verify"))
        assert code_b == code_v == 3 and out_b == out_v == "" and bad[0] in err_b
        assert err_b.replace("soqrs build:", "soqrs verify:") == err_v


def test_verify_dump_with_a_nan_entry_fails(tmp_path, capsys):
    # a NaN row after a finite one once left the overall verdict PASS
    dump = tmp_path / "class1.json"
    assert main(["build", "--class1", "--n", "4", "--m", "2", "--out", str(dump)]) == 0
    capsys.readouterr()
    data = json.loads(dump.read_text())
    next(g for g in data["generators"] if g["i"] == 4)["entries"][0][2] = float("nan")
    dump.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--dump", str(dump))
    assert code == 2
    assert "FAIL  cubic[3,4]b              residual=nan" in out
    assert "FAIL  overall max=nan" in out


def test_lambda_is_exact_text_only(capsys):
    for extra in (["--lambda-float", "0.7"], ["--lambda-re", "1/2", "--snap-lambda", "100"]):
        code, out, err = run(capsys, "classify", "--r", "4", "--s", "4", "--epsilon", "0",
                             *extra)
        assert code == 3 and out == "" and extra[-2] in err
    # decimal and exponent text is read exactly
    code, out, _ = run(capsys, "classify", "--r", "4", "--s", "4", "--epsilon", "0",
                       "--lambda-re", "0.7", "--lambda-im", "-13e-1", "--json")
    assert code == 0
    cfg = json.loads(out)["config"]
    assert (cfg["lambda_re"], cfg["lambda_im"]) == ("7/10", "-13/10")


def test_config_nulls_options_a_command_lacks(capsys):
    code, out, _ = run(capsys, "classify", "--r", "4", "--s", "4",
                       "--epsilon", "0", "--lambda-re", "2", "--json")
    assert code == 0
    cfg = json.loads(out)["config"]
    assert [cfg[k] for k in ("q", "cutoff", "depth", "tol")] == [None] * 4
    code, out, _ = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "0",
                       "--lambda-int-min", "0", "--lambda-int-max", "1", "--json")
    assert code == 0
    cfg = json.loads(out)["config"]
    assert [cfg[k] for k in ("q", "cutoff", "depth", "tol")] == [None] * 4


def test_verify_empty_tower_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--degenerate", "--r", "3", "--s", "3",
                       "--epsilon", "1", "--lambda-re", "1/3", "--cutoff", "0",
                       "--metric")
    assert code == 3
    assert "below epsilon" in err


@pytest.mark.parametrize("command", ["verify", "build"])
def test_primed_basis_that_does_not_exist_is_refused(capsys, command):
    # at lambda = 0 the primed transform divides by [lambda+0]
    argv = [command, "--degenerate", "--primed", "--r", "3", "--s", "3",
            "--epsilon", "0", "--lambda-re", "0", "--cutoff", "6"]
    code, out, err = run(capsys, *argv, *(["--star"] if command == "verify" else []))
    assert code == 3 and out == ""
    assert "primed basis undefined: factor [lambda+0] vanishes at block (0, 2)" in err
    # the standard basis at the same lambda is still built and checked
    code, _, _ = run(capsys, *[a for a in argv if a != "--primed"])
    assert code == 0


def test_reports_embed_config(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["verify", "--so3", "--l", "2", "--q", "2",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    assert data["config"]["command"] == "verify"
    assert data["config"]["q"] == 2.0
    assert data["passed"] is True


def test_negative_rationals_as_separate_tokens(capsys):
    for argv in (["classify", "--r", "3", "--s", "3", "--epsilon", "0", "--json"],
                 ["build", "--degenerate", "--r", "3", "--s", "3", "--epsilon", "1",
                  "--cutoff", "3"]):
        for re_, im_t, im in (("-5/2", "0", "0"), ("-3", "-1/2", "-2/3"),
                              ("-.5", "-2", "-1e-1")):
            joined = argv + [f"--lambda-re={re_}", f"--lambda-im-t={im_t}",
                             f"--lambda-im={im}"]
            split = argv + ["--lambda-re", re_, "--lambda-im-t", im_t,
                            "--lambda-im", im]
            code_joined, out_joined, _ = run(capsys, *joined)
            code_split, out_split, err = run(capsys, *split)
            assert code_joined == 0 and code_split == 0, err
            assert out_split == out_joined
    code, out, _ = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "0",
                       "--lambda-int-min", "0", "--lambda-int-max", "0",
                       "--lambda-rationals", "-1/2,-7/3", "--json")
    assert code == 0
    assert [row["lambda"] for row in json.loads(out)["rows"]] == [
        "SpectralParam(0)", "SpectralParam(-1/2)", "SpectralParam(-7/3)"]


def test_build_refuses_options_it_does_not_read(capsys):
    for extra in (["--depth", "99"], ["--tol", "5"]):
        code, _, err = run(capsys, "build", "--so3", "--l", "1", *extra)
        assert code == 3 and extra[0] in err
    code, out, _ = run(capsys, "build", "--so3", "--l", "1")
    assert code == 0
    cfg = json.loads(out)["config"]
    assert cfg["depth"] is None and cfg["tol"] is None


def test_verify_reads_old_and_new_dumps(tmp_path, capsys):
    dump = tmp_path / "rep.json"
    assert main(["build", "--degenerate", "--r", "3", "--s", "4", "--epsilon", "1",
                 "--lambda-re", "1/3", "--cutoff", "5", "--out", str(dump)]) == 0
    capsys.readouterr()
    data = json.loads(dump.read_text())
    assert data["config"]["depth"] is None and data["config"]["tol"] is None
    old = tmp_path / "old.json"
    data["config"].update(depth=3, tol=1e-9)  # what dumps recorded before
    old.write_text(json.dumps(data))
    # older builds also wrote lambda as "lambda_float": [re, im]
    for key in ("lambda_re", "lambda_im_t", "lambda_im"):
        del data["config"][key]
    data["config"]["lambda_float"] = [0.7, 1.3]
    older = tmp_path / "older.json"
    older.write_text(json.dumps(data))
    checks = []
    for path in (dump, old, older):
        code, out, _ = run(capsys, "verify", "--dump", str(path), "--json")
        assert code == 0 and json.loads(out)["passed"] is True
        checks.append(json.loads(out)["checks"])
    assert checks[0] == checks[1] == checks[2]
    data["config"]["lambda_float"] = [float("inf"), 0.0]
    older.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--dump", str(older))
    assert code == 3 and out == "" and "is not finite" in err


def test_reports_name_the_walls(capsys):
    code, out, _ = run(capsys, "classify", "--r", "4", "--s", "4", "--epsilon", "0",
                       "--lambda-re", "-2", "--json")
    assert code == 0
    assert json.loads(out)["walls"] == {"ring_up": 2, "diag_m_up": 4,
                                        "diag_mp_up": -4, "ring_down": -6}
    code, out, _ = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "0",
                       "--lambda-int-min", "1", "--lambda-int-max", "1",
                       "--lambda-rationals", "1/2", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["walls"] == {"ring_up": -1, "diag_m_up": 1,
                                "diag_mp_up": 0, "ring_down": -2}
    assert set(rows[1]["walls"].values()) == {None}


def _reference_dump(data: dict) -> str:
    """The dump of the representation `data` describes, through the reference encoder."""
    cfg, q = data["config"], QParam(data["config"]["q"])
    if data["kind"] == "so3":
        gens = build_so3(Fraction(cfg["l"]), q)
        basis = oracles.chain_basis(3, cfg["l"])
    elif data["kind"] == "class1":
        gens = build_class1(cfg["n"], cfg["m"], q)
        basis = oracles.chain_basis(cfg["n"], cfg["m"])
    else:
        lam = SpectralParam.exact(Fraction(cfg["lambda_re"]), Fraction(cfg["lambda_im_t"]),
                                  Fraction(cfg["lambda_im"]))
        spec = RepSpec(cfg["r"], cfg["s"], cfg["epsilon"], lam, q, cfg["cutoff"])
        primed = cfg["basis_kind"] == "primed"
        rep = build_degenerate_primed(spec) if primed else build_degenerate(spec)
        gens, basis = rep.generators, [list(row) for row in oracles.basis_rows(rep.space)]
    return oracles.dump_text(data["kind"], cfg, data["dim"], basis, gens)


@pytest.mark.parametrize("argv", [
    ["--so3", "--l", "0"],  # dim 1, every generator empty
    ["--so3", "--l", "3/2", "--q", "1e-3"],  # half-integer labels as strings
    ["--so3", "--l", "2", "--q", "1"],
    ["--class1", "--n", "4", "--m", "2", "--q", "1"],
    ["--class1", "--n", "5", "--m", "1", "--q", "1e-3"],
    ["--degenerate", "--r", "3", "--s", "3", "--epsilon", "0", "--lambda-re", "1",
     "--cutoff", "0"],  # dim 1, every generator empty
    ["--degenerate", "--r", "3", "--s", "4", "--epsilon", "1", "--cutoff", "5",
     "--lambda-re", "0.7", "--lambda-im", "1.3", "--q", "1e-3"],  # exponent floats, -0.0
    ["--degenerate", "--r", "4", "--s", "4", "--epsilon", "0", "--cutoff", "6",
     "--lambda-re", "3", "--lambda-im", "1", "--primed"],
    ["--degenerate", "--r", "5", "--s", "3", "--epsilon", "0", "--cutoff", "4",
     "--lambda-re", "-5/2", "--lambda-im-t", "1", "--q", "0.5"],
])
def test_build_dump_is_byte_identical_to_reference(tmp_path, capsys, argv):
    code, out, _ = run(capsys, "build", *argv, "--json")
    assert code == 0
    expected = _reference_dump(json.loads(out))
    assert out == expected
    dump = tmp_path / "rep.json"
    code, out, _ = run(capsys, "build", *argv, "--out", str(dump))
    assert code == 0 and out == ""
    assert dump.read_bytes() == expected.encode()


def test_dump_tables_keep_explicit_and_negative_zeros():
    data = np.array([0j, complex(-0.0, 1.0), complex(2.5e-300, -0.0), complex(-0.0, -0.0)])
    mat = sparse.csc_matrix((data, np.array([0, 2, 1, 2]), np.array([0, 2, 2, 4])),
                            shape=(3, 3))
    gens = [GeneratorMatrix(2, mat), GeneratorMatrix(3, sparse.csc_matrix((3, 3),
                                                                          dtype=complex))]
    basis = [[1, -1], [1, 0], [1, 1]]
    payload = {"kind": "so3", "config": {"q": 1.0}, "dim": 3,
               "basis": cli._Table(*np.array(basis).T),
               "generators": [{"i": g.i, "nnz": g.mat.nnz, "entries": cli._entry_table(g.mat)}
                              for g in gens]}
    text = "".join(cli._json_chunks(payload))
    assert text == oracles.dump_text("so3", {"q": 1.0}, 3, basis, gens)
    assert json.loads(text)["generators"][0]["nnz"] == 4


def test_classify_and_scan_leave_scipy_sparse_unloaded():
    """scipy itself is imported with soqrs; scipy.sparse waits for the first matrix."""
    probe = (
        "import sys\n"
        "import soqrs, soqrs.cli\n"
        "assert 'scipy' in sys.modules and 'scipy.sparse' not in sys.modules\n"
        "for argv in (['classify', '--r', '4', '--s', '4', '--epsilon', '0',\n"
        "              '--lambda-re=-2', '--json'],\n"
        "             ['scan', '--r', '3', '--s', '4', '--epsilon', '1',\n"
        "              '--lambda-int-min=-2', '--lambda-int-max=4', '--json']):\n"
        "    assert soqrs.cli.main(argv) == 0\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "soqrs.build_class1(3, 1, soqrs.QParam(2.0))\n"
        "assert 'scipy.sparse' in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_csgraph_and_linalg_unloaded():
    probe = (
        "import sys\n"
        "import soqrs.cli\n"
        "heavy = ('scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg')\n"
        "assert not [m for m in heavy if m in sys.modules], sorted(sys.modules)\n"
        "from soqrs import SpectralParam, cross_check\n"
        "assert cross_check(4, 4, 0, SpectralParam.exact(2)).agree\n"
        "assert not [m for m in heavy if m in sys.modules], sorted(sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _table_payload(n: int):
    """A dump payload whose basis and one generator's entries are tables of n rows."""
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) + 1j * rng.standard_normal(n)
    mat = sparse.csc_matrix((vals, np.arange(n), np.arange(n + 1)), shape=(n, n))
    gens = [GeneratorMatrix(2, mat)]
    basis = rng.integers(-5, 6, (n, 3))
    payload = {"kind": "so3", "config": {"q": 2.0}, "dim": n,
               "basis": cli._Table(*basis.T),
               "generators": [{"i": g.i, "nnz": g.mat.nnz, "entries": cli._entry_table(g.mat)}
                              for g in gens]}
    return payload, oracles.dump_text("so3", {"q": 2.0}, n, basis.tolist(), gens)


_S = cli._SLICE_ROWS


@pytest.mark.parametrize("rows", [0, 1, _S - 1, _S, _S + 1, 2 * _S + 1])
def test_streamed_tables_are_byte_identical(tmp_path, capsys, rows):
    payload, expected = _table_payload(rows)
    out = tmp_path / "rep.json"
    # the basis sits at the top level, the entries nested in the generator list
    cli._emit(argparse.Namespace(out=str(out), json=True), payload)
    assert capsys.readouterr().out == expected
    assert out.read_bytes() == expected.encode()


def test_streamed_pieces_are_bounded():
    payload, expected = _table_payload(8 * _S + 3)
    pieces = list(cli._json_chunks(payload))
    assert "".join(pieces) == expected
    # a row of four nested 24-character floats takes under 200 characters
    assert max(map(len, pieces)) < 200 * _S < len(expected) // 4


def test_dump_reader_leaves_scipy_sparse_unloaded(tmp_path):
    """Every generator's arrays come out of the parse before scipy.sparse is loaded."""
    dump = tmp_path / "rep.json"
    assert main(["build", "--degenerate", "--r", "4", "--s", "3", "--epsilon", "1",
                 "--lambda-re", "1/3", "--cutoff", "5", "--out", str(dump)]) == 0
    gens = json.loads(dump.read_text())["generators"]
    probe = (
        "import json, sys\n"
        "import soqrs.cli\n"
        "data = soqrs.cli._read_dump(sys.argv[1])\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "assert 'basis' not in data\n"
        "print(json.dumps([[g['i'], g['nnz'], g['entries'].tolist()] for g in data['generators']]))\n"
        "assert soqrs.cli.main(['verify', '--dump', sys.argv[1]]) == 0\n"
        "assert 'scipy.sparse' in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe, str(dump)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[0])
    assert got == [[g["i"], g["nnz"], [[float(x) for x in e] for e in g["entries"]]]
                   for g in gens]
