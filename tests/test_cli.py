import json

import pytest

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


def test_classify_requires_exact_lambda(capsys):
    code, _, err = run(capsys, "classify", "--r", "4", "--s", "4",
                       "--epsilon", "0", "--lambda-float", "0.7")
    assert code == 3
    assert "exact" in err


def test_classify_snap_lambda(capsys):
    code, out, _ = run(capsys, "classify", "--r", "4", "--s", "4",
                       "--epsilon", "0", "--lambda-float", "0.5",
                       "--snap-lambda", "100", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["lambda_re"] == "1/2"


def test_scan_grid(capsys):
    code, out, _ = run(capsys, "scan", "--r", "3", "--s", "4", "--epsilon", "0",
                       "--lambda-int-min", "-4", "--lambda-int-max", "8",
                       "--lambda-rationals", "1/3,7/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["disagreements"] == 0
    assert len(data["rows"]) == 15


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
    assert [cfg[k] for k in ("q", "cutoff", "depth", "tol")] == [None, 8, None, None]


def test_verify_empty_tower_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--degenerate", "--r", "3", "--s", "3",
                       "--epsilon", "1", "--lambda-re", "1/3", "--cutoff", "0",
                       "--metric")
    assert code == 3
    assert "below epsilon" in err


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
    for path in (dump, old):
        code, out, _ = run(capsys, "verify", "--dump", str(path), "--json")
        assert code == 0 and json.loads(out)["passed"] is True


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
