import json

import pytest

from modscramble import ScrambleKey, build_map, make_arnold, make_flt
from modscramble import SequenceFamily as F
from modscramble.cli import main
from modscramble.keyfile import write_key_file
from modscramble.pnm import load_pnm, save_pnm, write_pnm

from conftest import random_gray


@pytest.fixture
def workspace(tmp_path, reference_a):
    save_pnm(tmp_path / "a.pgm", reference_a)
    write_key_file(tmp_path / "arnold3.json", ScrambleKey(make_arnold(), 3, 3))
    return tmp_path


def test_scramble_reproduces_the_golden_matrix(workspace):
    out = workspace / "out.pgm"
    rc = main(["scramble", str(workspace / "a.pgm"), str(workspace / "arnold3.json"), str(out)])
    assert rc == 0
    assert load_pnm(out).pixels.tolist() == [[1, 5, 9], [8, 3, 4], [6, 7, 2]]


def test_zero_iterations_writes_a_canonical_copy(workspace, reference_a):
    write_key_file(workspace / "t0.json", ScrambleKey(make_arnold(), 3, 0))
    out = workspace / "copy.pgm"
    rc = main(["scramble", str(workspace / "a.pgm"), str(workspace / "t0.json"), str(out)])
    assert rc == 0
    assert out.read_bytes() == write_pnm(reference_a)


def test_modulus_mismatch_names_both_values(workspace, capsys):
    write_key_file(workspace / "k64.json", ScrambleKey(make_arnold(), 64, 1))
    rc = main(["scramble", str(workspace / "a.pgm"), str(workspace / "k64.json"), str(workspace / "x.pgm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "64" in err and "3" in err


def test_unscramble_round_trip(workspace, reference_a):
    s = workspace / "s.pgm"
    back = workspace / "back.pgm"
    main(["scramble", str(workspace / "a.pgm"), str(workspace / "arnold3.json"), str(s)])
    rc = main(["unscramble", str(s), str(workspace / "arnold3.json"), str(back)])
    assert rc == 0
    assert back.read_bytes() == write_pnm(reference_a)


def test_unscramble_verbose_reports_both_route_costs(tmp_path, capsys):
    img = random_gray(128, seed=1)
    save_pnm(tmp_path / "big.pgm", img)
    key = ScrambleKey(make_flt(F.FIB11, 6), 128, 20)
    write_key_file(tmp_path / "k.json", key)
    s = tmp_path / "s.pgm"
    main(["scramble", str(tmp_path / "big.pgm"), str(tmp_path / "k.json"), str(s)])
    rc = main(["unscramble", str(s), str(tmp_path / "k.json"), str(tmp_path / "b.pgm"), "--verbose"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert "108" in err and "20" in err and "inverse" in err
    assert load_pnm(tmp_path / "b.pgm") == img


def test_unscramble_route_option_is_a_usage_error(workspace, capsys):
    out = workspace / "out.pgm"
    rc = main(["unscramble", str(workspace / "a.pgm"), str(workspace / "arnold3.json"),
               str(out), "--route", "inverse"])
    assert rc == 1
    assert "--route" in _one_error_line(capsys)
    assert not out.exists()


def test_corrupt_key_file(workspace, capsys):
    bad = workspace / "bad.json"
    bad.write_text("{broken")
    rc = main(["scramble", str(workspace / "a.pgm"), str(bad), str(workspace / "x.pgm")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_period_command_prints_the_period(capsys):
    assert main(["period", "--family", "fibonacci-q", "--n", "128"]) == 0
    assert "192" in capsys.readouterr().out

    assert main(["period", "--family", "f32lt", "--i", "1", "--n", "128"]) == 0
    assert "64" in capsys.readouterr().out

    assert main(["period", "--family", "raw", "--entries", "1,0,0,1", "--n", "7"]) == 0
    assert "period 1" in capsys.readouterr().out


def test_period_command_json(capsys):
    assert main(["period", "--family", "arnold", "--n", "128", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"label": "arnold", "n": 128, "period": 96}


def test_period_from_key_file(workspace, capsys):
    assert main(["period", "--key", str(workspace / "arnold3.json")]) == 0
    assert "period 4" in capsys.readouterr().out


def test_period_usage_errors(capsys):
    assert main(["period", "--family", "gft", "--n", "128"]) == 1  # missing --i
    assert main(["period", "--family", "arnold"]) == 1  # missing --n
    assert main(["period"]) == 1
    assert main(["period", "--family", "raw", "--entries", "1,2,3", "--n", "7"]) == 1


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["period", "--family", "gft", "--i", "1", "--n", "10000000000000000000"],
        ["survey", "--families", "gft", "--range", "1..2", "--n", "10000000000000000000"],
        ["period", "--family", "arnold", "--n", str(2**32 + 1)],
    ],
)
def test_moduli_above_the_period_bound_exit_3(capsys, argv):
    assert main(argv) == 3
    assert "period bound" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["period", "--family", "arnold", "--n", "1"],
        ["period", "--family", "arnold", "--n", "-5"],
        ["enumerate", "--lo", "5", "--hi", "1"],
        ["survey", "--families", "gft", "--range", "1..2", "--n", "1"],
        ["survey", "--families", "gft", "--range", "5..1", "--n", "8"],
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    assert main(argv) == 1
    _one_error_line(capsys)


def test_invalid_map_is_a_math_error(workspace, capsys):
    assert main(["period", "--family", "raw", "--entries", "2,0,0,2", "--n", "4"]) == 3
    assert "not invertible" in capsys.readouterr().err


def test_survey_table_output(capsys):
    rc = main(["survey", "--families", "gft,gat,f11lt,f32lt,f31lt", "--range", "1..16", "--n", "128"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["family"] + [str(i) for i in range(1, 17)]
    rows = {ln.split()[0]: [int(v) for v in ln.split()[1:]] for ln in lines[1:]}
    assert rows["gat"] == [128, 192, 64, 192, 128, 192, 32, 192, 128, 192, 64, 192, 128, 192, 16, 192]
    assert rows["f31lt"] == [64, 64, 32, 64, 64, 8, 64, 64, 32, 64, 64, 4, 64, 64, 32, 64]


def test_survey_json_output(capsys):
    rc = main(["survey", "--families", "gft", "--range", "1..4", "--n", "8", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 8 and doc["rows"][0]["family"] == "gft"
    assert len(doc["rows"][0]["periods"]) == 4


def test_survey_empty_range(capsys):
    rc = main(["survey", "--families", "gft", "--range", "5..2", "--n", "8"])
    assert rc == 1
    assert "--range is empty" in _one_error_line(capsys)


@pytest.mark.parametrize("hi", ["2000000", "100000000000000000000"])
def test_survey_above_the_cell_bound_exits_3(capsys, hi):
    assert main(["survey", "--families", "gft", "--range", f"1..{hi}", "--n", "8"]) == 3
    assert "cell bound" in _one_error_line(capsys)


def test_survey_cell_errors_keep_exit_zero(capsys, monkeypatch):
    from modscramble import analysis
    from modscramble.errors import InvalidScramblerError

    real = analysis.period

    def flaky(vm):
        if vm.map.label == "GFT_2":
            raise InvalidScramblerError(vm.map.label, vm.n, 2, 2)
        return real(vm)

    monkeypatch.setattr(analysis, "period", flaky)
    rc = main(["survey", "--families", "gft", "--range", "1..3", "--n", "8"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "ERROR" in captured.out
    assert "1 cell(s) failed" in captured.err
    rc = main(["survey", "--families", "gft", "--range", "1..3", "--n", "8", "--format", "json"])
    assert rc == 0
    errors = json.loads(capsys.readouterr().out)["rows"][0]["errors"]
    assert errors[0] is None and errors[2] is None and "not invertible" in errors[1]


def test_survey_usage_errors():
    assert main(["survey", "--families", "arnold", "--range", "1..3", "--n", "8"]) == 1
    assert main(["survey", "--families", "gft", "--range", "nope", "--n", "8"]) == 1


def test_enumerate_small_range_with_listing(capsys):
    rc = main(["enumerate", "--lo", "0", "--hi", "1", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6" in out.splitlines()[0]
    assert "(1, 0 / 0, 1)" in out


def test_enumerate_range_guard(capsys):
    assert main(["enumerate", "--lo", "0", "--hi", "300"]) == 3
    assert "work bound" in capsys.readouterr().err


@pytest.mark.parametrize("lo", ["3037000500", "10000000000000000000"])
def test_enumerate_overflowing_range_exits_3(capsys, lo):
    assert main(["enumerate", "--lo", lo, "--hi", str(int(lo) + 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "64-bit" in err and len(err.splitlines()) == 1


def test_enumerate_json(capsys):
    rc = main(["enumerate", "--lo", "0", "--hi", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == doc["det_plus_one"] + doc["det_minus_one"]


def test_attack_command_reports_matching_damage(tmp_path, capsys):
    img = random_gray(32, seed=2, lo=1, hi=255)
    save_pnm(tmp_path / "img.pgm", img)
    write_key_file(tmp_path / "k.json", ScrambleKey(build_map("gft", {"i": 2}), 32, 6))
    report = tmp_path / "rep.json"
    rc = main([
        "attack", str(tmp_path / "img.pgm"), str(tmp_path / "k.json"),
        "--attack", "salt-pepper", "--density", "0.05", "--seed", "11",
        "--report", str(report),
        "--attacked-out", str(tmp_path / "att.pgm"),
        "--recovered-out", str(tmp_path / "rec.pgm"),
    ])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["mse_on_scrambled"] == doc["mse_on_recovered"] > 0
    assert doc["changed_on_scrambled"] == doc["changed_on_recovered"]
    assert load_pnm(tmp_path / "att.pgm").side == 32
    assert load_pnm(tmp_path / "rec.pgm").side == 32


def test_attack_crop_counts_match(tmp_path, capsys):
    img = random_gray(16, seed=3, lo=1, hi=255)
    save_pnm(tmp_path / "img.pgm", img)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 16, 4))
    rc = main([
        "attack", str(tmp_path / "img.pgm"), str(tmp_path / "k.json"),
        "--attack", "crop", "--rect", "2,2,4,4", "--format", "json",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["changed_on_scrambled"] == doc["changed_on_recovered"] == 16


def test_attack_compress_quality_4(tmp_path, capsys):
    img = random_gray(24, seed=5)
    save_pnm(tmp_path / "img.pgm", img)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 24, 3))
    rc = main([
        "attack", str(tmp_path / "img.pgm"), str(tmp_path / "k.json"),
        "--attack", "compress", "--quality", "4", "--format", "json",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["attack"]["quality"] == 4
    assert doc["mse_on_scrambled"] == doc["mse_on_recovered"] > 0


def test_attack_usage_errors(tmp_path, capsys):
    img = random_gray(8, seed=6)
    save_pnm(tmp_path / "img.pgm", img)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 8, 1))
    base = ["attack", str(tmp_path / "img.pgm"), str(tmp_path / "k.json")]
    assert main(base + ["--attack", "crop"]) == 1  # missing --rect
    assert main(base + ["--attack", "crop", "--rect", "0,0,20,20"]) == 1  # out of bounds
    assert main(base + ["--attack", "salt-pepper", "--density", "2.0"]) == 1


def test_missing_input_file_is_a_data_error(workspace):
    assert main(["scramble", str(workspace / "missing.pgm"), str(workspace / "arnold3.json"),
                 str(workspace / "x.pgm")]) == 2


def test_unknown_subcommand_is_a_usage_error():
    assert main(["paint"]) == 1


def test_cli_is_deterministic(workspace):
    out1 = workspace / "o1.pgm"
    out2 = workspace / "o2.pgm"
    argv = ["scramble", str(workspace / "a.pgm"), str(workspace / "arnold3.json")]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
