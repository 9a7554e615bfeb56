import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modscramble import (CompressSurrogate, Crop, GaussianNoise, SaltPepper, ScrambleKey, Speckle,
                         build_map, equivalence_classes, make_arnold, make_flt,
                         standard_family_maps)
from modscramble import SequenceFamily as F
from modscramble import analysis, attacks, cli
from modscramble.analysis import UNIMODULAR_REFERENCE_COUNT_0_99, dumps_report
from modscramble.attacks import spec_to_dict
from modscramble.cli import main
from modscramble.keyfile import KEY_FILE_MAX_CHARS, dumps_key, write_key_file
from modscramble.pnm import load_pnm, save_pnm, write_pnm

from conftest import distinct_rgb, random_gray, random_rgb


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
    assert err == ("period 128: forward route 108 steps, inverse route 20 steps; "
                   "cheaper route: inverse\n")
    assert load_pnm(tmp_path / "b.pgm") == img


@pytest.mark.parametrize("verbose", [[], ["--verbose"]])
@pytest.mark.parametrize("n", [65, 2**33])
def test_unscramble_refuses_a_side_mismatch_before_reporting_a_route(tmp_path, capsys, n, verbose):
    save_pnm(tmp_path / "s.pgm", random_gray(64, seed=2))
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), n, 3))
    out = tmp_path / "b.pgm"
    rc = main(["unscramble", str(tmp_path / "s.pgm"), str(tmp_path / "k.json"), str(out), *verbose])
    assert rc == 2
    assert "period" not in _one_error_line(capsys)
    assert not out.exists()


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

    # no --variant: build_map supplies the family's default
    assert main(["period", "--family", "gat", "--k", "1", "--n", "5"]) == 0
    assert capsys.readouterr().out == "GAT(k=1,v0) mod 5: period 10\n"


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
    assert main(["period", "--family", "raw", "--entries", "a,b,c,d", "--n", "7"]) == 1


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "flags",
    [["--family", "gft"], ["--n", "5"], ["--i", "7"], ["--k", "2"], ["--variant", "1"],
     ["--entries", "1,1,1,2"], ["--n", "5", "--family", "gft", "--i", "7"]],
)
def test_period_key_takes_no_map_flags(workspace, capsys, flags):
    assert main(["period", "--key", str(workspace / "arnold3.json"), *flags]) == 1
    assert "--key takes no" in _one_error_line(capsys)
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("command", [["period", "--family", "arnold"],
                                     ["survey", "--families", "gft", "--range", "1..2"]])
def test_a_modulus_below_two_is_refused_by_the_library(capsys, command):
    assert main(command + ["--n", "1"]) == 1
    assert _one_error_line(capsys) == "error: modulus must be >= 2, got 1\n"


def test_invalid_map_is_a_math_error(workspace, capsys):
    assert main(["period", "--family", "raw", "--entries", "2,0,0,2", "--n", "4"]) == 3
    assert "not invertible" in capsys.readouterr().err


REFERENCE_SURVEY = ["survey", "--families", "gft,gat,f11lt,f32lt,f31lt", "--range", "1..16",
                    "--n", "128"]


def test_survey_table_output(capsys):
    rc = main(REFERENCE_SURVEY)
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()[:6]  # the header and five family rows
    assert lines[0].split() == ["family"] + [str(i) for i in range(1, 17)]
    rows = {ln.split()[0]: [int(v) for v in ln.split()[1:]] for ln in lines[1:]}
    assert rows["gat"] == [128, 192, 64, 192, 128, 192, 32, 192, 128, 192, 64, 192, 128, 192, 16, 192]
    assert rows["f31lt"] == [64, 64, 32, 64, 64, 8, 64, 64, 32, 64, 64, 4, 64, 64, 32, 64]


def test_survey_128_states_every_golden_row(capsys):
    assert main(REFERENCE_SURVEY) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[6:] == [
        f"{fam}: computed row matches the reference" for fam in analysis.SURVEY_REFERENCE_128
    ]
    assert captured.err == ""
    assert main(REFERENCE_SURVEY + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    for row in rows:
        assert row["matches_reference"] is True
        assert row["reference_periods"] == row["periods"]
        assert row["reference_periods"] == list(analysis.SURVEY_REFERENCE_128[row["family"]])


def test_survey_128_names_a_differing_golden_row_and_exits_0(capsys, monkeypatch):
    golden = analysis.SURVEY_REFERENCE_128["gat"]
    monkeypatch.setitem(analysis.SURVEY_REFERENCE_128, "gat", (0,) + golden[1:])
    assert main(REFERENCE_SURVEY) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "DIFFERS" in line] == [
        "gat: computed row DIFFERS FROM the reference"
    ]
    assert out.count("matches the reference") == 4
    assert main(REFERENCE_SURVEY + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["family"] for row in rows if not row["matches_reference"]] == ["gat"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--families", "gft,gat,f11lt,f32lt,f31lt", "--range", "1..16", "--n", "127"],
        ["--families", "gft,gat,f11lt,f32lt,f31lt", "--range", "1..15", "--n", "128"],
        ["--families", "triangular", "--range", "1..16", "--n", "128"],
    ],
    ids=["n-127", "range-1-15", "triangular"],
)
def test_survey_off_the_published_table_states_no_reference(capsys, argv):
    assert main(["survey", *argv]) == 0
    assert "reference" not in capsys.readouterr().out
    assert main(["survey", *argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(set(row) == {"family", "periods", "errors"} for row in rows)


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


def test_survey_cell_past_64_bits_keeps_exit_zero(capsys):
    argv = ["survey", "--families", "gft,gat", "--range", "88..92", "--n", "128", "--format", "json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 2 cell(s) failed\n"
    gft, gat = json.loads(captured.out)["rows"]
    assert gft["errors"][:3] == [None] * 3 and all("64-bit" in e for e in gft["errors"][3:])
    assert gft["periods"][3:] == [None, None] and None not in gft["periods"][:3]
    assert gat["errors"] == [None] * 5 and None not in gat["periods"]


def test_survey_usage_errors():
    assert main(["survey", "--families", "arnold", "--range", "1..3", "--n", "8"]) == 1
    assert main(["survey", "--families", "gft", "--range", "nope", "--n", "8"]) == 1
    assert main(["survey", "--families", "", "--range", "1..3", "--n", "8"]) == 1
    assert main(["survey", "--families", ",", "--range", "1..3", "--n", "8"]) == 1


def test_enumerate_small_range_with_listing(capsys):
    rc = main(["enumerate", "--lo", "0", "--hi", "1", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6" in out.splitlines()[0]
    assert "(1, 0 / 0, 1)" in out


def test_enumerate_range_guard(capsys):
    assert main(["enumerate", "--lo", "0", "--hi", "500"]) == 3
    err = _one_error_line(capsys)
    assert "work bound" in err and "251001 entry products" in err
    assert main(["enumerate", "--lo", "0", "--hi", "499"]) == 0  # 250000 products: the edge
    assert capsys.readouterr().out.startswith("unimodular maps with entries in [0, 499]: ")


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


def test_enumerate_0_99_states_the_reference(capsys):
    ref = UNIMODULAR_REFERENCE_COUNT_0_99
    assert main(["enumerate", "--lo", "0", "--hi", "99"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"unimodular maps with entries in [0, 99]: {ref} (det +1: 12015, det -1: 12015)",
        f"reference count {ref}: computed value matches the reference",
    ]
    assert main(["enumerate", "--lo", "0", "--hi", "99", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reference_count"] == doc["count"] == ref and doc["matches_reference"] is True


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


@pytest.mark.parametrize(
    "flags, spec",
    [
        (["--attack", "salt-pepper"], SaltPepper(0.05)),
        (["--attack", "gaussian"], GaussianNoise()),
        (["--attack", "gaussian", "--mean", "3", "--variance", "7", "--seed", "5"],
         GaussianNoise(3.0, 7.0, 5)),
        (["--attack", "speckle"], Speckle()),
        (["--attack", "speckle", "--variance", "0.2", "--mean", "9", "--fill", "4"],
         Speckle(0.2)),
        (["--attack", "crop", "--rect", "1,2,5,6"], Crop(1, 2, 5, 6)),
        (["--attack", "crop", "--rect", "1,2,5,6", "--fill", "9", "--seed", "3"],
         Crop(1, 2, 5, 6, fill=9)),
        (["--attack", "compress"], CompressSurrogate(50)),
    ],
)
def test_attack_flags_left_out_take_the_spec_defaults(tmp_path, capsys, flags, spec):
    # flags a kind has no field for are ignored
    save_pnm(tmp_path / "img.pgm", random_gray(16, seed=7))
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 16, 2))
    argv = ["attack", str(tmp_path / "img.pgm"), str(tmp_path / "k.json"), "--format", "json"]
    assert main(argv + flags) == 0
    assert json.loads(capsys.readouterr().out)["attack"] == spec_to_dict(spec)


def test_attack_usage_errors(tmp_path, capsys):
    img = random_gray(8, seed=6)
    save_pnm(tmp_path / "img.pgm", img)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 8, 1))
    base = ["attack", str(tmp_path / "img.pgm"), str(tmp_path / "k.json")]
    assert main(base + ["--attack", "crop"]) == 1  # missing --rect
    assert main(base + ["--attack", "crop", "--rect", "0,0,20,20"]) == 1  # out of bounds
    assert main(base + ["--attack", "salt-pepper", "--density", "2.0"]) == 1
    for flag, value in (("--mean", "nan"), ("--mean", "inf"), ("--variance", "nan"),
                        ("--variance", "inf")):
        assert main(base + ["--attack", "gaussian", flag, value, "--format", "json"]) == 1
    for value in ("nan", "inf"):
        assert main(base + ["--attack", "speckle", "--variance", value, "--format", "json"]) == 1
    assert capsys.readouterr().out == ""


ROBUSTNESS_NAMES = ["salt_pepper_5pct", "salt_pepper_20pct", "gaussian_var100", "speckle_var05",
                    "crop_quarter", "compress_q10", "compress_q8", "compress_q6", "compress_q4"]


def _robustness_argv(tmp_path, img, n=None):
    suffix = ".pgm" if img.channels == 1 else ".ppm"
    save_pnm(tmp_path / f"img{suffix}", img)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_flt(F.FIB11, 6), n or img.side, 20))
    return ["robustness", str(tmp_path / f"img{suffix}"), str(tmp_path / "k.json"),
            "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("img", [random_gray(16, seed=8), random_rgb(16, seed=9)],
                         ids=["gray", "rgb"])
def test_robustness_writes_every_image_and_states_the_isometry(tmp_path, capsys, img):
    argv = _robustness_argv(tmp_path, img)
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines[:9]] == ROBUSTNESS_NAMES
    assert all(line.endswith("  isometry exact") for line in lines[:9])
    assert lines[9:] == ["isometry exact for all 9 attacks"] and captured.err == ""
    suffix = ".pgm" if img.channels == 1 else ".ppm"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        f"{name}_{side}{suffix}" for name in ROBUSTNESS_NAMES for side in ("attacked", "recovered"))

    assert main(argv + ["--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert sorted(docs) == sorted(ROBUSTNESS_NAMES)
    for name, doc in docs.items():
        assert doc["mse_on_scrambled"] == doc["mse_on_recovered"]
        recovered = load_pnm(tmp_path / "out" / f"{name}_recovered{suffix}")
        assert attacks.mse(img, recovered) == doc["mse_on_recovered"]
    assert docs["crop_quarter"]["attack"] == spec_to_dict(Crop(4, 4, 8, 8))


def test_robustness_names_a_broken_isometry_and_exits_0(tmp_path, capsys, monkeypatch):
    experiment = attacks.recovery_experiment

    def skewed(img, key, spec):
        report = experiment(img, key, spec)
        if spec == CompressSurrogate(8):
            return dataclasses.replace(report, mse_on_recovered=report.mse_on_recovered + 1.0)
        return report

    monkeypatch.setattr(attacks, "recovery_experiment", skewed)
    assert main(_robustness_argv(tmp_path, random_gray(16, seed=8))) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith("isometry BROKEN")] == ["compress_q8"]
    assert sum(line.endswith("isometry exact") for line in lines) == 8
    assert lines[-1] == "isometry BROKEN for: compress_q8"


def test_robustness_refuses_a_key_of_another_side_and_writes_nothing(tmp_path, capsys):
    assert main(_robustness_argv(tmp_path, random_gray(16, seed=8), n=17)) == 2
    _one_error_line(capsys)
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value, code, message",
    [
        ("n", 1, 2, "n must be an integer >= 2, got 1"),
        ("params", {"i": 0}, 2, "bad parameters for family 'f11lt': i must be >= 1, got 0"),
        ("params", {"i": 200}, 3, "f11lt i = 200: a term exceeds the 64-bit signed range; "
                                  "largest accepted i for f11lt is 90"),
        ("iterations", -1, 2, "iterations must be an integer >= 0, got -1"),
    ],
    ids=["n-below-two", "index-zero", "index-overflow", "iterations"],
)
def test_robustness_states_the_library_refusal_of_a_key(tmp_path, capsys, field, value, code,
                                                         message):
    argv = _robustness_argv(tmp_path, random_gray(16, seed=8))
    doc = json.loads((tmp_path / "k.json").read_text())
    (tmp_path / "k.json").write_text(json.dumps({**doc, field: value}))
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at-bound", "past-bound"])
def test_a_key_file_past_the_size_bound_is_refused(tmp_path, capsys, extra, code):
    text = dumps_key(ScrambleKey(make_arnold(), 3, 3))
    path = tmp_path / "k.json"
    path.write_text(text + " " * (KEY_FILE_MAX_CHARS - len(text) + extra))
    assert main(["period", "--key", str(path)]) == code
    if code:
        assert "longer than 1048576 characters" in _one_error_line(capsys)
    else:
        assert capsys.readouterr().out == "arnold mod 3: period 4\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_key_file_is_refused(capsys):
    assert main(["period", "--key", "/dev/zero"]) == 2
    assert "longer than" in _one_error_line(capsys)


def test_missing_input_file_is_a_data_error(workspace):
    assert main(["scramble", str(workspace / "missing.pgm"), str(workspace / "arnold3.json"),
                 str(workspace / "x.pgm")]) == 2


@pytest.mark.parametrize(
    "args,code,message",
    [
        (["--range", "abc"], 1, "--range must look like LO..HI, got 'abc'"),
        (["--range", "1..200"], 3, "f32lt i = 90: a term exceeds the 64-bit signed range; "
                                   "largest accepted i for f32lt is 89"),
        (["--range", "90..90"], 3, "f32lt i = 90: a term exceeds the 64-bit signed range; "
                                   "largest accepted i for f32lt is 89"),
        (["--range", "5..1"], 1, "--range is empty: LO > HI in '5..1'"),
        (["--range", "0..3"], 1, "i must be >= 1, got 0"),
        (["--n", "1"], 1, "modulus must be >= 2, got 1"),
        (["--n", "4294967297"], 3, "modulus 4294967297 is above the period bound of 4294967296"),
    ],
    ids=["not-integers", "overflow", "overflow-at-90", "empty", "below-one", "n-below-two",
         "n-above-bound"],
)
def test_equivalence_refuses_bad_arguments(capsys, args, code, message):
    assert main(["equivalence", *args]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_equivalence_text_at_n3_is_the_published_report(capsys):
    assert main(["equivalence"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest().startswith("5bc380fd5a42e845")
    lines = out.splitlines()
    assert lines[0] == "50 maps, 19 classes at n=3:"
    assert lines[-2:] == ["13 classes share a scrambling pattern (size > 1); avoid reusing",
                          "members of one class as if they were independent keys."]


def test_equivalence_takes_sides_past_24_bit_pixels(capsys):
    assert main(["equivalence", "--n", "5000", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["classes"]) == 49


@pytest.mark.parametrize("n", [3, 1024])
def test_equivalence_matches_the_reference_path(capsys, n):
    assert main(["equivalence", "--n", str(n), "--format", "json"]) == 0
    report = equivalence_classes(standard_family_maps(1, 8), distinct_rgb(n), n)
    assert capsys.readouterr().out == dumps_report(report.to_json_dict()) + "\n"


@pytest.mark.parametrize("family,i,largest", [("f32lt", 90, 89), ("gft", 91, 90)])
def test_period_overflow_names_the_parameter_given(capsys, family, i, largest):
    assert main(["period", "--family", family, "--i", str(i), "--n", "7"]) == 3
    assert _one_error_line(capsys) == (
        f"error: {family} i = {i}: a term exceeds the 64-bit signed range; "
        f"largest accepted i for {family} is {largest}\n"
    )
    assert main(["period", "--family", family, "--i", str(largest), "--n", "7"]) == 0


def test_the_parser_is_built_once_and_each_call_runs_as_in_a_fresh_process(capsys):
    calls = [
        ["period", "--n", "x"],  # a usage error first
        ["period", "--family", "arnold", "--n", "128"],
        ["survey", "--families", "gft", "--range", "1..4", "--n", "8"],
        ["enumerate", "--lo", "0", "--hi", "1", "--format", "json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    fresh = [subprocess.run([sys.executable, "-m", "modscramble.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=60) for argv in calls]
    cli._build_parser.cache_clear()
    for argv, run in zip(calls, fresh):
        assert main(argv) == run.returncode
        assert capsys.readouterr() == (run.stdout, run.stderr)
    assert fresh[0].returncode == 1 and fresh[1].stdout == "arnold mod 128: period 96\n"
    assert cli._build_parser.cache_info().misses == 1


def test_unknown_subcommand_is_a_usage_error():
    assert main(["paint"]) == 1


def test_cli_is_deterministic(workspace):
    out1 = workspace / "o1.pgm"
    out2 = workspace / "o2.pgm"
    argv = ["scramble", str(workspace / "a.pgm"), str(workspace / "arnold3.json")]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------- argument fuzzer

#: Values that argument handling must refuse or survive: non-finite floats,
#: signs, integers past 64 bits, empty and malformed lists and ranges.
_HOSTILE = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "1e308", "-1", "0", "1", "2", "3", "8", "256",
    "4294967291", str(2**32 + 15), str(2**63), str(-2**63 - 1), str(10**30),
    "", " ", ",", ",,", "..", "1..", "..3", "5..1", "abc", "0x10", "1.5", "1,2,3", "1,2,3,4,5",
])
_INT = st.integers(-40, 300).map(str) | _HOSTILE
_FLOAT = st.floats().map(repr) | _HOSTILE  # repr gives nan, inf and -inf too
_FORMAT = st.sampled_from(["text", "table", "json"]) | _HOSTILE
# "@name" is a file in the fuzz directory; outputs never overwrite an input
_IMAGE = st.sampled_from(["@gray.pgm", "@rgb.ppm", "@key8.json", "@missing.pgm", ""])
_KEY = st.sampled_from(["@key8.json", "@key9.json", "@gray.pgm", "@missing.json", ""])
_OUT = st.sampled_from(["@out.pgm", "@out.json", "@", "@no/such/dir.pgm", ""])
_DIR = st.sampled_from(["@grid", "@", "@gray.pgm", "@no/such/grid"])  # never "": the cwd
_FAMILY = st.sampled_from(["raw", "arnold", "fq", "gat", "gft", "f11lt", "triangular"]) | _HOSTILE
_FAMILIES = st.lists(st.sampled_from(["gft", "gat", "f11lt", "f32lt", "f31lt", "triangular", "arnold", ""]),
                     max_size=3).map(",".join) | _HOSTILE
_SMALL = st.integers(-3, 100) | st.sampled_from([2**70, -2**70])
_RANGE = st.builds("{}..{}".format, _SMALL, _SMALL) | _HOSTILE
_LIST4 = st.lists(st.integers(-3, 12) | st.sampled_from([2**64, -2**64]), min_size=4, max_size=4).map(
    lambda v: ",".join(map(str, v))) | _HOSTILE

#: Per subcommand: the arguments always given (strategies, in order) and the
#: optional flags with their values (None for a flag that takes none). A
#: survey's modulus stays small or above the period bound: a survey of
#: hundreds of cells at a modulus near 2**32 takes seconds. The equivalence
#: modulus is never _NEAR_BOUND, where the classes of the 50 standard maps
#: take about 20 s.
_NEAR_BOUND = "4294967291"
_COMMANDS = {
    "scramble": ([_IMAGE, _KEY, _OUT], {}),
    "unscramble": ([_IMAGE, _KEY, _OUT], {"--verbose": None}),
    "period": ([], {"--key": _KEY, "--family": _FAMILY, "--n": _INT, "--i": _INT, "--k": _INT,
                    "--variant": _INT, "--entries": _LIST4, "--format": _FORMAT}),
    "survey": ([st.just("--families"), _FAMILIES, st.just("--range"), _RANGE, st.just("--n"),
                st.integers(-3, 4096).map(str) | _HOSTILE], {"--format": _FORMAT}),
    "enumerate": ([st.just("--lo"), _SMALL.map(str) | _HOSTILE, st.just("--hi"),
                   _SMALL.map(str) | _HOSTILE], {"--list": None, "--format": _FORMAT}),
    "equivalence": ([], {"--n": _INT.filter(lambda v: v != _NEAR_BOUND), "--range": _RANGE,
                         "--format": _FORMAT}),
    "attack": ([_IMAGE, _KEY, st.just("--attack"),
                st.sampled_from(["salt-pepper", "gaussian", "speckle", "crop", "compress"])],
               {"--density": _FLOAT, "--mean": _FLOAT, "--variance": _FLOAT, "--rect": _LIST4,
                "--fill": _INT, "--quality": _INT, "--seed": _INT, "--report": _OUT,
                "--attacked-out": _OUT, "--recovered-out": _OUT, "--format": _FORMAT}),
    "robustness": ([_IMAGE, _KEY, st.just("--out"), _DIR], {"--format": _FORMAT}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    given_args, flags = _COMMANDS[command]
    argv = [command] + [draw(arg) for arg in given_args]
    for flag, value in flags.items():
        if draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    extras = st.lists(_HOSTILE | st.sampled_from(["--n", "--format", "--list", "-"]), max_size=2)
    if command == "equivalence":
        extras = extras.filter(lambda xs: xs != ["--n", _NEAR_BOUND])
    return argv + draw(extras)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_pnm(path / "gray.pgm", random_gray(8, seed=1))
    save_pnm(path / "rgb.ppm", random_rgb(8, seed=2))
    write_key_file(path / "key8.json", ScrambleKey(make_arnold(), 8, 3))
    write_key_file(path / "key9.json", ScrambleKey(make_arnold(), 9, 3))
    return path


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(argv=_argv())
@example(argv=["attack", "@gray.pgm", "@key8.json", "--attack", "gaussian", "--format", "json",
               "--attacked-out", "@no/such/dir.pgm"])  # a failed write after the experiment
@example(argv=["robustness", "@rgb.ppm", "@key8.json", "--out", "@gray.pgm"])  # the same
@settings(max_examples=150, deadline=None)
def test_cli_argument_fuzz_exits_with_a_documented_code(fuzz_dir, argv):
    argv = [str(fuzz_dir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in {0, 1, 2, 3}, (argv, rc)
    if rc != 0:
        assert out.getvalue() == "", (argv, rc)  # a failed command prints no result
    formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
    if rc == 0 and formats and formats[-1] == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)
