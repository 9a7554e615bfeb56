import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modscramble import equivalence_classes, standard_family_maps
from modscramble.analysis import dumps_report

from conftest import distinct_rgb

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def assert_usage_error(run, message):
    assert run.returncode == 2
    assert run.stdout == ""
    errors = [line for line in run.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "params,message",
    [
        ("abc", "--params must look like LO..HI"),
        ("1..200", "the largest valid index is 89"),
        ("5..1", "is empty: LO > HI"),
        ("0..3", "LO must be >= 1"),
    ],
    ids=["not-integers", "overflow", "empty", "below-one"],
)
def test_equivalence_report_rejects_bad_params(params, message):
    assert_usage_error(run_script("run_equivalence_report.py", "--params", params), message)


def test_equivalence_report_takes_sides_past_24_bit_pixels():
    run = run_script("run_equivalence_report.py", "--n", "5000", "--format", "json")
    assert run.returncode == 0, run.stderr
    assert len(json.loads(run.stdout)["classes"]) == 49


def test_equivalence_report_refuses_moduli_above_the_period_bound():
    run = run_script("run_equivalence_report.py", "--n", "4294967297")
    assert_usage_error(run, "--n must be between 2 and 4294967296")


@pytest.mark.parametrize("n", [3, 1024])
def test_equivalence_report_matches_the_reference_path(n):
    run = run_script("run_equivalence_report.py", "--n", str(n), "--format", "json")
    report = equivalence_classes(standard_family_maps(1, 8), distinct_rgb(n), n)
    assert run.stdout == dumps_report(report.to_json_dict()) + "\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["--n", "1"], "--n must be between 2 and 4294967296"),
        (["--n", "5000000000"], "the period bound; got 5000000000"),
    ],
    ids=["n-below-two", "n-above-bound"],
)
def test_survey_script_rejects_bad_arguments(args, message):
    assert_usage_error(run_script("run_survey.py", *args), message)


@pytest.mark.parametrize(
    "args,message",
    [
        (["--family", "arnold"], "argument --family: invalid choice: 'arnold'"),
        (["--family", "gat"], "argument --family: invalid choice: 'gat'"),
        (["--family", "raw"], "argument --family: invalid choice: 'raw'"),
        (["--n", "1"], "--n must be >= 2, got 1"),
        (["--index", "0"], "--index 0: bad parameters for family 'f11lt'"),
        (["--index", "200"], "--index 200: term 200 of FIB11 exceeds the 64-bit"),
        (["--iterations", "-1"], "--iterations must be >= 0, got -1"),
    ],
    ids=["arnold", "gat", "raw", "n-below-two", "index-zero", "index-overflow", "iterations"],
)
def test_robustness_script_rejects_bad_arguments(args, message, tmp_path):
    out = tmp_path / "out"
    assert_usage_error(run_script("run_robustness.py", *args, "--out", str(out)), message)
    assert not out.exists()


def test_readme_library_block_prints_its_comment(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == 1
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed[0].rsplit("# ", 1)[1] + "\n"
