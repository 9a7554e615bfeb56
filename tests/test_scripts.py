import dataclasses
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from modscramble import CompressSurrogate

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
    "args,message",
    [
        (["--family", "arnold"], "argument --family: invalid choice: 'arnold'"),
        (["--family", "gat"], "argument --family: invalid choice: 'gat'"),
        (["--family", "raw"], "argument --family: invalid choice: 'raw'"),
        (["--n", "1"], "modulus must be >= 2, got 1"),
        (["--index", "0"], "bad parameters for family 'f11lt': i must be >= 1, got 0"),
        (["--index", "200"], "f11lt i = 200: a term exceeds the 64-bit signed range; "
                             "largest accepted i for f11lt is 90"),
        (["--iterations", "-1"], "iterations must be >= 0, got -1"),
    ],
    ids=["arnold", "gat", "raw", "n-below-two", "index-zero", "index-overflow", "iterations"],
)
def test_robustness_script_rejects_bad_arguments(args, message, tmp_path):
    out = tmp_path / "out"
    assert_usage_error(run_script("run_robustness.py", *args, "--out", str(out)), message)
    assert not out.exists()


def load_main(name):
    """The script's main, run in-process; its globals may be patched before the call."""
    return runpy.run_path(str(ROOT / "scripts" / name), run_name="scripts")["main"]


def test_robustness_script_writes_every_report(tmp_path):
    out = tmp_path / "out"
    run = run_script("run_robustness.py", "--n", "16", "--out", str(out))
    assert run.returncode == 0, run.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 9
    assert all(doc["mse_on_scrambled"] == doc["mse_on_recovered"] for doc in summary.values())
    assert run.stderr == ""


def test_robustness_script_exits_1_when_an_isometry_breaks(monkeypatch, capsys, tmp_path):
    main = load_main("run_robustness.py")
    experiment = main.__globals__["recovery_experiment"]

    def skewed(img, key, spec):
        report = experiment(img, key, spec)
        if spec == CompressSurrogate(8):
            return dataclasses.replace(report, mse_on_recovered=report.mse_on_recovered + 1.0)
        return report

    monkeypatch.setitem(main.__globals__, "recovery_experiment", skewed)
    monkeypatch.setattr(sys, "argv", ["run_robustness.py", "--n", "16", "--out", str(tmp_path)])
    assert main() == 1
    out, err = capsys.readouterr()
    [row] = [line for line in out.splitlines() if line.startswith("compress_q8")]
    assert row.endswith("isometry BROKEN")
    assert out.count("isometry BROKEN") == 1
    assert err == "isometry BROKEN for: compress_q8\n"


def test_readme_library_block_prints_its_comment(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == 1
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed[0].rsplit("# ", 1)[1] + "\n"
