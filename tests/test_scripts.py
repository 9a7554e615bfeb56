import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_equivalence_report.py"), "--params", params],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    errors = [line for line in run.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], run.stderr
    assert "Traceback" not in run.stderr


def test_readme_library_block_prints_its_comment(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == 1
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed[0].rsplit("# ", 1)[1] + "\n"
