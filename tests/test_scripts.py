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
