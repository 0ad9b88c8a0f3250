"""Run each experiment script in ``scripts/`` as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=120
    )


def test_scripts_found():
    assert [p.name for p in SCRIPTS] == [
        "fixed_subtree_growth.py", "folner_ratios.py", "icc_grid.py",
    ]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_exits_zero(path):
    result = run_script(path)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_folner_ratios_stable_letter_row():
    # one stable letter moves two window elements: 2/(k-1) for k = 5, 10, 20, 40
    result = run_script(ROOT / "scripts" / "folner_ratios.py")
    # each row is the word in a 12-character column, then the four ratios
    rows = {line[:12].strip(): line[12:].split()[:4] for line in result.stdout.splitlines()[2:]}
    assert rows["a"] == ["1/2", "2/9", "2/19", "2/39"]
