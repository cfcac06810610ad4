"""Smoke tests for the example scripts.

All examples must compile (cheap API-drift detector), and every example
is fast (about 1-5 s) and runs end-to-end as a subprocess, so the
documented entry points stay genuinely executable.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    names = {p.name for p in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 6


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_fast_example_runs(path):
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_reports_completion():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "broadcast completed" in proc.stdout
    assert "informed curve" in proc.stdout
