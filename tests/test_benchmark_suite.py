"""The pytest files under ``benchmarks/`` run once, with timing off.

They lie outside the testpaths, because their timed cases need many
rounds.  But they call the package by name (its laws, writers and packers),
so a rename in ``src/`` can break them while every test here passes.  This
runs them once each, as ``python -m pytest benchmarks -q
--benchmark-disable`` does from the repository root.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_benchmark_files_pass_with_timing_off():
    pytest.importorskip("pytest_benchmark")
    command = [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
