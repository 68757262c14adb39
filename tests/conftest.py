"""Shared fixtures."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import currentalg

_SRC = str(Path(currentalg.__file__).resolve().parents[1])


def _run_optimized(code):
    """Run code with python -O, with the caller's environment plus src on
    PYTHONPATH, and check that it exits 7.

    -O strips every assert, so a snippet must check with if and an exit
    code of its own; one that holds an assert is refused before it runs.
    """
    if any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(code))):
        raise ValueError("an assert in a snippet run under -O never runs: "
                         "check with if and an exit code")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, path))))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 7, proc.stderr


@pytest.fixture
def run_optimized():
    """_run_optimized: a snippet must exit 7 under python -O."""
    return _run_optimized
