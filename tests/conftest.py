"""Helpers shared by the tests, and the fixture that keeps them independent of their order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hodgemoments import chains

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, so a child imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_module(*argv) -> subprocess.CompletedProcess:
    """Run `python -m hodgemoments *argv` as a subprocess, capturing text output."""
    return subprocess.run([sys.executable, "-m", "hodgemoments", *argv],
                          capture_output=True, text=True, env=src_env())


@pytest.fixture(autouse=True)
def cold_image_walks():
    """Start every test with no image walk kept, so none depends on an earlier one."""
    chains._IMAGE_WALKS.clear()
    yield
    chains._IMAGE_WALKS.clear()
