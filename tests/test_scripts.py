"""The report scripts under scripts/, run end to end as subprocesses."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=src_env())


def test_show_basis_prints_the_middle_basis():
    proc = run_script("show_basis.py", "--family", "kl", "--n", "2", "--k", "6", "--mid")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "family=kl n=2 k=6 kind=mid total=4",
        "degree 3:", "  z v0^6", "degree 5:", "  z v0^5 v2",
        "degree 8:", "  z^2 v0^5 v2", "degree 9:", "  z^3 v0^6"]


def test_diamond_gallery_runs():
    proc = run_script("diamond_gallery.py", "--n", "2", "--max-k", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "family=kl n=2"
    assert len(proc.stdout.splitlines()) == 5


@pytest.mark.parametrize("argv,code", [
    (("--family", "kl", "--n", "5", "--k", "2"), 2),     # n + 1 = 6 is outside the gate
    (("--n", "0", "--k", "2"), 2),
    (("--family", "airy", "--n", "6", "--k", "5"), 1),   # basis route fails its top check
])
def test_show_basis_reports_errors_in_one_line(argv, code):
    proc = run_script("show_basis.py", *argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
