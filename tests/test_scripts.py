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


@pytest.mark.parametrize("argv,lines", [
    (("--family", "v21"), [
        "family=v21 n=2 k=4 kind=full total=5",
        "degree 1:", "  u0", "degree 2:", "  u2", "degree 3:", "  u5",
        "degree 4:", "  z u0", "degree 5:", "  z u2"]),
    # the t variable, and degree 10 after 9: the degrees are sorted as numbers
    (("--family", "kl-tilde", "--n", "2", "--k", "5", "--mid"), [
        "family=kl-tilde n=2 k=5 kind=mid total=18",
        "degree 1:", "  t v0^5", "degree 2:", "  t^2 v0^5",
        "degree 3:", "  t v0^4 v2", "  t^3 v0^5", "degree 4:", "  t^2 v0^4 v2", "  t^4 v0^5",
        "degree 5:", "  t v0^3 v2^2", "  t^3 v0^4 v2", "  t^5 v0^5",
        "degree 6:", "  t^2 v0^3 v2^2", "  t^4 v0^4 v2", "  t^6 v0^5",
        "degree 7:", "  t^5 v0^4 v2", "  t^7 v0^5", "degree 8:", "  t^6 v0^4 v2", "  t^8 v0^5",
        "degree 9:", "  t^7 v0^4 v2", "degree 10:", "  t^8 v0^4 v2"]),
], ids=["v21", "kl-tilde"])
def test_show_basis_prints_monomials(argv, lines):
    proc = run_script("show_basis.py", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == lines


def test_diamond_gallery_runs():
    proc = run_script("diamond_gallery.py", "--n", "2", "--max-k", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "family=kl n=2"
    assert len(proc.stdout.splitlines()) == 5


@pytest.mark.parametrize("argv,code", [
    (("--family", "kl", "--n", "5", "--k", "2"), 2),     # n + 1 = 6 is outside the gate
    (("--n", "0", "--k", "2"), 2),
    (("--family", "airy", "--n", "6", "--k", "5"), 1),   # basis route fails its top check
    (("--family", "airy", "--n", "3", "--k", "4", "--mid"), 2),  # airy has no middle part
    (("--family", "kl", "--n", "2"), 2),                 # --k is missing
])
def test_show_basis_reports_errors_in_one_line(argv, code):
    proc = run_script("show_basis.py", *argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
