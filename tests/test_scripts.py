"""The report scripts under scripts/, run end to end as subprocesses."""

import subprocess
import sys

from conftest import ROOT, src_env


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=src_env())


def test_show_basis_prints_the_middle_basis():
    proc = run_script("show_basis.py", "--family", "kl", "--n", "2", "--k", "6", "--mid")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "family=kl n=2 k=6 kind=mid total=4"


def test_diamond_gallery_runs():
    proc = run_script("diamond_gallery.py", "--n", "2", "--max-k", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "family=kl n=2"
    assert len(proc.stdout.splitlines()) == 5
