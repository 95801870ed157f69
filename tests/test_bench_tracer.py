"""The benchmark's span tracer, installed on this checkout's package.

perfbench/tracer.py patches the package by module and attribute name, so a
renamed or deleted module or method can break every traced benchmark run
without failing any other test.  This runs a few small requests through the
CLI under the tracer and checks that every metric the benchmark reports is
still produced.  The benchmark's set-up start, a fresh interpreter that
imports the CLI and builds its parser, is run once too.
"""

import importlib.util
import sys

from conftest import ROOT
from hodgemoments import cli

REQUESTS = [
    ["hodge", "--family", "kl", "--n", "2", "--k", "4", "--route", "both"],
    ["verify", "--n", "2", "--k", "3"],
    ["counts", "--what", "d", "--n", "5", "--k", "2"],
    ["hodge", "--family", "v21"],
    ["hodge", "--family", "airy", "--n", "3", "--k", "2"],
]


def _load_bench(name):
    """perfbench/<name>.py as a module of its own, not on the import path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_metric(capsys):
    tracer_module = _load_bench("tracer")
    tracer = tracer_module.Tracer()
    main = cli.main
    try:  # uninstall also what a failed install patched, for the tests that follow
        tracer.install()
        codes = [cli.main(argv) for argv in REQUESTS]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.main is main  # uninstalled: the originals are back
    assert codes == [0] * len(REQUESTS)
    metrics = tracer.metrics()
    assert [name for name, _ in tracer_module.TRACE_METRICS if name not in metrics] == []
    assert metrics["linalg.sparse_add_row.calls"] > 0


def test_benchmark_setup_start_runs(monkeypatch):
    # run.py puts perfbench/ on the path and imports its siblings by name:
    # keep both out of the tests that follow
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        run = _load_bench("run")
        assert run.setup_start() > 0
    finally:
        bench = str(ROOT / "perfbench")
        for name in set(sys.modules) - before:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(bench):
                del sys.modules[name]
