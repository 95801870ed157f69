"""The benchmark's span tracer, installed on this checkout's package.

perfbench/tracer.py patches the package by module and attribute name, so a
renamed or deleted module or method can break every traced benchmark run
without failing any other test.  This runs a few small requests through the
CLI under the tracer and checks that every metric the benchmark reports is
still produced.
"""

import importlib.util

from conftest import ROOT
from hodgemoments import cli

REQUESTS = [
    ["hodge", "--family", "kl", "--n", "2", "--k", "4", "--route", "both"],
    ["verify", "--n", "2", "--k", "3"],
    ["counts", "--what", "d", "--n", "5", "--k", "2"],
    ["hodge", "--family", "v21"],
    ["hodge", "--family", "airy", "--n", "3", "--k", "2"],
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_metric(capsys):
    tracer_module = _load_tracer()
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
