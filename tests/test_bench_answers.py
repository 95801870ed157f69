"""The benchmark's answers, checked in process.

perfbench/golden.json holds a digest of the answer to every request a
benchmark workload can send.  A drift there shows up only as a failed
request in a benchmark run; this sends one seed's request list of each
workload to `cli.main` and compares every reply's digest with the golden
one, so that it fails here first.
"""

import json

import pytest

from conftest import ROOT
from hodgemoments import cli
from test_bench_tracer import _load_bench

workloads = _load_bench("workloads")
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["answers"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_answers_match_the_golden_digests(capsys, workload):
    wrong = []
    for argv in workloads.requests_for(workload, 1):
        code = cli.main(argv)
        out = capsys.readouterr().out
        key = workloads.request_key(argv)
        if workloads.answer_digest(workloads.answer_of(argv, code, out)) != GOLDEN.get(key):
            wrong.append(key)
    assert wrong == []
