"""Self-tests of the benchmark itself (not of hodgemoments).

    python3 perfbench/selftest.py

Kept out of pytest's default ``test_*.py`` pattern so the repository's own
suite does not collect them; ``python3 -m pytest perfbench/selftest.py``
runs them too.  They use small request lists so they finish in seconds.
"""

import dataclasses
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from compare import verdict  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, all_requests, request_key, requests_for  # noqa: E402

SMALL = [
    ["hodge", "--family", "kl", "--n", "2", "--k", "5", "--route", "both"],
    ["hodge", "--family", "airy", "--n", "3", "--k", "4"],
    ["hodge", "--family", "kl", "--n", "3", "--k", "5", "--route", "closed"],
    ["dims", "--family", "kl-tilde", "--n", "3", "--k", "7"],
    ["counts", "--what", "q", "--n", "2", "--k", "7"],
    ["counts", "--what", "a", "--n", "1", "--k", "5"],
    ["verify", "--sweep", "--max-n", "2", "--max-k", "4"],
]


def traced_pass(requests):
    tracer = Tracer()
    return worker.run_pass(requests, tracer), tracer


class TraceTests(unittest.TestCase):
    def test_traced_and_untraced_answers_match(self):
        plain = worker.run_pass(SMALL)
        traced, _ = traced_pass(SMALL)
        self.assertEqual(plain["digests"], traced["digests"])
        self.assertEqual(plain["codes"], traced["codes"])
        self.assertTrue(all(e is None for e in plain["errors"]))

    def test_uninstall_restores_originals(self):
        import hodgemoments

        def bindings():
            out = {}
            for mod in [hodgemoments] + [getattr(hodgemoments, m) for m in MODULES]:
                for attr, obj in vars(mod).items():
                    out[(mod.__name__, attr)] = obj
                    if isinstance(obj, type) and obj.__module__.startswith("hodgemoments"):
                        for cattr, cobj in vars(obj).items():
                            out[(obj.__qualname__, cattr)] = cobj
            return out
        before = bindings()
        traced_pass(SMALL[:1])
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_every_span_lies_inside_its_parent(self):
        _, tracer = traced_pass(SMALL)
        spans = tracer.spans
        self.assertGreater(len(spans), 100)
        roots = [s for s in spans if s[3] < 0]
        self.assertEqual([s[0] for s in roots], ["bench.pass"])
        for name, start, end, parent in spans:
            self.assertLessEqual(start, end, name)
            if parent >= 0:
                _, pstart, pend, _ = spans[parent]
                self.assertLessEqual(pstart, start, name)
                self.assertLessEqual(end, pend, name)

    def test_layer_self_times_sum_to_traced_wall(self):
        _, tracer = traced_pass(SMALL)
        metrics = tracer.metrics()
        layers = sum(v for k, v in metrics.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
        self.assertAlmostEqual(layers, metrics["trace.wall_s"], delta=1e-6)
        # every span's layer is one that is reported
        reported = {k.split(".")[0] for k in metrics if k.count(".") == 1
                    and k.endswith(".self_s")}
        self.assertLessEqual({s[0].split(".")[0] for s in tracer.spans}, reported)

    def test_reimported_names_are_traced(self):
        _, tracer = traced_pass(SMALL[:1])
        names = {s[0] for s in tracer.spans}
        for name in ("cli.main", "hodge.hodge_kl_from_basis", "chains.build_chain",
                     "chains.middle_cohomology_basis", "linalg.SparseEchelon.add_row",
                     "linalg.TrackedEchelon.reduce", "counting.lattice_step_series",
                     "series.expand_rational"):
            self.assertIn(name, names)

    def test_counters(self):
        _, tracer = traced_pass(SMALL)
        m = tracer.metrics()
        self.assertGreater(m["linalg.sparse_add_row.calls"], 0)
        self.assertTrue(0 < m["linalg.independent_ratio"] <= 1)
        self.assertGreater(m["linalg.max_coeff_bits"], 0)
        self.assertGreater(m["hodge.verify.checks"], 0)
        self.assertGreater(m["cyclo.tuples_tested"], 0)
        self.assertGreater(m["chains.build_chain.repeat_ratio"], 0)


class AnswerTests(unittest.TestCase):
    def test_golden_covers_every_request_a_seed_can_draw(self):
        golden = run.load_golden()
        self.assertEqual(set(golden), {request_key(r) for r in all_requests()})
        for workload in WORKLOADS:
            for seed in range(5):
                for argv in requests_for(workload, seed):
                    self.assertIn(request_key(argv), golden)

    def test_seed_sets_inputs(self):
        self.assertEqual(requests_for("closed-tables", 3), requests_for("closed-tables", 3))
        self.assertNotEqual(requests_for("closed-tables", 3), requests_for("closed-tables", 4))

    def test_injected_wrong_answer_raises_failed_ratio(self):
        requests = [r for r in SMALL if request_key(r) in run.load_golden()]
        self.assertEqual(len(requests), 4)
        golden = run.load_golden()
        self.assertEqual(run.count_failures(requests, worker.run_pass(requests), golden), [])

        import hodgemoments.cli as cli
        real = cli.dims_kl

        def wrong(*args):
            rep = real(*args)
            return dataclasses.replace(rep, dim_h1=rep.dim_h1 + 1)
        cli.dims_kl = wrong
        try:
            result = worker.run_pass(requests)
        finally:
            cli.dims_kl = real
        failures = run.count_failures(requests, result, golden)
        self.assertEqual(len(failures), 1)
        self.assertIn("dims --family kl-tilde", failures[0])


class CompareTests(unittest.TestCase):
    def test_verdicts(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        faster = [v * 0.8 for v in parent]
        self.assertEqual(verdict(parent, faster, "lower", 0.1)[0], "improved")
        self.assertEqual(verdict(faster, parent, "lower", 0.1)[0], "worse")
        self.assertEqual(verdict(parent, list(reversed(parent)), "lower", 0.1)[0], "unchanged")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0], "unresolved")


class ContractTests(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(HERE.parent / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
