"""hodgemoments benchmark: fixed CLI workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py --workload basis-large --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One closed-loop client sends one request at a time to ``hodgemoments.cli.main``.
Each pass answers the workload's whole request list in a fresh interpreter
(``worker.py``); passes repeat until ``--seconds`` is used up and the run
reports means over them.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics come from the traced ones.  Every answer is checked against
``golden.json``.  The last line of stdout is the JSON result; the line before
it is a ``{"record": ...}`` line that ``compare.py`` reads.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TRACE_METRICS  # noqa: E402
from workloads import WORKLOADS, request_key, requests_for  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("slowest_req_s", "s"),
              ("peak_rss_mib", "MiB"), ("ok_ratio", "ratio"))
PER_LAYER = (*TRACE_METRICS, ("proc.cpu_s", "s"), ("trace.overhead_ratio", "ratio"),
             ("cli.out_bytes", "bytes"))

# Set-up starts are spread over the run, a few before each pass, so that
# they meet the host's fast and slow spells in the same share as the passes.
SETUP_STARTS = 24
SETUP_FIRST = 4
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import hodgemoments.cli as cli; cli._build_parser()")
# A run ends within 180 s: no new pass after RUN_LIMIT_S, no pass longer
# than PASS_TIMEOUT_S, and the set-up starts left for the end are short.
PASS_TIMEOUT_S = 120
RUN_LIMIT_S = 45
OVERRUN = 1.1           # a run may end this far past --seconds


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(args, **kwargs):
    """Run a child interpreter in isolated mode and wait for it."""
    return subprocess.run([sys.executable, "-I", *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=PASS_TIMEOUT_S, **kwargs)


def setup_start() -> float:
    """Seconds for a fresh interpreter to import the CLI and build its parser."""
    start = time.perf_counter()
    proc = _child(["-c", SETUP_CODE, str(ROOT / "src")])
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"importing hodgemoments.cli failed:\n{proc.stderr}")
    return elapsed


def run_pass(requests, trace: bool) -> dict:
    proc = _child([str(HERE / "worker.py")],
                  input=json.dumps({"requests": requests, "trace": trace}))
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def load_golden() -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)["answers"]


def count_failures(requests, result, golden) -> list[str]:
    """Requests whose answer or exit code differs from the golden one."""
    bad = []
    for argv, digest, error in zip(requests, result["digests"], result["errors"]):
        key = request_key(argv)
        if error is not None or digest != golden.get(key):
            bad.append(f"{key}: {error or 'wrong answer'}")
    return bad


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = requests_for(workload, seed)
    golden = load_golden()
    setup_start()  # the first start writes the bytecode caches
    setup_times, plain, traced, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        due = SETUP_FIRST + SETUP_STARTS * (time.perf_counter() - start) / seconds
        while len(setup_times) < min(due, SETUP_STARTS):
            setup_times.append(setup_start())
        with_trace = trace and len(traced) < len(plain)
        result = run_pass(requests, with_trace)
        failures += count_failures(requests, result, golden)
        (traced if with_trace else plain).append(result)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / (len(plain) + len(traced))
        done = plain and (traced or not trace)
        if done and (elapsed + per_pass > seconds * OVERRUN or elapsed > RUN_LIMIT_S):
            break
    while len(setup_times) < SETUP_STARTS:
        setup_times.append(setup_start())
    attempted = len(requests) * (len(plain) + len(traced))
    med, mean = statistics.median, statistics.fmean
    # Means, not medians, over passes: the shared host's speed switches
    # between a fast and a slow state every few seconds, and the median of
    # the few long basis-large passes jumps between the two.
    req_means = [mean(ts) for ts in zip(*(r["req_s"] for r in plain))]
    slowest = max(range(len(requests)), key=req_means.__getitem__)
    if trace:
        # median_low keeps counts whole: each is one traced pass's value
        metrics = {name: statistics.median_low(r["trace"][name] for r in traced)
                   for name, _ in TRACE_METRICS}
        metrics["proc.cpu_s"] = med(r["cpu_s"] for r in plain)
        metrics["trace.overhead_ratio"] = (med(r["trace"]["trace.wall_s"] for r in traced)
                                           / med(r["wall_s"] for r in plain))
        metrics["cli.out_bytes"] = statistics.median_low(r["out_bytes"] for r in traced)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": med(setup_times),
            "wall_s": mean(r["wall_s"] for r in plain),
            "slowest_req_s": req_means[slowest],
            "peak_rss_mib": med(r["peak_rss_mib"] for r in plain),
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END
    stamp = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "requests_per_pass": len(requests),
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "setup_starts": len(setup_times),
        "slowest_request": request_key(requests[slowest]),
    }
    return {"stamp": stamp, "failures": failures, "attempted": attempted,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # do not let git search outside the checkout
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_table(workload: str, run: dict):
    failed = len(run["failures"])
    print(f"# {workload}: {run['attempted']} requests, {failed} failed "
          f"(failed_ratio {failed / run['attempted']:.6f})")
    for name, m in run["metrics"].items():
        print(f"{workload:14s} {name:40s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hodgemoments" / "cli.py").is_file():
        print(f"error: no hodgemoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, run in runs.items():
        print_table(name, run)
        for line in run["failures"]:
            print(f"FAILED {name}: {line}", file=sys.stderr)
        print(json.dumps({"record": {"stamp": run["stamp"], "attempted": run["attempted"],
                                     "failed": len(run["failures"]),
                                     "metrics": run["metrics"]}}))
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(len(r["failures"]) for r in runs.values())
    if len(runs) == 1:
        metrics = runs[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in runs.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
