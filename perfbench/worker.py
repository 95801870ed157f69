"""One measured pass: answer a request list in this process, one request at a time.

Reads {"requests": [argv, ...], "trace": bool} on stdin and writes one JSON
object on stdout.  ``run.py`` starts a fresh interpreter for every pass, so
the caches inside hodgemoments start empty each time.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracer import Tracer  # noqa: E402
from workloads import answer_digest, answer_of  # noqa: E402


def run_pass(requests, tracer=None) -> dict:
    """Send each request to the CLI after the previous one has returned.

    Timing covers only the CLI calls; answers are digested afterwards.  With
    a tracer the whole loop is the root span "bench.pass".
    """
    from hodgemoments import cli
    replies = []
    req_s = []
    with tracer.installed() if tracer else nullcontext():
        with tracer.span("bench.pass") if tracer else nullcontext():
            t0 = time.perf_counter()
            for argv in requests:
                out = io.StringIO()
                start = time.perf_counter()
                try:
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    error = None
                except SystemExit as exc:
                    code, error = exc.code, f"SystemExit({exc.code})"
                except Exception as exc:  # a crash is a failed request, not a failed run
                    code, error = None, f"{type(exc).__name__}: {exc}"
                req_s.append(time.perf_counter() - start)
                replies.append((argv, code, out.getvalue(), error))
            wall_s = time.perf_counter() - t0
    digests = []
    errors = []
    out_bytes = 0
    for argv, code, text, error in replies:
        out_bytes += len(text.encode())
        if error is None:
            try:
                digests.append(answer_digest(answer_of(argv, code, text)))
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable reply: {type(exc).__name__}: {exc}"
        if error is not None:
            digests.append(None)
        errors.append(error)
    return {"wall_s": wall_s, "req_s": req_s, "codes": [r[1] for r in replies],
            "digests": digests, "errors": errors, "out_bytes": out_bytes}


def main():
    job = json.load(sys.stdin)
    tracer = Tracer() if job["trace"] else None
    cpu0 = time.process_time()
    kids0 = os.times()
    result = run_pass(job["requests"], tracer)
    kids1 = os.times()
    result["cpu_s"] = (time.process_time() - cpu0
                       + (kids1.children_user - kids0.children_user)
                       + (kids1.children_system - kids0.children_system))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["trace"] = tracer.metrics() if tracer else None
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
