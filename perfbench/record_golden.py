"""Record golden.json: the answer digest of every request any seed can draw.

    python3 perfbench/record_golden.py

The committed file was recorded from the seed code of hodgemoments, before
any performance work.  Re-record only when an answer is meant to change, and
say why in the change that does it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import run_pass  # noqa: E402
from workloads import all_requests, request_key  # noqa: E402


def main() -> int:
    requests = all_requests()
    result = run_pass(requests)
    answers = {}
    for argv, code, digest, error in zip(requests, result["codes"], result["digests"],
                                         result["errors"]):
        if error is not None or code != 0:
            print(f"error: {request_key(argv)}: exit {code}, {error}", file=sys.stderr)
            return 1
        answers[request_key(argv)] = digest
    with open(HERE / "golden.json", "w") as fh:
        json.dump({"requests": len(answers), "answers": answers}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(answers)} answers in {result['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
