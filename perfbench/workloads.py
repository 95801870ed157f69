"""Request lists for the benchmark workloads, and the answer each request must give.

A request is an argv list for ``hodgemoments.cli.main``.  The seed sets the
request order and, for closed-tables, which half of the grid is sampled (a
sampled point's requests stay together); the program only ever sees the
generated argv lists.

Every table request stays inside the admissibility gate: n+1 is a prime power
(so n = 5 never appears in the grid), gcd(k, n+1) = 1 for the Kloosterman
requests and gcd(k, n) = 1 for the Airy ones.  The basis-large Airy request
at n = 5 is gated by gcd(k, n) = 1 alone, which is the Airy condition.
"""

import hashlib
import json
import random
from math import comb, gcd

WORKLOADS = ("basis-large", "verify-sweep", "closed-tables")

# closed-tables grid: every admissible (n, k) with k <= GRID_MAX_K whose
# graded space V has at most GRID_MAX_DIM monomials.
GRID_MAX_K = 20
GRID_MAX_DIM = 20000
GRID_MAX_N = 10

BASIS_LARGE = (
    ["hodge", "--family", "kl", "--n", "2", "--k", "10", "--route", "both"],
    ["hodge", "--family", "kl", "--n", "3", "--k", "17", "--route", "both"],
    ["hodge", "--family", "kl", "--n", "4", "--k", "11", "--route", "both"],
    ["hodge", "--family", "airy", "--n", "5", "--k", "11"],
    ["hodge", "--family", "v21"],
)

VERIFY_SWEEP = (["verify", "--sweep"],)


def is_prime_power(m: int) -> bool:
    if m < 2:
        return False
    p = next(d for d in range(2, m + 1) if m % d == 0)
    while m % p == 0:
        m //= p
    return m == 1


def _kl_requests(n: int, k: int) -> list[list[str]]:
    nk = ["--n", str(n), "--k", str(k)]
    out = [["hodge", "--family", "kl", *nk, "--route", "closed"],
           ["dims", "--family", "kl", *nk],
           ["dims", "--family", "kl-tilde", *nk]]
    out += [["counts", "--what", what, *nk] for what in "qndab"]
    return out


def _airy_requests(n: int, k: int) -> list[list[str]]:
    nk = ["--n", str(n), "--k", str(k)]
    return [["hodge", "--family", "airy", *nk, "--route", "closed"],
            ["dims", "--family", "airy", *nk]]


def grid_points() -> dict[str, list[tuple[int, int, int]]]:
    """Admissible (dim V, n, k) points per request group, cheapest first.

    dim V is the number of exponent tuples the closed route enumerates for
    the point, which is most of what its requests cost.
    """
    kl, airy = [], []
    for n in range(1, GRID_MAX_N + 1):
        if not is_prime_power(n + 1):
            continue
        for k in range(1, GRID_MAX_K + 1):
            if gcd(k, n + 1) == 1 and comb(n + k, n) <= GRID_MAX_DIM:
                kl.append((comb(n + k, n), n, k))
            if n >= 2 and gcd(k, n) == 1 and comb(n + k - 1, n - 1) <= GRID_MAX_DIM:
                airy.append((comb(n + k - 1, n - 1), n, k))
    return {"kl": sorted(kl), "airy": sorted(airy)}


def grid_requests() -> list[list[str]]:
    """Every request closed-tables can draw, for any seed."""
    pts = grid_points()
    return ([r for _, n, k in pts["kl"] for r in _kl_requests(n, k)]
            + [r for _, n, k in pts["airy"] for r in _airy_requests(n, k)])


def _sample_closed_tables(rng: random.Random) -> list[list[str]]:
    # Stratified half: of each pair of neighbours in dim V order the seed keeps
    # one point, and the largest point is always kept, so the cost of a pass
    # and its slowest request hardly depend on the seed.  The seed shuffles
    # the points; a point's requests stay together, in a fixed order, so the
    # cache reuse between them does not depend on the seed either.
    groups = []
    points = grid_points()
    for group, make in (("kl", _kl_requests), ("airy", _airy_requests)):
        *rest, top = points[group]
        picks = [rng.choice(rest[i:i + 2]) for i in range(0, len(rest), 2)]
        groups += [make(n, k) for _, n, k in picks + [top]]
    rng.shuffle(groups)
    return [r for g in groups for r in g]


def requests_for(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "closed-tables":
        return _sample_closed_tables(rng)
    if workload == "basis-large":
        reqs = [list(r) for r in BASIS_LARGE]
    elif workload == "verify-sweep":
        reqs = [list(r) for r in VERIFY_SWEEP]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def all_requests() -> list[list[str]]:
    """Every request any seed of any workload can produce."""
    return [list(r) for r in BASIS_LARGE + VERIFY_SWEEP] + grid_requests()


def request_key(argv) -> str:
    return " ".join(argv)


def answer_of(argv, code: int, stdout: str):
    """The part of a CLI reply that must stay the same: answers, not bytes.

    hodge: the diamond levels per route (and the equality flag); dims: the
    report fields; counts: the values; verify: all_pass only, so that a new
    check does not change the answer.  The exit code is part of the answer.
    """
    payload = json.loads(stdout)["payload"]
    command = argv[0]
    if command == "hodge":
        def levels(p):
            return [[lev["p"], lev["q"], lev["h"]] for lev in p["levels"]]
        if "closed" in payload:
            answer = {"closed": levels(payload["closed"]),
                      "basis": levels(payload["basis"]), "equal": payload["equal"]}
        else:
            answer = levels(payload)
    elif command == "verify":
        answer = {"all_pass": payload["all_pass"]}
    else:
        answer = payload
    return {"code": code, "answer": answer}


def answer_digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]
