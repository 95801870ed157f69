"""Command line interface.

Every subcommand checks its input and returns (payload, exit code); `main`
alone renders the canonical document: json (default, sorted keys, stable
bytes), csv (flat rows), or md (human tables).  Exit codes:

    0  success
    1  a both-routes comparison or a verify run finds a mismatch, or an
       internal check fails (one `error:` line on stderr, no traceback)
    2  invalid input (one `error:` line)
"""

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction
from functools import partial

from .chains import build_chain, cohomology_bases
from .counting import block_multiplicity, block_multiplicity_poly, lattice_step
from .cyclo import signed_orbit_count, vanishing_orbits, vanishing_tuple_count
from .families import Family, require_admissible
from .hodge import (dims_airy, dims_kl, hodge_airy_closed, hodge_airy_from_basis,
                    hodge_kl_closed, hodge_kl_from_basis, hodge_v21, mixed_hodge_tilde_kl3,
                    verify, verify_sweep)
from .weyl import v21_chain

SCHEMA_VERSION = "1"


def _ser_level(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _diamond_payload(dm) -> dict:
    return {
        "family": dm.family.value,
        "n": dm.n,
        "k": dm.k,
        "weight": dm.weight,
        "kind": dm.kind,
        "levels": [{"p": _ser_level(p), "q": _ser_level(q), "h": h}
                   for (p, q), h in dm.sorted_entries()],
    }


def _dims_payload(rep) -> dict:
    payload = {f.name: getattr(rep, f.name) for f in fields(rep)}
    payload["family"] = rep.family.value
    return payload


def _report_payload(rep) -> dict:
    return {
        "n": rep.n,
        "k": rep.k,
        "all_pass": rep.all_pass,
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                   for c in rep.checks],
        "notes": list(rep.notes),
    }


def _render_vector(mono, labels) -> list:
    """A representative monomial (z_power, j) as one unit term, named by its chain label."""
    a, j = mono
    label = labels[j]
    name = {"u": label} if isinstance(label, int) else {"v": list(label)}
    return [{"coeff": 1, "z": a, **name}]


def _emit(doc: dict, fmt: str, out_path):
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = _to_csv(doc)
    else:
        text = _to_md(doc)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise CliError(f"cannot write {out_path}: {err.strerror or err}") from err
    else:
        sys.stdout.write(text)


def _csv_rows_for_payload(command: str, payload: dict) -> tuple[list[str], list[list]]:
    if command == "hodge":
        if "closed" in payload:
            header = ["route", "p", "q", "h"]
            rows = []
            for route in ("closed", "basis"):
                for lev in payload[route]["levels"]:
                    rows.append([route, lev["p"], lev["q"], lev["h"]])
            return header, rows
        return ["p", "q", "h"], [[lev["p"], lev["q"], lev["h"]]
                                 for lev in payload["levels"]]
    if command == "counts":
        if "values" in payload:
            return ["d", "value"], [[d, v] for d, v in enumerate(payload["values"])]
        if "coefficients" in payload:
            return ["d", "coefficient"], [[d, v] for d, v in
                                          enumerate(payload["coefficients"])]
        return ["key", "value"], [[key, payload[key]] for key in sorted(payload)
                                  if not isinstance(payload[key], list)]
    if command == "basis":
        return ["degree", "count"], [[ent["degree"], ent["count"]]
                                     for ent in payload["cardinalities"]]
    if command == "verify":
        return ["n", "k", "check", "pass"], [[rep["n"], rep["k"], c["name"], c["pass"]]
                                             for rep in payload.get("reports", [payload])
                                             for c in rep["checks"]]
    return ["key", "value"], [[key, payload[key]] for key in sorted(payload)]


def _to_csv(doc: dict) -> str:
    header, rows = _csv_rows_for_payload(doc["command"], doc["payload"])
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _md_diamond(payload: dict) -> list[str]:
    lines = [f"**{payload['family']}** n={payload['n']} k={payload['k']} "
             f"weight={payload['weight']} ({payload['kind']})", ""]
    if payload["kind"] == "pure" and all(isinstance(l["p"], int)
                                         for l in payload["levels"]):
        tup = [str(l["h"]) for l in payload["levels"]]
        lines.append("(" + ", ".join(tup) + ")")
    else:
        lines.append("| p | q | h |")
        lines.append("| - | - | - |")
        for lev in payload["levels"]:
            lines.append(f"| {lev['p']} | {lev['q']} | {lev['h']} |")
    return lines


def _to_md(doc: dict) -> str:
    command = doc["command"]
    payload = doc["payload"]
    if command == "hodge":
        if "closed" in payload:
            lines = ["## closed", ""]
            lines += _md_diamond(payload["closed"])
            lines += ["", "## basis", ""]
            lines += _md_diamond(payload["basis"])
            lines += ["", f"routes equal: {payload['equal']}"]
        else:
            lines = _md_diamond(payload)
    else:
        header, rows = _csv_rows_for_payload(command, payload)
        lines = ["| " + " | ".join(map(str, row)) + " |"
                 for row in [header, ["-"] * len(header), *rows]]
    return "\n".join(lines) + "\n"


class CliError(Exception):
    """Invalid input, reported on stderr with exit code 2."""


def _need_nk(args):
    if args.n is None or args.k is None:
        raise CliError("--n and --k are required for this family")
    if args.n < 1 or args.k < 1:
        raise CliError("--n and --k must be positive")


def _forbid_nk(args):
    if args.n is not None or args.k is not None:
        raise CliError("--family v21 takes no --n or --k")


def _cmd_hodge(args) -> tuple[dict, int]:
    family = Family(args.family)
    if family is Family.V21:
        _forbid_nk(args)
        routes = {route: partial(hodge_v21, route) for route in ("closed", "basis")}
    else:
        _need_nk(args)
        n, k = args.n, args.k
        if family is Family.KL_TILDE_T:
            if n != 2:
                raise CliError("the mixed tilde table is defined for n = 2")
            routes = {"closed": partial(mixed_hodge_tilde_kl3, k)}
        elif family is Family.AIRY_Z:
            routes = {"closed": partial(hodge_airy_closed, n, k),
                      "basis": partial(hodge_airy_from_basis, n, k)}
        else:
            routes = {"closed": partial(hodge_kl_closed, n, k),
                      "basis": partial(hodge_kl_from_basis, n, k)}
    route = args.route or ("both" if "basis" in routes else "closed")
    if route != "closed" and "basis" not in routes:
        raise CliError("the mixed tilde table has a closed route only")
    if route != "both":
        return _diamond_payload(routes[route]()), 0
    closed, basis = routes["closed"](), routes["basis"]()
    equal = closed.levels == basis.levels
    return ({"closed": _diamond_payload(closed), "basis": _diamond_payload(basis),
             "equal": equal}, 0 if equal else 1)


def _cmd_dims(args) -> tuple[dict, int]:
    family = Family(args.family)
    _need_nk(args)
    n, k = args.n, args.k
    rep = dims_airy(n, k) if family is Family.AIRY_Z else dims_kl(n, k, family)
    return _dims_payload(rep), 0


def _cmd_counts(args) -> tuple[dict, int]:
    _need_nk(args)
    n, k, d, what = args.n, args.k, args.d, args.what
    m = n + 1
    if d is not None and what not in ("q", "n"):
        raise CliError("--d applies to --what q and --what n only")
    if d is not None:
        value = block_multiplicity if what == "q" else lattice_step
        return {"n": n, "k": k, "d": d, "value": value(n, k, d)}, 0
    if what == "q":
        return {"n": n, "k": k, "coefficients": list(block_multiplicity_poly(n, k))}, 0
    if what == "n":
        return {"n": n, "k": k, "values": [lattice_step(n, k, e) for e in range(n * k + 2)]}, 0
    if what == "d":
        return {"n": n, "k": k, "m": m, "count": vanishing_tuple_count(m, k)}, 0
    if what == "a":
        orbits = vanishing_orbits(m, k)
        return {"n": n, "k": k, "m": m, "count": len(orbits),
                "orbit_representatives": [list(rep) for rep in orbits]}, 0
    return {"n": n, "k": k, "m": m, "count": signed_orbit_count(m, k)}, 0


def _cmd_basis(args) -> tuple[dict, int]:
    family = Family(args.family)
    if args.vectors and args.format != "json":
        raise CliError(f"--vectors needs --format json: {args.format} has no place for them")
    if family is Family.AIRY_Z and args.mid:
        raise CliError("--mid does not apply to airy: its middle part is the full "
                       "cohomology; drop --mid")
    if family is Family.V21:
        _forbid_nk(args)
        chain = v21_chain()
    else:
        _need_nk(args)
        require_admissible(family, args.n, args.k)
        chain = build_chain(family, args.n, args.k)
    full, mid = cohomology_bases(chain)
    basis = mid if args.mid else full
    cards = basis.cardinalities()
    payload = {
        "family": family.value,
        "n": chain.n,
        "k": chain.k,
        "kind": basis.kind,
        "cardinalities": [{"degree": d, "count": cards[d]} for d in sorted(cards)],
        "total": basis.total(),
    }
    if args.vectors:
        payload["vectors"] = {
            str(d): [_render_vector(vec, chain.labels) for vec in vecs]
            for d, vecs in sorted(basis.vectors.items()) if vecs
        }
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    for flag, value in (("--n", args.n), ("--k", args.k), ("--max-n", args.max_n),
                        ("--max-k", args.max_k)):
        if value is not None and value < 1:
            raise CliError(f"{flag} must be positive")
    if args.sweep:
        if args.n is not None or args.k is not None:
            raise CliError("--sweep is exclusive with --n/--k")
        reports = verify_sweep(args.max_n, args.max_k)
        ok = all(r.all_pass for r in reports)
        payload = {"all_pass": ok, "reports": [_report_payload(r) for r in reports]}
    else:
        if args.n is None or args.k is None:
            raise CliError("provide --n and --k, or --sweep with --max-n/--max-k")
        rep = verify(args.n, args.k)
        payload, ok = _report_payload(rep), rep.all_pass
    return payload, 0 if ok else 1


def _document(args, payload) -> dict:
    """The canonical document: the command, every option that has a value, the payload."""
    request = {key: value for key, value in vars(args).items()
               if key not in ("command", "format", "out", "func")
               and value is not None and value is not False}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "request": request,
        "payload": payload,
    }


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "md"), default="json")
    common.add_argument("--out", default=None, help="write to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="hodgemoments",
        description="Exact Hodge and cohomology tables for symmetric power moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hodge", parents=[common], help="Hodge number tables")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--route", choices=("closed", "basis", "both"), default=None)
    p.set_defaults(func=_cmd_hodge)

    p = sub.add_parser("dims", parents=[common], help="cohomology dimension report")
    p.add_argument("--family", required=True,
                   choices=[Family.KL_Z.value, Family.KL_TILDE_T.value, Family.AIRY_Z.value])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("counts", parents=[common], help="counting tables")
    p.add_argument("--what", required=True, choices=("q", "n", "d", "a", "b"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("basis", parents=[common], help="cohomology basis data")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mid", action="store_true", help="middle part instead of full")
    p.add_argument("--vectors", action="store_true", help="include representative vectors")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", parents=[common], help="cross-route consistency checks")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-k", type=int, default=10)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        _emit(_document(args, payload), args.format, args.out)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
