"""Pretty-print cohomology basis representatives as monomials.

    python3 scripts/show_basis.py --family kl --n 2 --k 6 --mid
    python3 scripts/show_basis.py --family kl-tilde --n 2 --k 3

The basis comes from `hodgemoments basis --vectors`, so input and exit codes
are the command line's: input outside the admissible range is one `error:`
line on stderr with exit 2, and a failed internal check is one `error:` line
with exit 1.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout

from hodgemoments import cli
from hodgemoments.families import Family


def fmt_term(term, var):
    a = term["z"]
    parts = []
    if a:
        parts.append(var if a == 1 else f"{var}^{a}")
    if "u" in term:
        parts.append(f"u{term['u']}")
    else:
        for slot, e in enumerate(term["v"]):
            if e:
                parts.append(f"v{slot}" if e == 1 else f"v{slot}^{e}")
    return " ".join(parts) if parts else "1"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="kl",
                    choices=[f.value for f in Family])
    ap.add_argument("--n", type=int)
    ap.add_argument("--k", type=int)
    ap.add_argument("--mid", action="store_true")
    args = ap.parse_args()

    argv = ["basis", "--family", args.family, "--vectors"]
    for flag, value in (("--n", args.n), ("--k", args.k)):
        if value is not None:
            argv += [flag, str(value)]
    if args.mid:
        argv.append("--mid")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code:
        return code
    basis = json.loads(out.getvalue())["payload"]
    var = "t" if args.family == Family.KL_TILDE_T.value else "z"

    print(f"family={basis['family']} n={basis['n']} k={basis['k']} kind={basis['kind']} "
          f"total={basis['total']}")
    # the degrees are JSON keys, strings, so sort them as ints
    for d in sorted(basis["vectors"], key=int):
        print(f"degree {d}:")
        for vec in basis["vectors"][d]:
            print(f"  {fmt_term(vec[0], var)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
