"""Pretty-print cohomology basis representatives as monomials.

    python3 scripts/show_basis.py --family kl --n 2 --k 6 --mid
    python3 scripts/show_basis.py --family kl-tilde --n 2 --k 3

Input outside the admissible range is one `error:` line on stderr with exit
2; a failed internal check is one `error:` line with exit 1.
"""

import argparse
import sys

from hodgemoments.chains import build_chain, cohomology_bases
from hodgemoments.families import Family, require_admissible
from hodgemoments.weyl import v21_chain


def fmt_mono(chain, mono, var):
    a, j = mono
    parts = []
    if a:
        parts.append(var if a == 1 else f"{var}^{a}")
    label = chain.labels[j]
    if isinstance(label, int):
        parts.append(f"u{label}")
    else:
        for slot, e in enumerate(label):
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

    fam = Family(args.family)
    if fam is not Family.V21 and (args.n is None or args.k is None):
        ap.error("--n and --k are required for this family")
    try:
        if fam is Family.V21:
            chain = v21_chain()
        else:
            require_admissible(fam, args.n, args.k)
            chain = build_chain(fam, args.n, args.k)
        full, mid = cohomology_bases(chain)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    var = "t" if fam is Family.KL_TILDE_T else "z"
    basis = mid if args.mid else full

    print(f"family={fam.value} n={chain.n} k={chain.k} kind={basis.kind} "
          f"total={basis.total()}")
    for d in sorted(basis.vectors):
        vecs = basis.vectors[d]
        if not vecs:
            continue
        print(f"degree {d}:")
        for mono in vecs:
            print(f"  {fmt_mono(chain, mono, var)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
