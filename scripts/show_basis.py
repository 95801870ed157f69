"""Pretty-print cohomology basis representatives as monomials.

    python3 scripts/show_basis.py --family kl --n 2 --k 6 --mid
    python3 scripts/show_basis.py --family kl-tilde --n 2 --k 3
"""

import argparse

from hodgemoments.chains import build_chain, cohomology_bases
from hodgemoments.families import Family
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


def fmt_vec(chain, vec, var):
    terms = []
    for mono, c in sorted(vec.items()):
        mono_s = fmt_mono(chain, mono, var)
        if c == 1:
            terms.append(f"+ {mono_s}")
        elif c == -1:
            terms.append(f"- {mono_s}")
        elif c < 0:
            terms.append(f"- {-c} {mono_s}")
        else:
            terms.append(f"+ {c} {mono_s}")
    out = " ".join(terms)
    return out[2:] if out.startswith("+ ") else out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="kl",
                    choices=[f.value for f in Family])
    ap.add_argument("--n", type=int)
    ap.add_argument("--k", type=int)
    ap.add_argument("--mid", action="store_true")
    args = ap.parse_args()

    fam = Family(args.family)
    if fam is Family.V21:
        chain = v21_chain()
        var = "z"
    else:
        if args.n is None or args.k is None:
            ap.error("--n and --k are required for this family")
        chain = build_chain(fam, args.n, args.k)
        var = "t" if fam is Family.KL_TILDE_T else "z"
    full, mid = cohomology_bases(chain)
    basis = mid if args.mid else full

    print(f"family={fam.value} n={chain.n} k={chain.k} kind={basis.kind} "
          f"total={basis.total()}")
    for d in sorted(basis.vectors):
        vecs = basis.vectors[d]
        if not vecs:
            continue
        print(f"degree {d}:")
        for vec in vecs:
            print(f"  {fmt_vec(chain, vec, var)}")


if __name__ == "__main__":
    main()
