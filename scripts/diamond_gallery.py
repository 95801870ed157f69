"""Print a gallery of Hodge diamonds for a range of symmetric powers.

Each line shows the anti-diagonal tuple next to the dimension report, the
way one scans for patterns across k.  Pairs with no table are marked.

    python3 scripts/diamond_gallery.py --n 2 --max-k 12
    python3 scripts/diamond_gallery.py --family airy --n 3 --max-k 10
"""

import argparse

from hodgemoments.families import Family, admissible
from hodgemoments.hodge import dims_airy, dims_kl, hodge_airy_closed, hodge_kl_closed


def kl_line(n, k):
    dm = hodge_kl_closed(n, k)
    rep = dims_kl(n, k)
    tup = ", ".join(str(h) for h in dm.anti_diagonal())
    return (f"k={k:2d}  ({tup})  "
            f"h1={rep.dim_h1} mid={rep.dim_mid} s0={rep.soln_zero} sinf={rep.soln_infty}")


def airy_line(n, k):
    dm = hodge_airy_closed(n, k)
    rep = dims_airy(n, k)
    cells = ", ".join(f"{p}:{h}" for (p, q), h in dm.sorted_entries())
    return f"k={k:2d}  [{cells}]  h1={rep.dim_h1}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=("kl", "airy"), default="kl")
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--max-k", type=int, default=12)
    args = ap.parse_args()

    fam = Family(args.family)
    print(f"family={fam.value} n={args.n}")
    for k in range(1, args.max_k + 1):
        if not admissible(fam, args.n, k):
            print(f"k={k:2d}  (no table: outside the admissible range)")
        elif fam is Family.KL_Z:
            print(kl_line(args.n, k))
        else:
            print(airy_line(args.n, k))


if __name__ == "__main__":
    main()
