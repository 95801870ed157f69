"""The 15-dimensional SL(3) representation inside the fourth tensor power.

The space is cut from (C^3)^(x4) by a hook-shape Young symmetrizer:
symmetrize over the row group (all permutations of slots 0,1,2) and
antisymmetrize over the column group (identity and the swap of slots 0,3).
The raw sum S of signed permutation operators satisfies S^2 = c S for a
scalar c; the projector is S / c.  Idempotency, the rank, and commutation
with the shift, corner and lowering derivations are all checked exactly at
build time, so a wrong normalization cannot slip through.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .families import Family
from .chains import GradedChain, _slot_moves
from .linalg import SparseEchelon, apply_columns

EXPECTED_DIM = 15


class DimensionMismatch(ArithmeticError):
    """The projected space does not have the expected dimension or grading."""


def _tensor_basis():
    basis = list(product(range(3), repeat=4))
    return basis, {t: i for i, t in enumerate(basis)}


def _apply_perm(perm, tup):
    out = [0] * len(tup)
    for s, v in enumerate(tup):
        out[perm[s]] = v
    return tuple(out)


def _compose(g, h):
    # apply h first, then g
    return tuple(g[h[s]] for s in range(len(g)))


def _signed_group_elements():
    rows = [p + (3,) for p in permutations((0, 1, 2))]
    cols = [((0, 1, 2, 3), 1), ((3, 1, 2, 0), -1)]
    for g in rows:
        for h, sign in cols:
            yield _compose(g, h), sign


def _tensor_columns(basis, pos, moves):
    """The derivation sending v_i to c * v_t in every factor, moves = {i: (t, c)}."""
    cols = []
    for t in basis:
        col = {}
        for s, i in enumerate(t):
            if i in moves:
                u = pos[t[:s] + (moves[i][0],) + t[s + 1:]]
                col[u] = col.get(u, 0) + moves[i][1]
        cols.append(col)
    return cols


@dataclass(frozen=True)
class ProjectedSpace:
    """Image of the symmetrizer: graded basis and induced derivations."""

    dim: int
    weights: tuple[int, ...]
    nmat: tuple           # induced shift columns over the projected basis, int entries
    emat: tuple           # induced corner columns, int entries
    fmat: tuple           # induced lowering columns, int entries


@lru_cache(maxsize=None)
def young_projector() -> ProjectedSpace:
    basis, pos = _tensor_basis()
    dim = len(basis)
    raw = [dict() for _ in range(dim)]  # columns of S
    for perm, sign in _signed_group_elements():
        for j, t in enumerate(basis):
            i = pos[_apply_perm(perm, t)]
            raw[j][i] = raw[j].get(i, 0) + sign
    raw = [{i: c for i, c in col.items() if c} for col in raw]
    # S^2 must be a positive integer multiple c S of S; read c off the first entry
    square = [apply_columns(raw, col) for col in raw]
    j0, i0 = next((j, i) for j, col in enumerate(raw) for i in col)
    scalar, rest = divmod(square[j0].get(i0, 0), raw[j0][i0])
    if rest or scalar <= 0:
        raise DimensionMismatch(f"unusable idempotency scalar "
                                f"{square[j0].get(i0, 0)}/{raw[j0][i0]}")
    if any(square[j] != {i: scalar * c for i, c in col.items()} for j, col in enumerate(raw)):
        raise DimensionMismatch("signed permutation sum is not quasi-idempotent")

    shift_cols, corner_cols, lower_cols = (
        _tensor_columns(basis, pos, moves) for moves in _slot_moves(3))
    # the projector is S / scalar with scalar > 0, so it commutes with a
    # derivation exactly when S does: check that over Z
    for name, cols in (("shift", shift_cols), ("corner", corner_cols),
                       ("lowering", lower_cols)):
        for j in range(dim):
            if apply_columns(cols, raw[j]) != apply_columns(raw, cols[j]):
                raise DimensionMismatch(f"projector does not commute with the {name}")

    # graded image basis: independent columns of S, weight by weight; each is
    # scalar times a projector column, so the choice and coordinates agree.
    # Basis vector t carries a unit tag in column dim + t, and a probe carries
    # a unit marker in column -1, which no row touches: the residual of a
    # probe in the span holds its coordinates as -residual[tag] / residual[-1]
    wt = [sum(t) for t in basis]
    chosen = []
    solvers = {}
    for w in range(9):
        solver = SparseEchelon()
        solvers[w] = solver
        for j in range(dim):
            if wt[j] != w or not raw[j]:
                continue
            if any(wt[i] != w for i in raw[j]):
                raise DimensionMismatch("projector failed to preserve the grading")
            # the residual keeps the new tag, so it is never empty, and it has
            # no pivot column left: add_row stores it without a second elimination
            residual = solver.residual({**raw[j], dim + len(chosen): 1})
            if min(residual) < dim:
                solver.add_row(residual)
                chosen.append((w, raw[j]))
    if len(chosen) != EXPECTED_DIM:
        raise DimensionMismatch(f"projected space has dimension {len(chosen)},"
                                f" expected {EXPECTED_DIM}")

    def induced(cols, delta):
        out = []
        for w, vec in chosen:
            img = apply_columns(cols, vec)
            if not img:
                out.append({})
                continue
            target = solvers.get(w + delta)
            if target is None:
                raise DimensionMismatch("derivation image leaves the graded range")
            residual = target.residual({**img, -1: 1})
            marker = residual.pop(-1)
            if min(residual) < dim:
                raise DimensionMismatch("derivation image leaves the projected space")
            col = {}
            for t, c in residual.items():
                q, r = divmod(-c, marker)
                if r:
                    raise DimensionMismatch("an induced derivation has a non-integral entry")
                col[t - dim] = q
            out.append(col)
        return out

    return ProjectedSpace(
        dim=EXPECTED_DIM,
        weights=tuple(w for w, _ in chosen),
        nmat=tuple(induced(shift_cols, +1)),
        emat=tuple(induced(corner_cols, -2)),
        fmat=tuple(induced(lower_cols, -1)),
    )


def v21_chain() -> GradedChain:
    """The graded chain over the projected 15-dimensional space.

    Its index j holds the projected basis vector labels[j], in slice order
    like every chain: weight descending, then projected index.
    """
    ps = young_projector()
    order = sorted(range(ps.dim), key=lambda t: (-ps.weights[t], t))
    pos = {t: j for j, t in enumerate(order)}

    def permuted(cols):
        return [{pos[i]: c for i, c in cols[t].items()} for t in order]

    return GradedChain(family=Family.V21, n=2, k=4, zweight=3, labels=order,
                       weights=[ps.weights[t] for t in order], nmat=permuted(ps.nmat),
                       emat=permuted(ps.emat), tower=None, fmat=permuted(ps.fmat))
