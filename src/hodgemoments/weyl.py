"""The 15-dimensional SL(3) representation inside the fourth tensor power.

The space is cut from (C^3)^(x4) by the Young symmetrizer S of the (3, 1)
tableau with rows {0, 1, 2}, {3} and column {0, 3}: S e_t is the sum over the
orderings of t's slots 0-2, minus the same sum for t with slots 0 and 3
swapped.  S satisfies S^2 = c S for a scalar c > 0, so its image is the image
of the projector S / c.  The scalar, the commutation with the shift, corner and
lowering derivations, the grading, the rank and the integrality of the induced
operators are all checked exactly at build time, so a wrong tableau or a wrong
normalization cannot slip through.
"""

from itertools import permutations, product

from .families import Family
from .chains import GradedChain, _slot_moves
from .linalg import SparseEchelon, apply_columns

EXPECTED_DIM = 15


class DimensionMismatch(ArithmeticError):
    """The projected space does not have the expected dimension or grading."""


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


def v21_chain() -> GradedChain:
    """The graded chain over the 15-dimensional image of S, with the induced N, E and F.

    Its index j holds the image basis vector labels[j], in slice order like
    every chain: weight descending, then projected index.  The projected index
    numbers the image basis weight ascending, then by tensor index.
    """
    basis = list(product(range(3), repeat=4))
    pos = {t: i for i, t in enumerate(basis)}
    dim = len(basis)
    raw = []  # columns of S
    for t in basis:
        col = {}
        for u, sign in ((t, 1), ((t[3], t[1], t[2], t[0]), -1)):
            for head in permutations(u[:3]):
                i = pos[head + u[3:]]
                col[i] = col.get(i, 0) + sign
        raw.append({i: c for i, c in col.items() if c})
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

    # graded image basis: independent columns of S, weight by weight, highest
    # weight first, so that the j-th chosen column is chain index j; each is
    # scalar times a projector column, so the choice and coordinates agree.
    # Chosen column j carries a unit tag in column dim + j, and a probe carries
    # a unit marker in column -1, which no row touches: the residual of a
    # probe in the span holds its coordinates as -residual[tag] / residual[-1]
    wt = [sum(t) for t in basis]
    chosen = []
    solvers = {}
    for w in range(8, -1, -1):
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

    weights = [w for w, _ in chosen]
    # the projected index of chain index j counts the image vectors of lower weight first
    labels = [sum(v < w for v in weights) + j - weights.index(w) for j, w in enumerate(weights)]
    return GradedChain(family=Family.V21, n=2, k=4, zweight=3, labels=labels, weights=weights,
                       nmat=induced(shift_cols, +1), emat=induced(corner_cols, -2),
                       tower=None, fmat=induced(lower_cols, -1))
