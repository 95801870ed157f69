"""Sparse exact linear algebra over Z and Q.

Vectors are dicts mapping column index to a nonzero value.  The workhorse is
a forward echelon with fraction-free updates: integer rows are combined by
cross-multiplication and stripped by their gcd, so no true division happens
until a row is finally normalized.  Fraction entries are accepted too (the
same elimination runs field-style); only a handful of small matrices need
that path.

Rows added with a tag are reduced over Q and remember how they combine the
tagged inputs, so reduce() can write a vector as a residual plus an explicit
combination of inputs.

There is no back-substitution: stored rows keep their pivot as the smallest
column of their support, which is all that rank, pivot-set and membership
questions require.
"""

import heapq
from fractions import Fraction
from math import gcd


def _strip_int_row(vec, pivot):
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for c in list(vec):
            vec[c] //= g
    if vec[pivot] < 0:
        for c in list(vec):
            vec[c] = -vec[c]


class SparseEchelon:
    """Incremental echelon of sparse rows; tracks rank and pivot columns.

    reduce() needs every row to have been added with a tag.
    """

    def __init__(self):
        self.rows = {}    # pivot column -> row dict
        self.combos = {}  # pivot column -> {tag: Fraction}, tagged rows only

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec, combo=None):
        """Remove every pivot column from vec's support, in ascending order.

        With a combo dict, vec must hold Fractions; combo then collects the
        tagged inputs subtracted, so vec_in == vec_out + sum combo[t] * input[t].
        """
        heap = list(vec)
        heapq.heapify(heap)
        seen = set()
        while heap:
            c = heapq.heappop(heap)
            if c in seen or c not in vec or not vec[c]:
                continue
            seen.add(c)
            row = self.rows.get(c)
            if row is None:
                continue
            a = vec[c]
            b = row[c]
            if isinstance(a, int) and isinstance(b, int):
                g = gcd(a, b)
                sv, sr = b // g, -(a // g)
            else:
                sv, sr = 1, -Fraction(a) / Fraction(b)
            if sv != 1:
                for cc in list(vec):
                    vec[cc] *= sv
            for cc, v in row.items():
                nv = vec.get(cc, 0) + sr * v
                if nv:
                    if cc not in vec and cc not in seen:
                        heapq.heappush(heap, cc)
                    vec[cc] = nv
                elif cc in vec:
                    del vec[cc]
            if combo is not None:
                for t, v in self.combos[c].items():
                    nv = combo.get(t, 0) - sr * v
                    if nv:
                        combo[t] = nv
                    elif t in combo:
                        del combo[t]

    def reduce(self, vec):
        """(residual, combo) with vec == residual + sum combo[tag] * input[tag].

        The residual is supported away from every pivot column.
        """
        residual = {c: Fraction(v) for c, v in vec.items() if v}
        combo = {}
        self._eliminate(residual, combo)
        return residual, combo

    def add_row(self, vec, tag=None) -> bool:
        """Insert a copy of vec; True if it was independent of current rows.

        With a tag the row is reduced over Q and its combination of the
        tagged inputs is kept in combos under its pivot.
        """
        if tag is None:
            vec = {c: v for c, v in vec.items() if v}
            self._eliminate(vec)
        else:
            vec, combo = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        lead = vec[pivot]
        if tag is None and all(isinstance(v, int) for v in vec.values()):
            _strip_int_row(vec, pivot)
        else:
            for c in list(vec):
                vec[c] = Fraction(vec[c]) / lead
        if tag is not None:
            combo = {t: -v / lead for t, v in combo.items()}
            combo[tag] = 1 / lead
            self.combos[pivot] = combo
        self.rows[pivot] = vec
        return True


def apply_columns(cols, vec) -> dict:
    """The matrix with these sparse columns applied to vec: sum vec[j] * cols[j].

    The entries of vec may lie in any commutative ring that multiplies by
    the column entries (CycloInt included).
    """
    out = {}
    for j, c in vec.items():
        for i, e in cols[j].items():
            x = c * e
            nv = out[i] + x if i in out else x
            if nv:
                out[i] = nv
            elif i in out:
                del out[i]
    return out


def matrix_rank(vectors) -> int:
    ech = SparseEchelon()
    for v in vectors:
        ech.add_row(v)
    return ech.rank


def jordan_type(cols, dim: int) -> dict[int, int]:
    """Jordan type of a nilpotent dim x dim matrix given by columns: size -> count.

    Read off the ranks r_s of its powers: r_{s-1} - 2 r_s + r_{s+1} blocks of size s.
    """
    ranks = [dim]
    cur = cols
    while ranks[-1]:
        # the echelon rows span im M^s, so M applied to them spans im M^{s+1}
        ech = SparseEchelon()
        for v in cur:
            ech.add_row(v)
        ranks.append(ech.rank)
        cur = [apply_columns(cols, row) for row in ech.rows.values()]
    ranks.append(0)
    blocks = {}
    for s in range(1, len(ranks) - 1):
        count = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
        if count:
            blocks[s] = count
    return blocks
