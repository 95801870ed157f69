"""Sparse exact linear algebra over Z.

Vectors are dicts mapping column index to a nonzero int.  The workhorse is a
forward echelon with fraction-free updates: rows are combined by
cross-multiplication and stripped by their gcd, so no division ever happens.

A solve runs on the same integer rows through tag columns.  Add each input
b_t with a unit entry in its own tag column, past every data column, and
eliminate the probe p plus a unit entry in a marker column that no row
touches.  If p lies in the span, the residual keeps no data column and
p == sum_t (-residual[tag_t] / residual[marker]) * b_t.

There is no back-substitution: stored rows keep their pivot as the smallest
column of their support, which is all that rank, pivot-set and membership
questions require.
"""

import heapq
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
    """Incremental echelon of sparse integer rows; tracks rank and pivot columns."""

    def __init__(self):
        self.rows = {}  # pivot column -> row dict

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec):
        """Remove every pivot column from vec's support, in ascending order."""
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
            g = gcd(a, b)
            sv, sr = b // g, -(a // g)
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

    def residual(self, vec) -> dict:
        """A nonzero multiple of vec minus a combination of the rows, off every pivot."""
        vec = {c: v for c, v in vec.items() if v}
        self._eliminate(vec)
        return vec

    def add_row(self, vec) -> bool:
        """Insert a copy of vec; True if it was independent of current rows."""
        vec = {c: v for c, v in vec.items() if v}
        self._eliminate(vec)
        if not vec:
            return False
        pivot = min(vec)
        _strip_int_row(vec, pivot)
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

