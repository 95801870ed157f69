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
    # divide by the gcd, with the sign that leaves the pivot entry positive
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    if g != 1:
        for c in vec:
            vec[c] //= g


class SparseEchelon:
    """Incremental echelon of sparse integer rows; tracks rank and pivot columns."""

    def __init__(self):
        self.rows = {}  # pivot column -> row dict

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec):
        """Remove every pivot column from vec's support, in ascending order.

        The heap holds only pivot columns.  A row's support lies at or past
        its pivot, so once a pivot is eliminated no later row brings it back,
        and a second heap entry for it finds it gone from vec.
        """
        rows = self.rows
        heap = [c for c in vec if c in rows]
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            a = vec.get(c)
            if a is None:
                continue
            row = rows[c]
            b = row[c]
            g = gcd(a, b)
            sv, sr = b // g, -(a // g)
            if sv != 1:
                for cc in vec:
                    vec[cc] *= sv
            for cc, v in row.items():
                old = vec.get(cc)
                if old is None:
                    vec[cc] = sr * v
                    if cc in rows:
                        heapq.heappush(heap, cc)
                else:
                    nv = old + sr * v
                    if nv:
                        vec[cc] = nv
                    else:
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

