"""Sparse exact linear algebra over Z, or over F_p for one fixed prime p.

Vectors are dicts mapping column index to a nonzero int.  The workhorse is a
forward echelon.  Over Z (modulus None) its updates are fraction-free: rows
are combined by cross-multiplication and stripped by their gcd, so no
division ever happens.  Over F_p (modulus PRIME) each stored row is scaled to
leading entry 1 and a probe loses a multiple of it, so every entry stays a
residue in [0, p), one 30-bit digit of a Python int.  A row independent mod
p is independent over Q, which is what lets a caller certify a walk mod p.

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

# the largest prime below 2^30, so that every reduced entry is one digit
PRIME = 1_073_741_789


def _strip_int_row(vec, pivot):
    # divide by the gcd, with the sign that leaves the pivot entry positive
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    if g != 1:
        for c in vec:
            vec[c] //= g


class SparseEchelon:
    """Incremental echelon of sparse rows over Z, or mod modulus; tracks rank and pivot columns."""

    def __init__(self, modulus: int | None = None):
        self.modulus = modulus
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
        rows, p = self.rows, self.modulus
        heap = [c for c in vec if c in rows]
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            a = vec.get(c)
            if a is None:
                continue
            row = rows[c]
            if p is None:
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
            else:  # the row leads with 1: take away a times it
                sr = p - a
                for cc, v in row.items():
                    old = vec.get(cc)
                    if old is None:
                        vec[cc] = sr * v % p
                        if cc in rows:
                            heapq.heappush(heap, cc)
                    else:
                        nv = (old + sr * v) % p
                        if nv:
                            vec[cc] = nv
                        else:
                            del vec[cc]

    def _entries(self, vec) -> dict:
        """vec's nonzero entries, reduced mod the modulus if there is one."""
        p = self.modulus
        if p is None:
            return {c: v for c, v in vec.items() if v}
        return {c: r for c, v in vec.items() if (r := v % p)}

    def residual(self, vec) -> dict:
        """A nonzero multiple of vec minus a combination of the rows, off every pivot."""
        vec = self._entries(vec)
        self._eliminate(vec)
        return vec

    def add_row(self, vec) -> int | None:
        """Insert vec reduced against the rows; its new pivot column, or None if dependent.

        The pivot may be column 0, so test the result against None.
        """
        vec = self._entries(vec)
        self._eliminate(vec)
        if not vec:
            return None
        pivot = min(vec)
        p = self.modulus
        if p is None:
            _strip_int_row(vec, pivot)
        elif vec[pivot] != 1:
            inv = pow(vec[pivot], -1, p)
            for c in vec:
                vec[c] = vec[c] * inv % p
        self.rows[pivot] = vec
        return pivot


def apply_columns(cols, vec) -> dict:
    """The matrix with these sparse integer columns applied to vec: sum vec[j] * cols[j]."""
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
