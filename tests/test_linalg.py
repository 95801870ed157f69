"""Sparse echelon machinery, cross-checked against sympy's dense routines.

matrix_rank and jordan_type are oracles for the other tests: the library
reads the Jordan type of N off an sl2 certificate instead.
"""

import heapq
from fractions import Fraction
from math import gcd

import sympy
from hypothesis import given, settings, strategies as st

from hodgemoments.linalg import PRIME, SparseEchelon, apply_columns


class OracleEchelon(SparseEchelon):
    """The elimination loop as it stood before the pivot-only heap, kept as an oracle.

    Every column of the probe goes on the heap, a seen set skips repeats and
    the rows are stripped by a running gcd; the kernel must make the same
    fraction-free steps in the same order, so its rows come out identical.
    """

    def _eliminate(self, vec):
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

    def add_row(self, vec) -> int | None:
        vec = {c: v for c, v in vec.items() if v}
        self._eliminate(vec)
        if not vec:
            return None
        pivot = min(vec)
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
        self.rows[pivot] = vec
        return pivot


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


def sparse_rows(nrows=5, ncols=5, lo=-6, hi=6):
    entry = st.integers(lo, hi)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=0, max_size=nrows)


def to_sparse(dense_rows):
    return [{j: c for j, c in enumerate(row) if c} for row in dense_rows]


def coker_columns(vectors, ncols):
    """Columns that no pivot reaches: a monomial complement of the span."""
    ech = SparseEchelon()
    for v in vectors:
        ech.add_row(v)
    return [c for c in range(ncols) if c not in ech.rows]


@settings(max_examples=150)
@given(sparse_rows())
def test_rank_matches_sympy(rows):
    vectors = to_sparse(rows)
    got = matrix_rank(vectors)
    if rows:
        expected = sympy.Matrix(rows).rank()
    else:
        expected = 0
    assert got == expected


@settings(max_examples=150)
@given(sparse_rows(nrows=6, ncols=5), st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_tag_column_solve(rows, coeffs, extra):
    # inputs b_t carry a unit tag in column 5 + t; the probe a unit marker in
    # column -1.  Dependent inputs are added too: their rows are relations
    # among the tagged inputs, so the reading stays a solution
    vectors = to_sparse(rows)
    ech = SparseEchelon()
    for t, v in enumerate(vectors):
        ech.add_row({**v, 5 + t: 1})
    probe = {}
    for t, v in enumerate(vectors):
        for j, c in v.items():
            probe[j] = probe.get(j, 0) + coeffs[t] * c
    residual = ech.residual({**probe, -1: 1})
    assert not set(residual) & set(ech.rows)
    marker = residual.pop(-1)
    assert min(residual, default=5) >= 5
    acc = {}
    for tag, c in residual.items():
        for j, v in vectors[tag - 5].items():
            acc[j] = acc.get(j, 0) + Fraction(-c, marker) * v
    assert {j: v for j, v in acc.items() if v} == {j: v for j, v in probe.items() if v}
    # a probe outside the span leaves a data column in the residual
    outside = {j: probe.get(j, 0) + c for j, c in enumerate(extra)}
    left = any(c < 5 for c in ech.residual(outside))
    span = sympy.Matrix(rows).rank() if rows else 0
    assert left == (sympy.Matrix(rows + [extra]).rank() > span)


def test_coker_complement_picks_unreached_columns():
    # span of e0 + e1 and e2 inside Q^4: complement is columns 1 and 3
    vectors = [{0: 1, 1: 1}, {2: 5}]
    assert coker_columns(vectors, 4) == [1, 3]


def test_coker_complement_full_rank_is_empty():
    vectors = [{0: 1}, {1: 2}, {2: -1}]
    assert coker_columns(vectors, 3) == []


@settings(max_examples=100)
@given(sparse_rows(nrows=5, ncols=4))
def test_coker_complement_size(rows):
    vectors = to_sparse(rows)
    comp = coker_columns(vectors, 4)
    assert len(comp) == 4 - matrix_rank(vectors)


@settings(max_examples=100)
@given(sparse_rows(nrows=4, ncols=4))
def test_apply_columns_matches_sympy(rows):
    cols = to_sparse(rows)
    vec = {j: j - 1 for j in range(len(cols)) if j != 1}
    dense = sympy.zeros(4, len(cols))
    for j, col in enumerate(cols):
        for i, c in col.items():
            dense[i, j] = c
    x = sympy.Matrix([vec.get(j, 0) for j in range(len(cols))])
    want = {i: int(v) for i, v in enumerate(dense * x) if v} if cols else {}
    assert apply_columns(cols, vec) == want


def test_jordan_type_of_shift_blocks():
    # e0 -> e1 -> e2 and e3 -> e4, e5 fixed at zero: blocks 3, 2, 1
    cols = [{1: 1}, {2: 1}, {}, {4: 1}, {}, {}]
    assert jordan_type(cols, 6) == {1: 1, 2: 1, 3: 1}
    assert jordan_type([], 0) == {}


def _items(echelon):
    """The stored rows with their key order, which dict equality ignores."""
    return [(pivot, list(row.items())) for pivot, row in echelon.rows.items()]


# columns from -1 (the solve marker) to 5, few enough that entries often
# cancel in one step and come back in a later one
_ORACLE_ROW = st.dictionaries(st.integers(-1, 5), st.integers(-4, 4), max_size=6)


@settings(max_examples=300)
@given(st.lists(_ORACLE_ROW, max_size=9), st.lists(_ORACLE_ROW, max_size=4))
def test_kernel_matches_oracle_loop(rows, probes):
    ech, oracle = SparseEchelon(), OracleEchelon()
    for row in rows:
        assert ech.add_row(row) == oracle.add_row(row)
        assert _items(ech) == _items(oracle)
    for probe in probes:
        for vec in (probe, {**probe, -1: 1}):
            got = ech.residual(vec)
            assert list(got.items()) == list(oracle.residual(vec).items())


def test_kernel_matches_oracle_when_a_pivot_cancels_and_returns():
    # eliminating column 0 cancels column 2, eliminating column 1 brings it
    # back, so column 2 goes on the heap twice and is eliminated once
    rows = [{0: 1, 2: 1}, {1: 1, 2: -1, 3: 1}, {2: 1, 3: 1}, {-1: 2, 3: 3}]
    ech, oracle = SparseEchelon(), OracleEchelon()
    for row in rows:
        ech.add_row(row)
        oracle.add_row(row)
    assert _items(ech) == _items(oracle)
    for probe in ({0: 1, 1: 1, 2: 1}, {-1: 1, 0: 1, 1: 1, 2: 1}):
        assert ech.residual(probe) == oracle.residual(probe) != {}
    assert ech.residual({0: 1, 1: 1, 2: 1}) == {3: -2}


# up to 6 rows on 6 columns with entries in [-6, 6]: by Hadamard every minor
# is at most (6 sqrt 6)^6 = 6^9 < 2^24 < PRIME in size, so a minor vanishes mod
# PRIME only where it vanishes over Z, and both rings pick the same pivots
_SMALL_ROW = st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=6)


@settings(max_examples=200)
@given(st.lists(_SMALL_ROW, max_size=6), st.lists(_SMALL_ROW, max_size=3))
def test_modular_kernel_pivots_where_the_integer_kernel_does(rows, probes):
    over_z, mod_p = SparseEchelon(), SparseEchelon(PRIME)
    for row in rows:
        assert mod_p.add_row(row) == over_z.add_row(row)
    for probe in probes:
        assert min(mod_p.residual(probe), default=None) == min(over_z.residual(probe),
                                                               default=None)


@settings(max_examples=100)
@given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(-10**12, 10**12), max_size=6),
                max_size=8))
def test_modular_rows_lead_with_one_and_stay_reduced(rows):
    # entries past PRIME, negative ones and multiples of PRIME come in reduced
    ech = SparseEchelon(PRIME)
    for row in rows:
        ech.add_row({**row, 8: PRIME * 5})
    for pivot, row in ech.rows.items():
        assert min(row) == pivot and row[pivot] == 1
        assert all(0 < v < PRIME for v in row.values())
        assert 8 not in row


def test_modular_kernel_reduces_its_input():
    # a row that is a multiple of PRIME is zero mod PRIME, and -1 is PRIME - 1
    ech = SparseEchelon(PRIME)
    assert ech.add_row({0: PRIME, 1: 2 * PRIME}) is None
    assert ech.add_row({0: 2, 1: -1}) == 0
    assert ech.rows == {0: {0: 1, 1: (PRIME - 1) // 2}}
    assert ech.residual({0: 4, 1: -2}) == {}
    assert SparseEchelon().add_row({0: PRIME, 1: 2 * PRIME}) == 0


class TestSparseEchelon:
    def test_duplicate_row_is_dependent(self):
        ech = SparseEchelon()
        assert ech.add_row({0: 2, 1: 3}) == 0
        assert ech.add_row({0: 4, 1: 6}) is None
        assert ech.rank == 1

    def test_add_row_returns_the_new_pivot(self):
        # pivot 0 is falsy: a caller must compare with None
        ech = SparseEchelon()
        assert ech.add_row({0: 2, 1: 3}) == 0
        assert ech.add_row({0: 4, 1: 5, 3: 1}) == 1
        assert ech.add_row({2: 0, 3: -2}) == 3
        assert ech.add_row({1: 1, 3: 1}) is None
        assert list(ech.rows) == [0, 1, 3]

    def test_zero_row_never_adds(self):
        ech = SparseEchelon()
        assert ech.add_row({}) is None
        assert ech.rank == 0
