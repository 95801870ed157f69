"""The 15-dimensional projected tensor space and its induced operators."""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from hodgemoments import weyl
from hodgemoments.chains import cohomology_bases, jordan_block_sizes
from hodgemoments.linalg import SparseEchelon, apply_columns
from hodgemoments.weyl import DimensionMismatch, v21_chain

# slot moves {i: (t, c)}, v_i -> c * v_t, of the shift, corner and lowering on 3 slots
SLOT_MOVES = ({0: (1, 1), 1: (2, 1)}, {2: (0, 1)}, {1: (0, 2), 2: (1, 2)})


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
    """The row group of the (3, 1) tableau times its signed column group {1, (0 3)}."""
    rows = [p + (3,) for p in permutations((0, 1, 2))]
    cols = [((0, 1, 2, 3), 1), ((3, 1, 2, 0), -1)]
    for g in rows:
        for h, sign in cols:
            yield _compose(g, h), sign


def _signed_sum():
    """Test oracle: the columns of the raw signed permutation sum S."""
    basis, pos = _tensor_basis()
    cols = [{} for _ in basis]
    for perm, sign in _signed_group_elements():
        for j, t in enumerate(basis):
            i = pos[_apply_perm(perm, t)]
            cols[j][i] = cols[j].get(i, 0) + sign
    return [{i: c for i, c in col.items() if c} for col in cols]


def _projector():
    """Test oracle: the projector S / 8, with Fraction entries."""
    return [{i: Fraction(c, 8) for i, c in col.items()} for col in _signed_sum()]


def tensor_derivation(vec, moves):
    """Test oracle: the derivation v_i -> c * v_t, moves = {i: (t, c)}, on a tensor vector."""
    basis, pos = _tensor_basis()
    out = Counter()
    for j, a in vec.items():
        t = basis[j]
        for s, i in enumerate(t):
            if i in moves:
                out[pos[t[:s] + (moves[i][0],) + t[s + 1:]]] += a * moves[i][1]
    return {i: c for i, c in out.items() if c}


def projected_space():
    """Test oracle: the image basis of S by projected index, and the weight of each vector.

    The projected index numbers the independent columns of S weight
    ascending, then by tensor index.
    """
    basis, _ = _tensor_basis()
    raw = _signed_sum()
    vectors, weights = [], []
    for w in range(9):
        ech = SparseEchelon()
        for j, t in enumerate(basis):
            if sum(t) == w and ech.add_row(raw[j]) is not None:
                vectors.append(raw[j])
                weights.append(w)
    return vectors, weights


def test_projector_dimension_and_scalar():
    assert len(v21_chain().labels) == 15
    raw = _signed_sum()
    assert [apply_columns(raw, col) for col in raw] == [
        {i: 8 * c for i, c in col.items()} for col in raw]


def test_projector_is_idempotent():
    proj = _projector()
    square = [apply_columns(proj, col) for col in proj]
    for got, want in zip(square, proj):
        assert {i: c for i, c in got.items() if c} == want


def test_projector_trace_equals_rank():
    trace = sum(col.get(j, Fraction(0)) for j, col in enumerate(_projector()))
    assert trace == 15


def test_graded_dimensions():
    assert Counter(v21_chain().weights) == {1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 2, 7: 1}


def test_induced_shift_raises_weight():
    chain = v21_chain()
    for j, col in enumerate(chain.nmat):
        for i in col:
            assert chain.weights[i] == chain.weights[j] + 1


def test_induced_lowering_drops_weight_by_one():
    chain = v21_chain()
    assert any(chain.fmat)
    for j, col in enumerate(chain.fmat):
        for i in col:
            assert chain.weights[i] == chain.weights[j] - 1


def test_induced_corner_drops_weight_by_two():
    chain = v21_chain()
    any_nonzero = False
    for j, col in enumerate(chain.emat):
        for i in col:
            any_nonzero = True
            assert chain.weights[i] == chain.weights[j] - 2
    assert any_nonzero


def test_chain_operators_are_integral():
    # the echelon rows of the chain are built from these entries, and the
    # echelon takes ints only
    chain = v21_chain()
    for cols in (chain.nmat, chain.emat, chain.fmat):
        assert all(type(c) is int for col in cols for c in col.values())


def test_induced_operators_in_the_chosen_basis():
    # N b_t and E b_t written in the basis by the tag-column solve, keyed by
    # the projected index t that the chain keeps as its labels
    chain = v21_chain()

    def by_label(mat):
        cols = {chain.labels[j]: {chain.labels[i]: c for i, c in col.items()}
                for j, col in enumerate(mat)}
        return tuple(cols[t] for t in range(len(cols)))

    assert by_label(chain.nmat) == (
        {1: 1, 2: 2}, {3: 3, 4: -1}, {3: 1, 4: 1, 5: 1}, {6: 1, 7: 2, 8: -1}, {6: 1, 8: 1},
        {7: 1, 8: 2}, {9: 2, 10: -1}, {9: 2, 11: 1}, {9: 1, 10: 1}, {12: 1, 13: 1}, {12: 1},
        {13: 2}, {14: 1}, {14: 1}, {})
    assert by_label(chain.emat) == (
        {}, {}, {}, {}, {0: 1}, {}, {1: 1}, {}, {2: 1}, {3: 1}, {4: 2}, {5: -1}, {6: 2},
        {7: 1, 8: -2}, {9: 2, 10: -3})


def test_jordan_blocks():
    assert jordan_block_sizes(v21_chain()) == {7: 1, 5: 1, 3: 1}


def test_chain_cohomology_cards():
    chain = v21_chain()
    full, mid = cohomology_bases(chain)
    assert full.cardinalities() == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
    assert mid.cardinalities() == {4: 1, 5: 1}


def test_basis_vectors_live_in_projected_coordinates():
    chain = v21_chain()
    _, mid = cohomology_bases(chain)
    for monos in mid.vectors.values():
        for a, j in monos:
            assert 0 <= j < 15
            assert a >= 1


def test_commutation_check_rejects_a_bad_shift(monkeypatch):
    # the check runs on the integer signed sum S, not on S / c; one wrong
    # entry of the shift columns must still stop the build
    tensor_columns = weyl._tensor_columns

    def bad_shift(basis, pos, moves):
        cols = tensor_columns(basis, pos, moves)
        if moves == {0: (1, 1), 1: (2, 1)}:
            j = next(j for j, col in enumerate(cols) if col)
            i = next(iter(cols[j]))
            cols[j][i] += 1
        return cols

    monkeypatch.setattr(weyl, "_tensor_columns", bad_shift)
    with pytest.raises(DimensionMismatch, match="does not commute with the shift"):
        v21_chain()
