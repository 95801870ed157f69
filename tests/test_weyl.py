"""The 15-dimensional projected tensor space and its induced operators."""

from collections import Counter
from fractions import Fraction

import pytest

from hodgemoments import weyl
from hodgemoments.chains import cohomology_bases, jordan_block_sizes
from hodgemoments.linalg import apply_columns
from hodgemoments.weyl import DimensionMismatch, v21_chain, young_projector


def _signed_sum():
    """Test oracle: the columns of the raw signed permutation sum S."""
    basis, pos = weyl._tensor_basis()
    cols = [{} for _ in basis]
    for perm, sign in weyl._signed_group_elements():
        for j, t in enumerate(basis):
            i = pos[weyl._apply_perm(perm, t)]
            cols[j][i] = cols[j].get(i, 0) + sign
    return [{i: c for i, c in col.items() if c} for col in cols]


def _projector():
    """Test oracle: the projector S / 8, with Fraction entries."""
    return [{i: Fraction(c, 8) for i, c in col.items()} for col in _signed_sum()]


def test_projector_dimension_and_scalar():
    assert young_projector().dim == 15
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
    ps = young_projector()
    assert Counter(ps.weights) == {1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 2, 7: 1}


def test_induced_shift_raises_weight():
    ps = young_projector()
    for j, col in enumerate(ps.nmat):
        for i in col:
            assert ps.weights[i] == ps.weights[j] + 1


def test_induced_lowering_drops_weight_by_one():
    ps = young_projector()
    assert any(ps.fmat)
    for j, col in enumerate(ps.fmat):
        for i in col:
            assert ps.weights[i] == ps.weights[j] - 1


def test_induced_corner_drops_weight_by_two():
    ps = young_projector()
    any_nonzero = False
    for j, col in enumerate(ps.emat):
        for i in col:
            any_nonzero = True
            assert ps.weights[i] == ps.weights[j] - 2
    assert any_nonzero


def test_chain_operators_are_integral():
    # the echelon rows of the chain are built from these entries, and the
    # echelon takes ints only
    chain = v21_chain()
    for cols in (chain.nmat, chain.emat, chain.fmat):
        assert all(type(c) is int for col in cols for c in col.values())


def test_induced_operators_in_the_chosen_basis():
    # N b_t and E b_t written in the basis by the tag-column solve
    ps = young_projector()
    assert ps.nmat == (
        {1: 1, 2: 2}, {3: 3, 4: -1}, {3: 1, 4: 1, 5: 1}, {6: 1, 7: 2, 8: -1}, {6: 1, 8: 1},
        {7: 1, 8: 2}, {9: 2, 10: -1}, {9: 2, 11: 1}, {9: 1, 10: 1}, {12: 1, 13: 1}, {12: 1},
        {13: 2}, {14: 1}, {14: 1}, {})
    assert ps.emat == (
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

    young_projector.cache_clear()
    monkeypatch.setattr(weyl, "_tensor_columns", bad_shift)
    try:
        with pytest.raises(DimensionMismatch, match="does not commute with the shift"):
            young_projector()
    finally:
        young_projector.cache_clear()
