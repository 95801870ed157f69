"""Counting layer against brute-force enumeration.

The enumeration oracle below recounts lattice points by direct iteration
over weak compositions, with no generating functions involved, so the two
routes share nothing but the answer.
"""

from collections import Counter
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hodgemoments.counting import (
    _weight_counts,
    block_multiplicity,
    block_multiplicity_n2_closed,
    block_multiplicity_poly,
    bottom_multiplicity,
    lattice_count,
    lattice_step,
    lattice_step_n2_closed,
    lattice_step_series,
    solution_dim_at_infinity,
    solution_dim_at_zero,
)
from hodgemoments.cyclo import (
    signed_orbit_count,
    vanishing_orbit_count,
    vanishing_tuple_count,
)
from hodgemoments.families import Family
from hodgemoments.multiindex import weak_compositions, weight


def brute_lattice_count(n, k, d):
    total = 0
    for index in weak_compositions(k, n + 1):
        rest = d - weight(index)
        if rest >= 0 and rest % (n + 1) == 0:
            total += 1
    return total


def brute_weight_count(n, k, w):
    return sum(1 for ix in weak_compositions(k, n + 1) if weight(ix) == w)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_lattice_count_against_enumeration(n, k):
    # far past n*k the count is periodic in d, and it needs no loop over a
    far = [10 ** 12 + r for r in range(n + 1)] + [10 ** 15]
    for d in [*range(n * k + 4), *far]:
        assert lattice_count(n, k, d) == brute_lattice_count(n, k, d), (n, k, d)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weight_counts_against_enumeration(n):
    for k in range(1, 9):
        counts = Counter(weight(ix) for ix in weak_compositions(k, n + 1))
        assert _weight_counts(n, k) == tuple(counts[w] for w in range(n * k + 1)), (n, k)


def test_weight_counts_of_two_slots_at_large_k():
    # min(n, k) = 1 factor: the old (k+1) x (nk+1) table held nine million cells here
    assert _weight_counts(1, 3000) == (1,) * 3001


def test_lattice_count_negative_degree():
    assert lattice_count(2, 3, -1) == 0
    assert lattice_step(2, 3, 0) == 1


@pytest.mark.parametrize("n,k", [(1, 4), (2, 5), (3, 4), (4, 3)])
def test_step_series_matches_pointwise_steps(n, k):
    w = n * k + 1
    series = lattice_step_series(n, w + 1, k + 1)
    for d in range(w + 1):
        assert series.coeff(d, k) == lattice_step(n, k, d)


@given(st.integers(1, 4), st.integers(1, 8))
def test_block_poly_antisymmetric(n, k):
    q = block_multiplicity_poly(n, k)
    top = n * k + 1
    assert len(q) == top + 1
    for d in range(top + 1):
        assert q[d] == -q[top - d]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", range(1, 9))
def test_block_poly_matches_sympy_division(n, k):
    t = sympy.symbols("t")
    num = sympy.prod([1 - t ** (n + i) for i in range(1, k + 1)])
    den = sympy.prod([1 - t ** i for i in range(2, k + 1)])
    quot, rem = sympy.div(sympy.Poly(num, t), sympy.Poly(den, t))
    assert rem.is_zero
    assert block_multiplicity_poly(n, k) == tuple(reversed(quot.all_coeffs()))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_block_multiplicity_counts_string_bottoms(n, k):
    # the number of nilpotent strings bottoming out in weight d equals the
    # growth of the weight-space dimensions up to the middle
    for d in range((n * k) // 2 + 1):
        growth = brute_weight_count(n, k, d) - brute_weight_count(n, k, d - 1)
        assert block_multiplicity(n, k, d) == growth, (n, k, d)


def test_bottom_multiplicity_clips_past_half():
    assert bottom_multiplicity(2, 4, 0) == 1
    assert bottom_multiplicity(2, 4, 5) == 0
    assert bottom_multiplicity(2, 4, -1) == 0


@pytest.mark.parametrize("k", range(1, 13))
def test_n2_closed_forms(k):
    for d in range(k + 1):
        assert lattice_step_n2_closed(k, d) == lattice_step(2, k, d)
        assert block_multiplicity_n2_closed(k, d) == block_multiplicity(2, k, d)


def test_n2_closed_forms_reject_out_of_range():
    with pytest.raises(ValueError):
        lattice_step_n2_closed(4, 5)
    with pytest.raises(ValueError):
        block_multiplicity_n2_closed(4, -1)


class TestStepClauses:
    """Support, mirror, and difference laws of the step sequence."""

    cases = [(n, k) for n in (1, 2, 3, 4) for k in range(1, 13)
             if gcd(k, n + 1) == 1]

    @pytest.mark.parametrize("n,k", cases)
    def test_support_and_mirror(self, n, k):
        top = n * k - n
        for d in range(top + 1, n * k + 4):
            assert lattice_step(n, k, d) == 0
        for d in range(top + 1):
            assert lattice_step(n, k, d) == lattice_step(n, k, top - d)

    @pytest.mark.parametrize("n,k", cases)
    def test_difference_is_block_multiplicity(self, n, k):
        w = n * k + 1
        for d in range(w + 1):
            assert (lattice_step(n, k, d) - lattice_step(n, k, w - d)
                    == block_multiplicity(n, k, d))

    @pytest.mark.parametrize("n,k", cases)
    def test_steps_absorb_bottoms(self, n, k):
        # removing a string bottom in degree p leaves the step count of p-n-1
        w = n * k + 1
        for p in range(w // 2 + 1):
            assert (lattice_step(n, k, p) - bottom_multiplicity(n, k, p)
                    == lattice_step(n, k, p - n - 1))


class TestAiryGradingClauses:
    cases = [(n, k) for n in (2, 3, 4) for k in range(1, 13) if gcd(k, n) == 1]

    @pytest.mark.parametrize("n,k", cases)
    def test_support_and_mirror(self, n, k):
        # the rank-n grading drops one slot and tightens the support bound
        top = n * k - n - k + 1
        for d in range(top + 1, n * k + 4):
            assert lattice_step(n - 1, k, d) == 0
        for d in range(top + 1):
            assert lattice_step(n - 1, k, d) == lattice_step(n - 1, k, top - d)


def test_known_step_rows():
    assert [lattice_step(2, 3, d) for d in range(8)] == [1, 0, 1, 1, 0, 0, 1, -1]
    assert [lattice_step(2, 4, d) for d in range(10)] == [1, 0, 1, 1, 1, 0, 1, 0, 0, 0]
    assert [lattice_step(2, 6, d) for d in range(14)] == [1, 0, 1, 1, 1, 1, 2, 0, 1, 1, 0, 0, 1, -1]


def test_known_block_rows():
    assert block_multiplicity_poly(2, 4) == (1, 0, 1, 0, 1, -1, 0, -1, 0, -1)
    assert block_multiplicity_poly(2, 6) == (1, 0, 1, 0, 1, 0, 1, -1, 0, -1, 0, -1, 0, -1)


def test_block_row_for_n1_is_one_binomial():
    # Q(1, k) = 1 - t^{k+1}; its numerator alone has degree k(k+3)/2 = 80 600
    # at k = 400, which the paired quotient never multiplies out
    assert block_multiplicity_poly(1, 400) == (1,) + (0,) * 400 + (-1,)


@pytest.mark.parametrize("k", range(1, 9))
def test_solution_dim_at_zero_n2(k):
    assert solution_dim_at_zero(2, k) == 1 + k // 2


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 8))
def test_solution_dims_sit_inside_h1(n, k):
    s0 = solution_dim_at_zero(n, k)
    for fam in (Family.KL_Z, Family.KL_TILDE_T):
        sinf = solution_dim_at_infinity(n, k, fam)
        assert s0 >= 1
        assert sinf >= 0


def test_solution_dim_at_infinity_branches():
    # even n: orbit count regardless of parity of nk
    assert solution_dim_at_infinity(2, 3, Family.KL_Z) == vanishing_orbit_count(3, 3)
    # odd n, odd nk: forced zero
    assert solution_dim_at_infinity(1, 3, Family.KL_Z) == 0
    # odd n, even nk: signed orbits
    assert solution_dim_at_infinity(3, 2, Family.KL_Z) == signed_orbit_count(4, 2)
    # tilde counts tuples, not orbits, and obeys the parity switch
    assert solution_dim_at_infinity(2, 6, Family.KL_TILDE_T) == vanishing_tuple_count(3, 6)
    assert solution_dim_at_infinity(1, 3, Family.KL_TILDE_T) == 0
    with pytest.raises(ValueError):
        solution_dim_at_infinity(2, 3, Family.AIRY_Z)
