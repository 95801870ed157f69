"""Counting layer against brute-force enumeration.

The enumeration oracles below recount lattice points by direct iteration
over weak compositions, and weight characters over semistandard tableaux,
with no generating functions involved, so the two routes share nothing but
the answer.
"""

from collections import Counter
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hodgemoments.counting import (
    _divide_binomial,
    _slice_steps,
    block_multiplicity,
    block_multiplicity_n2_closed,
    block_multiplicity_poly,
    bottom_multiplicity,
    lattice_step,
    lattice_step_n2_closed,
    solution_dim_at_infinity,
    solution_dim_at_zero,
    weight_character,
)
from hodgemoments.cyclo import (
    signed_orbit_count,
    vanishing_orbit_count,
    vanishing_tuple_count,
)
from hodgemoments.families import Family
from hodgemoments.multiindex import weak_compositions, weight
from hodgemoments.poly import RemainderNonzero
from hodgemoments.series import BiSeries, expand_rational
from hodgemoments.weyl import v21_chain


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
    # the running sums of the steps are the lattice counts, zero below degree 0
    near = n * k + 4
    running = 0
    for d in range(-3, near + n + 1):
        running += lattice_step(n, k, d)
        assert running == brute_lattice_count(n, k, d), (n, k, d)
    # past n*k the count depends on d mod n+1 only, so a far count is a near
    # one and a far step, read with no loop over a, is a near step
    for d in [10 ** 12 + r for r in range(n + 1)] + [10 ** 15]:
        base = near + (d - near) % (n + 1)
        assert brute_lattice_count(n, k, d) == brute_lattice_count(n, k, base), (n, k, d)
        assert lattice_step(n, k, d) == lattice_step(n, k, base), (n, k, d)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weight_counts_against_enumeration(n):
    for k in range(1, 9):
        counts = Counter(weight(ix) for ix in weak_compositions(k, n + 1))
        assert weight_character((k,), n + 1) == tuple(counts[w] for w in range(n * k + 1)), (n, k)


def test_weight_counts_of_two_slots_at_large_k():
    # one Gaussian-binomial pair: the old (k+1) x (nk+1) table held nine million cells here
    assert weight_character((3000,), 2) == (1,) * 3001


def strided_slice_step(counts, zweight, d):
    """dim slice(d) - dim slice(d-1), each slice summed afresh over its residue class."""
    return (sum(counts[d % zweight:max(d + 1, 0):zweight])
            - sum(counts[(d - 1) % zweight:max(d, 0):zweight]))


@pytest.mark.parametrize("n", range(1, 9))
def test_step_reader_matches_strided_sums(n):
    # the one-pass reader, its tail read by period, against the per-d sums
    for k in range(1, 21):
        counts = weight_character((k,), n + 1)
        for d in [*range(-5, 3 * (n * k + 2) + 1), 10 ** 12]:
            assert lattice_step(n, k, d) == strided_slice_step(counts, n + 1, d), (n, k, d)


@pytest.mark.parametrize("shape,m", [((3, 1), 3), ((2, 1), 3), ((2, 2), 3), ((2, 1), 4)])
@pytest.mark.parametrize("zweight", [1, 2, 3, 4, 7])
def test_slice_steps_of_schur_shapes_match_strided_sums(shape, m, zweight):
    counts = weight_character(shape, m)
    step = _slice_steps(counts, zweight)
    for d in [*range(-5, 3 * len(counts) + 20), 10 ** 12 + 1]:
        assert step(d) == strided_slice_step(counts, zweight, d), d


def test_lattice_count_negative_degree():
    assert lattice_step(2, 3, -1) == 0
    assert lattice_step(2, 3, 0) == brute_lattice_count(2, 3, 0) == 1


def partitions(total, largest=None):
    """The partitions of total, parts descending."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def tableau_weights(shape, m):
    """Counts by entry sum of the semistandard tableaux of shape, entries 0..m-1."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    sums = Counter()

    def fill(at, filled, total):
        if at == len(cells):
            sums[total] += 1
            return
        i, j = cells[at]
        low = max(filled.get((i, j - 1), 0), filled.get((i - 1, j), -1) + 1)
        for entry in range(low, m):
            fill(at + 1, {**filled, (i, j): entry}, total + entry)

    fill(0, {}, 0)
    return tuple(sums[w] for w in range(max(sums, default=-1) + 1))


SCHUR_CASES = [(shape, m) for size in range(6) for shape in partitions(size)
               for m in range(1, 6)] + [((3, 3), 4)]
# then every other partition with |shape| <= 6 on m <= 6
SCHUR_CASES += [(shape, m) for size in range(7) for shape in partitions(size)
                for m in range(1, 7) if (shape, m) not in SCHUR_CASES]


@pytest.mark.parametrize("shape,m", SCHUR_CASES)
def test_weight_character_is_the_tableau_count_or_raises(shape, m):
    # every partition divides exactly, (2, 2) on 5 slots and (3, 3) on 4 included;
    # only a tuple that is not a partition raises (the test below)
    assert weight_character(shape, m) == tableau_weights(shape, m)


@pytest.mark.parametrize("shape,m", [((k,), m) for m in range(1, 7) for k in range(1, 9)]
                         + [((3, 1), 3), ((2, 2), 3)])
def test_weight_character_never_raises_on_rows_or_v21(shape, m):
    # (2, 2) on 3 slots: after equal factors cancel, (1 - t^3)(1 - t^4) / ((1 - t)(1 - t^2))
    assert weight_character(shape, m) == tableau_weights(shape, m)


@pytest.mark.parametrize("shape,m", [((1, 2), 3), ((1, 1, 2), 4), ((2, 3), 3),
                                     ((1, 3), 4), ((1, 4), 5)])
def test_weight_character_of_a_non_partition_raises(shape, m):
    # the hook quotient of a tuple that is not a partition is no polynomial: a down
    # never finds its cyclotomic factors, or its hook is 0 ((1, 3)) or negative ((1, 4))
    with pytest.raises(RemainderNonzero):
        weight_character(shape, m)


def test_binomial_division_is_checked():
    # (1 + t + t^2) / (1 - t^2) leaves a remainder; (1 - t^4) / (1 - t^2) = 1 + t^2 does not
    with pytest.raises(RemainderNonzero):
        _divide_binomial([1, 1, 1], 2)
    f = [1, 0, 0, 0, -1]
    _divide_binomial(f, 2)
    assert f == [1, 0, 1]


def test_v21_character_is_the_young_projector_grading():
    # the closed V21 table reads this character; the basis route reads the chain
    hist = Counter(v21_chain().weights)
    assert weight_character((3, 1), 3) == tuple(hist[w] for w in range(max(hist) + 1))
    assert weight_character((3, 1), 3) == (0, 1, 2, 3, 3, 3, 2, 1)


def lattice_step_series(n: int, trunc_t: int, trunc_x: int) -> BiSeries:
    """The step series (1 - t) / ((1 - t^{n+1}) (1-x)(1-tx)...(1-t^n x)), truncated.

    Its x^k column holds lattice_step(n, k, .); the oracle of the closed routes.
    """
    factors = [(n + 1, 0)] + [(i, 1) for i in range(n + 1)]
    return expand_rational([1, -1], factors, trunc_t, trunc_x)


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
