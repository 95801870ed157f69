"""Cyclotomic arithmetic against sympy and against numeric evaluation."""

import cmath
from itertools import product
from math import comb

import pytest
import sympy
from hypothesis import given, strategies as st

from hodgemoments import cyclo
from hodgemoments.cyclo import (
    CycloInt,
    cyclotomic_poly,
    signed_orbit_count,
    tuple_vanishes,
    vanishing_orbit_count,
    vanishing_orbits,
    vanishing_tuple_count,
)
from hodgemoments.multiindex import canonical_rotation, orbit, rotate, weak_compositions

x = sympy.symbols("x")


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_poly_matches_sympy(m):
    got = sympy.Poly(list(reversed(cyclotomic_poly(m))), x)
    assert got == sympy.Poly(sympy.cyclotomic_poly(m, x), x)


def cyclo_strategy(m):
    deg = len(cyclotomic_poly(m)) - 1
    coeffs = st.lists(st.integers(-5, 5), min_size=deg, max_size=deg)
    return coeffs.map(lambda cs: CycloInt(m, tuple(cs)))


@given(st.integers(2, 9).flatmap(lambda m: st.tuples(
    cyclo_strategy(m), cyclo_strategy(m), cyclo_strategy(m))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + (-a) == CycloInt.zero(a.m)


def zeta(m, e):
    """zeta_m^e, from the unit exponent vector at e mod m."""
    unit = [0] * m
    unit[e % m] = 1
    return CycloInt.from_exponents(m, tuple(unit))


@given(st.integers(2, 12), st.integers(0, 30), st.integers(0, 30))
def test_zeta_powers_multiply_by_exponent_addition(m, e1, e2):
    assert zeta(m, e1) * zeta(m, e2) == zeta(m, e1 + e2)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_vanishing_agrees_with_numeric_evaluation(m):
    zeta = cmath.exp(2j * cmath.pi / m)
    for index in weak_compositions(4, m):
        value = sum(c * zeta ** j for j, c in enumerate(index))
        assert tuple_vanishes(m, index) == (abs(value) < 1e-9), (m, index)


def test_weak_compositions_in_lexicographic_order():
    # product() runs in lexicographic order, so filtering it is the oracle
    for total in range(7):
        for parts in range(6):
            want = [ix for ix in product(range(total + 1), repeat=parts) if sum(ix) == total]
            assert list(weak_compositions(total, parts)) == want, (total, parts)


def test_weak_compositions_take_any_number_of_parts():
    units = list(weak_compositions(1, 1500))
    assert len(units) == 1500
    assert units == sorted(units)
    assert units[0] == (0,) * 1499 + (1,) and units[-1] == (1,) + (0,) * 1499


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycloInt.one(3) + CycloInt.one(4)
    with pytest.raises(ValueError):
        CycloInt.from_exponents(3, (1, 2))


@pytest.mark.parametrize("k,expected", [(1, 0), (2, 0), (3, 1), (4, 0), (5, 0),
                                        (6, 1), (9, 1), (12, 1)])
def test_vanishing_tuple_count_m3(k, expected):
    assert vanishing_tuple_count(3, k) == expected


def test_vanishing_tuple_count_m4():
    # zeta_4 = i: I_0 + I_1 i - I_2 - I_3 i = 0 needs I_0 = I_2, I_1 = I_3
    assert vanishing_tuple_count(4, 2) == 2
    assert vanishing_tuple_count(4, 4) == [
        (a, b, a, b) for a in range(3) for b in range(3) if a + b == 2
    ].__len__()


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("k", range(1, 8))
def test_orbit_counts_bound_tuple_counts(m, k):
    d = vanishing_tuple_count(m, k)
    a = vanishing_orbit_count(m, k)
    b = signed_orbit_count(m, k)
    assert 0 <= b <= a <= d <= m * a


@pytest.mark.parametrize("m,k", [(3, 3), (3, 6), (4, 4), (6, 6)])
def test_orbit_reps_are_canonical_and_vanishing(m, k):
    reps = vanishing_orbits(m, k)
    seen = set()
    for rep in reps:
        assert tuple_vanishes(m, rep)
        assert rep == min(orbit(rep))
        for member in orbit(rep):
            assert member not in seen
            seen.add(member)
    # the orbits cover every vanishing tuple exactly once
    assert len(seen) == sum(1 for ix in weak_compositions(k, m)
                            if tuple_vanishes(m, ix))


def signed_shift_sum(index):
    """Test oracle: formal sum over i of (-1)^{s_i} sigma^i(index), as tuple -> coefficient.

    s_i adds up the last i entries of the original tuple (s_0 = 0), matching
    the sign picked up by moving those entries past the rest one step at a
    time.
    """
    m = len(index)
    out = {}
    cur = index
    for i in range(m):
        s_i = sum(index[m - i:]) if i else 0
        sign = -1 if s_i % 2 else 1
        out[cur] = out.get(cur, 0) + sign
        cur = rotate(cur)
    return {t: c for t, c in out.items() if c}


def test_signed_shift_sum_balanced_tuple_cancels():
    # the fully balanced triple is shift-invariant with alternating signs
    assert signed_shift_sum((1, 1, 1)) == {(1, 1, 1): 1}
    assert signed_shift_sum((2, 2, 2)) == {(2, 2, 2): 3}


def test_signed_shift_sum_respects_rotation_support():
    index = (2, 0, 1, 1)
    total = signed_shift_sum(index)
    assert set(total) <= set(orbit(index))


def test_signed_orbit_count_small_values():
    # the 2-periodic orbit at (m, k) = (4, 2) cancels under the signs
    assert signed_orbit_count(4, 2) == 0
    assert signed_orbit_count(4, 4) == 1
    assert signed_orbit_count(3, 3) == 1


def test_rational_detection():
    z = zeta(3, 1)
    s = z + zeta(3, 2)  # zeta + zeta^2 = -1
    assert s.coeffs == (-1, 0)
    assert z.coeffs == (0, 1)


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
# every prime power m <= 16 and k <= 24 with at most 20000 exponent tuples
CLOSED_FORM_PAIRS = [(m, k) for m in PRIME_POWERS for k in range(25)
                     if comb(k + m - 1, m - 1) <= 20000]


def brute_vanishing(m, k):
    """The vanishing tuples by enumeration, with no closed form involved."""
    return [ix for ix in weak_compositions(k, m) if tuple_vanishes(m, ix)]


@pytest.mark.parametrize("m,k", CLOSED_FORM_PAIRS, ids=lambda v: str(v))
def test_prime_power_closed_forms_match_enumeration(m, k):
    tuples = brute_vanishing(m, k)
    reps = tuple(sorted({canonical_rotation(ix) for ix in tuples}))
    assert vanishing_tuple_count(m, k) == len(tuples)
    assert vanishing_orbits(m, k) == reps
    assert signed_orbit_count(m, k) == sum(1 for rep in reps if signed_shift_sum(rep))


# composite m at small k, enumerated, where orbits of every period occur
COMPOSITE_PAIRS = [(m, k) for m in (6, 10, 12, 14, 15) for k in range(1, 9)
                   if comb(k + m - 1, m - 1) <= 5000]


@pytest.mark.parametrize("m,k", COMPOSITE_PAIRS, ids=lambda v: str(v))
def test_signed_orbit_count_matches_the_signed_sums_on_composite_m(m, k):
    reps = vanishing_orbits(m, k)
    assert signed_orbit_count(m, k) == sum(1 for rep in reps if signed_shift_sum(rep))


def test_composite_pairs_cancel_and_keep_orbits():
    # some composite orbit cancels (an even repeat of an odd period sum), and some survives
    kept = {(m, k): signed_orbit_count(m, k) for m, k in COMPOSITE_PAIRS}
    assert any(kept[mk] < vanishing_orbit_count(*mk) for mk in kept)
    assert any(kept.values())


def test_closed_form_pairs_cover_the_grid():
    assert len(CLOSED_FORM_PAIRS) == 153
    assert any(vanishing_tuple_count(m, k) for m, k in CLOSED_FORM_PAIRS if m == 16)


def test_prime_powers_skip_the_enumeration(monkeypatch):
    def no_enumeration(m, index):
        raise AssertionError(f"tuple_vanishes ran for the prime power m={m}")

    monkeypatch.setattr(cyclo, "tuple_vanishes", no_enumeration)
    vanishing_orbits.cache_clear()
    for m in PRIME_POWERS + (25, 27, 32, 49):
        for k in range(40):
            vanishing_tuple_count(m, k)
    assert vanishing_tuple_count(32, 40) == comb(20 + 16 - 1, 16 - 1)
    # billions of exponent tuples and more, none of them enumerated
    for m, k in [(16, 20), (25, 25), (49, 49), (13, 39)]:
        assert signed_orbit_count(m, k) <= len(vanishing_orbits(m, k))


def test_other_m_still_enumerate(monkeypatch):
    calls = []
    monkeypatch.setattr(cyclo, "tuple_vanishes",
                        lambda m, ix: calls.append(ix) or not CycloInt.from_exponents(m, ix))
    vanishing_orbits.cache_clear()
    assert vanishing_tuple_count(6, 5) == 6
    assert len(vanishing_orbits(6, 5)) == 1
    # one enumeration per (m, k): the count reads the cached orbits
    assert len(calls) == comb(5 + 5, 5)


def test_composite_enumeration_budget(monkeypatch):
    # above every composite enumeration the tests and the golden requests run
    # (at most 792 tuples) and above C(22, 14), criterion 12's (n, k) = (14, 8);
    # enforced before any tuple is tested
    assert cyclo.ENUMERATION_BUDGET >= comb(8 + 15 - 1, 15 - 1)
    monkeypatch.setattr(cyclo, "ENUMERATION_BUDGET", comb(5 + 5, 5) - 1)
    vanishing_orbits.cache_clear()
    for count in (vanishing_tuple_count, vanishing_orbit_count, signed_orbit_count):
        with pytest.raises(cyclo.EnumerationTooLarge):
            count(6, 5)
        assert count(6, 4) >= 0
    # prime powers have closed forms and no budget
    assert vanishing_tuple_count(16, 40) == comb(20 + 8 - 1, 8 - 1)
    vanishing_orbits.cache_clear()
