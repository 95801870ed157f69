"""Exact integer polynomial division, checked against sympy."""

import pytest
import sympy
from hypothesis import given, strategies as st

from hodgemoments.poly import RemainderNonzero, _divmod_monic, binomial_quotient, div_exact_monic

t = sympy.symbols("t")

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=7)


def to_sympy(f):
    return sympy.Poly(list(reversed(f)), t)


def times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@given(st.integers(0, 6), st.integers(0, 6))
def test_paired_quotient_matches_sympy(a, b):
    # prod_{i<=b} (1 - t^{a+i}) / (1 - t^i) is the Gaussian binomial [a+b, b]_t
    want = sympy.prod([(1 - t ** (a + i)) / (1 - t ** i) for i in range(1, b + 1)])
    got = binomial_quotient(range(a + 1, a + b + 1), range(1, b + 1))
    assert to_sympy(list(got)) == sympy.Poly(sympy.cancel(want), t)


@pytest.mark.parametrize("ups,downs", [([3], []), ([1], []), ([], [2]), ([1, 2], [3])])
def test_binomial_quotient_needs_as_many_downs_as_ups(ups, downs):
    # no unpaired up: 1 - t^3 alone is not a quotient of paired binomials
    with pytest.raises(RemainderNonzero):
        binomial_quotient(ups, downs)


def test_binomial_quotient_gaussian_binomial():
    # prod_{i<=k} (1 - t^{n+i}) / (1 - t^i) is the Gaussian binomial [n+k, k]_t
    n, k = 3, 4
    got = binomial_quotient(range(n + 1, n + k + 1), range(1, k + 1))
    assert sum(got) == 35 and got == tuple(reversed(got)) and len(got) == n * k + 1


@pytest.mark.parametrize("ups,downs", [([3], [2]), ([2], [3]), ([4, 1], [3]), ([], [1]),
                                       # paired in order, (1 - t) / (1 - t^2) comes
                                       # first and is not a polynomial, though the whole is 1
                                       ([1, 2], [2, 1])])
def test_binomial_quotient_rejects_remainder(ups, downs):
    with pytest.raises(RemainderNonzero):
        binomial_quotient(ups, downs)


@given(small_polys, small_polys)
def test_div_exact_recovers_factor(f, g):
    g = g + [1]  # monic
    assert div_exact_monic(times(f, g), g) == f


@given(small_polys, small_polys)
def test_divmod_monic_matches_sympy(f, g):
    # the one division loop behind div_exact_monic and the reduction mod Phi_m
    g = g + [1]  # monic
    quot, rem = _divmod_monic(f, g)
    want_q, want_r = sympy.div(to_sympy(f), to_sympy(g))
    assert to_sympy(quot or [0]) == want_q
    assert to_sympy(rem or [0]) == want_r
    assert len(rem) == min(len(f), len(g) - 1)


def test_div_exact_rejects_remainder():
    with pytest.raises(RemainderNonzero):
        div_exact_monic([1, 1, 1], [1, 1])  # (t^2 + t + 1) / (t + 1)
    with pytest.raises(RemainderNonzero):
        div_exact_monic([1], [1, 1])  # lower degree than the divisor
