"""Exact polynomial division, checked against sympy.

The monic division of `poly`, and the quotients of binomials 1 - t^a that
`counting.weight_character` divides out, with `_divide_binomial` checking
each division by 1 - t^b.
"""

import pytest
import sympy
from hypothesis import given, strategies as st

from hodgemoments.counting import _divide_binomial, weight_character
from hodgemoments.poly import RemainderNonzero, _divmod_monic, div_exact_monic

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
    # prod_{i<=b} (1 - t^{a+i}) / (1 - t^i) is the Gaussian binomial [a+b, b]_t,
    # the weight character of the row (b) on a + 1 slots
    want = sympy.prod([(1 - t ** (a + i)) / (1 - t ** i) for i in range(1, b + 1)])
    got = weight_character((b,), a + 1)
    assert to_sympy(list(got)) == sympy.Poly(sympy.cancel(want), t)


def test_binomial_quotient_gaussian_binomial():
    # [n+k, k]_t with n, k = 3, 4: C(7, 3) tableaux, palindromic of degree n k
    n, k = 3, 4
    got = weight_character((k,), n + 1)
    assert sum(got) == 35 and got == tuple(reversed(got)) and len(got) == n * k + 1


@pytest.mark.parametrize("ups,downs", [([3], [2]), ([2], [3]), ([4, 1], [3]), ([], [1])])
def test_binomial_quotient_rejects_remainder(ups, downs):
    # prod_{a in ups} (1 - t^a) / prod_{b in downs} (1 - t^b) is no polynomial here
    f = [1]
    for a in ups:
        f = times(f, [1] + [0] * (a - 1) + [-1])
    with pytest.raises(RemainderNonzero):
        for b in downs:
            _divide_binomial(f, b)


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
