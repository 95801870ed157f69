import pytest
from hypothesis import given, strategies as st

from hodgemoments.series import BiSeries, expand_rational


def test_geometric_single_factor():
    # 1 / (1 - t) has every t-coefficient 1 and no x-dependence
    s = expand_rational([1], [(1, 0)], 6, 3)
    for d in range(6):
        assert s.coeff(d, 0) == 1
        assert s.coeff(d, 1) == 0


def test_two_variable_factor():
    # 1 / (1 - t x): coefficient of t^d x^e is [d == e]
    s = expand_rational([1], [(1, 1)], 5, 5)
    for d in range(5):
        for e in range(5):
            assert s.coeff(d, e) == (1 if d == e else 0)


def test_product_of_geometrics_counts_partitions():
    # 1 / ((1-t)(1-t^2)(1-t^3)) counts partitions into parts <= 3
    s = expand_rational([1], [(1, 0), (2, 0), (3, 0)], 10, 1)
    expected = [1, 1, 2, 3, 4, 5, 7, 8, 10, 12]
    assert [s.coeff(d, 0) for d in range(10)] == expected


def test_numerator_shifts_and_cancels():
    # (1 - t) / (1 - t) == 1
    s = expand_rational([1, -1], [(1, 0)], 8, 2)
    assert s.coeff(0, 0) == 1
    assert all(s.coeff(d, 0) == 0 for d in range(1, 8))


def test_coeff_bounds():
    s = expand_rational([1], [(1, 0)], 3, 2)
    with pytest.raises(IndexError):
        s.coeff(3, 0)
    with pytest.raises(IndexError):
        s.coeff(0, 2)
    with pytest.raises(IndexError):
        s.coeff(-1, 0)


def test_rejects_bad_factor():
    with pytest.raises(ValueError):
        expand_rational([1], [(0, 0)], 3, 1)
    with pytest.raises(ValueError):
        expand_rational([1], [(1, 0)], 0, 1)


@given(st.integers(1, 4), st.integers(0, 3))
def test_single_factor_support(a, b):
    # 1/(1 - t^a x^b) supports exactly the multiples of (a, b)
    s = expand_rational([1], [(a, b)], 9, 9)
    assert isinstance(s, BiSeries)
    for d in range(9):
        for e in range(9):
            on_ray = (d % a == 0) and (d // a) * b == e
            assert s.coeff(d, e) == (1 if on_ray else 0), (a, b, d, e)
