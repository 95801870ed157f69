"""Exact integer polynomial division.

A polynomial is a list of int coefficients, constant term first.  Only two
quotients are needed, and both are checked to be exact: products of
binomials 1 - t^a over others (the block multiplicity polynomial), and
division by a monic polynomial (the cyclotomic polynomials).
"""


class RemainderNonzero(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


def binomial_quotient(ups, downs) -> tuple[int, ...]:
    """prod_{a in ups} (1 - t^a) / prod_{b in downs} (1 - t^b), all a, b >= 1.

    The numerator is multiplied out in place from the top down.  Dividing by
    1 - t^b is a prefix sum with stride b, which gives the power series of the
    quotient through the numerator's degree; the division is exact iff that
    series stops at degree sum(ups) - sum(downs).
    """
    f = [1] + [0] * sum(ups)
    top = 0
    for a in ups:
        top += a
        for i in range(top, a - 1, -1):
            f[i] -= f[i - a]
    deg = top
    for b in downs:
        deg -= b
        for i in range(b, len(f)):
            f[i] += f[i - b]
    if deg < 0 or any(f[deg + 1:]):
        raise RemainderNonzero("binomial quotient left a nonzero remainder")
    return tuple(f[:deg + 1])


def _divmod_monic(f, g) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of f by monic g; the remainder has min(len(f), deg g) slots."""
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * (len(rem) - dg)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + dg]
        if c:
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return quot, rem[:dg]


def div_exact_monic(f, g) -> list[int]:
    """Quotient f / g for monic g, raising RemainderNonzero unless exact."""
    quot, rem = _divmod_monic(f, g)
    if any(rem):
        raise RemainderNonzero("division left a nonzero remainder")
    return quot
