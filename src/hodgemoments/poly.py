"""Exact integer polynomial division.

A polynomial is a list of int coefficients, constant term first.  Only two
quotients are needed, and both are checked to be exact: products of
binomials 1 - t^a over as many others, taken one pair at a time (the weight
character, from which every other count is read), and division by a monic
polynomial (the cyclotomic polynomials).
"""


class RemainderNonzero(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


def binomial_quotient(ups, downs) -> tuple[int, ...]:
    """prod_{a in ups} (1 - t^a) / prod_{b in downs} (1 - t^b), all a, b >= 1.

    Ups and downs are paired in order, and there must be as many of each.
    Each pair multiplies in its up and at once divides by its down, so the
    whole numerator is never multiplied out.  Contract: every partial quotient
    is a polynomial, as in the weight characters of `counting`.  Each division
    is checked to be exact, raising RemainderNonzero otherwise, and also when
    the up and down counts differ.

    Multiplying by 1 - t^a runs in place from the top down.  Dividing by
    1 - t^b is a prefix sum with stride b, the power series of the quotient
    through the current degree; it is exact iff its top b coefficients are 0.
    """
    ups, downs = list(ups), list(downs)
    if len(ups) != len(downs):
        raise RemainderNonzero("binomial quotient needs as many downs as ups")
    f = [1]
    for a, b in zip(ups, downs):
        f += [0] * a
        for i in range(len(f) - 1, a - 1, -1):
            f[i] -= f[i - a]
        for i in range(b, len(f)):
            f[i] += f[i - b]
        if any(f[-b:]):
            raise RemainderNonzero("binomial quotient left a nonzero remainder")
        del f[-b:]
    return tuple(f)


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
