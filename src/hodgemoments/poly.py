"""Exact integer division by a monic polynomial, coefficients constant term first.

One loop serves Phi_m and the reduction modulo it (cyclo), and Psi_m (chains).
"""


class RemainderNonzero(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


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
