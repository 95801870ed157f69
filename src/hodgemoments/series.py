"""Truncated bivariate integer power series.

Used to expand rational generating functions of the form
num(t) / prod (1 - t^a x^b) up to fixed truncation orders in t and x.
The numerator and so every coefficient are integers.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class BiSeries:
    """Coefficients rows[d][e] of t^d x^e for 0 <= d < trunc_t, 0 <= e < trunc_x."""

    trunc_t: int
    trunc_x: int
    rows: tuple

    def coeff(self, d: int, e: int) -> int:
        if not (0 <= d < self.trunc_t and 0 <= e < self.trunc_x):
            raise IndexError(f"coefficient ({d}, {e}) outside truncation "
                             f"({self.trunc_t}, {self.trunc_x})")
        return self.rows[d][e]


def expand_rational(num, denom_factors, trunc_t: int, trunc_x: int) -> BiSeries:
    """Expand num(t) / prod (1 - t^a x^b) as a truncated series.

    num is a univariate integer polynomial in t (list of coefficients);
    denom_factors is a list of pairs (a, b), each standing for a factor
    1 - t^a x^b with (a, b) != (0, 0).
    """
    if trunc_t < 1 or trunc_x < 1:
        raise ValueError("truncation orders must be at least 1")
    grid = [[0] * trunc_x for _ in range(trunc_t)]
    for d, c in enumerate(num[:trunc_t]):
        grid[d][0] = c
    for a, b in denom_factors:
        if a < 0 or b < 0 or (a == 0 and b == 0):
            raise ValueError(f"bad denominator factor (1 - t^{a} x^{b})")
        # multiply by 1/(1 - t^a x^b): accumulate shifted copies in place
        for d in range(a, trunc_t) if a else range(trunc_t):
            for e in range(b, trunc_x) if b else range(trunc_x):
                grid[d][e] += grid[d - a][e - b]
    return BiSeries(trunc_t, trunc_x, tuple(tuple(r) for r in grid))
