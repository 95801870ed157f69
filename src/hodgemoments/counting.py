"""Lattice point counts and the block multiplicity polynomial.

Two generating functions drive every closed formula downstream:

  * the block multiplicity polynomial
        Q(t) = prod_{i=1..k} (1 - t^{n+i}) / prod_{i=2..k} (1 - t^i),
    an integer polynomial of degree n*k + 1 whose low-degree coefficients
    are the multiplicities of the nilpotent-string bottoms;

  * the step series
        (1 - t) / ((1 - t^{n+1}) (1-x)(1-tx)...(1-t^n x)),
    whose t^d x^k coefficient equals lattice_count(n,k,d) - lattice_count(n,k,d-1).

lattice_count(n, k, d) is the number of tuples (a, I_0..I_n) of nonnegative
integers with sum(I) = k and (n+1) a + sum_i i*I_i = d.
"""

from functools import lru_cache

from .cyclo import signed_orbit_count, vanishing_orbit_count, vanishing_tuple_count
from .families import Family
from .poly import binomial_quotient
from .series import BiSeries, expand_rational


@lru_cache(maxsize=None)
def block_multiplicity_poly(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of Q(t); antisymmetric around degree (n*k + 1) / 2."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return binomial_quotient(range(n + 1, n + k + 1), range(2, k + 1))


def block_multiplicity(n: int, k: int, d: int) -> int:
    q = block_multiplicity_poly(n, k)
    return q[d] if 0 <= d < len(q) else 0


def bottom_multiplicity(n: int, k: int, d: int) -> int:
    """Multiplicity of strings whose bottom sits in degree d (0 past halfway)."""
    return block_multiplicity(n, k, d) if 0 <= d <= (n * k) // 2 else 0


@lru_cache(maxsize=None)
def _weight_counts(n: int, k: int) -> tuple[int, ...]:
    """#{I : |I| = k, wt(I) = w} for w = 0..n*k, over n+1 slots.

    The row is the Gaussian binomial [n+k choose n]_t, symmetric in n and k:
    prod_{i=1..lo} (1 - t^{hi+i}) / (1 - t^i) with lo, hi = min, max of n, k.
    Its numerator has degree at most 2nk, so the work and the list are O(nk).
    """
    lo, hi = sorted((n, k))
    return binomial_quotient(range(hi + 1, hi + lo + 1), range(1, lo + 1))


def lattice_count(n: int, k: int, d: int) -> int:
    """Solutions of (n+1) a + wt(I) = d with |I| = k, all entries >= 0."""
    if d < 0:
        return 0
    # the weights w = d - (n+1) a that V carries: w = d mod n+1, 0 <= w <= min(d, n*k)
    return sum(_weight_counts(n, k)[d % (n + 1):min(d, n * k) + 1:n + 1])


def lattice_step(n: int, k: int, d: int) -> int:
    return lattice_count(n, k, d) - lattice_count(n, k, d - 1)


def lattice_step_series(n: int, trunc_t: int, trunc_x: int) -> BiSeries:
    """The step series as a truncated integer biseries."""
    factors = [(n + 1, 0)] + [(i, 1) for i in range(n + 1)]
    return expand_rational([1, -1], factors, trunc_t, trunc_x)


def block_multiplicity_n2_closed(k: int, d: int) -> int:
    """Closed form of block_multiplicity(2, k, d) valid for 0 <= d <= k."""
    if not 0 <= d <= k:
        raise ValueError("closed form only covers 0 <= d <= k")
    return 1 if d % 2 == 0 else 0


def lattice_step_n2_closed(k: int, d: int) -> int:
    """Closed form of lattice_step(2, k, d) valid for 0 <= d <= k."""
    if not 0 <= d <= k:
        raise ValueError("closed form only covers 0 <= d <= k")
    base = d // 6
    return base if d % 6 == 1 else base + 1


def solution_dim_at_zero(n: int, k: int) -> int:
    """Dimension of the local solution space at 0: the string bottoms."""
    return sum(block_multiplicity(n, k, d) for d in range((n * k) // 2 + 1))


def solution_dim_at_infinity(n: int, k: int, family: Family) -> int:
    """Dimension of the local solution space at infinity."""
    m = n + 1
    if family is Family.KL_TILDE_T:
        return vanishing_tuple_count(m, k) if (n * k) % 2 == 0 else 0
    if family is Family.KL_Z:
        if n % 2 == 0:
            return vanishing_orbit_count(m, k)
        if (n * k) % 2 == 1:
            return 0
        return signed_orbit_count(m, k)
    raise ValueError("local solution dimensions apply to the Kloosterman families")
