"""Weight characters, slice steps and the block multiplicity polynomial.

One generating function drives every closed formula downstream: the weight
character c(t) of V, by the hook-content formula (Stanley EC2 7.21)
    s_shape(1, t, .., t^{m-1}) = t^{n(shape)} prod_u (1 - t^{m+c(u)}) / (1 - t^{h(u)}),
the Gaussian binomial [n+k choose k]_t for Sym^k on n+1 slots.  Every count
reads it through one map: the block multiplicity polynomial Q(t) = (1 - t) c(t),
whose low-degree coefficients count the nilpotent-string bottoms, and the
slice steps s(t) = Q(t) / (1 - t^z) of C[z] (x) V, z of weight z, which give
every pure closed table.

lattice_step(n, k, d) is s(d) for Sym^k on n+1 slots, z of weight n+1.  The
step series (1 - t) / ((1 - t^{n+1}) (1-x)(1-tx)...(1-t^n x)) holds it in its
x^k column and serves only as verify's step-series check.
"""

from collections import Counter
from functools import lru_cache

from .cyclo import signed_orbit_count, vanishing_orbit_count, vanishing_tuple_count
from .families import Family
from .poly import binomial_quotient
from .series import BiSeries, expand_rational


@lru_cache(maxsize=None)
def block_multiplicity_poly(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of Q(t) = (1 - t) c(t); antisymmetric around degree (n*k + 1) / 2."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    c = weight_character((k,), n + 1)
    return tuple(b - a for a, b in zip((0, *c), (*c, 0)))


def block_multiplicity(n: int, k: int, d: int) -> int:
    q = block_multiplicity_poly(n, k)
    return q[d] if 0 <= d < len(q) else 0


def bottom_multiplicity(n: int, k: int, d: int) -> int:
    """Multiplicity of strings whose bottom sits in degree d (0 past halfway)."""
    return block_multiplicity(n, k, d) if 0 <= d <= (n * k) // 2 else 0


@lru_cache(maxsize=None)
def weight_character(shape: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Entry w counts the semistandard tableaux of a partition shape, entries 0..m-1, of sum w.

    Equal up and down factors cancel, leaving as many of each; they pair in
    ascending order in binomial_quotient, which raises RemainderNonzero if a
    partial quotient is not a polynomial.  For shape (k) the pairs left give
    [hi+i choose i]_t, i = 1..lo (lo, hi = min, max of m-1 and k).
    """
    if len(shape) > m:
        return ()
    ups, downs = Counter(), Counter()
    for i, (row, below) in enumerate(zip(shape, (*shape[1:], 0))):
        ups.update(range(m - i, m - i + row))  # m + content
        # the hooks of the cells past the next row's length, then the rest cell by cell
        downs.update(range(1, row - below + 1))
        downs.update(row - j + sum(r > j for r in shape[i + 1:]) for j in range(below))
    quotient = binomial_quotient(sorted((ups - downs).elements()), sorted((downs - ups).elements()))
    return (0,) * sum(i * row for i, row in enumerate(shape)) + quotient


def _slice_steps(counts, zweight: int):
    """Reader d -> dim slice(d) - dim slice(d-1) of C[z] (x) V, z of weight zweight, V's counts c.

    s = (1 - t) c(t) / (1 - t^zweight) in one pass: running sums per residue class
    mod zweight, then their first difference.  From top = len(c) on, s has period zweight.
    """
    top = len(counts)
    sums = list(counts) + [0] * zweight
    for i in range(zweight, len(sums)):
        sums[i] += sums[i - zweight]
    steps = [b - a for a, b in zip([0] + sums, sums)]
    return lambda d: 0 if d < 0 else steps[d if d < top else top + (d - top) % zweight]


@lru_cache(maxsize=None)
def _lattice_steps(n: int, k: int):
    return _slice_steps(weight_character((k,), n + 1), n + 1)


def lattice_step(n: int, k: int, d: int) -> int:
    return _lattice_steps(n, k)(d)


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
    """Dimension of the local solution space at 0: the string bottoms, summing to c(nk // 2)."""
    return weight_character((k,), n + 1)[(n * k) // 2]


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
