"""Weight characters, slice steps and the block multiplicity polynomial.

One generating function drives every closed formula downstream: the weight
character c(t) of V, by the hook-content formula (Stanley EC2 7.21)
    s_shape(1, t, .., t^{m-1}) = t^{n(shape)} prod_u (1 - t^{m+c(u)}) / (1 - t^{h(u)}),
the Gaussian binomial [n+k choose k]_t for Sym^k on n+1 slots, divided out
here (weight_character).  Every count reads it through one map: the block
multiplicity polynomial Q(t) = (1 - t) c(t), whose low-degree coefficients
count the nilpotent-string bottoms, and the slice steps s(t) = Q(t) / (1 - t^z)
of C[z] (x) V, z of weight z, which give every pure closed table.

lattice_step(n, k, d) is s(d) for Sym^k on n+1 slots, z of weight n+1.
"""

from collections import Counter
from functools import lru_cache
from math import isqrt

from .cyclo import signed_orbit_count, vanishing_orbit_count, vanishing_tuple_count
from .families import Family
from .poly import RemainderNonzero


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

    As 1 - t^a = -prod_{d | a} Phi_d(t), the ups left after cancelling multiply in ascending
    order, and a down 1 - t^b divides out once every Phi_d, d | b, is in (`have` counts them;
    ready downs go in the order built), so for a partition every partial quotient is a
    polynomial and no down is left.  Each division is checked: else RemainderNonzero.
    """
    if len(shape) > m:
        return ()
    ups, downs = Counter(), Counter()
    for i, (row, below) in enumerate(zip(shape, (*shape[1:], 0))):
        ups.update(range(m - i, m - i + row))  # m + content
        # hooks past the next row's length, largest first to lower the degree, then cell by cell
        downs.update(range(row - below, 0, -1))
        downs.update(row - j + sum(r > j for r in shape[i + 1:]) for j in range(below))
    ups, downs = ups - downs, downs - ups
    f, have, waiting = [1], Counter(), list(downs.elements())
    for a in range(min(ups, default=1), max(ups, default=0) + 1):  # the ups, ascending
        for _ in range(ups[a]):
            f += [0] * a
            for i in range(len(f) - 1, a - 1, -1):
                f[i] -= f[i - a]
            have.update(_divisors(a))
            for b in list(waiting):
                if have[1] and have[b] and all(have[d] for d in _divisors(b)):  # misses first
                    have.subtract(_divisors(b))
                    waiting.remove(b)
                    _divide_binomial(f, b)
    if waiting:
        raise RemainderNonzero(f"the hook quotient of {shape} on {m} slots is not a polynomial")
    return (0,) * sum(i * row for i, row in enumerate(shape)) + tuple(f)


def _divisors(a: int) -> set[int]:
    return {e for d in range(1, isqrt(a) + 1) if a % d == 0 for e in (d, a // d)}


def _divide_binomial(f: list[int], b: int) -> None:
    """f /= 1 - t^b in place: a prefix sum with stride b, exact iff its top b entries are 0."""
    for i in range(b, len(f)):
        f[i] += f[i - b]
    if any(f[-b:]):
        raise RemainderNonzero("weight character division left a nonzero remainder")
    del f[-b:]


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
