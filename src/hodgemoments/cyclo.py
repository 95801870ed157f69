"""Exact cyclotomic integer arithmetic and shift-orbit counts.

Everything here happens in Z[x] / Phi_m(x) with Phi_m the m-th cyclotomic
polynomial, computed once by exact division.  The counts below classify
exponent tuples I (weak compositions of k into m parts) by the vanishing of
sum_j I_j zeta^j and by how the cyclic shift acts on them.

For a prime power m = p^a the counts have closed forms.  Phi_m(x) =
Phi_p(x^(m/p)) has degree (m/p)(p - 1), so 1, zeta, ..., zeta^(m/p - 1) are a
basis of Q(zeta) over Q(w), w = zeta^(m/p) a primitive p-th root of unity.
Hence sum_j I_j zeta^j = 0 iff every coset sum sum_r I_{s + r m/p} w^r is 0,
i.e. (Phi_p has degree p - 1) iff I is constant on each coset s + (m/p)Z.  The
vanishing tuples are the p-fold repeats J * p of the weak compositions J of
k/p into m/p parts: whole regular p-gons, as in Lam-Leung.  Other m with a
vanishing sum (Lam-Leung again) are enumerated once per (m, k), up to
ENUMERATION_BUDGET exponent tuples, into the cached orbit representatives.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

from .multiindex import MultiIndex, canonical_rotation, orbit, weak_compositions
from .poly import _divmod_monic, div_exact_monic

# most exponent tuples one count may enumerate when m is not a prime power;
# at 6 to 15 microseconds a tuple (m = 6 to 15), up to about 8 s
ENUMERATION_BUDGET = 500_000


class EnumerationTooLarge(ValueError):
    """A vanishing count for a non-prime-power m needs too many exponent tuples."""


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, constant term first."""
    if m < 1:
        raise ValueError("m must be positive")
    # x^m - 1 = prod over divisors d of m of Phi_d
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = div_exact_monic(num, cyclotomic_poly(d))
    return tuple(num)


def _prime_power_base(m: int) -> "int | None":
    """p if m = p^a for a prime p and a >= 1, else None."""
    if m < 2:
        return None
    p = next((d for d in range(2, isqrt(m) + 1) if m % d == 0), m)
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def _reduce_mod_cyclotomic(coeffs: list[int], m: int) -> tuple[int, ...]:
    """coeffs mod Phi_m, in the power basis 1..zeta^{phi(m)-1}."""
    phi = cyclotomic_poly(m)
    _, rem = _divmod_monic(coeffs, phi)
    return tuple(rem) + (0,) * (len(phi) - 1 - len(rem))


@dataclass(frozen=True)
class CycloInt:
    """An element of Z[zeta_m], stored in the power basis 1..zeta^{phi(m)-1}."""

    m: int
    coeffs: tuple[int, ...]

    @classmethod
    def zero(cls, m: int) -> "CycloInt":
        return cls(m, _reduce_mod_cyclotomic([], m))

    @classmethod
    def one(cls, m: int) -> "CycloInt":
        return cls(m, _reduce_mod_cyclotomic([1], m))

    @classmethod
    def from_exponents(cls, m: int, index: MultiIndex) -> "CycloInt":
        """sum_j index[j] * zeta^j for a tuple of length m."""
        if len(index) != m:
            raise ValueError(f"expected {m} slots, got {len(index)}")
        return cls(m, _reduce_mod_cyclotomic(list(index), m))

    def __add__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.m, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.m, tuple(a * other for a in self.coeffs))
        self._check(other)
        prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycloInt(self.m, _reduce_mod_cyclotomic(prod, self.m))

    __rmul__ = __mul__

    def __neg__(self) -> "CycloInt":
        return CycloInt(self.m, tuple(-a for a in self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check(self, other: "CycloInt"):
        if self.m != other.m:
            raise ValueError("mixed cyclotomic orders")


def _vanishing_sum_exists(m: int, k: int) -> bool:
    """Do some k m-th roots of unity sum to zero, i.e. is d_k != 0?

    By Lam-Leung this holds exactly when k lies in N p_1 + ... + N p_r over
    the primes p_i dividing m.  Every divisor d > 1 of m lies in some N p_i,
    so the coin problem may run over all of them.  k and m + k % m get the
    same answer (with two primes p q <= m, every k >= m is reached; with one,
    only k mod p counts), so the table stays below 2m cells for any k.
    """
    k = min(k, m + k % m)
    reach = [True] + [False] * k
    for p in range(2, m + 1):
        if m % p == 0:
            for s in range(p, k + 1):
                reach[s] = reach[s] or reach[s - p]
    return reach[k]


def tuple_vanishes(m: int, index: MultiIndex) -> bool:
    return not CycloInt.from_exponents(m, index)


def vanishing_tuple_count(m: int, k: int) -> int:
    """Number of weak compositions I of k with sum_j I_j zeta^j = 0."""
    p = _prime_power_base(m)
    if p is not None:
        return comb(k // p + m // p - 1, m // p - 1) if k % p == 0 else 0
    return sum(len(orbit(rep)) for rep in vanishing_orbits(m, k))


@lru_cache(maxsize=None)
def vanishing_orbits(m: int, k: int) -> tuple[MultiIndex, ...]:
    """The canonical representatives of the cyclic-shift orbits of vanishing tuples, sorted."""
    if not _vanishing_sum_exists(m, k):
        return ()
    p = _prime_power_base(m)
    if p is not None:
        # p | k past the gate; rotating and comparing J * p is doing so on J
        reps = {canonical_rotation(block) * p for block in weak_compositions(k // p, m // p)}
    else:
        size = comb(k + m - 1, m - 1)
        if size > ENUMERATION_BUDGET:
            raise EnumerationTooLarge(
                f"m={m} is not a prime power, so the vanishing sums for k={k} are found by "
                f"enumeration, and its C({k + m - 1}, {m - 1}) = {size} exponent tuples "
                f"exceed the budget of {ENUMERATION_BUDGET}")
        reps = {canonical_rotation(index) for index in weak_compositions(k, m)
                if tuple_vanishes(m, index)}
    return tuple(sorted(reps))


def vanishing_orbit_count(m: int, k: int) -> int:
    return len(vanishing_orbits(m, k))


def signed_orbit_count(m: int, k: int) -> int:
    """Orbits of vanishing tuples I whose signed shift sum is nonzero.

    The signed shift sum is sum over i of (-1)^{s_i} sigma^i(I), with s_i the
    sum of the last i entries of I (s_0 = 0), the sign picked up by moving
    those entries past the rest one step at a time.  An orbit of length o
    repeats r = m/o times, each period summing to k/r, so the sum meets each
    member r times with signs alternating by (-1)^{k/r}: it vanishes exactly
    when r is even and k/r is odd.
    """
    repeats = (m // len(orbit(rep)) for rep in vanishing_orbits(m, k))
    return sum(1 for r in repeats if r % 2 or k // r % 2 == 0)
