"""Family tags and the admissibility gate: which (family, n, k) have tables."""

from enum import Enum
from math import gcd

from .cyclo import _vanishing_sum_exists


class BadFamilyParams(ValueError):
    """The (family, n, k) combination does not define this construction."""


class Family(Enum):
    KL_Z = "kl"
    KL_TILDE_T = "kl-tilde"
    AIRY_Z = "airy"
    V21 = "v21"


def has_tower(family: Family, n: int, k: int) -> bool:
    """The eta-tower case of the Kloosterman chains: n = 2 with 3 | k."""
    return family in (Family.KL_Z, Family.KL_TILDE_T) and n == 2 and k % 3 == 0


def admissible(family: Family, n: int, k: int) -> bool:
    """Whether both routes give the table of (family, n, k).

    kl, kl-tilde: the tower case, or d_k = 0 (for prime-power n+1 this is
    gcd(k, n+1) = 1).  airy: n >= 2 and gcd(k, n) = 1.  v21: always.
    """
    if family is Family.V21:
        return True
    if n < 1 or k < 1:
        return False
    if family is Family.AIRY_Z:
        return n >= 2 and gcd(k, n) == 1
    return has_tower(family, n, k) or not _vanishing_sum_exists(n + 1, k)


def require_admissible(family: Family, n: int, k: int) -> None:
    """Raise BadFamilyParams unless (family, n, k) passes the gate."""
    if not admissible(family, n, k):
        need = ("n >= 2, gcd(k, n) = 1" if family is Family.AIRY_Z else
                "d_k = 0 (no k of the (n+1)-th roots of unity sum to 0) or n = 2, 3 | k")
        raise BadFamilyParams(f"{family.value} at n={n}, k={k} has no closed or basis "
                              f"table: it needs n, k >= 1 with {need}")
