"""The admissibility gate against the vanishing-sum count it stands for."""

from math import comb

from hodgemoments.cyclo import tuple_vanishes
from hodgemoments.families import Family, admissible, has_tower
from hodgemoments.multiindex import weak_compositions

# every (m, k) with m <= 16, k <= 24 whose graded space has at most 3000 monomials
ORACLE_PAIRS = [(m, k) for m in range(2, 17) for k in range(1, 25)
                if comb(m - 1 + k, m - 1) <= 3000 and not has_tower(Family.KL_Z, m - 1, k)]


def brute_vanishing_count(m, k):
    """d_k by enumeration: the library count has closed forms for prime powers."""
    return sum(1 for ix in weak_compositions(k, m) if tuple_vanishes(m, ix))


def test_gate_is_d_k_zero_outside_the_tower():
    """Lam-Leung in place of the enumeration, composite m included."""
    assert len(ORACLE_PAIRS) == 131
    for m, k in ORACLE_PAIRS:
        assert admissible(Family.KL_Z, m - 1, k) == (brute_vanishing_count(m, k) == 0), (m, k)
