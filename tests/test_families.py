"""The admissibility gate against the vanishing-sum count it stands for."""

from math import comb

from hodgemoments.cyclo import vanishing_tuple_count
from hodgemoments.families import Family, admissible, has_tower

# every (m, k) with m <= 16, k <= 24 whose graded space has at most 3000 monomials
ORACLE_PAIRS = [(m, k) for m in range(2, 17) for k in range(1, 25)
                if comb(m - 1 + k, m - 1) <= 3000 and not has_tower(Family.KL_Z, m - 1, k)]


def test_gate_is_d_k_zero_outside_the_tower():
    """Lam-Leung in place of the enumeration, composite m included."""
    assert len(ORACLE_PAIRS) == 131
    for m, k in ORACLE_PAIRS:
        assert admissible(Family.KL_Z, m - 1, k) == (vanishing_tuple_count(m, k) == 0), (m, k)
