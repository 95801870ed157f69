"""Multi-index helpers shared by the counting and chain modules.

A multi-index is a tuple of nonnegative integers (I_0, ..., I_{m-1}); its
weight is sum_i i * I_i.
"""

from itertools import combinations_with_replacement
from operator import mul, sub

MultiIndex = tuple[int, ...]


def weak_compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    ascending lexicographic order.

    The running sums of the first `parts - 1` entries form a nondecreasing
    tuple of cuts in 0..total, and cuts in lexicographic order give the
    tuples in lexicographic order.  No recursion, so any number of parts works.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        # unpacked from a list, the tuple gets an exact-size block (tuple() on
        # a map over-allocates): chains keep every label for their lifetime
        yield (*map(sub, cuts + (total,), (0,) + cuts),)


def weight(index: MultiIndex) -> int:
    return sum(map(mul, range(len(index)), index))


def rotate(index: MultiIndex) -> MultiIndex:
    """One step of the cyclic shift sending slot j to slot j+1."""
    return (index[-1],) + index[:-1]


def orbit(index: MultiIndex) -> list[MultiIndex]:
    """The full cyclic-shift orbit, starting from `index`."""
    out = [index]
    cur = rotate(index)
    while cur != index:
        out.append(cur)
        cur = rotate(cur)
    return out


def canonical_rotation(index: MultiIndex) -> MultiIndex:
    return min(orbit(index))
