"""Tuple-keyed views of a root system that only the tests read.

Every layer of the program works on the root index (``sums``, ``add``,
``splittings``), so the dict of sums keyed by coordinate tuples moved here
from ``RootSystem``: the reference implementations and the checks against
coordinate addition look sums up by tuple.
"""

from functools import lru_cache

from flagsym.rootsystem import bits


@lru_cache(maxsize=None)
def sum_index(rs) -> dict:
    """(a, b) -> a + b for every ordered pair of roots whose sum is a root."""
    roots = rs.roots
    out = {}
    for i, a in enumerate(roots):
        row = rs.add[i]
        for j in bits(rs.sums[i]):
            out[(a, roots[j])] = roots[row[j]]
    return out


def sum_root(rs, a, b):
    """a + b when it is a root, else None."""
    return sum_index(rs).get((a, b))
