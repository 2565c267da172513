"""Tuple-keyed views of a root system, and a diagram isomorphism test, that
only the tests read.

Every layer of the program works on the root index (``sums``, ``add``,
``splittings``), so the dict of sums keyed by coordinate tuples moved here
from ``RootSystem``: the reference implementations and the checks against
coordinate addition look sums up by tuple.  :func:`diagram_isomorphic`
tries every node bijection, the brute-force reference the diagram
classifier is checked against.
"""

import itertools
from functools import lru_cache

from flagsym.rootsystem import Diagram, bits


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


def diagram_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Brute-force isomorphism test for small diagrams (test oracle)."""
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return False

    def edge_map(d: Diagram) -> dict:
        out = {}
        for a, b, m, short in d.edges:
            if short == "both":
                tag = "both"
            elif short is None:
                tag = None
            else:
                tag = short
            out[frozenset((a, b))] = (m, tag)
        return out

    e1, e2 = edge_map(d1), edge_map(d2)
    for perm in itertools.permutations(d2.nodes):
        phi = dict(zip(d1.nodes, perm))
        ok = True
        for key, (m, tag) in e1.items():
            a, b = tuple(key)
            got = e2.get(frozenset((phi[a], phi[b])))
            want_tag = tag if tag in (None, "both") else phi[tag]
            if got != (m, want_tag):
                ok = False
                break
        if ok:
            return True
    return False
