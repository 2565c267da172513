"""Tuple-keyed views of a root system, the root-index build it replaced, and
a diagram isomorphism test, that only the tests read.

Every layer of the program works on the root index (``sums``, ``add``,
``splittings``), so the dict of sums keyed by coordinate tuples moved here
from ``RootSystem``: the reference implementations and the checks against
coordinate addition look sums up by tuple.  :func:`ref_root_tables` is the
former build of the index: positive roots by root strings searched as
coordinate tuples, lengths as Fraction inner products from a Fraction Gram
matrix, and ``sums``/``add`` by a lookup for every ordered pair of roots.
:func:`diagram_isomorphic` tries every node bijection, the brute-force
reference the diagram classifier is checked against.
"""

import itertools
from array import array
from fractions import Fraction
from functools import lru_cache
from math import lcm

from flagsym.rootsystem import Diagram, _length_halves, bits, height, radd, rneg, rsub


def ref_positive_roots(cartan):
    """All positive roots by root-string extension from the simple roots."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pos = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                if beta == alpha:
                    continue  # 2a is never a root
                pairing = sum(beta[j] * cartan[j][i] for j in range(n))
                p = 0
                v = rsub(beta, alpha)
                while v in pos:
                    p += 1
                    v = rsub(v, alpha)
                if p - pairing > 0:  # the string extends past beta
                    cand = radd(beta, alpha)
                    if cand not in pos:
                        pos.add(cand)
                        new.append(cand)
        frontier = new
    return sorted(pos, key=lambda r: (height(r), r))


def ref_root_tables(cartan):
    """roots, index, gram, lengths, sums and add as the former constructor built them."""
    rank = len(cartan)
    d = _length_halves(cartan)
    scale = lcm(*(x.denominator for x in d))
    gram = tuple(
        tuple(int(cartan[i][j] * d[j] * scale) for j in range(rank)) for i in range(rank)
    )
    pos = ref_positive_roots(cartan)
    roots = tuple(pos) + tuple(rneg(r) for r in pos)
    lengths = {
        r: Fraction(sum(x * gram[i][j] * y for i, x in enumerate(r) for j, y in enumerate(r)), scale)
        for r in roots
    }
    count = len(roots)
    base = 4 * max(pos[-1]) + 1
    keys = [sum(c * base**n for n, c in enumerate(r)) for r in roots]
    by_key = {key: i for i, key in enumerate(keys)}
    sums, add = [], []
    for ka in keys:
        mask = 0
        row = array("H", [count]) * count
        for j, kb in enumerate(keys):
            k = by_key.get(ka + kb)
            if k is not None:
                mask |= 1 << j
                row[j] = k
        sums.append(mask)
        add.append(row)
    index = {r: i for i, r in enumerate(roots)}
    return roots, index, gram, lengths, tuple(sums), tuple(add)


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
