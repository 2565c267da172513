"""Dict views and corrupted copies of a Chevalley table, and audit walks, for the tests."""

from flagsym import ChevalleyTable
from flagsym.chevalley import _jacobi_pairs
from flagsym.rootsystem import bits, walk


def table_constants(table):
    """n(a, b) for every pair with a + b a root (zeros included), in index order.

    A dict built from ``table.n_dense``; writing to it changes nothing the
    program reads.
    """
    rs, n = table.rs, table.n_dense
    roots, count = rs.roots, len(rs.roots)
    return {(roots[i], roots[j]): n[i * count + j] for i in range(count) for j in bits(rs.sums[i])}


def table_weights(table):
    """b(d) for every root d, from ``table.rs.weights``."""
    return dict(zip(table.rs.roots, table.rs.weights))


def b_of(table, d):
    return table.rs.weights[table.rs.index[d]]


def with_constants(table, values):
    """A copy of ``table`` with n(x, y) = v for each (x, y): v in ``values``.

    The values are written into a copy of the dense array ``n_dense``, which
    the audit and the oracles read.
    """
    rs = table.rs
    index, count = rs.index, len(rs.roots)
    n = table.n_dense[:]
    for (x, y), v in values.items():
        n[index[x] * count + index[y]] = v
    return ChevalleyTable(rs, n)


def _string_down(rs, a, base):
    """p = max k with base - k*a a root (root strings are unbroken)."""
    return walk(rs.add[rs.neg[rs.index[a]]], rs.index[base])


def jacobi_pairs(rs, canonical=False):
    """The (p, q, third) of ``_jacobi_pairs``; with ``canonical`` only its
    triples with at least two positive roots: p is positive, and r is positive
    when q is not."""
    half, positive = len(rs.positive_roots), rs.positive_mask
    for p, q, third in _jacobi_pairs(rs):
        if canonical:
            if p >= half:
                return  # p ascends
            if q >= half:
                third &= positive
        if third:
            yield p, q, third


def _jacobi_triples(rs, canonical=False):
    """Sorted index triples (x, y, z) whose Jacobi defect can be nonzero, each once."""
    for p, q, third in jacobi_pairs(rs, canonical):
        for r in bits(third):
            yield (r, p, q) if r < p else (p, r, q) if r < q else (p, q, r)


def jacobi_walk(rs, canonical=False):
    """The candidate triples of :func:`jacobi_pairs` as (p, q, generic, special).

    ``special`` holds the third roots r that make an opposite pair (q = -p, or
    r = -p or -q) or a zero sum (r = -(p + q)); ``generic`` holds the others,
    for which p + q + r is a root and no two of the roots are opposite.
    """
    neg, add = rs.neg, rs.add
    for p, q, third in jacobi_pairs(rs, canonical):
        if q == neg[p]:
            yield p, q, 0, third
        else:
            special = third & (1 << neg[add[p][q]] | 1 << neg[p] | 1 << neg[q])
            yield p, q, third ^ special, special
