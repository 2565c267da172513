"""Corrupted copies of a Chevalley table and audit walks, for the audit and oracle tests."""

from flagsym import ChevalleyTable
from flagsym.chevalley import _jacobi_pairs
from flagsym.rootsystem import bits, walk


def with_constants(table, values):
    """A copy of ``table`` with n(x, y) = v for each (x, y): v in ``values``.

    The values are written into a copy of the dense array ``n_dense``, which
    the audit and the oracles read; the dict views of the copy are built from it.
    """
    rs = table.rs
    index, count = rs.index, len(rs.roots)
    n = table.n_dense[:]
    for (x, y), v in values.items():
        n[index[x] * count + index[y]] = v
    return ChevalleyTable(rs, n, list(table.b_dense))


def _string_down(rs, a, base):
    """p = max k with base - k*a a root (root strings are unbroken)."""
    return walk(rs.add[rs.neg[rs.index[a]]], rs.index[base])


def _jacobi_triples(rs, canonical=False):
    """Sorted index triples (x, y, z) whose Jacobi defect can be nonzero, each once."""
    for p, q, third in _jacobi_pairs(rs, canonical):
        for r in bits(third):
            yield (r, p, q) if r < p else (p, r, q) if r < q else (p, q, r)
