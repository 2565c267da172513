"""Corrupted copies of a Chevalley table, for the audit and oracle tests."""

from flagsym import ChevalleyTable


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
