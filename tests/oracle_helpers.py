"""The per-painting oracle kernel that the type-level splitting tables replaced,
and the per-table build of those tables.

The kernel builds every vector c over the painted nodes of each painting from
the constants and the root coordinates, with no table shared between
paintings.  The tests compare ``flagsym.oracle`` with it: the same cone sets,
and the same witnesses in the same order with the same exact values.
:func:`splitting_table` is the former build of a type's table: each table
walked the splittings itself and summed every vector node by node.
"""

from fractions import Fraction
from math import lcm

from flagsym.oracle import ConeSet
from flagsym.rootsystem import bits


def kernel(flag, coefficients):
    """a -> (beta, gamma, c) over the decompositions -a = beta + gamma in R_m.

    c is the vector over the painted nodes of p a + q beta + r gamma, where
    (p, q, r) = coefficients(a, beta, gamma).  The pairs come in the order of
    ``RootSystem.splittings``: each unordered pair once, mixed-sign pairs first.
    """
    rs, m = flag.rs, flag.m_mask
    neg = rs.neg
    columns = [[r[i - 1] for r in rs.roots] for i in sorted(flag.pd.painted)]

    def vectors(a):
        for beta, gamma in rs.splittings(neg[a]):
            if m >> beta & 1 and m >> gamma & 1:
                p, q, r = coefficients(a, beta, gamma)
                yield beta, gamma, [p * x[a] + q * x[beta] + r * x[gamma] for x in columns]

    return vectors


def cyclic_coefficients(table):
    """(p, q, r) of the cyclic sums: eps_d b(d) times n(beta, gamma),
    n(a, gamma), n(beta, a) for d = a, beta, gamma."""
    n, count, half = table.n_dense, len(table.rs.roots), len(table.rs.positive_roots)
    r = [b if i < half else -b for i, b in enumerate(table.rs.weights)]

    def coefficients(a, beta, gamma):
        row_b = beta * count
        return (
            n[row_b + gamma] * r[a],
            n[a * count + gamma] * r[beta],
            n[row_b + a] * r[gamma],
        )

    return coefficients


def shortcut_coefficients(rs):
    """(p, q, r) of the shortcut condition: 0, 1 + eps_beta, 1 + eps_gamma."""
    half = len(rs.positive_roots)
    return lambda a, beta, gamma: (0, 2 if beta < half else 0, 2 if gamma < half else 0)


def cyclic_kernel(flag, table):
    """The cyclic-sum vectors."""
    return kernel(flag, cyclic_coefficients(table))


def shortcut_kernel(flag):
    """The shortcut vectors."""
    return kernel(flag, shortcut_coefficients(flag.rs))


def splitting_table(rs, coefficients):
    """``masks`` of the table of c = p a + q beta + r gamma, with (p, q, r) =
    coefficients(a, beta, gamma), over the splittings of every -a, and per a
    the list of (beta, gamma, c) with c over all nodes."""
    roots, neg = rs.roots, rs.neg
    node_bits = [1 << n for n in range(rs.rank)]
    nodes = [sum(b for b, x in zip(node_bits, r) if x) for r in roots]
    masks, rows = [], []
    for a in range(len(rs.positive_roots)):
        mask_row, row = [], []
        for beta, gamma in rs.splittings(neg[a]):
            p, q, r = coefficients(a, beta, gamma)
            u, v = q - p, r - p  # a = -(beta + gamma)
            c = [u * y + v * z for y, z in zip(roots[beta], roots[gamma])]
            pos = negative = 0
            for b, x in zip(node_bits, c):
                if x > 0:
                    pos |= b
                elif x < 0:
                    negative |= b
            mask_row += (nodes[beta], nodes[gamma], pos, negative)
            row.append((beta, gamma, c))
        masks.append(tuple(mask_row))
        rows.append(row)
    return tuple(masks), rows


def on_cone(vectors):
    """True: every vector zero; False: one is nonzero of one sign; None: neither."""
    undecided = False
    for _, _, c in vectors:
        if any(c):
            if min(c) >= 0 or max(c) <= 0:
                return False
            undecided = True
    return None if undecided else True


def cone_set(flag, vectors):
    roots = flag.rs.roots
    proved, undecided = [], []
    for a in bits(flag.m_plus_mask):
        verdict = on_cone(vectors(a))
        if verdict:
            proved.append(roots[a])
        elif verdict is None:
            undecided.append(roots[a])
    return ConeSet(frozenset(proved), frozenset(undecided))


def violations(flag, xi, vectors, a):
    """(beta, gamma, c . xi) for the decompositions of -a with c . xi != 0."""
    coeffs = [xi.coeffs[i] for i in sorted(flag.pd.painted)]
    scale = lcm(*(c.denominator for c in coeffs))
    w = [c.numerator * (scale // c.denominator) for c in coeffs]
    roots = flag.rs.roots
    out = []
    for beta, gamma, c in vectors(flag.rs.index[a]):
        total = sum(x * y for x, y in zip(c, w))
        if total:
            out.append((roots[beta], roots[gamma], Fraction(total, scale)))
    return out
