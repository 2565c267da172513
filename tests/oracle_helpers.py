"""The reference for the cone argument of ``flagsym.oracle``: the oracle
vectors built per painting, and their walk on the whole Kahler cone.

The kernel builds every vector c over the painted nodes of each painting from
the constants and the root coordinates, with no table shared between
paintings, and :func:`cone_set` walks them by the rules of the argument.  The
tests check with it that the walk gives the symmetry roots, with no root left
open, where ``oracle_check`` passes, and that the per-xi functions report its
witnesses in the same order with the same exact values.
:func:`splitting_table` builds the vectors of a type over all nodes, and
:func:`cyclic_multiple_breaks` checks on them the identity the argument rests
on: every cyclic vector is -n(beta, gamma) b(a) times the shortcut's.
"""

from fractions import Fraction
from math import lcm

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
    """Per positive root a, the list of (beta, gamma, c) over the splittings of
    -a, with c = p a + q beta + r gamma over all nodes and (p, q, r) =
    coefficients(a, beta, gamma)."""
    roots, neg = rs.roots, rs.neg
    rows = []
    for a in range(len(rs.positive_roots)):
        row = []
        for beta, gamma in rs.splittings(neg[a]):
            p, q, r = coefficients(a, beta, gamma)
            u, v = q - p, r - p  # a = -(beta + gamma)
            row.append((beta, gamma, [u * y + v * z for y, z in zip(roots[beta], roots[gamma])]))
        rows.append(row)
    return rows


def cyclic_multiple_breaks(table):
    """None when every cyclic vector of ``table`` is K times the shortcut
    vector of its splitting with K = -n(beta, gamma) b(a) nonzero, the identity
    the cone argument derives from the pair and cyclic checks; else the first
    splitting (a, beta, gamma) that breaks it."""
    rs, n, count = table.rs, table.n_dense, len(table.rs.roots)
    cyclic = splitting_table(rs, cyclic_coefficients(table))
    shortcut = splitting_table(rs, shortcut_coefficients(rs))
    for a, (row, short) in enumerate(zip(cyclic, shortcut)):
        for (beta, gamma, c), (_, _, s) in zip(row, short):
            k = -n[beta * count + gamma] * rs.weights[a]
            if not k or c != [k * x for x in s]:
                return rs.roots[a], rs.roots[beta], rs.roots[gamma]
    return None


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
    """(proved, open): the roots of R_m+ that :func:`on_cone` proves, and those
    it leaves open."""
    roots = flag.rs.roots
    proved, undecided = [], []
    for a in bits(flag.m_plus_mask):
        verdict = on_cone(vectors(a))
        if verdict:
            proved.append(roots[a])
        elif verdict is None:
            undecided.append(roots[a])
    return frozenset(proved), frozenset(undecided)


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
