"""Transvection oracles via the Levi-Civita equations, proved on the Kahler cone.

A root vector E_a (a in R_m+) generates a transvection exactly when, for
every decomposition -a = beta + gamma with beta, gamma in R_m, the cyclic sum

    n(beta, gamma) r(a) + n(a, gamma) r(beta) + n(beta, a) r(gamma)

vanishes, where r(d) = epsilon_d * d(xi) * b(d) is the pairing of E_d with
E_{-d} (a common factor -i is dropped; every significant term carries one).
The three brackets land at -a, -beta and -gamma, all in R_m, so the
m-projection of the Levi-Civita connection drops none of them.

The cone argument.  Each cyclic sum is linear in xi: it is c . xi for the
integer vector c over the painted nodes with entries

    c_j = n(beta, gamma) eps_a b(a) a_j + n(a, gamma) eps_beta b(beta) beta_j
          + n(beta, a) eps_gamma b(gamma) gamma_j,

and a Kahler parameter has xi_j > 0 on every painted node.  So, with no xi:

* every c zero: every sum vanishes for every xi, and a is a transvection
  on the whole open cone;
* some c nonzero with all entries >= 0 (or all <= 0): that sum is nonzero
  for every xi, and a is ruled out on the whole cone;
* otherwise a is *undecided*: every nonzero c has entries of both signs.
  By Gordan's alternative, some xi > 0 makes every c . xi vanish unless a
  combination y^T C of the vectors is nonzero and of one sign, and the test
  above looks at single vectors only.  The answer could then depend on the
  metric, so an undecided root is neither passed nor ruled out: it is
  reported, and the sweep's oracle check fails for its painting.

What the vectors are.  Write d| for d restricted to the painted nodes; it is
>= 0 and nonzero on R_m+.  beta and gamma cannot both lie in R_m+, since
their sum -a is negative.  With antisymmetry and the weighted cyclic
identity n(x, y) b(z) = n(y, z) b(x) = n(z, x) b(y) on the zero-sum triple
(a, beta, gamma), the coefficients cancel to

* c = 0 when beta and gamma both lie in R_m-;
* c = 2 n(a, gamma) b(beta) gamma| when gamma lies in R_m+ (and the same
  with the roles swapped), nonzero and of one sign.

So a table that satisfies the identities the audit of :mod:`flagsym.chevalley`
checks leaves no root undecided, and a is a transvection exactly when no
gamma in R_m+ has a + gamma in R (beta = -(a + gamma) then lies in R_m).  A
table that breaks them shows up as a set that differs from the symmetry roots
or as undecided roots.

The shortcut oracle evaluates the scalar condition

    ((1 + epsilon_gamma) gamma + (1 + epsilon_beta) beta)(xi) = 0

without structure constants, through the same kernel.  It is not
independent of the symmetry criterion (a + R_m+) n R = empty of
:mod:`flagsym.symmetry`; on the cone it *is* that criterion.  w(d) =
(1 + eps_d) d(xi) is 0 on R_m- and 2 d(xi) > 0 on R_m+, so each vector is 0
(both members in R_m-) or 2 gamma| for the member gamma in R_m+: never of
mixed sign, so never undecided, and nonzero exactly when a + gamma is a root.
The structure-constant oracle is the check that reads the Chevalley table.

The kernel works on the root index of :class:`RootSystem`: the
decompositions of -a come from ``splittings[neg[a]]``, masked to R_m,
mixed-sign pairs first (each one rules a out at once), the vectors from the
columns ``coordinates`` of the painted nodes, and the constants from the
table's ``n_dense`` and ``b_dense``.  The per-xi functions (:func:`transvection_set`,
:func:`shortcut_set` and the ``*_violations`` ones) evaluate c . xi from the
same vectors, in integers: xi is scaled by L, the lcm of the denominators of
its coefficients, so every c . xi * L is an integer with the sign of c . xi.
The witnesses the ``*_violations`` functions report are divided by L again,
so they are the exact rational values of the unscaled sums; they come in the
kernel's order, mixed-sign pairs first.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .chevalley import ChevalleyTable
from .flag import FlagData, KahlerParam
from .rootsystem import Root, bits


class ConeSet(NamedTuple):
    """One oracle's verdict on the whole open Kahler cone."""

    proved: frozenset  # transvections for every xi
    undecided: frozenset  # neither proved nor ruled out by a one-sign vector


def _kernel(flag: FlagData, coefficients):
    """a -> (beta, gamma, c) over the decompositions -a = beta + gamma in R_m.

    c is the vector over the painted nodes of p a + q beta + r gamma, where
    (p, q, r) = coefficients(a, beta, gamma).  The pairs come in the order of
    ``RootSystem.splittings``: each unordered pair once, mixed-sign pairs first.
    """
    rs, m = flag.rs, flag.m_mask
    splittings, neg = rs.splittings, rs.neg
    columns = [rs.coordinates[i - 1] for i in sorted(flag.pd.painted)]

    def vectors(a: int):
        for beta, gamma in splittings[neg[a]]:
            if m >> beta & 1 and m >> gamma & 1:
                p, q, r = coefficients(a, beta, gamma)
                yield beta, gamma, [
                    p * x[a] + q * x[beta] + r * x[gamma] for x in columns
                ]

    return vectors


def _cyclic_kernel(flag: FlagData, table: ChevalleyTable):
    """The cyclic-sum vectors: (p, q, r) = eps_d b(d) times n(beta, gamma),
    n(a, gamma), n(beta, a) for d = a, beta, gamma."""
    n, count, half = table.n_dense, len(flag.rs.roots), len(flag.rs.positive_roots)
    r = [b if i < half else -b for i, b in enumerate(table.b_dense)]

    def coefficients(a: int, beta: int, gamma: int):
        row_b = beta * count
        return (
            n[row_b + gamma] * r[a],
            n[a * count + gamma] * r[beta],
            n[row_b + a] * r[gamma],
        )

    return _kernel(flag, coefficients)


def _shortcut_kernel(flag: FlagData):
    """The shortcut vectors: (p, q, r) = 0, 1 + eps_beta, 1 + eps_gamma."""
    half = len(flag.rs.positive_roots)
    return _kernel(
        flag, lambda a, beta, gamma: (0, 2 if beta < half else 0, 2 if gamma < half else 0)
    )


def _on_cone(vectors) -> bool | None:
    """True: every vector zero; False: one is nonzero of one sign; None: neither."""
    undecided = False
    for _, _, c in vectors:
        if any(c):
            if min(c) >= 0 or max(c) <= 0:
                return False
            undecided = True
    return None if undecided else True


def _cone_set(flag: FlagData, vectors) -> ConeSet:
    roots = flag.rs.roots
    proved, undecided = [], []
    for a in bits(flag.m_plus_mask):
        verdict = _on_cone(vectors(a))
        if verdict:
            proved.append(roots[a])
        elif verdict is None:
            undecided.append(roots[a])
    return ConeSet(frozenset(proved), frozenset(undecided))


def transvection_cone_set(flag: FlagData, table: ChevalleyTable) -> ConeSet:
    """Transvection roots for every Kahler parameter (structure constants)."""
    return _cone_set(flag, _cyclic_kernel(flag, table))


def shortcut_cone_set(flag: FlagData) -> ConeSet:
    """Transvection roots for every Kahler parameter (scalar condition)."""
    return _cone_set(flag, _shortcut_kernel(flag))


def _scaled_xi(flag: FlagData, xi: KahlerParam) -> tuple[int, list[int]]:
    """L and the integers xi_j * L over the painted nodes, in node order."""
    coeffs = [xi.coeffs[i] for i in sorted(flag.pd.painted)]
    scale = lcm(*(c.denominator for c in coeffs))
    return scale, [c.numerator * (scale // c.denominator) for c in coeffs]


def _nonzero_terms(vectors, a: int, w: list[int]):
    """(beta, gamma, c . w) for the decompositions of -a where c . w != 0."""
    for beta, gamma, c in vectors(a):
        total = sum(x * y for x, y in zip(c, w))
        if total:
            yield beta, gamma, total


def _violations(flag: FlagData, xi: KahlerParam, vectors, a: Root) -> list:
    index = flag.rs.index.get(a)
    if index is None or not flag.m_plus_mask >> index & 1:
        raise ValueError("transvection candidates live in R_m+")
    roots = flag.rs.roots
    scale, w = _scaled_xi(flag, xi)
    return [
        (roots[b], roots[g], Fraction(t, scale))
        for b, g, t in _nonzero_terms(vectors, index, w)
    ]


def _xi_set(flag: FlagData, xi: KahlerParam, vectors) -> frozenset:
    roots = flag.rs.roots
    _, w = _scaled_xi(flag, xi)
    return frozenset(
        roots[a]
        for a in bits(flag.m_plus_mask)
        if next(_nonzero_terms(vectors, a, w), None) is None
    )


def transvection_violations(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Witnessing (beta, gamma, sum) tuples where the cyclic sum is nonzero."""
    return _violations(flag, xi, _cyclic_kernel(flag, table), a)


def shortcut_violations(
    flag: FlagData, xi: KahlerParam, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Nonzero evaluations of ((1+eps_g) g + (1+eps_b) b)(xi) over decompositions."""
    return _violations(flag, xi, _shortcut_kernel(flag), a)


def transvection_set(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable
) -> frozenset:
    """All transvection roots for one Kahler parameter (structure constants)."""
    return _xi_set(flag, xi, _cyclic_kernel(flag, table))


def shortcut_set(flag: FlagData, xi: KahlerParam) -> frozenset:
    """All transvection roots by the scalar condition (no structure constants)."""
    return _xi_set(flag, xi, _shortcut_kernel(flag))
