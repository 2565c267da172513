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

The kernel.  c depends on the painting only through the columns it keeps:
eps_d is the sign of d, n and b come from the table, and a decomposition lies
in R_m exactly when the node supports of beta and gamma both meet the painted
nodes.  So the vectors are built once per type, as a
:class:`~flagsym.rootsystem.SplittingTable`: for each positive a and each
splitting -a = beta + gamma, in the order of ``RootSystem.splittings``
(mixed-sign pairs first, since each one inside R_m rules a out at once), the
full-node vector c and four rank-bit ints, the node supports of beta and of
gamma and the nodes where c is positive and where it is negative.  With P the
painted nodes, the splitting lies in R_m when both supports meet P, its
vector is zero when neither sign mask meets P, and it has one sign when one
of them misses P: the cone verdict of a painting is integer ANDs.  The cyclic
table is ``ChevalleyTable.cyclic_table``, read from ``n_dense`` and
``b_dense`` on first use, so a changed copy of a table gets its own; the
shortcut table is ``RootSystem.shortcut_table``.  Both read one walk of the
splittings with the node supports, ``RootSystem.negative_splittings``, made
once per type; each computes only its sign masks, and its rows (the vectors
c themselves, which only the per-xi functions read) on first read.

The verdict per type.  A painting reads each splitting only through
(supp beta, supp gamma, pos, neg) & P, and :func:`_on_cone` treats pos and
neg alike.  So when every splitting has the shortcut sign masks (supp of the
member in R+, 0), or (0, 0) with both members negative, and the cyclic masks
are the same pair or the swapped one, both oracles give the symmetry roots,
with nothing undecided, on every painting of the type.
``ChevalleyTable.cone_verdict`` decides this once per table and names the
first splitting that breaks it.  The sweep and ``analyze`` walk the two cone
sets of a painting only for a table whose verdict fails, so a changed table
gets the results of the walk.

The per-xi functions (:func:`transvection_set`, :func:`shortcut_set` and the
``*_violations`` ones) are library and test API: no CLI command calls them,
since the cone verdict already holds for every xi.  They evaluate c . xi
from the same stored vectors, restricted to the painted nodes, in integers:
xi is scaled by L, the lcm of the denominators of its coefficients, so every
c . xi * L is an integer with the sign of c . xi.  The witnesses the
``*_violations`` functions report are divided by L again, so they are the
exact rational values of the unscaled sums; they come in the table's order,
mixed-sign pairs first.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .chevalley import ChevalleyTable
from .flag import FlagData, KahlerParam
from .rootsystem import Root, SplittingTable, bits


class ConeSet(NamedTuple):
    """One oracle's verdict on the whole open Kahler cone."""

    proved: frozenset  # transvections for every xi
    undecided: frozenset  # neither proved nor ruled out by a one-sign vector


def _on_cone(masks: tuple[int, ...], painted: int) -> bool | None:
    """True: every vector is zero on the painted nodes; False: one is nonzero
    of one sign there; None: neither.  Only the splittings inside R_m count."""
    undecided = False
    it = iter(masks)
    for beta, gamma, pos, neg in zip(it, it, it, it):
        if beta & painted and gamma & painted:
            if pos & painted:
                if not neg & painted:
                    return False
                undecided = True
            elif neg & painted:
                return False
    return None if undecided else True


def _cone_set(flag: FlagData, table: SplittingTable) -> ConeSet:
    roots, masks, painted = flag.rs.roots, table.masks, flag.painted_mask
    proved, undecided = [], []
    for a in bits(flag.m_plus_mask):
        verdict = _on_cone(masks[a], painted)
        if verdict:
            proved.append(roots[a])
        elif verdict is None:
            undecided.append(roots[a])
    return ConeSet(frozenset(proved), frozenset(undecided))


def transvection_cone_set(flag: FlagData, table: ChevalleyTable) -> ConeSet:
    """Transvection roots for every Kahler parameter (structure constants)."""
    return _cone_set(flag, table.cyclic_table)


def shortcut_cone_set(flag: FlagData) -> ConeSet:
    """Transvection roots for every Kahler parameter (scalar condition)."""
    return _cone_set(flag, flag.rs.shortcut_table)


def _scaled_xi(flag: FlagData, xi: KahlerParam) -> tuple[int, list[int]]:
    """L and the integers xi_j * L over the painted nodes, in node order."""
    coeffs = [xi.coeffs[i] for i in sorted(flag.pd.painted)]
    scale = lcm(*(c.denominator for c in coeffs))
    return scale, [c.numerator * (scale // c.denominator) for c in coeffs]


def _nonzero_terms(flag: FlagData, table: SplittingTable, a: int, w: list[int]):
    """(beta, gamma, c . w) over the decompositions of -a in R_m with c . w != 0,
    w over the painted nodes in node order."""
    painted, stride = flag.painted_mask, 2 + flag.rs.rank
    columns = [i + 1 for i in sorted(flag.pd.painted)]  # c_i sits at offset i + 1
    masks, row = table.masks[a], table.rows[a]
    for k, start in enumerate(range(0, len(row), stride)):
        if masks[4 * k] & painted and masks[4 * k + 1] & painted:
            total = sum(row[start + j] * x for j, x in zip(columns, w))
            if total:
                yield row[start], row[start + 1], total


def _violations(flag: FlagData, xi: KahlerParam, table: SplittingTable, a: Root) -> list:
    index = flag.rs.index.get(a)
    if index is None or not flag.m_plus_mask >> index & 1:
        raise ValueError("transvection candidates live in R_m+")
    roots = flag.rs.roots
    scale, w = _scaled_xi(flag, xi)
    return [
        (roots[b], roots[g], Fraction(t, scale))
        for b, g, t in _nonzero_terms(flag, table, index, w)
    ]


def _xi_set(flag: FlagData, xi: KahlerParam, table: SplittingTable) -> frozenset:
    roots = flag.rs.roots
    _, w = _scaled_xi(flag, xi)
    return frozenset(
        roots[a]
        for a in bits(flag.m_plus_mask)
        if next(_nonzero_terms(flag, table, a, w), None) is None
    )


def transvection_violations(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Witnessing (beta, gamma, sum) tuples where the cyclic sum is nonzero."""
    return _violations(flag, xi, table.cyclic_table, a)


def shortcut_violations(
    flag: FlagData, xi: KahlerParam, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Nonzero evaluations of ((1+eps_g) g + (1+eps_b) b)(xi) over decompositions."""
    return _violations(flag, xi, flag.rs.shortcut_table, a)


def transvection_set(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable
) -> frozenset:
    """All transvection roots for one Kahler parameter (structure constants)."""
    return _xi_set(flag, xi, table.cyclic_table)


def shortcut_set(flag: FlagData, xi: KahlerParam) -> frozenset:
    """All transvection roots by the scalar condition (no structure constants)."""
    return _xi_set(flag, xi, flag.rs.shortcut_table)
