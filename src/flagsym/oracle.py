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
eps_d is the sign of d, n comes from the table and b from the root system
(``RootSystem.weights``), and a decomposition lies in R_m exactly when the
node supports of beta and gamma both meet the painted nodes.  So the vectors
are built once per type, as a :class:`SplittingTable`: for each positive a and
each splitting -a = beta + gamma, in the order of ``RootSystem.splittings``
(mixed-sign pairs first, since each one inside R_m rules a out at once), the
weights (u, v) with c = u beta + v gamma and four rank-bit ints, the node
supports of beta and of gamma and the nodes where c is positive and where it
is negative.  With P the painted nodes, the splitting lies in R_m when both
supports meet P, its vector is zero when neither sign mask meets P, and it has
one sign when one of them misses P: the cone verdict of a painting is integer
ANDs.  The tables live here: :func:`cyclic_table` per Chevalley table, read
from ``n_dense`` and ``rs.weights``, and :func:`shortcut_table` per root
system, both over one walk of the splittings with the node supports,
:func:`negative_splittings`.  Each is cached per instance it reads (tables
hash by identity), so a changed copy of a table gets its own.

The verdict per type.  A painting reads each splitting only through
(supp beta, supp gamma, pos, neg) & P, and :func:`_on_cone` treats pos and
neg alike.  The shortcut table has sign masks (supp of the member in R+, 0),
or (0, 0) with both members negative, on every splitting of every type: its
c is twice the member in R+, or 0, by construction.  So when the cyclic
masks are the same pair or the swapped one on every splitting, both oracles
give the symmetry roots, with nothing undecided, on every painting of the
type.  :func:`cone_verdict` decides this once per table and names the first
splitting that breaks it.  The shortcut reads no table, so its cone set is
the symmetry criterion on every table and no check walks it.

The verdict off the certificate.  A table that :mod:`flagsym.chevalley`
certifies (audited in this process, or equal by digest to an audited build)
satisfies antisymmetry, the negation rule, |n| = p+1 and the weighted cyclic
identity.  The argument above uses no painting, so on every splitting the
cyclic vector is -K times the shortcut's, K = n(beta, gamma) b(a), and
|n| = p+1 makes K nonzero: each cyclic sign mask pair is the shortcut's or
the swapped one, and :func:`cone_verdict` is None.  :func:`oracle_check`
gives the sweep and ``analyze`` their verdict.  It reads the verdict of a
certified table off its certificate and builds no splitting table for it;
for an uncertified table (a changed copy) it takes :func:`cone_verdict`, and
walks the cyclic cone set of a painting only when that fails, so a changed
table gets the results of the walk.

The per-xi functions (:func:`transvection_set`, :func:`shortcut_set` and the
``*_violations`` ones) are library and test API: no CLI command calls them,
since the cone verdict already holds for every xi.  They evaluate c . xi =
u beta(xi) + v gamma(xi) from the stored weights (no table stores the
vectors themselves), each root's value at xi computed once per call, in
integers: xi is scaled by L, the lcm of the
denominators of its coefficients, so every c . xi * L is an integer with the
sign of c . xi.  The witnesses the ``*_violations`` functions report are
divided by L again, so they are the exact rational values of the unscaled
sums; they come in the table's order, mixed-sign pairs first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .chevalley import ChevalleyTable
from .flag import FlagData, KahlerParam
from .rootsystem import Root, RootSystem, bits

# more than the 31 types through rank 8, so a sweep rebuilds nothing, while
# tables a caller builds for itself, such as changed copies, cannot pile up
_CACHED_TYPES = 64


class SplittingTable(NamedTuple):
    """Per positive root a, the vectors c = u beta + v gamma of the splittings
    -a = beta + gamma, in the order of ``splittings(neg[a])``, flat.

    ``masks[a]`` holds four rank-bit ints per splitting (bit n for node
    n + 1): the node supports of beta and of gamma, and the nodes where c is
    positive and where it is negative.  ``weights[a]`` holds u and v.
    """

    masks: tuple[tuple[int, ...], ...]
    weights: tuple[list[int], ...]


class ConeSet(NamedTuple):
    """One oracle's verdict on the whole open Kahler cone."""

    proved: frozenset  # transvections for every xi
    undecided: frozenset  # neither proved nor ruled out by a one-sign vector


@lru_cache(maxsize=_CACHED_TYPES)
def negative_splittings(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Per positive root a, ``rs.splittings(neg[a])`` flat with the node
    supports: beta, gamma and the node masks of beta and of gamma (bit n for
    node n + 1) per splitting.  Walked once per type; both oracle tables and
    the per-xi functions read it."""
    half = len(rs.positive_roots)
    nodes = [0] * half
    for n, s in enumerate(rs.support):
        for i in bits(s & rs.positive_mask):
            nodes[i] |= 1 << n
    nodes += nodes  # -r has the support of r
    out = []
    for a in range(half):
        flat: list[int] = []
        for beta, gamma in rs.splittings(rs.neg[a]):
            flat += (beta, gamma, nodes[beta], nodes[gamma])
        out.append(tuple(flat))
    return tuple(out)


def splitting_table(rs: RootSystem, coefficients) -> SplittingTable:
    """The vectors c = p a + q beta + r gamma with (p, q, r) =
    ``coefficients(a, beta, gamma)`` over the splittings of every -a.

    As a = -(beta + gamma), c = u beta + v gamma with u = q - p and
    v = r - p.  The coordinates of a root all carry its sign, so c has the
    sign of u beta on the nodes of beta, that of v gamma on the nodes of
    gamma, and is summed node by node only where the two signs clash.
    """
    roots, half = rs.roots, len(rs.positive_roots)
    masks, weights = [], []
    for a, split in enumerate(negative_splittings(rs)):
        mask_row: list[int] = []
        uv: list[int] = []
        it = iter(split)
        for beta, gamma, nb, ng in zip(it, it, it, it):
            p, q, r = coefficients(a, beta, gamma)
            u, v = q - p, r - p
            sb = u if beta < half else -u
            sg = v if gamma < half else -v
            pos = (nb if sb > 0 else 0) | (ng if sg > 0 else 0)
            negative = (nb if sb < 0 else 0) | (ng if sg < 0 else 0)
            clash = pos & negative
            if clash:
                pos ^= clash
                negative ^= clash
                for n in bits(clash):
                    x = u * roots[beta][n] + v * roots[gamma][n]
                    if x > 0:
                        pos |= 1 << n
                    elif x < 0:
                        negative |= 1 << n
            mask_row += (nb, ng, pos, negative)
            uv += (u, v)
        masks.append(tuple(mask_row))
        weights.append(uv)
    return SplittingTable(tuple(masks), tuple(weights))


@lru_cache(maxsize=_CACHED_TYPES)
def shortcut_table(rs: RootSystem) -> SplittingTable:
    """The splitting table of the shortcut oracle: (p, q, r) =
    (0, 1 + eps_beta, 1 + eps_gamma)."""
    half = len(rs.positive_roots)
    return splitting_table(
        rs, lambda a, beta, gamma: (0, 2 if beta < half else 0, 2 if gamma < half else 0)
    )


@lru_cache(maxsize=_CACHED_TYPES)
def cyclic_table(table: ChevalleyTable) -> SplittingTable:
    """The splitting table of the cyclic sums: (p, q, r) = eps_d b(d) times
    n(beta, gamma), n(a, gamma), n(beta, a) for d = a, beta, gamma."""
    rs = table.rs
    n, count, half = table.n_dense, len(rs.roots), len(rs.positive_roots)
    r = [b if i < half else -b for i, b in enumerate(rs.weights)]

    def coefficients(a: int, beta: int, gamma: int):
        row_b = beta * count
        return (
            n[row_b + gamma] * r[a],
            n[a * count + gamma] * r[beta],
            n[row_b + a] * r[gamma],
        )

    return splitting_table(rs, coefficients)


@lru_cache(maxsize=_CACHED_TYPES)
def cone_verdict(table: ChevalleyTable) -> tuple[Root, Root, Root] | None:
    """None when the cyclic sign masks of every splitting are the shortcut's,
    (supp of the member in R+, 0) or (0, 0) with both members negative, or
    that pair swapped, so that both oracles give the symmetry roots, with
    nothing undecided, on every painting; else the first splitting (a, beta,
    gamma) of -a, in the order of the table, that breaks it."""
    rs = table.rs
    roots, half = rs.roots, len(rs.positive_roots)
    for a, (split, masks) in enumerate(zip(negative_splittings(rs), cyclic_table(table).masks)):
        for k in range(0, len(split), 4):
            beta, gamma, nb, ng = split[k : k + 4]
            pos = nb if beta < half else ng if gamma < half else 0
            if masks[k : k + 4] not in ((nb, ng, pos, 0), (nb, ng, 0, pos)):
                return roots[a], roots[beta], roots[gamma]
    return None


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
    return _cone_set(flag, cyclic_table(table))


def shortcut_cone_set(flag: FlagData) -> ConeSet:
    """Transvection roots for every Kahler parameter (scalar condition)."""
    return _cone_set(flag, shortcut_table(flag.rs))


def oracle_check(flag: FlagData, table: ChevalleyTable, symmetry: frozenset) -> tuple[bool, int]:
    """(oracle_agree, undecided) of one painting with symmetry roots ``symmetry``.

    oracle_agree holds when both oracles give the symmetry roots on the whole
    Kahler cone; undecided counts the roots the structure-constant oracle
    leaves open, and fails the check.  On a certified table, and on one whose
    :func:`cone_verdict` holds, that is so on every painting of the type
    (module docstring); only an uncertified table whose verdict fails has the
    cone set of the painting walked.
    """
    if table.certified or cone_verdict(table) is None:
        return True, 0
    cyclic = transvection_cone_set(flag, table)
    return not cyclic.undecided and cyclic.proved == symmetry, len(cyclic.undecided)


def _scaled_values(flag: FlagData, xi: KahlerParam) -> tuple[int, list[int]]:
    """L and d(xi) * L for every root d, by root index, in integers."""
    painted = sorted(flag.pd.painted)
    coeffs = [xi.coeffs[i] for i in painted]
    scale = lcm(*(c.denominator for c in coeffs))
    w = [(i - 1, c.numerator * (scale // c.denominator)) for i, c in zip(painted, coeffs)]
    return scale, [sum(d[j] * x for j, x in w) for d in flag.rs.roots]


def _nonzero_terms(flag: FlagData, table: SplittingTable, a: int, at: list[int]):
    """(beta, gamma, c . xi L) over the decompositions of -a in R_m with
    c . xi != 0, ``at`` holding d(xi) L by root index."""
    painted = flag.painted_mask
    s, w = iter(negative_splittings(flag.rs)[a]), iter(table.weights[a])
    for (beta, gamma, nb, ng), (u, v) in zip(zip(s, s, s, s), zip(w, w)):
        if nb & painted and ng & painted:
            total = u * at[beta] + v * at[gamma]
            if total:
                yield beta, gamma, total


def _violations(flag: FlagData, xi: KahlerParam, table: SplittingTable, a: Root) -> list:
    index = flag.rs.index.get(a)
    if index is None or not flag.m_plus_mask >> index & 1:
        raise ValueError("transvection candidates live in R_m+")
    roots = flag.rs.roots
    scale, at = _scaled_values(flag, xi)
    return [
        (roots[b], roots[g], Fraction(t, scale))
        for b, g, t in _nonzero_terms(flag, table, index, at)
    ]


def _xi_set(flag: FlagData, xi: KahlerParam, table: SplittingTable) -> frozenset:
    roots = flag.rs.roots
    _, at = _scaled_values(flag, xi)
    return frozenset(
        roots[a]
        for a in bits(flag.m_plus_mask)
        if next(_nonzero_terms(flag, table, a, at), None) is None
    )


def transvection_violations(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Witnessing (beta, gamma, sum) tuples where the cyclic sum is nonzero."""
    return _violations(flag, xi, cyclic_table(table), a)


def shortcut_violations(
    flag: FlagData, xi: KahlerParam, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Nonzero evaluations of ((1+eps_g) g + (1+eps_b) b)(xi) over decompositions."""
    return _violations(flag, xi, shortcut_table(flag.rs), a)


def transvection_set(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable
) -> frozenset:
    """All transvection roots for one Kahler parameter (structure constants)."""
    return _xi_set(flag, xi, cyclic_table(table))


def shortcut_set(flag: FlagData, xi: KahlerParam) -> frozenset:
    """All transvection roots by the scalar condition (no structure constants)."""
    return _xi_set(flag, xi, shortcut_table(flag.rs))
