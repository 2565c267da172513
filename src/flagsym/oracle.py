"""Transvection oracles from the Nomizu map, proved on the Kahler cone.

A root vector E_a (a in R_m+) generates a transvection exactly when, for
every decomposition -a = beta + gamma with beta, gamma in R_m, the cyclic sum

    n(beta, gamma) r(a) + n(a, gamma) r(beta) + n(beta, a) r(gamma)

vanishes, where r(d) = epsilon_d * d(xi) * b(d) is the pairing of E_d with
E_{-d} (a common factor -i is dropped; every significant term carries one).

Where the sum comes from.  A transvection at the base point o is a Killing
field X from g whose covariant derivative vanishes at o.  The maximal torus
T of H acts on these fields, so their m-parts span root spaces E_a, a in
R_m, and a field with m-part E_a has X_h = 0, since h has no T-weight a.
The covariant derivative of E_a at o is the Nomizu map Lambda_m(E_a) =
1/2 [E_a, .]_m + U(E_a, .), with 2 <U(X, Y), Z> = <[Z, X]_m, Y> +
<X, [Z, Y]_m> (K. Nomizu, Amer. J. Math. 76 (1954); Kobayashi-Nomizu II,
ch. X).  On E_beta, paired with E_gamma, its brackets [E_x, E_y] =
n(x, y) E_{x+y} give half the cyclic sum, up to sign; they land at -a,
-beta and -gamma, all in R_m, so the m-projections drop none of them.

The cone argument.  Each cyclic sum is linear in xi: it is c . xi for the
integer vector c over the painted nodes with entries

    c_j = n(beta, gamma) eps_a b(a) a_j + n(a, gamma) eps_beta b(beta) beta_j
          + n(beta, a) eps_gamma b(gamma) gamma_j,

and a Kahler parameter has xi_j > 0 on every painted node.  So, with no xi:

* every c zero: every sum vanishes for every xi, and a is a transvection
  on the whole open cone;
* some c nonzero with all entries >= 0 (or all <= 0): that sum is nonzero
  for every xi, and a is ruled out on the whole cone;
* otherwise a is *left open*: every nonzero c has entries of both signs.
  By Gordan's alternative, some xi > 0 makes every c . xi vanish unless a
  combination y^T C of the vectors is nonzero and of one sign, and the test
  above looks at single vectors only.  The answer could then depend on the
  metric, so a root left open is neither passed nor ruled out, and its
  painting must fail the oracle check.

What the vectors are.  Write d| for d restricted to the painted nodes; it is
>= 0 and nonzero on R_m+.  beta and gamma cannot both lie in R_m+, since
their sum -a is negative.  With antisymmetry and the weighted cyclic
identity n(x, y) b(z) = n(y, z) b(x) = n(z, x) b(y) on the zero-sum triple
(a, beta, gamma), the coefficients cancel to

* c = 0 when beta and gamma both lie in R_m-;
* c = 2 n(a, gamma) b(beta) gamma| when gamma lies in R_m+ (and the same
  with the roles swapped), nonzero and of one sign.

So a table that satisfies the identities the audit of :mod:`flagsym.chevalley`
checks leaves no root open, and a is a transvection exactly when no
gamma in R_m+ has a + gamma in R (beta = -(a + gamma) then lies in R_m).  A
table that breaks them can give a set that differs from the symmetry roots,
or roots left open.

The shortcut oracle evaluates the scalar condition

    ((1 + epsilon_gamma) gamma + (1 + epsilon_beta) beta)(xi) = 0

without structure constants.  It is not independent of the symmetry
criterion (a + R_m+) n R = empty of :mod:`flagsym.symmetry`; on the cone it
*is* that criterion.  w(d) = (1 + eps_d) d(xi) is 0 on R_m- and 2 d(xi) > 0
on R_m+, so each vector is 0 (both members in R_m-) or 2 gamma| for the
member gamma in R_m+: never of mixed sign, so never open, and nonzero
exactly when a + gamma is a root.  The structure-constant oracle is the check
that reads the Chevalley table.

The verdict.  A table that :mod:`flagsym.chevalley` certifies (audited in
this process, or equal by digest to an audited build) satisfies
antisymmetry, the negation rule, |n| = p+1 and the weighted cyclic identity.
The argument above uses no painting, so on every splitting the cyclic vector
is -K times the shortcut's, K = n(beta, gamma) b(a), and |n| = p+1 makes K
nonzero: both oracles give the symmetry roots, with no root left open, on
every painting of the type.  :func:`oracle_check` gives the sweep and
``analyze`` that verdict: true on a certified table, and on an uncertified
one (a changed copy) the verdict of the audit,
:func:`~flagsym.chevalley.sign_convention_check`.  A copy that fails the
audit fails the check on every painting: a root left open, or a set on the
cone other than the symmetry roots, can only come from a table that breaks
the identities, so the check fails closed and walks no painting.  It is
stricter than the cone: a copy that keeps the pair and cyclic identities but
breaks Jacobi fails too.

The per-xi functions (:func:`transvection_set`, :func:`shortcut_set` and the
``*_violations`` ones) are library and test API: no CLI command calls them,
since the verdict already holds for every xi.  Per painting they walk
``RootSystem.splittings`` of each -a, keep the splittings with both members
in R_m, and evaluate c . xi = p a(xi) + q beta(xi) + r gamma(xi), with
(p, q, r) the coefficients of the cyclic sum (:func:`_cyclic`, read from
``n_dense`` and ``rs.weights``) or of the shortcut (:func:`_shortcut`).  Each
root's value at xi is computed once per call, in integers: xi is scaled by L,
the lcm of the denominators of its coefficients, so every c . xi * L is an
integer with the sign of c . xi.  A xi whose nodes are not the painted ones
raises ValueError, and so does a table of another type than the painting.
The witnesses the ``*_violations`` functions report are divided by L again,
so they are the exact rational values of the unscaled sums; they come in the
order of ``RootSystem.splittings``, mixed-sign pairs first.
"""

from __future__ import annotations

from math import lcm
from numbers import Rational
from operator import mul

from .chevalley import ChevalleyTable, sign_convention_check
from .flag import FlagData, KahlerParam
from .rootsystem import Root, RootSystem, bits


def _cyclic(table: ChevalleyTable):
    """(p, q, r) of the cyclic sums: eps_d b(d) times n(beta, gamma),
    n(a, gamma), n(beta, a) for d = a, beta, gamma."""
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

    return coefficients


def _cyclic_on(flag: FlagData, table: ChevalleyTable):
    """:func:`_cyclic` of a table of the painting's type; ValueError on another."""
    if table.rs.name != flag.rs.name:
        raise ValueError(f"a {table.rs.name} table does not fit the painting {flag.pd.spec}")
    return _cyclic(table)


def _shortcut(rs: RootSystem):
    """(p, q, r) of the shortcut condition: (0, 1 + eps_beta, 1 + eps_gamma)."""
    half = len(rs.positive_roots)
    return lambda a, beta, gamma: (0, 2 if beta < half else 0, 2 if gamma < half else 0)


def oracle_check(table: ChevalleyTable) -> bool:
    """oracle_agree of every painting of the table's type: both oracles give
    the symmetry roots on the whole Kahler cone.

    True on a certified table; an uncertified one (a changed copy) has the
    verdict of the audit, and fails closed (module docstring).
    """
    return table.certified is not None or sign_convention_check(table)


def _scaled_values(flag: FlagData, xi: KahlerParam) -> tuple[int, list[int]]:
    """L and d(xi) * L for every root d, by root index, in integers."""
    painted = sorted(flag.pd.painted)
    if list(xi.coeffs) != painted:
        raise ValueError(
            f"{xi!r} does not fit {flag.pd.spec}: coefficients on nodes "
            f"{list(xi.coeffs)}, painted nodes {painted}"
        )
    scale = lcm(*(c.denominator for c in xi.coeffs.values()))
    x = [0] * flag.rs.rank  # xi L over all nodes, 0 on the white ones
    for i, c in xi.coeffs.items():
        x[i - 1] = c.numerator * (scale // c.denominator)
    return scale, [sum(map(mul, d, x)) for d in flag.rs.roots]


def _nonzero_terms(flag: FlagData, coefficients, a: int, at: list[int]):
    """(beta, gamma, c . xi L) over the decompositions -a = beta + gamma in
    R_m with c . xi != 0, c = p a + q beta + r gamma with (p, q, r) =
    ``coefficients(a, beta, gamma)``, ``at`` holding d(xi) L by root index."""
    m = flag.m_mask
    for beta, gamma in flag.rs.splittings(flag.rs.neg[a]):
        if m >> beta & 1 and m >> gamma & 1:
            p, q, r = coefficients(a, beta, gamma)
            total = p * at[a] + q * at[beta] + r * at[gamma]
            if total:
                yield beta, gamma, total


def _violations(flag: FlagData, xi: KahlerParam, coefficients, a: Root) -> list:
    from fractions import Fraction  # not on the CLI path: no command builds a xi
    index = flag.rs.index.get(a)
    if index is None or not flag.m_plus_mask >> index & 1:
        raise ValueError("transvection candidates live in R_m+")
    roots = flag.rs.roots
    scale, at = _scaled_values(flag, xi)
    return [
        (roots[b], roots[g], Fraction(t, scale))
        for b, g, t in _nonzero_terms(flag, coefficients, index, at)
    ]


def _xi_set(flag: FlagData, xi: KahlerParam, coefficients) -> frozenset:
    roots = flag.rs.roots
    _, at = _scaled_values(flag, xi)
    return frozenset(
        roots[a]
        for a in bits(flag.m_plus_mask)
        if next(_nonzero_terms(flag, coefficients, a, at), None) is None
    )


def transvection_violations(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable, a: Root
) -> list[tuple[Root, Root, Rational]]:
    """Witnessing (beta, gamma, sum) tuples where the cyclic sum is nonzero."""
    return _violations(flag, xi, _cyclic_on(flag, table), a)


def shortcut_violations(
    flag: FlagData, xi: KahlerParam, a: Root
) -> list[tuple[Root, Root, Rational]]:
    """Nonzero evaluations of ((1+eps_g) g + (1+eps_b) b)(xi) over decompositions."""
    return _violations(flag, xi, _shortcut(flag.rs), a)


def transvection_set(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable
) -> frozenset:
    """All transvection roots for one Kahler parameter (structure constants)."""
    return _xi_set(flag, xi, _cyclic_on(flag, table))


def shortcut_set(flag: FlagData, xi: KahlerParam) -> frozenset:
    """All transvection roots by the scalar condition (no structure constants)."""
    return _xi_set(flag, xi, _shortcut(flag.rs))
