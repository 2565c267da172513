"""Integer structure constants of a Chevalley basis.

For every pair of roots with a + b again a root the table stores the integer
n(a, b) with [E_a, E_b] = n(a, b) E_{a+b}.  The pairing weights b(d) =
2/(d, d) are fixed by the root system and live there, as
``RootSystem.weights``.  In this basis the Killing pairing of E_d with E_{-d}
is proportional to b(d), and for any zero-sum triple a + b + c = 0 the
constants satisfy the weighted cyclic identity

    n(a, b) b(c) = n(b, c) b(a) = n(c, a) b(b),

which collapses to n(a, b) = n(b, c) = n(c, a) on simply-laced systems.

Signs are fixed by the extraspecial-pair convention: positive roots are
ordered by (height, coordinates); for each non-simple positive root the
special decomposition with the smallest first summand gets n = +(p+1), and
every other constant is propagated from those choices through the Jacobi and
cyclic identities.  The construction is deterministic and reproducible.

Table and build live on the dense root index of :class:`RootSystem`.  The
positive roots are the indices 0..N-1 in (height, coordinates) order, so the
order of the convention is the index order.  The decompositions gamma =
alpha + beta of a positive root are read from ``sums[gamma]``: alpha is the
negative of a negative partner x of gamma and beta = ``add[gamma][x]``.  Every
weight b(d) is the int 1, 2 or 3, and each constant of the Jacobi step is one
exact integer quotient over a common denominator with its remainder checked.
The table stores n as ``n_dense``, an int8 array with n(roots[i], roots[j]) at
``i * C + j`` (C = 2N, zero where the sum is no root).

Orbits.  Antisymmetry n(b, a) = -n(a, b) and the negation rule n(-a, -b) =
-n(a, b) tie the four pairs {(a, b), (b, a), (-a, -b), (-b, -a)} of an orbit
to one value, and the build writes each orbit at once.  A mixed-sign constant
comes from the same-sign constant of its zero-sum triple (x, y, z) through
the weighted cyclic identity, once per orbit: for x positive, y negative and
x < -y.  Each other member of the orbit gets its quotient from the same
triple or its negation, with the numerator negated or not and the same
denominator b(z), so it divides exactly when this one does, and the build
raises for an orbit exactly when it would for any one member.

The audit (:func:`convention_violations`) reads the stored array, so a table
changed after construction is audited as it stands.  It has two tiers.  The
verdict, :func:`sign_convention_check`, checks each identity once per orbit
and stops at the first fault.  Only when it fails does the witness tier run:
the pair and cyclic checks on every pair, in index order, then the Jacobi
check on every triple that can fail, so the witnesses and their order are
those of the exhaustive enumeration.  The verdict passes exactly when the
witness tier reports nothing, by the arguments below.

- Pairs.  The antisymmetry, negation and |n| = p+1 checks of a pair read
  only the entries of its orbit.  The verdict visits each orbit once, from
  its member (i, j) with i positive and j > i (j positive) or -j > i (j
  negative), and checks antisymmetry and the negation rule on all four
  entries, and |n| against the i-string through j.  That one walk serves
  the orbit: the strings of (-i, -j) and (-j, -i) are those of (i, j) and
  (j, i) negated, and the j-string through i runs down as far as the
  i-string through j whenever i + j is a root, since n(j, i) = -n(i, j) and
  |n| = p + 1 in any Chevalley basis (Carter, *Simple Groups of Lie Type*,
  ch. 4; the tests check it on every sum pair through rank 8).
- Cycles.  A zero-sum triple {a, b, c} and its negation carry twelve
  identities, one per ordered pair.  The three rotations state the same
  equalities; reversing the order negates every term by antisymmetry, and
  negating the roots does too by the negation rule.  So once the pair checks
  are clean the twelve hold together.  One triple of each class {T, -T} has
  two positive roots i < j, and the verdict checks the identity there.

The exhaustive Jacobi check visits only the triples that can fail, and this
pruning is exact.  Each term of

    [[E_x, E_y], E_z] + [[E_y, E_z], E_x] + [[E_z, E_x], E_y]

lies in the weight space g_{x+y+z}, which is zero unless x + y + z is a root
or 0, and each term vanishes unless its first two roots sum to a root or to
0.  So, whatever the constants in the table, a triple whose sum is not in
R ∪ {0}, or none of whose pairs sums into R ∪ {0}, has defect zero.  The
remaining triples, the candidates, are found from the ``sums`` masks, each
once, from its first pair (in index order) that sums into R ∪ {0}.  The
canonical candidates are those with at least two positive roots; every other
candidate is the negation of one of them.

Once the pair and cyclic checks are clean, the verdict reasons as follows.

- Negation.  The Jacobi terms read n only at sum pairs, where the negation
  rule n(-a, -b) = -n(a, b) holds.  Negating a triple negates both factors
  of each root term n(a, c) n(a + c, d), so the term keeps its value; a
  Cartan term m H_{s^v} becomes (-m) H_{-s^v}, the same element; the
  a-string lengths that give <d, a^v> are those of the (-a)-string through
  -d; and the sorted negated triple is a cyclic shift of (-x, -y, -z), whose
  defect is the same sum.  So the defect of (-x, -y, -z) is the image of the
  defect of (x, y, z) under the negation, and one is zero exactly when the
  other is (Carter, *Simple Groups of Lie Type*, ch. 4).  Antisymmetry holds
  at the same pairs, so permuting a triple changes its defect only in sign.
- Zero-sum triples (x + y + z = 0) have no root term; the defect is the
  Cartan part n(x, y) H_{(x+y)^v} + n(y, z) H_{(y+z)^v} + n(z, x)
  H_{(z+x)^v}.  Under the identification of h with h* by the invariant form,
  H_{(-z)^v} = -b(z) z, and the weighted cyclic identity n(x, y) b(z) =
  n(y, z) b(x) = n(z, x) b(y) = K makes the sum -K (x + y + z) = 0.
- Opposite-pair triples (p, -p, r) have x + y + z = r, and the defect is the
  E_r coefficient <r, p^v> + n(-p, r) n(r - p, p) + n(r, p) n(r + p, -p).
  The Cartan integer depends on the root system alone.  By the negation rule
  n(r - p, p) = -n(p - r, -p), and the weighted cyclic identity on the
  zero-sum triple (-p, r, p - r) gives n(p - r, -p) b(r) = n(-p, r) b(p - r),
  so the first product is -n(-p, r)^2 b(r - p) / b(r), zero when r - p is no
  root.  Antisymmetry, the negation rule and the identity on (r, p, -(r + p))
  make the second +n(r, p)^2 b(r + p) / b(r) in the same way.  The check
  |n| = p + 1 fixes each square, so the defect is the same on every table
  that passes the pair and cyclic checks.  A Chevalley basis passes them and
  satisfies the Jacobi identity, so that defect is zero (the tests evaluate
  every such triple of the built tables through E8).
- Generic triples T = (x, y, z) have no opposite pair and a root t = x + y +
  z.  With u = -t the quadruple Q = {x, y, z, u} sums to zero.  The weighted
  cyclic identity on (x + y, z, u) gives n(x + y, z) b(t) = n(z, u) b(x + y),
  and likewise for the other two terms, so the defect of T, the coefficient
  of E_t, is G(Q) / b(t) with

      G(Q) = n(x, y) n(z, u) b(x + y) + n(y, z) n(x, u) b(y + z)
             + n(z, x) n(y, u) b(z + x),

  one term per pairing of Q, zero when its pairs sum to no root.  Since
  b(x + y) = b(z + u), antisymmetry makes every transposition of Q map G to
  -G, so G changes only sign under every permutation of Q, and every triple
  Q - {w} has defect +-G(Q) / b(w): all four are zero together.  G = 0 is the
  identity of Carter, Lemma 4.1.2, for four roots of zero sum.  With the
  negation argument, every triple of Q and of -Q has zero defect once one
  has, so the verdict evaluates one triple per class {Q, -Q}.  It keeps the
  canonical triples with
  - three positive roots: a class with three positive roots in Q and one
    negative has exactly one such triple;
  - t in -T: then Q repeats a root, and T is the only canonical triple of
    its class;
  - two positive roots x, y, one negative z and t positive, with t the
    largest index of {x, y, -z, t}: a class with two positive roots in Q and
    two negative has four canonical triples of this form, one per choice of
    t from that set, so exactly one.
  A class none of whose pairings sums to a root has G = 0 and no candidate.
  Positive roots are indexed by height, so :func:`_jacobi_candidates` picks
  a superset of these triples from each pair (p, q) of the canonical walk
  with one prefix or suffix mask of heights plus the roots -(2p + q) and
  -(p + 2q).  E8 evaluates 23 331 of its 90 720 generic canonical triples,
  22 680 of them kept by the rule.  Each extra triple is a candidate of the
  witness tier, so the verdict stays exact.

The witness tier evaluates every candidate, most of them inline as one root
coefficient of three products.  Coroots, needed for the Cartan part of a
zero-sum defect, are computed in integers, and only when such a triple is
evaluated.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

from .rootsystem import (
    InternalConsistencyError,
    Root,
    RootSystem,
    bits,
    walk,
)


@dataclass(eq=False)
class ChevalleyTable:
    """Structure constants n for one root system.

    ``n_dense`` holds n(roots[i], roots[j]) at ``i * C + j`` over the root
    index (C = |R|) as int8, zero where roots[i] + roots[j] is no root; the
    weights b are ``rs.weights``.  ``audited`` is True when
    :func:`build_constants` ran the exhaustive audit.  :mod:`flagsym.oracle`
    builds its cyclic table and verdict from the array and caches them per
    instance (tables hash and compare by identity), so a changed table is a
    changed copy, not a table the oracle has read.
    """

    rs: RootSystem
    n_dense: array
    audited: bool = False

    def n_of(self, a: Root, b: Root) -> int:
        """n(a, b); zero when a + b is not a root."""
        index = self.rs.index
        return self.n_dense[index[a] * len(self.rs.roots) + index[b]]


def build_constants(rs: RootSystem, verify: bool | None = None) -> ChevalleyTable:
    """Build the full constant table for ``rs``.

    ``verify`` controls the exhaustive Jacobi/cyclic audit after construction:
    None runs it for systems with at most 48 roots (rank <= 4), True forces
    it, False skips it.
    """
    roots, neg, add, sums = rs.roots, rs.neg, rs.add, rs.sums
    count, half = len(roots), len(rs.positive_roots)
    negative = rs.positive_mask << half
    b = rs.weights
    n = array("b", bytes(count * count))

    def put(x: int, y: int, v: int) -> None:
        """n(x, y) = v and the rest of its orbit, by antisymmetry and the negation rule."""
        nx, ny = neg[x], neg[y]
        n[x * count + y] = n[ny * count + nx] = v
        n[y * count + x] = n[nx * count + ny] = -v

    for gamma in range(rs.rank, half):  # the simple roots 0..rank-1 do not split
        row = add[gamma]
        # gamma = al + be with al < be positive, al ascending
        pairs = [
            (neg[x], row[x]) for x in bits(sums[gamma] & negative) if neg[x] < row[x] < half
        ]
        if not pairs:
            raise InternalConsistencyError(f"no decomposition for {roots[gamma]}")
        eps, eta = pairs[0]  # the extraspecial pair: minimal first summand
        top = walk(add[neg[eps]], eta) + 1
        put(eps, eta, top)
        for al, be in pairs[1:]:
            # Jacobi on (E_{-al}, E_eps, E_eta) with every mixed-sign constant
            # eliminated through the weighted cyclic identity leaves one
            # unknown, n(al, be) = -(t_nu / b(nu) + t_mu / b(mu)) / (top b(gamma)),
            # here over the common denominator b(nu) b(mu) top b(gamma)
            t_nu = t_mu = 0
            d_nu = d_mu = 1
            nu = add[al][neg[eps]]  # al - eps
            if nu < half:
                t_nu = n[eps * count + nu] * n[be * count + nu] * b[al] * b[eta]
                d_nu = b[nu]
            mu = add[eta][neg[al]]  # eta - al
            if mu < half:
                t_mu = n[al * count + mu] * n[mu * count + eps] * b[eta] * b[be]
                d_mu = b[mu]
            num, den = -(t_nu * d_mu + t_mu * d_nu), d_nu * d_mu * top * b[gamma]
            x, rem = divmod(num, den)
            expected = walk(add[neg[al]], be) + 1
            if rem or abs(x) != expected:
                raise InternalConsistencyError(
                    f"constant for ({roots[al]}, {roots[be]}) came out "
                    f"{f'{num}/{den}' if rem else x}, |.| != {expected}"
                )
            put(al, be, x)

    for x in range(half):
        row = add[x]
        # one mixed-sign pair per orbit: x positive, y negative with x < -y
        for y in bits(sums[x] >> (half + x + 1) << (half + x + 1)):
            # close the zero-sum triple (x, y, z) and step to the same-sign pair
            z = neg[row[y]]
            if z >= half:
                v, rem = divmod(n[y * count + z] * b[x], b[z])
            else:
                v, rem = divmod(n[z * count + x] * b[y], b[z])
            if rem:
                raise InternalConsistencyError(
                    f"non-integral constant for ({roots[x]}, {roots[y]})"
                )
            put(x, y, v)

    table = ChevalleyTable(rs, n)
    if verify is None:
        verify = count <= 48
    if verify:
        if not sign_convention_check(table):
            raise InternalConsistencyError(f"{rs.name}: constant table fails the audit")
        table.audited = True
    return table


def _coroots(rs: RootSystem) -> list[list[int]]:
    """Coordinates of every coroot 2r/(r, r) over the simple coroots, as ints.

    r^v = b(r) r and a_i^v = b(a_i) a_i, so coefficient i is r_i b(r) /
    b(a_i), one exact quotient with its remainder checked.
    """
    weights = rs.weights
    simple = [weights[rs.index[s]] for s in rs.simple_roots]
    out = []
    for r, w in zip(rs.roots, weights):
        co = []
        for c, d in zip(r, simple):
            v, rem = divmod(c * w, d)
            if rem:
                raise InternalConsistencyError(f"non-integral coroot of {r}")
            co.append(v)
        out.append(co)
    return out


def _jacobi_pairs(rs: RootSystem, canonical: bool = False):
    """The candidate Jacobi triples as (p, q, third): the triples (p, q, r), r in ``third``.

    A pair (p, q) qualifies when roots p + q lies in R ∪ {0}.  For each
    qualifying pair p < q the third root r must put p + q + r in R ∪ {0}
    (any r when q = -p), and the triple is kept only when (p, q) is its first
    qualifying pair: no r < q pairs with p, and no r < p pairs with q.  With
    ``canonical`` only the triples with at least two positive roots are kept:
    p is positive, and r is positive when q is not.
    """
    count, neg, add = len(rs.roots), rs.neg, rs.add
    half, positive = len(rs.positive_roots), rs.positive_mask
    pairs = [rs.sums[i] | 1 << neg[i] for i in range(count)]
    every = (1 << count) - 1
    for p in range(half if canonical else count):
        later = pairs[p] >> (p + 1) << (p + 1)
        below_p = (1 << p) - 1
        for q in bits(later):
            third = every if q == neg[p] else pairs[add[p][q]]
            third &= ~(1 << p | 1 << q | pairs[p] & ((1 << q) - 1) | pairs[q] & below_p)
            if canonical and q >= half:
                third &= positive
            if third:
                yield p, q, third


def _jacobi_walk(rs: RootSystem, canonical: bool = False):
    """The candidate triples of :func:`_jacobi_pairs` as (p, q, generic, special).

    ``special`` holds the third roots r that make an opposite pair (q = -p, or
    r = -p or -q) or a zero sum (r = -(p + q)); ``generic`` holds the others,
    for which p + q + r is a root and no two of the roots are opposite.
    """
    neg, add = rs.neg, rs.add
    for p, q, third in _jacobi_pairs(rs, canonical):
        if q == neg[p]:
            yield p, q, 0, third
        else:
            special = third & (1 << neg[add[p][q]] | 1 << neg[p] | 1 << neg[q])
            yield p, q, third ^ special, special


def _jacobi_candidates(rs: RootSystem):
    """The generic triples the verdict evaluates, as (p, q, third).

    From each (p, q, generic) of the canonical walk it keeps the third roots r
    of a superset of the representatives (module docstring): every positive r
    when q is positive, negative r with ht(-r) <= ht(p) when q is positive,
    positive r with ht(r) >= ht(-q) when q is negative and ht(p) >= ht(-q),
    and the roots -(2p + q) and -(p + 2q).  The positive roots are indexed by
    height, so each range is one prefix or suffix mask.
    """
    count, neg, add = len(rs.roots), rs.neg, rs.add
    half, positive = len(rs.positive_roots), rs.positive_mask
    heights = [sum(r) for r in rs.positive_roots]
    # start[k] and stop[k] bound the indices of the positive roots of height ht(k)
    start = [bisect_left(heights, h) for h in heights]
    stop = [bisect_right(heights, h) for h in heights]
    for p, q, generic, _ in _jacobi_walk(rs, canonical=True):
        if not generic:
            continue
        s = add[p][q]
        if q < half:
            window = (1 << (half + stop[p])) - 1
        else:
            k = start[neg[q]]
            window = positive >> k << k if p >= k else 0
        for u in (add[p][s], add[q][s]):
            if u != count:
                window |= 1 << neg[u]
        if generic & window:
            yield p, q, generic & window


def _witnesses(table: ChevalleyTable):
    """Every witness of the audit: the pair checks on each pair, then the
    weighted cyclic identity on each pair, in index order, then the Jacobi
    check on each candidate triple, in the order of the walk."""
    rs = table.rs
    roots, neg, add, sums, b = rs.roots, rs.neg, rs.add, rs.sums, rs.weights
    count = len(roots)
    # the stored constants as they stand now, as a list: CPython indexes a
    # list faster than an array, and the Jacobi loop reads one entry per term
    n = table.n_dense.tolist()
    for i in range(count):
        for j in bits(sums[i]):
            v = n[i * count + j]
            if v != -n[j * count + i]:
                yield f"antisymmetry fails at ({roots[i]}, {roots[j]})"
            if v != -n[neg[i] * count + neg[j]]:
                yield f"negation rule fails at ({roots[i]}, {roots[j]})"
            p = walk(add[neg[i]], j)
            if abs(v) != p + 1:
                yield f"|n| != p+1 at ({roots[i]}, {roots[j]}): {v} vs {p + 1}"
    for i in range(count):
        row = add[i]
        for j in bits(sums[i]):
            k = neg[row[j]]
            lhs = n[i * count + j] * b[k]
            if lhs != n[j * count + k] * b[i] or lhs != n[k * count + i] * b[j]:
                yield f"weighted cyclic identity fails on ({roots[i]}, {roots[j]}, {roots[k]})"

    coroots = None  # over the simple coroots, once a zero-sum triple needs them

    def defective(x: int, y: int, z: int) -> bool:
        """Whether [[E_x,E_y],E_z] + [[E_y,E_z],E_x] + [[E_z,E_x],E_y] != 0."""
        nonlocal coroots
        at_root = 0  # the coefficient of E_{x+y+z}
        at_cartan = []  # (n, s) for each term n [E_s, E_{-s}] = n H_{s^v}
        for a, c, d in ((x, y, z), (y, z, x), (z, x, y)):
            if c == neg[a]:
                # [H_{a^v}, E_d] = <d, a^v> E_d
                at_root += rs.cartan_integer(d, a)
                continue
            s = add[a][c]
            if s == count:
                continue
            if s == neg[d]:
                at_cartan.append((n[a * count + c], s))
            elif add[s][d] != count:
                at_root += n[a * count + c] * n[s * count + d]
        if at_cartan:  # x + y + z = 0: the defect lies in the Cartan subalgebra
            if coroots is None:
                coroots = _coroots(rs)
            return any(
                sum(m * coroots[s][k] for m, s in at_cartan) for k in range(rs.rank)
            )
        return at_root != 0

    for p, q, generic, special in _jacobi_walk(rs):
        bad = []
        if generic:
            # x + y + z = t is a root, each term whose first two roots sum
            # to a root lands on E_t, and (x, y, z) is a cyclic shift of
            # (p, q, r) when r < p or r > q, of (q, p, r) when p < r < q
            middle = generic & ((1 << q) - (1 << (p + 1)))
            sc = add[p][q] * count
            for a, c, seg in ((p, q, generic ^ middle), (q, p, middle)):
                ac, row_a, row_c, cc = n[a * count + c], add[a], add[c], c * count
                for r in bits(seg):
                    t = ac * n[sc + r]
                    u = row_c[r]
                    if u != count:
                        t += n[cc + r] * n[u * count + a]
                    u = row_a[r]
                    if u != count:
                        t += n[r * count + a] * n[u * count + c]
                    if t:
                        bad.append(r)
        for r in bits(special):
            if defective(*sorted((p, q, r))):
                bad.append(r)
        for r in sorted(bad):
            x, y, z = sorted((p, q, r))
            yield f"Jacobi fails on ({roots[x]}, {roots[y]}, {roots[z]})"


def convention_violations(table: ChevalleyTable, *, limit: int | None = None) -> list[str]:
    """Audit the table; returns human-readable witnesses (empty = clean).

    Checks antisymmetry, the negation rule, |n| = p+1, the weighted cyclic
    identity on every zero-sum triple, and the Jacobi identity on every
    triple that can fail.  A table that passes the verdict
    (:func:`sign_convention_check`) has no witness; any other gets the
    witness tier, each check on each pair and candidate triple in index
    order.  With ``limit`` the audit stops after that many witnesses.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if sign_convention_check(table):
        return []
    return list(islice(_witnesses(table), limit))


def sign_convention_check(table: ChevalleyTable) -> bool:
    """True iff the pair, weighted cyclic and Jacobi audits pass.

    This is the verdict of :func:`convention_violations`, which checks each
    identity once per orbit (module docstring) and stops at the first fault.
    """
    rs = table.rs
    neg, add, sums = rs.neg, rs.add, rs.sums
    count, half = len(rs.roots), len(rs.positive_roots)
    n, b = table.n_dense.tolist(), rs.weights
    positive, every = rs.positive_mask, (1 << count) - 1
    for i in range(half):
        ni, row, ic = neg[i], add[i], i * count
        # one pair per orbit {(i, j), (j, i), (-i, -j), (-j, -i)}: j > i
        # when j is positive, -j > i when j is negative
        for j in bits(sums[i] & (positive >> (i + 1) << (i + 1) | every >> (ni + 1) << (ni + 1))):
            v, nj = n[ic + j], neg[j]
            if n[j * count + i] != -v or n[ni * count + nj] != -v or n[nj * count + ni] != v:
                return False
            if abs(v) != walk(add[ni], j) + 1:
                return False
            if j < half:  # the one pair of its zero-sum class with both roots positive
                k = neg[row[j]]
                lhs = v * b[k]
                if lhs != n[j * count + k] * b[i] or lhs != n[k * count + i] * b[j]:
                    return False
    for p, q, third in _jacobi_candidates(rs):
        # the pair checks hold, so the defect of (p, q, r) is that of the
        # sorted triple up to sign: the terms of E_{p+q+r}, in any order
        pq, row_p, row_q = n[p * count + q], add[p], add[q]
        sc, qc = add[p][q] * count, q * count
        for r in bits(third):
            t = pq * n[sc + r]
            u = row_q[r]
            if u != count:
                t += n[qc + r] * n[u * count + p]
            u = row_p[r]
            if u != count:
                t += n[r * count + p] * n[u * count + q]
            if t:
                return False
    return True
