"""Integer structure constants of a Chevalley basis.

For every pair of roots with a + b again a root the table stores the integer
n(a, b) with [E_a, E_b] = n(a, b) E_{a+b}, together with the pairing weights
b(d) = 2/(d, d).  In this basis the Killing pairing of E_d with E_{-d} is
proportional to b(d), and for any zero-sum triple a + b + c = 0 the constants
satisfy the weighted cyclic identity

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
weight b(d) is the int 1, 2 or 3, each constant of the Jacobi step is one
exact integer quotient over a common denominator with its remainder checked,
and the mixed-sign constants follow from the same-sign ones through the
weighted cyclic identity.  The table stores n as ``n_dense``, an int8 array
with n(roots[i], roots[j]) at ``i * C + j`` (C = 2N, zero where the sum is no
root), and b as ``b_dense``, ints by root index.

The audit (:func:`convention_violations`) reads those stored arrays, so a
table changed after construction is audited as it stands.  It walks the sum
pairs from the ``sums`` masks, a zeroed constant included.  Its exhaustive
Jacobi check visits only the triples that can fail, and this pruning is
exact.  Each term of

    [[E_x, E_y], E_z] + [[E_y, E_z], E_x] + [[E_z, E_x], E_y]

lies in the weight space g_{x+y+z}, which is zero unless x + y + z is a root
or 0, and each term vanishes unless its first two roots sum to a root or to
0.  So, whatever the constants in the table, a triple whose sum is not in
R ∪ {0}, or none of whose pairs sums into R ∪ {0}, has defect zero.  The
remaining triples are found from the ``sums`` masks, each once, from its
first pair (in index order) that sums into R ∪ {0}.

When the pair and cyclic checks report nothing, the exhaustive check walks
only the canonical triples, those with at least two positive roots; every
other candidate is the negation of one of them, and this too is exact.
The Jacobi terms read n only at sum pairs, where the negation rule
n(-a, -b) = -n(a, b) has just been checked.  Negating a triple negates
both factors of each root term n(a, c) n(a + c, d), so the term keeps its
value; a Cartan term m H_{s^v} becomes (-m) H_{-s^v}, the same element; the
a-string lengths that give <d, a^v> are those of the (-a)-string through
-d; and the sorted negated triple is a cyclic shift of (-x, -y, -z), whose
defect is the same sum.  So the defect of (-x, -y, -z) is the image of the
defect of (x, y, z) under the negation, and one is zero exactly when the
other is (Carter, *Simple Groups of Lie Type*, ch. 4).  If an earlier check
reported a fault, or the half walk finds a defect, the walk over all the
candidates runs instead, so the witnesses and their order are those of the
full enumeration.  In the walk, a triple with no opposite pair and x + y + z
= t a root has a defect of one coefficient, that of E_t, summed inline from
three products; the triples with an opposite pair or a zero sum go through
the one term evaluation that the sampled audit uses too.  Coroots, needed
for the Cartan part of a zero-sum defect, are computed in integers.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import cached_property

from .rootsystem import InternalConsistencyError, Root, RootSystem, SplittingTable, bits


@dataclass
class ChevalleyTable:
    """Structure constants n and pairing weights b for one root system.

    ``n_dense`` holds n(roots[i], roots[j]) at ``i * C + j`` over the root
    index (C = |R|) as int8, zero where roots[i] + roots[j] is no root;
    ``b_dense`` holds b(roots[i]) as ints.  ``audited`` is True when
    :func:`build_constants` ran the exhaustive audit.  The dict views ``n``
    and ``b`` are built from the arrays on first use, for the tests; writing
    to a view changes nothing the program reads.  ``cyclic_table``, the
    vectors of the structure-constant oracle, is built from the arrays on
    first use as well, so a changed table is a changed copy, not a table the
    oracle has read.
    """

    rs: RootSystem
    n_dense: array
    b_dense: list[int]
    audited: bool = False

    @cached_property
    def n(self) -> dict[tuple[Root, Root], int]:
        """n(a, b) for every pair with a + b a root (zeros included), in index order."""
        roots, sums, n = self.rs.roots, self.rs.sums, self.n_dense
        count = len(roots)
        return {
            (roots[i], roots[j]): n[i * count + j]
            for i in range(count)
            for j in bits(sums[i])
        }

    @cached_property
    def b(self) -> dict[Root, int]:
        return dict(zip(self.rs.roots, self.b_dense))

    @cached_property
    def cyclic_table(self) -> SplittingTable:
        """The splitting table of the cyclic sums of :mod:`flagsym.oracle`:
        (p, q, r) = eps_d b(d) times n(beta, gamma), n(a, gamma), n(beta, a)
        for d = a, beta, gamma."""
        n, count, half = self.n_dense, len(self.rs.roots), len(self.rs.positive_roots)
        r = [b if i < half else -b for i, b in enumerate(self.b_dense)]

        def coefficients(a: int, beta: int, gamma: int):
            row_b = beta * count
            return (
                n[row_b + gamma] * r[a],
                n[a * count + gamma] * r[beta],
                n[row_b + a] * r[gamma],
            )

        return self.rs.splitting_table(coefficients)

    def n_of(self, a: Root, b: Root) -> int:
        """n(a, b); zero when a + b is not a root."""
        index = self.rs.index
        return self.n_dense[index[a] * len(self.rs.roots) + index[b]]

    def b_of(self, d: Root) -> int:
        return self.b_dense[self.rs.index[d]]


def _pairing_weights(rs: RootSystem) -> list[int]:
    """b(d) = 2/(d, d) by root index; every weight is 1, 2 or 3."""
    out = []
    for r in rs.positive_roots:
        length = rs.lengths[r]
        w, rem = divmod(2 * length.denominator, length.numerator)
        if rem:
            raise InternalConsistencyError(f"non-integral pairing weight b = 2/({length})")
        out.append(w)
    return out + out


def _walk(row, k: int) -> int:
    """Steps k -> row[k] that stay on roots (``len(row)`` marks no root)."""
    steps, stop = 0, len(row)
    k = row[k]
    while k != stop:
        steps += 1
        k = row[k]
    return steps


def _string_down(rs: RootSystem, a: Root, base: Root) -> int:
    """p = max k with base - k*a a root (root strings are unbroken)."""
    return _walk(rs.add[rs.neg[rs.index[a]]], rs.index[base])


def build_constants(rs: RootSystem, verify: bool | None = None) -> ChevalleyTable:
    """Build the full constant table for ``rs``.

    ``verify`` controls the exhaustive Jacobi/cyclic audit after construction:
    None runs it for systems with at most 48 roots (rank <= 4), True forces
    it, False skips it.
    """
    roots, neg, add, sums = rs.roots, rs.neg, rs.add, rs.sums
    count, half = len(roots), len(rs.positive_roots)
    negative = rs.positive_mask << half
    b = _pairing_weights(rs)
    n = array("b", bytes(count * count))

    def put(x: int, y: int, v: int) -> None:
        """n(x, y) = v for positive x, y, with antisymmetry and the negation rule."""
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
        top = _walk(add[neg[eps]], eta) + 1
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
            expected = _walk(add[neg[al]], be) + 1
            if rem or abs(x) != expected:
                raise InternalConsistencyError(
                    f"constant for ({roots[al]}, {roots[be]}) came out "
                    f"{f'{num}/{den}' if rem else x}, |.| != {expected}"
                )
            put(al, be, x)

    positive = rs.positive_mask
    for x in range(count):
        row = add[x]
        for y in bits(sums[x] & (negative if x < half else positive)):
            # close the zero-sum triple (x, y, z) and step to the same-sign pair
            z = neg[row[y]]
            if (y < half) == (z < half):
                v, rem = divmod(n[y * count + z] * b[x], b[z])
            else:
                v, rem = divmod(n[z * count + x] * b[y], b[z])
            if rem:
                raise InternalConsistencyError(
                    f"non-integral constant for ({roots[x]}, {roots[y]})"
                )
            n[x * count + y] = v

    table = ChevalleyTable(rs, n, b)
    if verify is None:
        verify = count <= 48
    if verify:
        if not sign_convention_check(table, rs):
            raise InternalConsistencyError(f"{rs.name}: constant table fails the audit")
        table.audited = True
    return table


def _coroots(rs: RootSystem) -> list[list[int]]:
    """Coordinates of every coroot 2r/(r, r) over the simple coroots, as ints.

    Coefficient i is r_i (a_i, a_i) / (r, r), one exact integer quotient of
    scaled products with its remainder checked.
    """
    diagonal = [rs._gram[i][i] for i in range(rs.rank)]
    out = []
    for r in rs.roots:
        square = rs._scaled_product(r, r)
        co = []
        for c, d in zip(r, diagonal):
            v, rem = divmod(c * d, square)
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


def _jacobi_triples(rs: RootSystem, canonical: bool = False):
    """Sorted index triples (x, y, z) whose Jacobi defect can be nonzero, each once."""
    for p, q, third in _jacobi_pairs(rs, canonical):
        for r in bits(third):
            yield (r, p, q) if r < p else (p, r, q) if r < q else (p, q, r)


def convention_violations(
    table: ChevalleyTable,
    rs: RootSystem | None = None,
    *,
    jacobi_samples: int | None = None,
    seed: int = 0,
    limit: int | None = None,
) -> list[str]:
    """Audit the table; returns human-readable witnesses (empty = clean).

    Checks antisymmetry, the negation rule, |n| = p+1, the weighted cyclic
    identity on every zero-sum triple, and the Jacobi identity (exhaustive
    when ``jacobi_samples`` is None, otherwise that many seeded triples).
    """
    if jacobi_samples is not None and jacobi_samples < 1:
        raise ValueError(f"jacobi_samples must be at least 1, got {jacobi_samples}")
    rs = rs or table.rs
    roots, neg, add, sums = rs.roots, rs.neg, rs.add, rs.sums
    count = len(roots)
    # the stored constants as they stand now, as a list: CPython indexes a
    # list faster than an array, and the Jacobi loop reads one entry per term
    n, b = table.n_dense.tolist(), table.b_dense
    out: list[str] = []

    def report(msg: str) -> bool:
        out.append(msg)
        return limit is not None and len(out) >= limit

    for i in range(count):
        for j in bits(sums[i]):
            v = n[i * count + j]
            if v != -n[j * count + i]:
                if report(f"antisymmetry fails at ({roots[i]}, {roots[j]})"):
                    return out
            if v != -n[neg[i] * count + neg[j]]:
                if report(f"negation rule fails at ({roots[i]}, {roots[j]})"):
                    return out
            p = _walk(add[neg[i]], j)
            if abs(v) != p + 1:
                if report(f"|n| != p+1 at ({roots[i]}, {roots[j]}): {v} vs {p + 1}"):
                    return out
    for i in range(count):
        row = add[i]
        for j in bits(sums[i]):
            k = neg[row[j]]
            lhs = n[i * count + j] * b[k]
            if lhs != n[j * count + k] * b[i] or lhs != n[k * count + i] * b[j]:
                if report(
                    f"weighted cyclic identity fails on ({roots[i]}, {roots[j]}, {roots[k]})"
                ):
                    return out

    coroots = _coroots(rs)  # over the simple coroots

    def defective(x: int, y: int, z: int) -> bool:
        """Whether [[E_x,E_y],E_z] + [[E_y,E_z],E_x] + [[E_z,E_x],E_y] != 0."""
        at_root = 0  # the coefficient of E_{x+y+z}
        at_cartan = []  # (n, s) for each term n [E_s, E_{-s}] = n H_{s^v}
        for a, c, d in ((x, y, z), (y, z, x), (z, x, y)):
            if c == neg[a]:
                # [H_{a^v}, E_d] = <d, a^v> E_d, and <d, a^v> = p - q on the
                # a-string d - p a, ..., d + q a
                at_root += _walk(add[c], d) - _walk(add[a], d)
                continue
            s = add[a][c]
            if s == count:
                continue
            if s == neg[d]:
                at_cartan.append((n[a * count + c], s))
            elif add[s][d] != count:
                at_root += n[a * count + c] * n[s * count + d]
        if at_cartan:  # x + y + z = 0: the defect lies in the Cartan subalgebra
            return any(
                sum(m * coroots[s][k] for m, s in at_cartan) for k in range(rs.rank)
            )
        return at_root != 0

    def jacobi_defects(canonical: bool):
        """The defective candidate triples, sorted, in the order of the walk."""
        for p, q, third in _jacobi_pairs(rs, canonical):
            bad = []
            if q == neg[p]:
                special = third
            else:
                s = add[p][q]
                # r = -(p + q), -p or -q: a zero sum or an opposite pair, for
                # ``defective``; for every other r, x + y + z = t is a root,
                # each term whose first two roots sum to a root lands on E_t,
                # and (x, y, z) is a cyclic shift of (p, q, r) when r < p or
                # r > q, of (q, p, r) when p < r < q
                special = third & (1 << neg[s] | 1 << neg[p] | 1 << neg[q])
                generic = third ^ special
                middle = generic & ((1 << q) - (1 << (p + 1)))
                sc = s * count
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
                yield tuple(sorted((p, q, r)))

    if jacobi_samples is not None:
        rng = random.Random(seed)
        # fewer than three roots form no triple, as in the exhaustive walk
        triples = (
            (rng.sample(range(count), 3) for _ in range(jacobi_samples)) if count >= 3 else ()
        )
        bad_triples = (t for t in triples if defective(*t))
    elif out or next(jacobi_defects(canonical=True), None) is not None:
        bad_triples = jacobi_defects(canonical=False)
    else:
        bad_triples = ()
    for x, y, z in bad_triples:
        if report(f"Jacobi fails on ({roots[x]}, {roots[y]}, {roots[z]})"):
            return out
    return out


def sign_convention_check(
    table: ChevalleyTable,
    rs: RootSystem | None = None,
    *,
    jacobi_samples: int | None = None,
    seed: int = 0,
) -> bool:
    """True iff the Jacobi and weighted cyclic audits pass."""
    return not convention_violations(
        table, rs, jacobi_samples=jacobi_samples, seed=seed, limit=1
    )
