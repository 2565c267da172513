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

The audit (:func:`convention_violations`) works on the dense root index of
:class:`RootSystem`: it copies ``n`` into a list keyed by ``i * N + j`` and
``b`` into integers when it is called, so every check is an integer lookup.
Its exhaustive Jacobi check visits only the triples that can fail, and this
pruning is exact.  Each term of

    [[E_x, E_y], E_z] + [[E_y, E_z], E_x] + [[E_z, E_x], E_y]

lies in the weight space g_{x+y+z}, which is zero unless x + y + z is a root
or 0, and each term vanishes unless its first two roots sum to a root or to
0.  So, whatever the constants in the table, a triple whose sum is not in
R ∪ {0}, or none of whose pairs sums into R ∪ {0}, has defect zero.  The
remaining triples are found from the ``sums`` masks, each once, from its
first pair (in index order) that sums into R ∪ {0}.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rootsystem import (
    InternalConsistencyError,
    Root,
    RootSystem,
    bits,
    height,
    rneg,
    rsub,
)


@dataclass
class ChevalleyTable:
    """Structure constants n and pairing weights b for one root system.

    ``audited`` is True when :func:`build_constants` ran the exhaustive audit.
    ``n_dense`` is ``n`` as a list keyed by ``i * N + j`` over the root index
    and ``b_dense`` is ``b`` as ints by root index, each built on first use (by
    the oracles) and kept: change ``n`` and ``b`` only before.
    """

    rs: RootSystem
    n: dict[tuple[Root, Root], int]
    b: dict[Root, Fraction]
    audited: bool = False

    @cached_property
    def n_dense(self) -> array:
        # |n| = p + 1 <= 4 for every constant of a valid table
        return array("b", _dense_n(self, self.rs))

    @cached_property
    def b_dense(self) -> list[int]:
        return [_int_b(self, r) for r in self.rs.roots]

    def n_of(self, a: Root, b: Root) -> int:
        """n(a, b); zero when a + b is not a root."""
        return self.n.get((a, b), 0)

    def b_of(self, d: Root) -> Fraction:
        return self.b[d]


def _dense_n(table: ChevalleyTable, rs: RootSystem) -> list[int]:
    """``table.n`` as it stands now, as a list keyed by ``i * N + j`` over rs."""
    index, count = rs.index, len(rs.roots)
    out = [0] * (count * count)
    for (x, y), v in table.n.items():
        out[index[x] * count + index[y]] = v
    return out


def _int_b(table: ChevalleyTable, d: Root) -> int:
    """b(d) as an int; every b(d) = 2/(d, d) is 1, 2 or 3."""
    b = table.b_of(d)
    if b.denominator != 1:
        raise InternalConsistencyError(f"non-integral pairing weight b = {b}")
    return b.numerator


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
    pos = rs.positive_roots
    pos_set = rs.positive_set
    order = {r: i for i, r in enumerate(pos)}
    b = {r: Fraction(2) / rs.lengths[r] for r in rs.roots}

    special: dict[tuple[Root, Root], int] = {}

    def n_pos(x: Root, y: Root) -> int:
        return special[(x, y)] if order[x] < order[y] else -special[(y, x)]

    for gamma in pos:
        if height(gamma) < 2:
            continue
        pairs = []
        for a in pos:
            rest = rsub(gamma, a)
            if rest in pos_set and order[a] < order[rest]:
                pairs.append((a, rest))
        if not pairs:
            raise InternalConsistencyError(f"no decomposition for {gamma}")
        pairs.sort(key=lambda pr: order[pr[0]])
        eps, eta = pairs[0]  # the extraspecial pair: minimal first summand
        special[(eps, eta)] = _string_down(rs, eps, eta) + 1
        for al, be in pairs[1:]:
            # Jacobi on (E_{-al}, E_eps, E_eta) with every mixed-sign constant
            # eliminated through the weighted cyclic identity leaves one
            # unknown, n(al, be).
            acc = Fraction(0)
            nu = rsub(al, eps)
            if nu in pos_set:
                acc += n_pos(eps, nu) * n_pos(be, nu) * b[al] * b[eta] / b[nu]
            mu = rsub(eta, al)
            if mu in pos_set:
                acc += n_pos(al, mu) * n_pos(mu, eps) * b[eta] * b[be] / b[mu]
            x = -acc / (special[(eps, eta)] * b[gamma])
            expected = _string_down(rs, al, be) + 1
            if x.denominator != 1 or abs(x) != expected:
                raise InternalConsistencyError(
                    f"constant for ({al}, {be}) came out {x}, |.| != {expected}"
                )
            special[(al, be)] = int(x)

    full: dict[tuple[Root, Root], int] = {}
    mixed: list[tuple[Root, Root, Root]] = []
    for (x, y), s in rs.sum_index.items():
        px, py = rs.is_positive(x), rs.is_positive(y)
        if px and py:
            full[(x, y)] = n_pos(x, y)
        elif not px and not py:
            full[(x, y)] = -n_pos(rneg(x), rneg(y))
        else:
            mixed.append((x, y, s))
    for x, y, s in mixed:
        # close the zero-sum triple (x, y, z) and step to the same-sign pair
        z = rneg(s)
        if rs.is_positive(y) == rs.is_positive(z):
            val = full[(y, z)] * b[x] / b[z]
        else:
            val = full[(z, x)] * b[y] / b[z]
        if val.denominator != 1:
            raise InternalConsistencyError(f"non-integral constant for ({x}, {y})")
        full[(x, y)] = int(val)

    table = ChevalleyTable(rs, full, b)
    if verify is None:
        verify = len(rs.roots) <= 48
    if verify:
        if not sign_convention_check(table, rs):
            raise InternalConsistencyError(f"{rs.name}: constant table fails the audit")
        table.audited = True
    return table


def _jacobi_triples(rs: RootSystem):
    """Sorted index triples (x, y, z) whose Jacobi defect can be nonzero, each once.

    A pair (p, q) qualifies when roots p + q lies in R ∪ {0}.  For each
    qualifying pair p < q the third root r must put p + q + r in R ∪ {0}
    (any r when q = -p), and the triple is kept only when (p, q) is its first
    qualifying pair: no r < q pairs with p, and no r < p pairs with q.
    """
    count, neg, add = len(rs.roots), rs.neg, rs.add
    pairs = [rs.sums[i] | 1 << neg[i] for i in range(count)]
    every = (1 << count) - 1
    for p in range(count):
        later = pairs[p] >> (p + 1) << (p + 1)
        below_p = (1 << p) - 1
        for q in bits(later):
            third = every if q == neg[p] else pairs[add[p][q]]
            third &= ~(1 << p | 1 << q | pairs[p] & ((1 << q) - 1) | pairs[q] & below_p)
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
    rs = rs or table.rs
    roots, index, neg, add = rs.roots, rs.index, rs.neg, rs.add
    count = len(roots)
    # integer copies taken now, so a table changed after construction is audited
    n = _dense_n(table, rs)
    b = [_int_b(table, r) for r in roots]
    out: list[str] = []

    def report(msg: str) -> bool:
        out.append(msg)
        return limit is not None and len(out) >= limit

    for (x, y), v in table.n.items():
        i, j = index[x], index[y]
        if v != -n[j * count + i]:
            if report(f"antisymmetry fails at ({x}, {y})"):
                return out
        if v != -n[neg[i] * count + neg[j]]:
            if report(f"negation rule fails at ({x}, {y})"):
                return out
        p = _string_down(rs, x, y)
        if abs(v) != p + 1:
            if report(f"|n| != p+1 at ({x}, {y}): {v} vs {p + 1}"):
                return out
    for i in range(count):
        row = add[i]
        for j in bits(rs.sums[i]):
            k = neg[row[j]]
            lhs = n[i * count + j] * b[k]
            if lhs != n[j * count + k] * b[i] or lhs != n[k * count + i] * b[j]:
                if report(
                    f"weighted cyclic identity fails on ({roots[i]}, {roots[j]}, {roots[k]})"
                ):
                    return out

    coroots = []  # over the simple coroots, where every coroot has integer coordinates
    for r in roots:
        co = rs.coroot(r)
        if any(c.denominator != 1 for c in co):
            raise InternalConsistencyError(f"non-integral coroot of {r}")
        coroots.append([c.numerator for c in co])

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

    if jacobi_samples is None:
        triples = _jacobi_triples(rs)
    else:
        rng = random.Random(seed)
        triples = (rng.sample(range(count), 3) for _ in range(jacobi_samples))
    for x, y, z in triples:
        if defective(x, y, z):
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
