"""Symmetry roots, index of symmetry and the leaf Hermitian symmetric pair.

For a flag manifold with its canonical invariant complex structure, a
positive tangent root a is a symmetry root exactly when (a + R_m+) n R is
empty; the span of those root spaces is the value of the distribution of
symmetry at the base point, and coincides with the centre of the nilradical
m^{1,0}.  From the symmetry roots the module assembles

  * the index (dim of the symmetry distribution) and coindex,
  * the leaf pair (u, k) with k = [p, p], identified in the table of
    irreducible Hermitian symmetric spaces,
  * the maximal-rank subalgebra h' = h + p whose coset G/H' the leaves fiber,
  * the extended-diagram shortcut: delete the painted nodes from the extended
    Dynkin diagram and keep the component of the affine node; the result must
    match the Dynkin diagram of u (Alekseevsky and Perelomov, 1986).

Every set test runs on the dense root index of :mod:`flagsym.rootsystem`:
sets of roots are bitmasks, ``sums[i]`` is the mask of the roots whose sum
with root i is a root and ``add[i][j]`` is the index of that sum.  The
symmetry scan is one AND per root of R_m+.  The other scans are C-level set
operations: the nilradical scan, the closures of the leaf and of h', the
k-highest test and the simple roots of a subsystem each test one row
``add[i]`` at a time with ``set.isdisjoint`` or ``set.issuperset``.  The
nilradical scan maps the whole row over R_m+; the others filter the row's
sum partners ``partners[i]`` (the set bits of ``sums[i]``) by a set, which
costs the length of the row instead of the width of the mask, and only a
row that fails a closure is walked again for its first witness.  [p, p]
and [k', p] = 0 are short loops over set bits.
The scans, :func:`h_prime` and the leaf return masks too; roots become
coordinate tuples only when ``SymmetryReport.r_p_plus`` is read.

The masks of each painting are built once, in a :class:`Structure` kept on
its FlagData, by :func:`_structure`, whichever entry point comes first:

  * the verdict that the root index is sound (below), once per root system;
  * the symmetry roots, by two independent scans that are cross-checked: one
    tests membership of a + b in R through ``sums``, the other membership in
    R_m+ through ``add``;
  * the test that the highest root is a symmetry root (the centre is abelian
    by construction: see :func:`_structure`);
  * the masks of p = R_p+ and its negatives and of [p, p], with the test
    that [p, p] lies in the isotropy roots;
  * the mask of h' = h + p, proved closed under root addition on the rows
    of p (see below).

:func:`build_report`, :func:`leaf_pair`, :func:`h_prime` and
:func:`k_prime_check` read that Structure.

What depends on the painting only through a smaller key is decided once per
key and root system, in a memo on the ``RootSystem``:

  * [p, p] and the leaf (the closure of u, the classification of u and k,
    the two ranks, the k-highest test and the name) depend only on the mask
    of R_p+.  :func:`leaf_pair` keeps the :class:`LeafDescriptor`, a named
    tuple, in ``RootSystem.leaf_memo`` under that mask (the rank-8 sweep has
    305 masks among 2455 paintings), and :func:`_structure` reads [p, p]
    back from its ``k_mask``; it computes [p, p] only for a mask that has no
    entry yet.  A descriptor holds masks and labels only, nothing that refers
    back to the root system.
  * The diagram cross-check depends only on the nodes of the affine node's
    component once the painted nodes are deleted from the extended diagram.
    :func:`diagrams_agree` finds that node mask by
    :meth:`~flagsym.rootsystem.Diagram.component` and classifies each
    component once, in ``RootSystem.component_memo``;
    :func:`leaf_via_diagram` restricts the extended diagram to the same mask.

Two closures walk some rows of their set only, the closure of u = k + p the
rows of k and that of h' = h + p the rows of p.  Each decides as a walk over
every row of its set would on a sound index: ``add`` and ``sums`` symmetric
on the sum partners, and the zero set Z_n of every node n (the roots with
coefficient 0 at n) closed under ``add``.  There a pair with a member in the
walked rows is found in that member's row, and every other pair sums inside
the set:

  * two roots of p of one sign, a + b or -a - b with a, b in R_p+, never sum
    to a root, because the centre is abelian by construction: a symmetry
    root a has ``sums[a]`` & R_m+ empty, and R_p+ lies in R_m+;
  * a mixed pair of p that sums to a root sums into [p, p] = k, by the
    definition of :func:`_r_k`, and k lies in h, as the escape test checks;
  * two roots of h sum into h, because h is the intersection of the Z_n over
    the painted nodes.

:func:`_sound` decides soundness once per root system, in
``RootSystem.sound``, and :func:`_structure` raises on an unsound index
before it reads the index for a painting: an unsound index fails closed, with
no record and no memo entry.  The verdict holds for the life of the root
system, whose ``add`` rows are read-only.

u and k are classified from their simple roots by index:
:meth:`RootSystem.diagram`, the builder of the extended diagram too, reads
each Cartan integer off a root string once and builds one diagram on all of
them, which :func:`~flagsym.rootsystem.diagram_components` splits into the
components that :func:`~flagsym.rootsystem.classify_connected` labels.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .flag import FlagData, PaintedDiagram, painting_spec
from .rootsystem import (
    Diagram,
    InternalConsistencyError,
    RootSystem,
    bits,
    classify_connected,
    diagram_components,
    root_str,
)


class ClassificationError(InternalConsistencyError):
    """The leaf pair failed to match an irreducible Hermitian symmetric pair."""


class LeafDescriptor(NamedTuple):
    """The leaf pair (u, k) of a painting, by :func:`leaf_pair`."""

    u_type: str
    k_semisimple_type: tuple[str, ...]
    k_center_dim: int
    u_mask: int  # the roots of u, over the root index of the flag's root system
    k_mask: int  # the roots of k = [p, p]
    toral_rank: int
    name: str


class Structure(NamedTuple):
    """The symmetry roots of one painting and the masks built on them."""

    plus: int  # R_p+, the symmetry roots
    rp: int  # p: R_p+ and its negatives
    rk: int  # k = [p, p], inside the isotropy roots
    hp: int  # h' = h + p, proved closed under root addition


class SymmetryReport(NamedTuple):
    """The one record of a painting, from :func:`build_report`: its values and
    the shared root system, never its FlagData; the sweep adds the consistency
    checks, and ``to_json`` is its ``enumerate`` entry."""

    rs: RootSystem
    painted: tuple[int, ...]  # ascending
    dim_m: int
    symmetric: bool
    plus: int  # the mask of R_p+
    index: int
    coindex: int
    leaf: LeafDescriptor
    exception: str | None = None
    checks: dict | None = None

    @property
    def spec(self) -> str:
        return painting_spec(self.rs.name, self.painted)

    @property
    def family(self) -> str:
        return self.rs.family

    @property
    def rank(self) -> int:
        return self.rs.rank

    @property
    def dim_g(self) -> int:
        return len(self.rs.roots) + self.rs.rank

    @property
    def r_p_plus(self) -> frozenset:
        """The symmetry roots as coordinate tuples, built when read."""
        return self.rs.roots_of(self.plus)

    def to_json(self) -> dict:
        leaf = self.leaf
        return {
            "family": self.family,
            "rank": self.rank,
            "painted": list(self.painted),
            "dim_g": self.dim_g,
            "dim_M": self.dim_m,
            "symmetric": self.symmetric,
            "exception": self.exception,
            "index": self.index,
            "coindex": self.coindex,
            "leaf": {
                "u": leaf.u_type,
                "k_factors": list(leaf.k_semisimple_type),
                "k_center_dim": leaf.k_center_dim,
                "name": leaf.name,
            },
            "checks": dict(self.checks or {}),
        }


def symmetry_roots(flag: FlagData) -> int:
    """Mask of {a in R_m+ : (a + R_m+) n R = empty} -- one AND with the sum mask of a."""
    sums = flag.rs.sums
    plus = flag.m_plus_mask
    return sum(1 << i for i in bits(plus) if not sums[i] & plus)


def center_of_nilradical(flag: FlagData) -> int:
    """Mask of the root support of the centre of m^{1,0}: a scan of the nilradical.

    Independent of :func:`symmetry_roots`: it looks each sum a + b up in the
    ``add`` table and tests membership in R_m+ (closed under root sums of its
    own members) instead of in R; the two must agree.
    """
    add = flag.rs.add
    members = list(bits(flag.m_plus_mask))
    inside = set(members)
    return sum(1 << i for i in members if inside.isdisjoint(map(add[i].__getitem__, members)))


def _structure(flag: FlagData) -> Structure:
    """The flag's :class:`Structure`, built and tested once per flag in the
    order of the module doc; a failure raises and leaves the slot empty.

    The centre is abelian with no test: a symmetry root i has ``sums[i]`` &
    R_m+ empty, and the symmetry roots lie in R_m+, so no two sum to a root.
    """
    if flag._structure is None:
        rs = flag.rs
        if not _sound(rs):
            raise InternalConsistencyError(f"{rs.name}: root index not sound")
        plus = symmetry_roots(flag)
        if plus != center_of_nilradical(flag):
            raise InternalConsistencyError(
                f"{flag.pd.spec}: root-list and nilradical scans disagree"
            )
        if not plus >> (len(rs.positive_roots) - 1) & 1:  # theta, the last positive root
            raise InternalConsistencyError(f"{flag.pd.spec}: highest root not a symmetry root")
        rp = plus | rs.neg_mask(plus)
        leaf = rs.leaf_memo.get(plus)
        rk = _r_k(rs, plus) if leaf is None else leaf.k_mask
        if rk & ~flag.h_mask:
            raise InternalConsistencyError(f"{flag.pd.spec}: [p,p] escapes the isotropy roots")
        hp = flag.h_mask | rp
        gap = _closure_gap(rs, hp, rp)  # the rows of p decide, see the module doc
        if gap is not None:
            a, b = (root_str(rs.roots[i]) for i in gap)
            raise InternalConsistencyError(f"{flag.pd.spec}: h' not closed ({a} + {b})")
        flag._structure = Structure(plus, rp, rk, hp)
    return flag._structure


def _rank_q(vectors) -> int:
    """Rank over Q of integer vectors, by fraction-free elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                row = [lead[col] * x - f * y for x, y in zip(rows[i], lead)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def _r_k(rs: RootSystem, plus: int) -> int:
    """Mask of the root part of k = [p, p]: differences of symmetry roots."""
    add, sums = rs.add, rs.sums
    minus = rs.neg_mask(plus)
    out = 0
    for i in bits(plus):
        row = add[i]
        for j in bits(sums[i] & minus):
            out |= 1 << row[j]
    return out


def _closure_gap(rs: RootSystem, mask: int, rows: int | None = None) -> tuple[int, int] | None:
    """The first pair (i, j), i in ``rows`` (by default every row of
    ``mask``) and j in ``mask``, whose sum is a root outside ``mask``, else None.

    One set test per row; only a row that fails is walked for its first j.
    """
    add, partners = rs.add, rs.partners
    inside = set(bits(mask))
    for i in bits(mask if rows is None else rows):
        row = add[i]
        within = filter(inside.__contains__, partners[i])
        if not inside.issuperset(map(row.__getitem__, within)):
            return i, next(j for j in partners[i] if j in inside and row[j] not in inside)
    return None


def _sound(rs: RootSystem) -> bool:
    """Whether the index is sound for the closures of some rows (module doc):
    ``add`` and ``sums`` symmetric on the sum partners, and the zero set Z_n
    of every node closed under ``add``.  Decided on the first call, in
    ``rs.sound``."""
    if rs.sound is None:
        full = (1 << len(rs.roots)) - 1
        rs.sound = _symmetric(rs) and all(
            _closure_gap(rs, full & ~support) is None for support in rs.support
        )
    return rs.sound


def _symmetric(rs: RootSystem) -> bool:
    """j a sum partner of i exactly when i is one of j, with add[j][i] = add[i][j]."""
    add, sums = rs.add, rs.sums
    for i, partners in enumerate(rs.partners):
        row = add[i]
        for j in partners:
            if add[j][i] != row[j] or not sums[j] >> i & 1:
                return False
    return True


def _stuck(rs: RootSystem, source: int, steps: int, target: int) -> list[int]:
    """The i of ``source`` with roots[i] + b outside ``target`` for every b in ``steps``."""
    add, partners = rs.add, rs.partners
    inside, in_steps = set(bits(target)), set(bits(steps)).__contains__
    return [
        i
        for i in bits(source)
        if inside.isdisjoint(map(add[i].__getitem__, filter(in_steps, partners[i])))
    ]


def _indecomposables(rs: RootSystem, pos: int) -> list[int]:
    """Simple roots of a positive system, by index: no s - x inside it, x in it."""
    return _stuck(rs, pos, rs.neg_mask(pos), pos)


def _classify_sub(rs: RootSystem, pos: int) -> list[tuple[str, int]]:
    """Canonical (family, rank) labels of the components of a closed subsystem.

    One diagram is built by ``rs.diagram`` on all its simple roots, each node
    labelled by its place among them, and split by ``diagram_components``.
    """
    diagram = rs.diagram(list(enumerate(_indecomposables(rs, pos))))
    return sorted(map(classify_connected, diagram_components(diagram)))


def _hermitian_name(u: tuple[str, int], ks: list[tuple[str, int]]) -> str:
    """Name from the classification table of irreducible Hermitian pairs."""
    fam, n = u
    if fam == "A":
        ranks = sorted(r for f, r in ks)
        if all(f == "A" for f, _ in ks):
            if not ks and n == 1:
                return "CP^1"
            if len(ks) == 1 and ranks[0] == n - 1:
                return f"CP^{n}"
            if len(ks) == 2 and sum(ranks) == n - 1:
                return f"Gr_{ranks[0] + 1}(C^{n + 1})"
    elif fam == "B" and len(ks) == 1:
        if ks[0] == ("A", 1) and n == 2:
            return "Q_3"
        if ks[0] == ("B", n - 1):
            return f"Q_{2 * n - 1}"
    elif fam == "C" and ks == [("A", n - 1)]:
        return f"Sp({n})/U({n})"
    elif fam == "D":
        if n == 4 and ks == [("A", 3)]:
            return "Q_6"  # triality: SO(8)/U(4) and the 6-quadric coincide
        if ks == [("D", n - 1)]:
            return f"Q_{2 * n - 2}"
        if ks == [("A", n - 1)]:
            return f"SO({2 * n})/U({n})"
    elif fam == "E" and n == 6 and ks == [("D", 5)]:
        return "E III"
    elif fam == "E" and n == 7 and ks == [("E", 6)]:
        return "E VII"
    raise ClassificationError(
        f"(u, k) = ({fam}{n}, {ks}) is not an irreducible Hermitian symmetric pair"
    )


def _leaf_descriptor(flag: FlagData, record: Structure) -> LeafDescriptor:
    """The leaf of :func:`leaf_pair`, from the masks of R_p+, p and [p, p]
    alone; a failure raises with the painting's spec."""
    rs, spec = flag.rs, flag.pd.spec
    plus, rk = record.plus, record.rk
    ru = rk | record.rp
    if _closure_gap(rs, ru, rk) is not None:  # the rows of k decide it, see the module doc
        raise InternalConsistencyError(f"{spec}: leaf root set not closed")

    toral_rank = _rank_q(rs.roots[i] for i in bits(plus))
    u_labels = _classify_sub(rs, ru & rs.positive_mask)
    if len(u_labels) != 1:
        raise InternalConsistencyError(f"{spec}: leaf algebra not simple, components {u_labels}")
    u_type = u_labels[0]
    if u_type[1] != toral_rank:
        raise InternalConsistencyError(
            f"{spec}: leaf rank {u_type[1]} != coroot span {toral_rank}"
        )

    k_pos = rk & rs.positive_mask
    k_labels = _classify_sub(rs, k_pos)
    k_center = toral_rank - _rank_q(rs.roots[i] for i in bits(k_pos))
    if k_center != 1:
        raise InternalConsistencyError(f"{spec}: isotropy centre of the leaf has dim {k_center}")

    # p is k-irreducible: the unique highest vector must be the highest root
    highest = [rs.roots[i] for i in _stuck(rs, plus, k_pos, plus)]
    if highest != [rs.highest]:
        raise InternalConsistencyError(
            f"{spec}: k-highest vectors {[root_str(a) for a in highest]}"
        )

    try:
        name = _hermitian_name(u_type, k_labels)
    except ClassificationError as exc:
        raise ClassificationError(f"{spec}: {exc}") from None
    return LeafDescriptor(
        f"{u_type[0]}{u_type[1]}",
        tuple(f"{f}{r}" for f, r in k_labels),
        k_center,
        ru,
        rk,
        toral_rank,
        name,
    )


def leaf_pair(flag: FlagData) -> LeafDescriptor:
    """The leaf pair (u, k) with k = [p, p], verified and named.

    Raises ClassificationError / InternalConsistencyError when any of the
    structural facts fail (u simple of rank equal to k, one-dimensional centre
    of k, the highest root the unique k-highest vector of p): these are
    theorems, so a failure means a bug, not a valid outcome.

    The leaf depends on the painting only through the mask of R_p+, so its
    descriptor is kept in ``rs.leaf_memo`` under that mask and computed once
    per mask; paintings with one mask share one descriptor.  A failure is
    raised, never kept, so each painting that hits it names its own spec.
    """
    record = _structure(flag)
    memo = flag.rs.leaf_memo
    leaf = memo.get(record.plus)
    if leaf is None:
        leaf = memo[record.plus] = _leaf_descriptor(flag, record)
    return leaf


def _affine_component(pd: PaintedDiagram) -> int:
    """Node mask (bit v for node v) of the affine node's component of the
    extended diagram minus the painted nodes."""
    return pd.rs.extended_diagram().component(0, ~sum(map((1).__lshift__, pd.painted)))


def leaf_via_diagram(pd: PaintedDiagram) -> Diagram:
    """Extended diagram minus the painted nodes; component of the affine node."""
    return pd.rs.extended_diagram().restrict(_affine_component(pd))


def diagrams_agree(pd: PaintedDiagram, leaf: LeafDescriptor) -> bool:
    """Cross-check: extended-diagram component vs the computed leaf type.

    Each component is classified once per root system, in
    ``rs.component_memo`` under its node mask.
    """
    rs = pd.rs
    comp = _affine_component(pd)
    label = rs.component_memo.get(comp)
    if label is None:
        fam, rank = classify_connected(rs.extended_diagram().restrict(comp))
        label = rs.component_memo[comp] = f"{fam}{rank}"
    return label == leaf.u_type


def h_prime(flag: FlagData) -> int:
    """Mask of the roots of h' = h + p, proved closed under root addition."""
    return _structure(flag).hp


def k_prime_check(flag: FlagData) -> bool:
    """True iff the orthocomplement of k inside h commutes with p at root level."""
    sums = flag.rs.sums
    record = _structure(flag)
    return not any(sums[g] & record.rp for g in bits(flag.h_mask & ~record.rk))


def build_report(flag: FlagData, exception: str | None = None) -> SymmetryReport:
    """Full symmetry report for one painted diagram (cross-checked), its values read off the flag."""
    plus = _structure(flag).plus
    symmetric = flag.is_symmetric_coset()
    dim_p = 2 * plus.bit_count()  # the index
    coindex = flag.dim_m - dim_p
    # the coindex is 0 exactly when G/H is a Hermitian symmetric space, which
    # is_symmetric_coset reads off the highest root, not off a scan
    if (coindex == 0) != symmetric:
        raise InternalConsistencyError(
            f"{flag.pd.spec}: coindex {coindex} vs the painted coefficients of the highest root"
        )
    return SymmetryReport(
        flag.rs,
        tuple(sorted(flag.pd.painted)),
        flag.dim_m,
        symmetric,
        plus,
        dim_p,
        coindex,
        leaf_pair(flag),
        exception,
    )
