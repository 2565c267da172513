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
    match the Dynkin diagram of u.

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
row that fails a closure is walked again for its first witness.  [p, p],
the abelian-centre test and [k', p] = 0 are short loops over set bits.
Roots become coordinate tuples only where a caller reads them: the symmetry
roots, the simple roots of a subsystem, the roots of h' and the frozenset
views ``LeafDescriptor.r_u``/``r_k`` and those of ``FlagData``, built on
demand.

The symmetry roots are computed once per FlagData, by two independent scans
that are cross-checked: one tests membership of a + b in R through ``sums``,
the other membership in R_m+ through ``add``.  The result is kept on the flag
and read by :func:`build_report`, :func:`leaf_pair`, :func:`h_prime` and
:func:`k_prime_check`, so each painting is scanned once.  So are the masks
derived from it, kept next to it on the flag: p = R_p+ and its negatives,
[p, p] and h' = h + p (:func:`_masks`), and the roots of h' once
:func:`h_prime` has proved them closed, which
:attr:`SymmetryReport.hprime_closed` reads back instead of closing h' again.

The leaf past the test that [p, p] lies in the isotropy roots (the closure of
u, the classification of u and k, the two ranks, the k-highest test and the
name) depends on the painting only through the mask of R_p+, so
:func:`leaf_pair` computes it once per mask and root system and keeps its
plain fields in ``RootSystem.leaf_memo`` (the rank-8 sweep has 305 masks
among 2455 paintings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .flag import FlagData, PaintedDiagram
from .rootsystem import (
    Diagram,
    InternalConsistencyError,
    Root,
    RootSystem,
    bits,
    classify_connected,
    diagram_components,
    root_str,
)


class ClassificationError(InternalConsistencyError):
    """The leaf pair failed to match an irreducible Hermitian symmetric pair."""


@dataclass(frozen=True)
class LeafDescriptor:
    u_type: str
    k_semisimple_type: tuple[str, ...]
    k_center_dim: int
    u_mask: int  # the roots of u, over the root index of rs
    k_mask: int  # the roots of k = [p, p]
    toral_rank: int
    name: str
    rs: RootSystem = field(repr=False)

    @property
    def r_u(self) -> frozenset:
        return self.rs.roots_of(self.u_mask)

    @property
    def r_k(self) -> frozenset:
        return self.rs.roots_of(self.k_mask)


@dataclass
class SymmetryReport:
    flag: FlagData
    r_p_plus: frozenset
    index: int
    coindex: int
    leaf: LeafDescriptor
    h_prime_roots: frozenset
    exception: str | None = None

    @property
    def dim_m(self) -> int:
        return self.flag.dim_m

    @property
    def symmetric(self) -> bool:
        return self.flag.is_symmetric_coset()

    @property
    def hprime_closed(self) -> bool:
        """h' = h + p closed under root addition.

        :func:`h_prime` proved it for the set it returned (it raises when the
        closure fails); any other set is tested by the mask closure.
        """
        if self.h_prime_roots is self.flag._h_prime:
            return True
        rs = self.flag.rs
        return _closure_gap(rs, rs.mask_of(self.h_prime_roots)) is None


def symmetry_roots(flag: FlagData) -> frozenset:
    """{a in R_m+ : (a + R_m+) n R = empty} -- one AND with the sum mask of a."""
    roots, sums = flag.rs.roots, flag.rs.sums
    plus = flag.m_plus_mask
    return frozenset(roots[i] for i in bits(plus) if not sums[i] & plus)


def center_of_nilradical(flag: FlagData) -> frozenset:
    """Root support of the centre of m^{1,0} -- scan against the nilradical.

    Independent of :func:`symmetry_roots`: it looks each sum a + b up in the
    ``add`` table and tests membership in R_m+ (closed under root sums of its
    own members) instead of in R; the two must agree.
    """
    roots, add = flag.rs.roots, flag.rs.add
    members = list(bits(flag.m_plus_mask))
    inside = set(members)
    return frozenset(
        roots[i] for i in members if inside.isdisjoint(map(add[i].__getitem__, members))
    )


def _symmetry(flag: FlagData) -> tuple[frozenset, int]:
    """R_p+ and its mask: both scans run and are cross-checked once per flag."""
    if flag._symmetry is None:
        via_r = symmetry_roots(flag)
        via_z = center_of_nilradical(flag)
        if via_r != via_z:
            raise InternalConsistencyError(
                f"{flag.pd.spec}: root-list and nilradical scans disagree"
            )
        if flag.rs.highest not in via_r:
            raise InternalConsistencyError(
                f"{flag.pd.spec}: highest root not a symmetry root"
            )
        flag._symmetry = (via_r, flag.rs.mask_of(via_r))
    return flag._symmetry


def _masks(flag: FlagData) -> tuple[int, int, int]:
    """The masks of p (R_p+ and its negatives), of [p, p] and of h' = h + p,
    computed once per flag and kept on it."""
    if flag._masks is None:
        rs = flag.rs
        _, plus = _symmetry(flag)
        rp = plus | rs.neg_mask(plus)
        flag._masks = (rp, _r_k(rs, plus), flag.h_mask | rp)
    return flag._masks


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


def _closure_gap(rs: RootSystem, mask: int) -> tuple[int, int] | None:
    """The first pair (i, j) of ``mask`` whose sum is a root outside it, else None.

    One set test per row; only a row that fails is walked for its first j.
    """
    add, partners = rs.add, rs.partners
    members = list(bits(mask))
    inside = set(members)
    for i in members:
        row = add[i]
        within = filter(inside.__contains__, partners[i])
        if not inside.issuperset(map(row.__getitem__, within)):
            return i, next(j for j in partners[i] if j in inside and row[j] not in inside)
    return None


def _stuck(rs: RootSystem, source: int, steps: int, target: int) -> list[int]:
    """The i of ``source`` with roots[i] + b outside ``target`` for every b in ``steps``."""
    add, partners = rs.add, rs.partners
    inside, in_steps = set(bits(target)), set(bits(steps)).__contains__
    return [
        i
        for i in bits(source)
        if inside.isdisjoint(map(add[i].__getitem__, filter(in_steps, partners[i])))
    ]


def _indecomposables(rs: RootSystem, pos: int) -> list[Root]:
    """Simple roots of a positive system: no s - x inside it, x in it."""
    return [rs.roots[s] for s in _stuck(rs, pos, rs.neg_mask(pos), pos)]


def _simple_components(flag: FlagData, simples) -> list[list[Root]]:
    product = flag.rs._scaled_product
    comps: list[list[Root]] = []
    left = list(simples)
    while left:
        comp = [left.pop(0)]
        grew = True
        while grew:
            grew = False
            for s in list(left):
                if any(product(s, t) for t in comp):
                    comp.append(s)
                    left.remove(s)
                    grew = True
        comps.append(comp)
    return comps


def _classify_sub(flag: FlagData, pos: int) -> list[tuple[str, int]]:
    """Canonical (family, rank) labels of the components of a closed subsystem."""
    simples = _indecomposables(flag.rs, pos)
    labels = []
    for comp in _simple_components(flag, simples):
        diag = flag.rs.diagram_from_vectors(list(enumerate(comp)))
        labels.append(classify_connected(diag))
    return sorted(labels)


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


def _leaf_fields(flag: FlagData, plus: int, rp: int, rk: int) -> tuple:
    """The leaf fields of :class:`LeafDescriptor` but ``rs``, from the masks of
    R_p+, p and [p, p] alone; a failure raises with the painting's spec."""
    rs, spec = flag.rs, flag.pd.spec
    ru = rk | rp
    if _closure_gap(rs, ru) is not None:
        raise InternalConsistencyError(f"{spec}: leaf root set not closed")

    toral_rank = _rank_q(rs.roots[i] for i in bits(plus))
    u_labels = _classify_sub(flag, ru & rs.positive_mask)
    if len(u_labels) != 1:
        raise InternalConsistencyError(f"{spec}: leaf algebra not simple, components {u_labels}")
    u_type = u_labels[0]
    if u_type[1] != toral_rank:
        raise InternalConsistencyError(
            f"{spec}: leaf rank {u_type[1]} != coroot span {toral_rank}"
        )

    k_pos = rk & rs.positive_mask
    k_labels = _classify_sub(flag, k_pos)
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
    return (
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

    Everything past the test that [p, p] lies in the isotropy roots depends
    on the painting only through the mask of R_p+, so its fields are kept in
    ``rs.leaf_memo`` under that mask and computed once per mask.  A failure
    is raised, never kept, so each painting that hits it names its own spec.
    The memo holds plain fields, not the descriptor, which refers to ``rs``.
    """
    rs = flag.rs
    _, plus = _symmetry(flag)
    rp, rk, _ = _masks(flag)
    if rk & ~flag.h_mask:
        raise InternalConsistencyError(f"{flag.pd.spec}: [p,p] escapes the isotropy roots")
    fields = rs.leaf_memo.get(plus)
    if fields is None:
        fields = rs.leaf_memo[plus] = _leaf_fields(flag, plus, rp, rk)
    return LeafDescriptor(*fields, rs=rs)


def leaf_via_diagram(pd: PaintedDiagram) -> Diagram:
    """Extended diagram minus the painted nodes; component of the affine node."""
    ext = pd.rs.extended_diagram()
    keep = [v for v in ext.nodes if v not in pd.painted]
    edges = tuple(e for e in ext.edges if e[0] in keep and e[1] in keep)
    sub = Diagram(tuple(keep), edges)
    for comp in diagram_components(sub):
        if 0 in comp.nodes:
            return comp
    raise InternalConsistencyError("affine node lost from the extended diagram")


def diagrams_agree(pd: PaintedDiagram, leaf: LeafDescriptor) -> bool:
    """Cross-check: extended-diagram component vs the computed leaf type."""
    fam, rank = classify_connected(leaf_via_diagram(pd))
    return f"{fam}{rank}" == leaf.u_type


def h_prime(flag: FlagData) -> frozenset:
    """Roots of h' = h + p, verified closed under root addition once per flag."""
    if flag._h_prime is None:
        rs = flag.rs
        mask = _masks(flag)[2]
        gap = _closure_gap(rs, mask)
        if gap is not None:
            a, b = (root_str(rs.roots[i]) for i in gap)
            raise InternalConsistencyError(f"{flag.pd.spec}: h' not closed ({a} + {b})")
        flag._h_prime = rs.roots_of(mask)
    return flag._h_prime


def k_prime_check(flag: FlagData) -> bool:
    """True iff the orthocomplement of k inside h commutes with p at root level."""
    sums = flag.rs.sums
    rp, rk, _ = _masks(flag)
    return not any(sums[g] & rp for g in bits(flag.h_mask & ~rk))


def build_report(flag: FlagData, exception: str | None = None) -> SymmetryReport:
    """Full symmetry report for one painted diagram (cross-checked)."""
    rp_plus, plus = _symmetry(flag)
    sums = flag.rs.sums
    if any(sums[i] & plus for i in bits(plus)):
        raise InternalConsistencyError(f"{flag.pd.spec}: centre not abelian")
    index = 2 * len(rp_plus)
    coindex = flag.dim_m - index
    if (coindex == 0) != flag.is_symmetric_coset():
        raise InternalConsistencyError(
            f"{flag.pd.spec}: coindex {coindex} vs symmetric-coset test"
        )
    return SymmetryReport(
        flag=flag,
        r_p_plus=rp_plus,
        index=index,
        coindex=coindex,
        leaf=leaf_pair(flag),
        h_prime_roots=h_prime(flag),
        exception=exception,
    )
