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

Two independent scans (full root list vs nilradical closure) are kept for the
symmetry roots and cross-checked whenever a report is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flag import FlagData, PaintedDiagram, make_flag
from .rootsystem import (
    Diagram,
    InternalConsistencyError,
    Root,
    classify_connected,
    diagram_components,
    height,
    radd,
    rneg,
    root_str,
    rsub,
)


class ClassificationError(InternalConsistencyError):
    """The leaf pair failed to match an irreducible Hermitian symmetric pair."""


@dataclass(frozen=True)
class LeafDescriptor:
    u_type: str
    k_semisimple_type: tuple[str, ...]
    k_center_dim: int
    r_u: frozenset
    r_k: frozenset
    toral_rank: int
    name: str


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


def symmetry_roots(flag: FlagData) -> frozenset:
    """{a in R_m+ : (a + R_m+) n R = empty} -- scan against the full root list."""
    rset = flag.rs.root_set
    out = []
    for a in flag.r_m_plus:
        if not any(radd(a, b) in rset for b in flag.r_m_plus):
            out.append(a)
    return frozenset(out)


def center_of_nilradical(flag: FlagData) -> frozenset:
    """Root support of the centre of m^{1,0} -- scan against the nilradical.

    Independent of :func:`symmetry_roots` (membership is tested inside R_m+,
    which is closed under root sums of its own members); the two must agree.
    """
    nil = flag.r_m_plus_set
    out = []
    for a in flag.r_m_plus:
        if all(radd(a, b) not in nil for b in flag.r_m_plus):
            out.append(a)
    return frozenset(out)


def _symmetry_roots_checked(flag: FlagData) -> frozenset:
    via_r = symmetry_roots(flag)
    via_z = center_of_nilradical(flag)
    if via_r != via_z:
        raise InternalConsistencyError(
            f"{flag.pd.spec}: root-list and nilradical scans disagree"
        )
    if flag.rs.highest not in via_r:
        raise InternalConsistencyError(f"{flag.pd.spec}: highest root not a symmetry root")
    return via_r


def _rank_q(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / lead[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        rank += 1
    return rank


def _r_k(flag: FlagData, rp_plus) -> frozenset:
    """Root part of k = [p, p]: differences of symmetry roots that are roots."""
    rset = flag.rs.root_set
    out = set()
    for a in rp_plus:
        for b in rp_plus:
            if a != b:
                d = rsub(a, b)
                if d in rset:
                    out.add(d)
    return frozenset(out)


def _indecomposables(pos) -> list:
    pset = set(pos)
    out = []
    for s in sorted(pos, key=lambda r: (height(r), r)):
        if not any(x != s and rsub(s, x) in pset for x in pos):
            out.append(s)
    return out


def _simple_components(flag: FlagData, simples) -> list[list[Root]]:
    rs = flag.rs
    comps: list[list[Root]] = []
    left = list(simples)
    while left:
        comp = [left.pop(0)]
        grew = True
        while grew:
            grew = False
            for s in list(left):
                if any(rs.inner_product(s, t) != 0 for t in comp):
                    comp.append(s)
                    left.remove(s)
                    grew = True
        comps.append(comp)
    return comps


def _classify_sub(flag: FlagData, pos_roots) -> list[tuple[str, int]]:
    """Canonical (family, rank) labels of the components of a closed subsystem."""
    simples = _indecomposables(pos_roots)
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


def leaf_pair(flag: FlagData) -> LeafDescriptor:
    """The leaf pair (u, k) with k = [p, p], verified and named.

    Raises ClassificationError / InternalConsistencyError when any of the
    structural facts fail (u simple of rank equal to k, one-dimensional centre
    of k, the highest root the unique k-highest vector of p): these are
    theorems, so a failure means a bug, not a valid outcome.
    """
    rs = flag.rs
    rp_plus = sorted(_symmetry_roots_checked(flag), key=lambda r: (height(r), r))
    rp = frozenset(rp_plus) | frozenset(rneg(a) for a in rp_plus)
    rk = _r_k(flag, rp_plus)
    if not rk <= flag.r_h:
        raise InternalConsistencyError(f"{flag.pd.spec}: [p,p] escapes the isotropy roots")
    ru = rk | rp
    rset = rs.root_set
    for a in ru:
        for b in ru:
            s = radd(a, b)
            if s in rset and s not in ru:
                raise InternalConsistencyError(f"{flag.pd.spec}: leaf root set not closed")

    toral_rank = _rank_q(rp_plus)
    u_labels = _classify_sub(flag, [r for r in ru if rs.is_positive(r)])
    if len(u_labels) != 1:
        raise InternalConsistencyError(
            f"{flag.pd.spec}: leaf algebra not simple, components {u_labels}"
        )
    u_type = u_labels[0]
    if u_type[1] != toral_rank:
        raise InternalConsistencyError(
            f"{flag.pd.spec}: leaf rank {u_type[1]} != coroot span {toral_rank}"
        )

    k_pos = [r for r in rk if rs.is_positive(r)]
    k_labels = _classify_sub(flag, k_pos)
    k_center = toral_rank - _rank_q(k_pos)
    if k_center != 1:
        raise InternalConsistencyError(
            f"{flag.pd.spec}: isotropy centre of the leaf has dim {k_center}"
        )

    # p is k-irreducible: the unique highest vector must be the highest root
    rp_set = frozenset(rp_plus)
    highest = [
        a for a in rp_plus if all(radd(a, k) not in rp_set for k in k_pos)
    ]
    if highest != [rs.highest]:
        raise InternalConsistencyError(
            f"{flag.pd.spec}: k-highest vectors {[root_str(a) for a in highest]}"
        )

    name = _hermitian_name(u_type, k_labels)
    return LeafDescriptor(
        u_type=f"{u_type[0]}{u_type[1]}",
        k_semisimple_type=tuple(f"{f}{r}" for f, r in k_labels),
        k_center_dim=k_center,
        r_u=frozenset(ru),
        r_k=rk,
        toral_rank=toral_rank,
        name=name,
    )


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
    """Roots of h' = h + p, verified closed under root addition."""
    rp_plus = _symmetry_roots_checked(flag)
    roots = flag.r_h | rp_plus | frozenset(rneg(a) for a in rp_plus)
    rset = flag.rs.root_set
    for a in roots:
        for b in roots:
            s = radd(a, b)
            if s in rset and s not in roots:
                raise InternalConsistencyError(
                    f"{flag.pd.spec}: h' not closed ({root_str(a)} + {root_str(b)})"
                )
    return roots


def k_prime_check(flag: FlagData) -> bool:
    """True iff the orthocomplement of k inside h commutes with p at root level."""
    rp_plus = _symmetry_roots_checked(flag)
    rk = _r_k(flag, sorted(rp_plus))
    rp = rp_plus | frozenset(rneg(a) for a in rp_plus)
    rset = flag.rs.root_set
    return all(
        radd(g, a) not in rset for g in (flag.r_h - rk) for a in rp
    )


def build_report(flag: FlagData, exception: str | None = None) -> SymmetryReport:
    """Full symmetry report for one painted diagram (cross-checked)."""
    rp_plus = _symmetry_roots_checked(flag)
    rset = flag.rs.root_set
    for a in rp_plus:
        for b in rp_plus:
            if radd(a, b) in rset:
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
