"""Abstract root systems of the simple Lie types, in exact arithmetic.

Roots are integer coordinate tuples over the simple roots a_1..a_n, so every
root, squared length and Cartan integer is an exact integer or rational.
Squared lengths are normalised so that long roots have squared length 2, and
the pairing weight b(r) = 2/(r, r) of a Chevalley basis (Carter, *Simple
Groups of Lie Type*, ch. 4) is the int 1 on long roots and 2 or 3 on short
ones.

Node numbering (chains drawn left to right; the arrow points at the short
root):

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n        node n short
    C_n   1 - 2 - ... - (n-1) <= n        node n long, the others short
    D_n   1 - 2 - ... - (n-2) < (n-1, n)  fork at node n-2
    E_n   1 - 3 - 4 - 5 - 6 (- 7)(- 8), node 2 attached to node 4
    F_4   1 - 2 => 3 - 4                  nodes 1,2 long; 3,4 short
    G_2   1 => 2 (triple edge)            node 1 long, node 2 short

In this numbering the highest root of G_2 is 2a1 + 3a2.

Besides the coordinate tuples, every root system carries one dense integer
index: root i is ``roots[i]``, the positive roots come first in (height,
coordinates) order and ``roots[i + N]`` is the negative of ``roots[i]`` for
the N positive roots.  A set of roots is then a Python-int bitmask (bit i for
``roots[i]``), ``sums[i]`` is the mask of the j with roots[i] + roots[j] a
root and ``add[i][j]`` is the index of that sum, so set tests over root sums
become ANDs and table lookups (Cohen, Murray and Taylor, *Computing in groups
of Lie type*, Math. Comp. 2004, use indexed root tables the same way).

The index is built in integers.  The positive roots come one height at a
time from root strings, each with its Cartan pairings <r, a_i^v>, and the
squared lengths follow from those pairings, and from them ``weights[i]`` =
b(roots[i]): the one copy of the weights, which the Chevalley build, its
audit and the oracles read.  ``sums`` and ``add`` come from integer keys of
the coordinates, one zero-sum class {a, b, -(a + b)} at a time: each class
is found once, at its two positive roots, and all twelve of its ``add``
entries are written together.  The same walk lists ``decompositions[s]``, the
pairs of positive roots that sum to the positive root s, which the Chevalley
build reads.

Every Dynkin diagram, the plain and the extended one and that of the simple
roots of a subsystem, comes from one builder on the index,
:meth:`RootSystem.diagram`: its Cartan integers are read off root strings
along the ``add`` rows, and no inner product is taken.

:meth:`RootSystem.splittings` lists the decompositions of a root on the
index; the per-xi oracles of :mod:`flagsym.oracle` walk them.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import add, mul
from types import MappingProxyType

Root = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class InternalConsistencyError(RuntimeError):
    """A structural cross-check failed; this signals a bug, not bad input."""


def rneg(a: Root) -> Root:
    return tuple(-x for x in a)


def height(a: Root) -> int:
    return sum(a)


# the binary digits '0'/'1' as the bytes 0/1, for itertools.compress
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int):
    """Indices of the set bits of ``mask`` (a nonnegative int), lowest first.

    The iteration runs in C: the reversed binary digits select the indices
    from ``itertools.count()``.
    """
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
    return itertools.compress(itertools.count(), digits)


def root_str(a: Root) -> str:
    """Render a coordinate vector as a combination of simple roots, e.g. 'a1+2a2'."""
    parts: list[str] = []
    for i, c in enumerate(a, 1):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}a{i}")
    return "".join(parts) or "0"


def is_valid_type(family: str, rank: int) -> bool:
    if family == "A":
        return rank >= 1
    if family == "B":
        return rank >= 2
    if family == "C":
        return rank >= 3
    if family == "D":
        return rank >= 4
    if family == "E":
        return rank in (6, 7, 8)
    if family == "F":
        return rank == 4
    if family == "G":
        return rank == 2
    return False


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix c[i][j] = 2(a_i, a_j)/(a_j, a_j) in the numbering above."""
    if not is_valid_type(family, rank):
        hint = ""
        if (family, rank) == ("C", 2):
            hint = " (use B2: B2 and C2 are the same type)"
        elif (family, rank) == ("D", 3):
            hint = " (use A3: D3 and A3 are the same type)"
        raise ValueError(f"not a simple type: {family}{rank}{hint}")
    n = rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2

    def join(i: int, j: int) -> None:
        c[i][j] = c[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            join(i, i + 1)
        if family == "B":
            c[n - 2][n - 1] = -2
        elif family == "C":
            c[n - 1][n - 2] = -2
    elif family == "D":
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            join(i, j)
        join(1, 3)
    elif family == "F":
        join(0, 1)
        join(1, 2)
        join(2, 3)
        c[1][2] = -2
    elif family == "G":
        c[0][1] = -3
        c[1][0] = -1
    return tuple(tuple(row) for row in c)


def _length_halves(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Half squared lengths d_i = (a_i,a_i)/2 as the integer symmetriser of
    the Cartan matrix, c_ij d_j = c_ji d_i (Kac, *Infinite-dimensional Lie
    algebras*, §2.3): 1 on the shortest simple roots, 2 or 3 on long ones."""
    n = len(cartan)
    d = [6] + [0] * (n - 1)  # 6 on node 1: each d_j is 6 times 1, 2, 3, 1/2 or 1/3
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and not d[j]:
                # symmetry (a_i,a_j) = c_ij d_j = c_ji d_i fixes the ratio
                d[j] = d[i] * cartan[j][i] // cartan[i][j]
                queue.append(j)
    if 0 in d:
        raise InternalConsistencyError("Cartan matrix of a disconnected diagram")
    low = min(d)
    return tuple(x // low for x in d)


def _positive_roots(
    cartan: tuple[tuple[int, ...], ...],
) -> tuple[list[Root], list[tuple[int, ...]]]:
    """All positive roots in (height, coordinates) order, with their Cartan
    pairings (<r, a_1^v>, ..., <r, a_n^v>), by root-string extension.

    The roots are found one height at a time, in integers.  Each root r
    carries its pairings and, per node i, p_i: how far its a_i-string runs
    down.  The string runs up past r exactly when q_i = p_i - <r, a_i^v> > 0;
    then r + a_i is a root, with pairings <r, a_j^v> + c_ij and p_i one more
    than that of r.  Every root of the next height is reached this way from
    each r - a_i that is a root, so its p's are complete before it is
    extended in turn: no string is searched for in a set of roots.
    """
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    level = {s: (cartan[i], [0] * n) for i, s in enumerate(simple)}
    roots: list[Root] = []
    pairings: list[tuple[int, ...]] = []
    while level:
        higher: dict[Root, tuple] = {}
        for r in sorted(level):
            pairing, down = level[r]
            roots.append(r)
            pairings.append(pairing)
            for i, (p, c) in enumerate(zip(down, pairing)):
                if p > c:  # q > 0: the a_i-string extends past r
                    up = tuple(map(add, r, simple[i]))
                    entry = higher.get(up)
                    if entry is None:
                        entry = higher[up] = (tuple(map(add, pairing, cartan[i])), [0] * n)
                    entry[1][i] = p + 1
        level = higher
    return roots, pairings


def walk(row, k: int) -> int:
    """Steps k -> row[k] that stay on roots (``len(row)`` marks no root).

    With row = ``add[s]`` and k a root index, this is q on the s-string
    through roots[k]; with row = ``add[neg[s]]`` it is p.
    """
    steps, stop = 0, len(row)
    k = row[k]
    while k != stop:
        steps += 1
        k = row[k]
    return steps


class Diagram(namedtuple("Diagram", "nodes edges")):
    """Dynkin diagram (possibly extended): node 0, when present, is the affine
    node carrying the lowest root -theta.

    Edges are (a, b, multiplicity, short_end) with a < b; short_end names the
    node on the short-root side of a multiple bond ("both" for the degenerate
    affine A1 double bond, None for single bonds).

    Sets of nodes are node masks: bit k stands for ``nodes[k]``, the node in
    place k (on the plain and the extended diagram of a root system, place
    and label agree).  ``adjacency[k]``, derived at construction and kept
    outside the tuple, is the node mask of the neighbours of ``nodes[k]``.
    """

    def __new__(cls, nodes: tuple, edges: tuple):
        self = super().__new__(cls, nodes, edges)
        place = dict(zip(nodes, range(len(nodes))))
        adjacency = [0] * len(nodes)
        for a, b, _, _ in edges:
            adjacency[place[a]] |= 1 << place[b]
            adjacency[place[b]] |= 1 << place[a]
        self.adjacency: tuple[int, ...] = tuple(adjacency)
        return self

    def component(self, start: int, within: int = -1) -> int:
        """Node mask of the component of the node in place ``start`` in the
        subdiagram on the node mask ``within``, by a search over node masks.

        The nodes still to visit are taken off their mask lowest bit first,
        which on masks of a few nodes costs less than :func:`bits`.
        """
        adjacency = self.adjacency
        comp = todo = 1 << start
        while todo:
            low = todo & -todo
            todo ^= low
            new = adjacency[low.bit_length() - 1] & within & ~comp
            comp |= new
            todo |= new
        return comp

    def restrict(self, mask: int) -> Diagram:
        """The subdiagram on the node mask ``mask``, nodes and edges in their
        order here; the diagram itself when ``mask`` holds every node."""
        if mask == (1 << len(self.nodes)) - 1:
            return self
        inside = {v for k, v in enumerate(self.nodes) if mask >> k & 1}
        return Diagram(
            tuple(v for v in self.nodes if v in inside),
            tuple(e for e in self.edges if e[0] in inside and e[1] in inside),
        )


def diagram_components(d: Diagram) -> list[Diagram]:
    """The connected components of ``d``, in the order of their first nodes."""
    comps: list[Diagram] = []
    rest = (1 << len(d.nodes)) - 1
    while rest:
        comp = d.component((rest & -rest).bit_length() - 1)
        rest &= ~comp
        comps.append(d.restrict(comp))
    return comps


def classify_connected(d: Diagram) -> tuple[str, int]:
    """Canonical (family, rank) of a connected finite Dynkin diagram.

    The label is canonical across the classical coincidences: a rank-2 double
    bond classifies as B2 (= C2) and a 3-node chain as A3 (= D3).
    """
    n = len(d.nodes)
    if n == 1:
        return ("A", 1)
    mults = [e[2] for e in d.edges]
    if any(e[3] == "both" for e in d.edges):
        raise ValueError("not a finite Dynkin diagram (affine A1 bond)")
    if len(d.edges) != n - 1:
        raise ValueError("not a finite Dynkin diagram (not a tree)")
    if max(mults) == 3:
        if n == 2:
            return ("G", 2)
        raise ValueError("triple bond in a diagram of size > 2")
    adjacency = d.adjacency
    degrees = [a.bit_count() for a in adjacency]  # by place
    if max(mults) == 2:
        doubles = [e for e in d.edges if e[2] == 2]
        if len(doubles) != 1 or max(degrees) > 2:
            raise ValueError("not a finite Dynkin diagram (bad double bond)")
        if n == 2:
            return ("B", 2)
        a, b, _, short = doubles[0]
        ends = [v for v in (a, b) if degrees[d.nodes.index(v)] == 1]
        if not ends:
            if n == 4:
                return ("F", 4)
            raise ValueError("interior double bond only occurs in F4")
        terminal = ends[0]
        if short == terminal:
            return ("B", n)
        other = b if terminal == a else a
        if short == other:
            return ("C", n)
        raise ValueError("double bond without orientation")
    # simply laced
    branch = [k for k, degree in enumerate(degrees) if degree >= 3]
    if not branch:
        if max(degrees) <= 2 and degrees.count(1) == 2:
            return ("A", n)
        raise ValueError("not a finite Dynkin diagram (cycle)")
    if len(branch) > 1 or degrees[branch[0]] > 3:
        raise ValueError("more than one branch point")
    center = branch[0]
    arms = []
    for k in bits(adjacency[center]):
        length = 1
        prev, cur = center, k
        while degrees[cur] == 2:
            prev, cur = cur, (adjacency[cur] & ~(1 << prev)).bit_length() - 1
            length += 1
        arms.append(length)
    arms.sort()
    a1, a2, a3 = arms
    if a1 != 1:
        raise ValueError("branch arms too long for a finite diagram")
    if a2 == 1:
        return ("D", n)
    if a2 == 2 and a3 in (2, 3, 4):
        return ("E", n)
    raise ValueError("not a finite Dynkin diagram (branch shape)")


class RootSystem:
    """The root system of one simple type on a dense root index; all queries are exact.

    The index (module docstring): ``roots``, ``positive_roots`` and
    ``simple_roots`` as coordinate tuples, ``index`` (root to index), ``neg``,
    ``weights``, ``positive_mask``, ``support``, ``sums``, ``add`` and, for
    each positive root s, ``decompositions[s]``: the index pairs (i, y), i < y
    positive, with roots[i] + roots[y] = roots[s], i ascending.

    The root data are set at construction and not changed after: each row
    of ``add`` is a read-only view of an ``array('H')`` and ``index`` a
    ``types.MappingProxyType``, so a write into either raises TypeError, and
    no package code outside the constructor rebinds a root-data attribute (a
    source check of the tests).  Three memos are filled as the instance is
    used: ``leaf_memo``, ``component_memo`` and ``sound`` (see
    :mod:`flagsym.symmetry`).  Construction is single threaded.  Use
    :func:`build_root_system` (cached) rather than the constructor.
    """

    def __init__(self, family: str, rank: int):
        self.cartan = cartan_matrix(family, rank)
        self.family = family
        self.rank = rank
        halves = _length_halves(self.cartan)
        pos, pairings = _positive_roots(self.cartan)
        half, count = len(pos), 2 * len(pos)
        self.positive_roots: tuple[Root, ...] = tuple(pos)
        self.roots: tuple[Root, ...] = tuple(pos) + tuple(rneg(r) for r in pos)
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )
        self.highest: Root = pos[-1]
        if len(pos) > 1 and height(pos[-2]) == height(self.highest):
            raise InternalConsistencyError("highest root is not unique")
        # square = sum_i r_i <r, a_i^v> d_i is (r, r) in units where a long root
        # has 2 scale, scale = max d_i; so b(r) = 2/(r, r) = 2 scale / square
        scale = max(halves)
        weights = []
        for r, pairing in zip(pos, pairings):
            square = sum(map(mul, r, map(mul, pairing, halves)))
            w, rem = divmod(2 * scale, square)
            if rem:
                raise InternalConsistencyError(
                    f"non-integral pairing weight b = {2 * scale}/{square} at {r}"
                )
            weights.append(w)
        # b(-r) = b(r)
        self.weights: tuple[int, ...] = tuple(weights) * 2
        self.index = MappingProxyType(dict(zip(self.roots, range(count))))
        self.neg: tuple[int, ...] = tuple(range(half, count)) + tuple(range(half))
        self.positive_mask = (1 << half) - 1
        # support[n]: mask of the roots with a nonzero coefficient at node n + 1
        support = [0] * rank
        for i, r in enumerate(pos):
            for node, c in enumerate(r):
                if c:
                    support[node] |= 1 << i
        self.support: tuple[int, ...] = tuple(s | s << half for s in support)
        # sums[i]: mask of the j with roots[i] + roots[j] a root; add[i][j]: the
        # index of that sum, or ``count`` (a bit no root mask has) when it is none;
        # decompositions[s]: the pairs i < y of positive roots that sum to roots[s].
        # A sum pair lies in one zero-sum class {a, b, -(a + b)} with its
        # negation, and the class is found once, at its two positive roots
        # i < y: heights add, so y runs over the roots of height at most
        # ht(theta) - ht(i), and the sum is looked up on integer keys, the
        # coordinates as digits in base 2M + 1, M the largest coefficient, so
        # key(a) + key(b) = key(a + b), and two vectors with entries in 0..2M
        # have the same key only when they are equal.  A hit s = i + y writes
        # the class's twelve ``add`` entries (the table is symmetric, and odd
        # under negation) and its six bits in the rows of the positive roots;
        # the rows of the negative roots have the negated masks.  i ascends, so
        # each list of decompositions is in the order of the Chevalley build.
        base = 2 * max(self.highest) + 1
        powers = [base**n for n in range(rank)]
        keys = [sum(map(mul, r, powers)) for r in pos]
        get = dict(zip(keys, range(half))).get
        heights = list(map(height, pos))
        top = heights[-1]
        add_rows = [array("H", [count]) * count for _ in range(count)]
        sums = [0] * half
        decompositions: list[list[tuple[int, int]]] = [[] for _ in range(half)]
        for i, ka in enumerate(keys):
            ni, row, row_ni = i + half, add_rows[i], add_rows[i + half]
            for y in range(i + 1, bisect_right(heights, top - heights[i])):
                s = get(ka + keys[y])
                if s is None:
                    continue
                ny, ns = y + half, s + half
                row_y, row_ny, row_s, row_ns = add_rows[y], add_rows[ny], add_rows[s], add_rows[ns]
                row[y] = row_y[i] = s  # i + y = s
                row_ni[ny] = row_ny[ni] = ns  # -i - y = -s
                row[ns] = row_ns[i] = ny  # i - s = -y
                row_ni[s] = row_s[ni] = y  # s - i = y
                row_y[ns] = row_ns[y] = ni  # y - s = -i
                row_ny[s] = row_s[ny] = i  # s - y = i
                sums[i] |= 1 << y | 1 << ns
                sums[y] |= 1 << i | 1 << ns
                sums[s] |= 1 << ni | 1 << ny
                decompositions[s].append((i, y))
        self.sums: tuple[int, ...] = tuple(sums) + tuple(map(self.neg_mask, sums))
        self.add: tuple[memoryview, ...] = tuple(memoryview(row).toreadonly() for row in add_rows)
        self.decompositions: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            map(tuple, decompositions)
        )
        self._extended: Diagram | None = None
        # filled by flagsym.symmetry: the LeafDescriptor by symmetry-root mask
        # (masks and labels only, no reference back to this root system), the
        # label of the affine node's component by its node mask, and whether
        # the index is sound, as the closures that walk some rows only need
        self.leaf_memo: dict = {}
        self.component_memo: dict[int, str] = {}
        self.sound: bool | None = None

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    def mask_of(self, roots) -> int:
        """Bitmask of a collection of roots."""
        index = self.index
        mask = 0
        for r in roots:
            mask |= 1 << index[r]
        return mask

    def roots_of(self, mask: int) -> frozenset:
        """The roots whose bits are set in ``mask``."""
        return frozenset(map(self.roots.__getitem__, bits(mask)))

    def neg_mask(self, mask: int) -> int:
        """Mask of the negatives of the roots in ``mask``."""
        half = len(self.positive_roots)
        return (mask & self.positive_mask) << half | mask >> half

    @cached_property
    def partners(self) -> tuple[tuple[int, ...], ...]:
        """partners[i]: the set bits of ``sums[i]``, ascending.

        For scans that test the rows of a sparse mask against a set: filtering
        a row's partners costs its length, walking ``sums[i] & mask`` bit by
        bit costs the width of the mask.  Built on first use.
        """
        return tuple(tuple(bits(s)) for s in self.sums)

    def splittings(self, s: int) -> list[tuple[int, int]]:
        """The index pairs (i, j) with roots[i] + roots[j] = roots[s].

        Each unordered pair comes once, with roots[i] <= roots[j] in coordinate
        order.  The pairs with one positive and one negative member come
        first, each group in index order of i: in the oracles a mixed pair
        inside R_m rules a root out at once (see :mod:`flagsym.oracle`), so
        they are scanned first.  Read from ``sums[s]``: x is a partner of s
        exactly when i = -x and j = s + x split s.
        """
        roots, neg, row, half = self.roots, self.neg, self.add[s], len(self.positive_roots)
        partners = self.sums[s]
        mixed: list[tuple[int, int]] = []
        same: list[tuple[int, int]] = []
        # i = -x ascends over the negative partners x, then over the positive ones
        for x in (*bits(partners >> half << half), *bits(partners & self.positive_mask)):
            i, j = neg[x], row[x]
            if roots[i] <= roots[j]:
                (mixed if (i < half) != (j < half) else same).append((i, j))
        return mixed + same

    def cartan_integer(self, t: int, s: int) -> int:
        """The Cartan integer <roots[t], roots[s]^v> of two root indices.

        It is p - q on the s-string t - p s, ..., t + q s (Humphreys,
        *Introduction to Lie Algebras and Representation Theory*, §9.4), two
        walks along the ``add`` rows of -s and s.  (t, s) != 0 needs t + s or
        t - s to be a root (ibid., Lemma 9.4), so only a pair whose ``sums``
        bits say so walks its string.  A root pairs to 2 with itself and to
        -2 with its negative, where t + s and t - s are never roots and the
        walks would give 0.
        """
        neg = self.neg
        if t == s:
            return 2
        if t == neg[s]:
            return -2
        near = self.sums[t]
        if not (near >> s | near >> neg[s]) & 1:
            return 0
        return walk(self.add[neg[s]], t) - walk(self.add[s], t)

    def diagram(self, labeled) -> Diagram:
        """Dynkin diagram of (label, root index) pairs that pair non-positively.

        An edge joins two nodes a, b whose Cartan integers <a, b^v>, <b, a^v>
        are nonzero.  Its multiplicity is their product and its short end the
        shorter root (b when <a, b^v> < <b, a^v>); an opposite pair (-2 both
        ways, the affine A1 bond) gets an edge marked "both".  Edges follow
        the order of ``labeled``.
        """
        edges = []
        for (la, a), (lb, b) in itertools.combinations(labeled, 2):
            cab = self.cartan_integer(a, b)
            if not cab:
                continue
            cba = self.cartan_integer(b, a)
            if cab > 0 or cba > 0:
                raise InternalConsistencyError(
                    f"positive pairing between diagram nodes {la}, {lb}"
                )
            if cab == cba == -2:
                edges.append((la, lb, 2, "both"))
            else:
                short = lb if cab < cba else la if cba < cab else None
                edges.append((la, lb, cab * cba, short))
        return Diagram(tuple(label for label, _ in labeled), tuple(edges))

    def dynkin_diagram(self) -> Diagram:
        index = self.index
        return self.diagram([(i + 1, index[s]) for i, s in enumerate(self.simple_roots)])

    def extended_diagram(self) -> Diagram:
        """Extended diagram: node 0 carries the lowest root -theta (built once)."""
        if self._extended is None:
            index = self.index
            self._extended = self.diagram(
                [(0, index[rneg(self.highest)])]
                + [(i + 1, index[s]) for i, s in enumerate(self.simple_roots)]
            )
        return self._extended


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of a simple type.

    Raises ValueError for (family, rank) pairs that are not a simple type in
    the canonical numbering (C2 and D2/D3 are rejected in favour of their
    B2 / A-type aliases).
    """
    return RootSystem(family, rank)
