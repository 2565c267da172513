"""Abstract root systems of the simple Lie types, in exact arithmetic.

Roots are integer coordinate tuples over the simple roots a_1..a_n, so every
root, inner product and Cartan integer is an exact integer or rational.  The
bilinear form comes from the symmetrised Cartan matrix, normalised so that
long roots have squared length 2.

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
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple

Root = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class InternalConsistencyError(RuntimeError):
    """A structural cross-check failed; this signals a bug, not bad input."""


def radd(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def rsub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


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


def _cartan_quotient(num: int, den: int) -> int:
    """The Cartan integer num / den = 2(a, b)/(b, b), from scaled products."""
    if num % den:
        raise InternalConsistencyError(f"non-integral Cartan pairing {Fraction(num, den)}")
    return num // den


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
        c[i][j] = -1
        c[j][i] = -1

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


def _length_halves(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """Half squared lengths d_i = (a_i,a_i)/2, normalised so long roots get d = 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                # symmetry (a_i,a_j) = c_ij d_j = c_ji d_i fixes the ratio
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                queue.append(j)
    assert all(x is not None for x in d)
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[union-attr]


def _generate_positive(cartan: tuple[tuple[int, ...], ...]) -> list[Root]:
    """All positive roots by root-string extension from the simple roots."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pos: set[Root] = set(simple)
    frontier: list[Root] = list(simple)
    while frontier:
        new: list[Root] = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                if beta == alpha:
                    continue  # 2a is never a root
                pairing = sum(beta[j] * cartan[j][i] for j in range(n))
                p = 0
                v = rsub(beta, alpha)
                while v in pos:
                    p += 1
                    v = rsub(v, alpha)
                if p - pairing > 0:  # the string extends past beta
                    cand = radd(beta, alpha)
                    if cand not in pos:
                        pos.add(cand)
                        new.append(cand)
        frontier = new
    return sorted(pos, key=lambda r: (height(r), r))


@dataclass(frozen=True)
class Diagram:
    """Dynkin diagram (possibly extended): node 0, when present, is the affine
    node carrying the lowest root -theta.

    Edges are (a, b, multiplicity, short_end) with a < b; short_end names the
    node on the short-root side of a multiple bond ("both" for the degenerate
    affine A1 double bond, None for single bonds).
    """

    nodes: tuple
    edges: tuple

    def degree(self, v) -> int:
        return sum(1 for a, b, _, _ in self.edges if v in (a, b))

    def neighbors(self, v) -> list:
        out = []
        for a, b, _, _ in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out


def diagram_components(d: Diagram) -> list[Diagram]:
    seen: set = set()
    comps: list[Diagram] = []
    for start in d.nodes:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in d.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        nodes = tuple(sorted(comp, key=d.nodes.index))
        edges = tuple(e for e in d.edges if e[0] in comp)
        comps.append(Diagram(nodes, edges))
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
    degrees = {v: d.degree(v) for v in d.nodes}
    if max(mults) == 2:
        doubles = [e for e in d.edges if e[2] == 2]
        if len(doubles) != 1 or max(degrees.values()) > 2:
            raise ValueError("not a finite Dynkin diagram (bad double bond)")
        if n == 2:
            return ("B", 2)
        a, b, _, short = doubles[0]
        ends = [v for v in (a, b) if degrees[v] == 1]
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
    branch = [v for v in d.nodes if degrees[v] >= 3]
    if not branch:
        if max(degrees.values()) <= 2 and list(degrees.values()).count(1) == 2:
            return ("A", n)
        raise ValueError("not a finite Dynkin diagram (cycle)")
    if len(branch) > 1 or degrees[branch[0]] > 3:
        raise ValueError("more than one branch point")
    center = branch[0]
    arms = []
    for w in d.neighbors(center):
        length = 1
        prev, cur = center, w
        while degrees[cur] == 2:
            nxt = [x for x in d.neighbors(cur) if x != prev][0]
            prev, cur = cur, nxt
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


class SplittingTable(NamedTuple):
    """Per positive root a, one integer vector c over all nodes for each
    splitting -a = beta + gamma, in the order of ``splittings(neg[a])``.

    ``masks[a]`` holds four rank-bit ints per splitting (bit n for node
    n + 1): the node supports of beta and of gamma, and the nodes where c is
    positive and where it is negative.  ``rows[a]`` holds beta, gamma and
    c_1, ..., c_rank per splitting.  Both are flat: ``masks[a]`` a tuple of
    ints, which the cone test iterates fastest, and ``rows[a]``, which only
    the per-xi functions read, an int array.
    """

    masks: tuple[tuple[int, ...], ...]
    rows: tuple[array, ...]


class RootSystem:
    """Immutable root system of one simple type; all queries are exact.

    Construction is single threaded; instances are safe for concurrent reads.
    Use :func:`build_root_system` (cached) rather than the constructor.
    """

    def __init__(self, family: str, rank: int):
        self.cartan = cartan_matrix(family, rank)
        self.family = family
        self.rank = rank
        self._d = _length_halves(self.cartan)
        # (a_i, a_j) = c_ij * d_j = _gram[i][j] / _scale, with integer _gram
        self._scale = lcm(*(x.denominator for x in self._d))
        self._gram = tuple(
            tuple(int(self.cartan[i][j] * self._d[j] * self._scale) for j in range(rank))
            for i in range(rank)
        )
        pos = _generate_positive(self.cartan)
        self.positive_roots: tuple[Root, ...] = tuple(pos)
        self.positive_set = frozenset(pos)
        self.roots: tuple[Root, ...] = tuple(pos) + tuple(rneg(r) for r in pos)
        self.root_set = frozenset(self.roots)
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )
        self.highest: Root = pos[-1]
        if len(pos) > 1 and height(pos[-2]) == height(self.highest):
            raise InternalConsistencyError("highest root is not unique")
        self.lengths = {r: self.inner_product(r, r) for r in self.roots}
        count, half = len(self.roots), len(pos)
        self.index: dict[Root, int] = {r: i for i, r in enumerate(self.roots)}
        self.neg: tuple[int, ...] = tuple(range(half, count)) + tuple(range(half))
        self.positive_mask = (1 << half) - 1
        # support[n]: mask of the roots with a nonzero coefficient at node n + 1
        support = [0] * rank
        for i, r in enumerate(self.roots):
            for node, c in enumerate(r):
                if c:
                    support[node] |= 1 << i
        self.support: tuple[int, ...] = tuple(support)
        # sums[i]: mask of the j with roots[i] + roots[j] a root; add[i][j]: the
        # index of that sum, or ``count`` (a bit no root mask has) when it is none.
        # The sums are found on integer keys: the coordinates as signed digits in
        # base 4M + 1, M the largest coefficient, so key(a) + key(b) = key(a + b),
        # and two vectors with entries of size <= 2M (a sum of two roots and a
        # root) have the same key only when they are equal.
        base = 4 * max(self.highest) + 1
        keys = [sum(c * base**n for n, c in enumerate(r)) for r in self.roots]
        by_key = {key: i for i, key in enumerate(keys)}
        sums: list[int] = []
        add: list[array] = []
        for ka in keys:
            mask = 0
            row = array("H", [count]) * count
            for j, kb in enumerate(keys):
                k = by_key.get(ka + kb)
                if k is not None:
                    mask |= 1 << j
                    row[j] = k
            sums.append(mask)
            add.append(row)
        self.sums: tuple[int, ...] = tuple(sums)
        self.add: tuple[array, ...] = tuple(add)
        self._extended: Diagram | None = None
        # the leaf fields by symmetry-root mask, filled by flagsym.symmetry
        self.leaf_memo: dict[int, tuple] = {}

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def dimension(self) -> int:
        """dim g = |R| + rank."""
        return len(self.roots) + self.rank

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    def _scaled_product(self, a, b) -> int:
        """(a, b) times the common denominator of the form, as an int."""
        gram = self._gram
        return sum(x * sum(map(mul, gram[i], b)) for i, x in enumerate(a) if x)

    def inner_product(self, a, b) -> Fraction:
        """Bilinear form on integer vectors over the simple roots; long roots
        have squared length 2."""
        return Fraction(self._scaled_product(a, b), self._scale)

    def cartan_int(self, a, b) -> int:
        """Cartan integer 2(a,b)/(b,b)."""
        return _cartan_quotient(2 * self._scaled_product(a, b), self._scaled_product(b, b))

    def contains(self, v) -> bool:
        return tuple(v) in self.root_set

    def is_positive(self, r: Root) -> bool:
        return height(r) > 0

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

    def splitting_table(self, coefficients) -> SplittingTable:
        """The vectors c = p a + q beta + r gamma with (p, q, r) =
        ``coefficients(a, beta, gamma)`` over the splittings of every -a."""
        roots, neg = self.roots, self.neg
        node_bits = [1 << n for n in range(self.rank)]
        nodes = [sum(b for b, x in zip(node_bits, r) if x) for r in roots]
        masks, rows = [], []
        for a in range(len(self.positive_roots)):
            mask_row: list[int] = []
            row: list[int] = []
            for beta, gamma in self.splittings(neg[a]):
                p, q, r = coefficients(a, beta, gamma)
                u, v = q - p, r - p  # a = -(beta + gamma)
                c = [u * y + v * z for y, z in zip(roots[beta], roots[gamma])]
                pos = negative = 0
                for b, x in zip(node_bits, c):
                    if x > 0:
                        pos |= b
                    elif x < 0:
                        negative |= b
                mask_row += (nodes[beta], nodes[gamma], pos, negative)
                row += (beta, gamma, *c)
            masks.append(tuple(mask_row))
            rows.append(array("i", row))
        return SplittingTable(tuple(masks), tuple(rows))

    @cached_property
    def shortcut_table(self) -> SplittingTable:
        """The splitting table of the shortcut oracle of :mod:`flagsym.oracle`:
        (p, q, r) = (0, 1 + eps_beta, 1 + eps_gamma).  Built on first use."""
        half = len(self.positive_roots)
        return self.splitting_table(
            lambda a, beta, gamma: (0, 2 if beta < half else 0, 2 if gamma < half else 0)
        )

    def root_string(self, a: Root, b: Root) -> tuple[int, int]:
        """The a-string through b: returns (p, q) with b - p*a .. b + q*a the
        maximal unbroken string of roots.  p - q equals the Cartan integer
        2(b,a)/(a,a)."""
        if a not in self.root_set or b not in self.root_set:
            raise ValueError("root_string arguments must be roots")
        if a == b or a == rneg(b):
            raise ValueError("degenerate root string through +/- itself")
        p = 0
        v = rsub(b, a)
        while v in self.root_set:
            p += 1
            v = rsub(v, a)
        q = 0
        v = radd(b, a)
        while v in self.root_set:
            q += 1
            v = radd(v, a)
        return p, q

    def coroot(self, r: Root) -> tuple[Fraction, ...]:
        """Coordinates of the coroot 2r/(r,r) over the simple coroots."""
        dr = self.lengths[r] / 2
        return tuple(r[i] * self._d[i] / dr for i in range(self.rank))

    def diagram_from_vectors(self, labeled: list[tuple[object, Root]]) -> Diagram:
        """Dynkin diagram of a set of pairwise non-positively paired vectors."""
        product = self._scaled_product
        square = {l: product(v, v) for l, v in labeled}
        edges = []
        for (la, va), (lb, vb) in itertools.combinations(labeled, 2):
            twice = 2 * product(va, vb)
            if not twice:
                continue
            cab = _cartan_quotient(twice, square[lb])
            cba = _cartan_quotient(twice, square[la])
            if cab > 0 or cba > 0:
                raise InternalConsistencyError(
                    f"positive pairing between diagram nodes {la}, {lb}"
                )
            if cab == cba == -2:
                edges.append((la, lb, 2, "both"))
                continue
            mult = cab * cba
            if abs(cab) > abs(cba):
                short = lb
            elif abs(cba) > abs(cab):
                short = la
            else:
                short = None
            edges.append((la, lb, mult, short))
        nodes = tuple(l for l, _ in labeled)
        norm = []
        index = {l: i for i, l in enumerate(nodes)}
        for a, b, m, s in edges:
            if index[a] > index[b]:
                a, b = b, a
            norm.append((a, b, m, s))
        return Diagram(nodes, tuple(sorted(norm, key=lambda e: (index[e[0]], index[e[1]]))))

    def dynkin_diagram(self) -> Diagram:
        return self.diagram_from_vectors(
            [(i + 1, s) for i, s in enumerate(self.simple_roots)]
        )

    def extended_diagram(self) -> Diagram:
        """Extended diagram: node 0 carries the lowest root -theta (built once)."""
        if self._extended is None:
            labeled = [(0, rneg(self.highest))] + [
                (i + 1, s) for i, s in enumerate(self.simple_roots)
            ]
            self._extended = self.diagram_from_vectors(labeled)
        return self._extended


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of a simple type.

    Raises ValueError for (family, rank) pairs that are not a simple type in
    the canonical numbering (C2 and D2/D3 are rejected in favour of their
    B2 / A-type aliases).
    """
    return RootSystem(family, rank)
