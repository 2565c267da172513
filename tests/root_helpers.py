"""Tuple-keyed views of a root system, the root-index build it replaced, the
Gram form, and a diagram isomorphism test, that only the tests read.

Every layer of the program works on the root index (``sums``, ``add``,
``splittings``), so the dict of sums keyed by coordinate tuples moved here
from ``RootSystem``: the reference implementations and the checks against
coordinate addition look sums up by tuple.  So did the set of roots
(:func:`root_set`) and coordinate addition and subtraction (:func:`radd`,
:func:`rsub`), which no layer of the program reads.  :func:`ref_root_tables`
is the former build of the index: positive roots by root strings searched as
coordinate tuples, lengths as Fraction inner products from a Fraction Gram
matrix, and ``sums``/``add`` by a lookup for every ordered pair of roots.

The Gram form (:func:`gram_form`, :func:`inner_product`, :func:`cartan_int`)
and the methods on coordinate tuples built from it (:func:`root_string`,
:func:`coroot` and the diagram builder :func:`diagram_from_vectors`) moved
here from ``RootSystem`` when its diagrams moved to Cartan integers read off
root strings on the index: they are the references that builder, the
subsystem classifier and the integer coroots are checked against.
:func:`diagram_isomorphic` tries every node bijection, the brute-force
reference the diagram classifier is checked against, and
:func:`ref_diagram_components` is the search over edge lists that the
component split on node masks replaced.

:func:`writable_add` is how a test plants a fault in a root index, whose
``add`` rows are read-only: it rebinds ``add`` to writable copies.
"""

import itertools
from array import array
from fractions import Fraction
from functools import lru_cache
from math import lcm

from flagsym.rootsystem import (
    Diagram,
    InternalConsistencyError,
    bits,
    height,
    rneg,
)


# the A-D types past E8 whose root index the tests pin and judge sound
PAST_E8 = [(f, r) for f in "ABCD" for r in range(9, 13)]


def writable_add(rs) -> tuple[array, ...]:
    """Rebind ``rs.add`` to writable copies of its rows, and return them."""
    rs.add = tuple(array("H", row) for row in rs.add)
    return rs.add


def radd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def rsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def root_set(rs) -> frozenset:
    """The roots of ``rs`` as a set of coordinate tuples."""
    return frozenset(rs.roots)


def ref_length_halves(cartan) -> tuple[Fraction, ...]:
    """Half squared lengths d_i = (a_i, a_i)/2 as Fractions, long roots d = 1,
    from the symmetry (a_i, a_j) = c_ij d_j = c_ji d_i along the edges."""
    d = [None] * len(cartan)
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j, c in enumerate(cartan[i]):
            if i != j and c and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], c)
                queue.append(j)
    top = max(d)
    return tuple(x / top for x in d)


@lru_cache(maxsize=None)
def gram_form(cartan):
    """(gram, scale): the integer Gram matrix, (a_i, a_j) = gram[i][j] / scale."""
    rank = len(cartan)
    d = ref_length_halves(cartan)
    scale = lcm(*(x.denominator for x in d))
    gram = tuple(
        tuple(int(cartan[i][j] * d[j] * scale) for j in range(rank)) for i in range(rank)
    )
    return gram, scale


def scaled_product(rs, a, b) -> int:
    """(a, b) times the common denominator of the form, as an int."""
    gram = gram_form(rs.cartan)[0]
    return sum(x * sum(g * y for g, y in zip(gram[i], b)) for i, x in enumerate(a) if x)


def inner_product(rs, a, b) -> Fraction:
    """The form on integer vectors over the simple roots; long roots have (a, a) = 2."""
    return Fraction(scaled_product(rs, a, b), gram_form(rs.cartan)[1])


def _cartan_quotient(num: int, den: int) -> int:
    """The Cartan integer num / den = 2(a, b)/(b, b), from scaled products."""
    if num % den:
        raise InternalConsistencyError(f"non-integral Cartan pairing {Fraction(num, den)}")
    return num // den


def cartan_int(rs, a, b) -> int:
    """Cartan integer 2(a, b)/(b, b)."""
    return _cartan_quotient(2 * scaled_product(rs, a, b), scaled_product(rs, b, b))


def root_string(rs, a, b) -> tuple[int, int]:
    """The a-string through b: (p, q) with b - p a .. b + q a the maximal
    unbroken string of roots.  p - q equals the Cartan integer 2(b, a)/(a, a)."""
    roots = root_set(rs)
    if a not in roots or b not in roots:
        raise ValueError("root_string arguments must be roots")
    if a == b or a == rneg(b):
        raise ValueError("degenerate root string through +/- itself")
    p = 0
    v = rsub(b, a)
    while v in roots:
        p += 1
        v = rsub(v, a)
    q = 0
    v = radd(b, a)
    while v in roots:
        q += 1
        v = radd(v, a)
    return p, q


def coroot(rs, r) -> tuple[Fraction, ...]:
    """Coordinates of the coroot 2r/(r, r) over the simple coroots
    2a_i/(a_i, a_i): coefficient i is r_i (a_i, a_i) / (r, r), from the Gram
    form."""
    gram, square = gram_form(rs.cartan)[0], scaled_product(rs, r, r)
    return tuple(Fraction(c * gram[i][i], square) for i, c in enumerate(r))


@lru_cache(maxsize=None)
def ref_weights(cartan) -> dict:
    """b(d) = 2/(d, d) for every root d, from the Fraction lengths of
    :func:`ref_root_tables`."""
    return {r: Fraction(2) / length for r, length in ref_root_tables(cartan)[2].items()}


def diagram_from_vectors(rs, labeled) -> Diagram:
    """Dynkin diagram of (label, vector) pairs that pair non-positively, from
    Gram products: the builder ``RootSystem.diagram`` replaced."""
    square = {l: scaled_product(rs, v, v) for l, v in labeled}
    edges = []
    for (la, va), (lb, vb) in itertools.combinations(labeled, 2):
        twice = 2 * scaled_product(rs, va, vb)
        if not twice:
            continue
        cab = _cartan_quotient(twice, square[lb])
        cba = _cartan_quotient(twice, square[la])
        if cab > 0 or cba > 0:
            raise InternalConsistencyError(f"positive pairing between diagram nodes {la}, {lb}")
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


def ref_dynkin_diagram(rs) -> Diagram:
    return diagram_from_vectors(rs, [(i + 1, s) for i, s in enumerate(rs.simple_roots)])


def ref_extended_diagram(rs) -> Diagram:
    labeled = [(0, rneg(rs.highest))] + [(i + 1, s) for i, s in enumerate(rs.simple_roots)]
    return diagram_from_vectors(rs, labeled)


def ref_positive_roots(cartan):
    """All positive roots by root-string extension from the simple roots."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pos = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
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


def ref_root_tables(cartan):
    """roots, index, lengths, sums and add as the former constructor built them."""
    gram, scale = gram_form(cartan)
    pos = ref_positive_roots(cartan)
    roots = tuple(pos) + tuple(rneg(r) for r in pos)
    lengths = {
        r: Fraction(sum(x * gram[i][j] * y for i, x in enumerate(r) for j, y in enumerate(r)), scale)
        for r in roots
    }
    count = len(roots)
    base = 4 * max(pos[-1]) + 1
    keys = [sum(c * base**n for n, c in enumerate(r)) for r in roots]
    by_key = {key: i for i, key in enumerate(keys)}
    sums, add = [], []
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
    index = {r: i for i, r in enumerate(roots)}
    return roots, index, lengths, tuple(sums), tuple(add)


@lru_cache(maxsize=None)
def sum_index(rs) -> dict:
    """(a, b) -> a + b for every ordered pair of roots whose sum is a root."""
    roots = rs.roots
    out = {}
    for i, a in enumerate(roots):
        row = rs.add[i]
        for j in bits(rs.sums[i]):
            out[(a, roots[j])] = roots[row[j]]
    return out


def sum_root(rs, a, b):
    """a + b when it is a root, else None."""
    return sum_index(rs).get((a, b))


def diagram_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Brute-force isomorphism test for small diagrams (test oracle)."""
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return False

    def edge_map(d: Diagram) -> dict:
        out = {}
        for a, b, m, short in d.edges:
            if short == "both":
                tag = "both"
            elif short is None:
                tag = None
            else:
                tag = short
            out[frozenset((a, b))] = (m, tag)
        return out

    e1, e2 = edge_map(d1), edge_map(d2)
    for perm in itertools.permutations(d2.nodes):
        phi = dict(zip(d1.nodes, perm))
        ok = True
        for key, (m, tag) in e1.items():
            a, b = tuple(key)
            got = e2.get(frozenset((phi[a], phi[b])))
            want_tag = tag if tag in (None, "both") else phi[tag]
            if got != (m, want_tag):
                ok = False
                break
        if ok:
            return True
    return False


def ref_diagram_components(d: Diagram) -> list[Diagram]:
    """The components of ``d`` by a set search over its edge list, grown from
    each node not yet seen: nodes in the order of ``d.nodes``, the edges of
    ``d`` that start in the component."""

    def neighbors(v):
        return [b if a == v else a for a, b, _, _ in d.edges if v in (a, b)]

    seen: set = set()
    comps = []
    for start in d.nodes:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in neighbors(stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        nodes = tuple(sorted(comp, key=d.nodes.index))
        comps.append(Diagram(nodes, tuple(e for e in d.edges if e[0] in comp)))
    return comps
