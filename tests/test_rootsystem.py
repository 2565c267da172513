import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsym import (
    Diagram,
    build_root_system,
    classify_connected,
    diagram_components,
    root_str,
    simple_types,
)
from flagsym.rootsystem import bits, height, radd, rneg, rsub
from root_helpers import diagram_isomorphic, sum_index

# classical root counts: the independent oracle for the closure algorithm
CLASSICAL_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("A", 4): 20,
    ("A", 5): 30,
    ("B", 2): 8,
    ("B", 3): 18,
    ("B", 4): 32,
    ("C", 3): 18,
    ("C", 4): 32,
    ("D", 4): 24,
    ("D", 5): 40,
    ("E", 6): 72,
    ("E", 7): 126,
    ("F", 4): 48,
    ("G", 2): 12,
}

SMALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL_COUNTS))
def test_root_counts_match_classical(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == CLASSICAL_COUNTS[(family, rank)]
    assert len(rs.roots) == 2 * len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_roots_closed_under_negation_and_signs(family, rank):
    rs = build_root_system(family, rank)
    for r in rs.roots:
        assert rneg(r) in rs.root_set
        assert all(c >= 0 for c in r) or all(c <= 0 for c in r)
        assert height(r) != 0


def test_a1_trivial():
    rs = build_root_system("A", 1)
    assert set(rs.roots) == {(1,), (-1,)}
    assert rs.highest == (1,)


def test_a3_highest_and_count():
    rs = build_root_system("A", 3)
    assert len(rs.roots) == 12
    assert rs.highest == (1, 1, 1)


def test_g2_highest_and_lengths():
    rs = build_root_system("G", 2)
    assert len(rs.roots) == 12
    assert rs.highest == (2, 3)
    assert rs.lengths[(1, 0)] == 2  # node 1 long
    assert rs.lengths[(0, 1)] == Fraction(2, 3)
    assert rs.lengths[(2, 3)] == 2


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_highest_root_dominates(family, rank):
    rs = build_root_system(family, rank)
    hi = rs.highest
    assert all(all(h >= c for h, c in zip(hi, r)) for r in rs.positive_roots)


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_sum_index_agrees_with_coordinate_addition(family, rank):
    rs = build_root_system(family, rank)
    for a in rs.roots:
        for b in rs.roots:
            s = radd(a, b)
            if s in rs.root_set:
                assert sum_index(rs)[(a, b)] == s
            else:
                assert (a, b) not in sum_index(rs)


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_splittings_list_each_decomposition_once(family, rank):
    rs = build_root_system(family, rank)
    half = len(rs.positive_roots)
    for k, s in enumerate(rs.roots):
        pairs = rs.splittings(k)
        unordered = {frozenset(p) for p in pairs}
        assert len(pairs) == len(unordered)
        assert unordered == {
            frozenset((rs.index[x], rs.index[rsub(s, x)]))
            for x in rs.roots
            if rsub(s, x) in rs.root_set
        }
        assert all(rs.roots[i] <= rs.roots[j] for i, j in pairs)
        mixed = [(i < half) != (j < half) for i, j in pairs]
        assert mixed == sorted(mixed, reverse=True)  # mixed-sign pairs first
    assert 2 * sum(len(rs.splittings(k)) for k in range(len(rs.roots))) == len(sum_index(rs))
    if (family, rank) == ("E", 8):
        assert len(sum_index(rs)) == 13440


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_cartan_matrix_matches_inner_products(family, rank):
    rs = build_root_system(family, rank)
    for i, si in enumerate(rs.simple_roots):
        for j, sj in enumerate(rs.simple_roots):
            assert rs.cartan[i][j] == 2 * rs.inner_product(si, sj) / rs.inner_product(sj, sj)


def test_inner_products_a3():
    rs = build_root_system("A", 3)
    a1, a2 = (1, 0, 0), (0, 1, 0)
    assert rs.inner_product(a1, a1) == 2
    assert rs.inner_product(a1, a2) == -1


def test_inner_products_g2():
    rs = build_root_system("G", 2)
    a1, a2 = (1, 0), (0, 1)
    assert rs.inner_product(a2, a2) == Fraction(2, 3)
    assert rs.cartan_int(a1, a2) == -3
    assert rs.cartan_int(a2, a1) == -1


def test_root_string_examples():
    a2sys = build_root_system("A", 2)
    assert a2sys.root_string((1, 0), (0, 1)) == (0, 1)
    g2 = build_root_system("G", 2)
    assert g2.root_string((0, 1), (1, 0)) == (0, 3)


def test_root_string_rejects_degenerate():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        rs.root_string((1, 0), (1, 0))
    with pytest.raises(ValueError):
        rs.root_string((1, 0), (-1, 0))


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_string_identity_exhaustive(family, rank):
    # p - q = 2(b,a)/(a,a) for every root pair
    rs = build_root_system(family, rank)
    for a in rs.roots:
        for b in rs.roots:
            if a == b or a == rneg(b):
                continue
            p, q = rs.root_string(a, b)
            assert p - q == rs.cartan_int(b, a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([t for t in SMALL_TYPES if t != ("A", 1)]), st.data())
def test_string_identity_property(typ, data):
    rs = build_root_system(*typ)
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from([r for r in rs.roots if r not in (a, rneg(a))]))
    p, q = rs.root_string(a, b)
    assert p - q == rs.cartan_int(b, a)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1)],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        build_root_system(family, rank)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_root_system("H", 2)


def test_dimension():
    assert build_root_system("A", 3).dimension == 15
    assert build_root_system("G", 2).dimension == 14
    assert build_root_system("E", 6).dimension == 78


def test_dynkin_diagram_a3():
    d = build_root_system("A", 3).dynkin_diagram()
    assert d.nodes == (1, 2, 3)
    assert d.edges == ((1, 2, 1, None), (2, 3, 1, None))


def test_extended_a3_is_cycle():
    d = build_root_system("A", 3).extended_diagram()
    assert d.nodes == (0, 1, 2, 3)
    assert len(d.edges) == 4
    assert all(d.degree(v) == 2 for v in d.nodes)


def test_extended_a1_double_bond_both_arrows():
    d = build_root_system("A", 1).extended_diagram()
    assert d.edges == ((0, 1, 2, "both"),)


def test_extended_g2_chain():
    d = build_root_system("G", 2).extended_diagram()
    assert (0, 1, 1, None) in d.edges  # affine attaches to the long node by a single bond
    assert (1, 2, 3, 2) in d.edges


def test_extended_attachment_points():
    # theta pairs with exactly one simple root for B, D, E types
    for family, rank, node in [("B", 3, 2), ("D", 4, 2), ("E", 6, 2), ("C", 3, 1)]:
        d = build_root_system(family, rank).extended_diagram()
        attached = [e for e in d.edges if 0 in (e[0], e[1])]
        assert {x for e in attached for x in e[:2] if x != 0} == {node}


@pytest.mark.parametrize("family,rank", SMALL_TYPES + [("A", 5), ("B", 5), ("D", 5), ("E", 6)])
def test_dynkin_diagram_classifies_to_itself(family, rank):
    rs = build_root_system(family, rank)
    got = classify_connected(rs.dynkin_diagram())
    if (family, rank) == ("C", 3):
        assert got == ("C", 3)
    assert got == (family, rank)


def test_classification_aliases():
    # a rank-2 double bond is B2 whichever way the arrow points
    assert classify_connected(Diagram((7, 9), ((7, 9, 2, 7),))) == ("B", 2)
    assert classify_connected(Diagram((7, 9), ((7, 9, 2, 9),))) == ("B", 2)
    # a 3-chain is A3 (the D3 coincidence)
    d3ish = Diagram((4, 5, 6), ((4, 5, 1, None), (5, 6, 1, None)))
    assert classify_connected(d3ish) == ("A", 3)


def test_b_vs_c_arrow():
    # terminal short node -> B; terminal long node -> C
    b3 = Diagram((1, 2, 3), ((1, 2, 1, None), (2, 3, 2, 3)))
    c3 = Diagram((1, 2, 3), ((1, 2, 1, None), (2, 3, 2, 2)))
    assert classify_connected(b3) == ("B", 3)
    assert classify_connected(c3) == ("C", 3)


def test_classify_rejects_affine_shapes():
    cycle = Diagram((1, 2, 3), ((1, 2, 1, None), (2, 3, 1, None), (1, 3, 1, None)))
    with pytest.raises(ValueError):
        classify_connected(cycle)


def test_diagram_components():
    d = Diagram((1, 2, 3, 4), ((1, 2, 1, None),))
    comps = diagram_components(d)
    assert sorted(tuple(c.nodes) for c in comps) == [(1, 2), (3,), (4,)]


def test_diagram_isomorphism_oracle_agrees_with_classification():
    # brute-force isomorphism vs canonical labels on relabeled diagrams
    base = build_root_system("B", 3).dynkin_diagram()
    relabeled = Diagram((10, 20, 30), ((10, 20, 1, None), (20, 30, 2, 30)))
    assert diagram_isomorphic(base, relabeled)
    assert classify_connected(base) == classify_connected(relabeled)
    other = build_root_system("C", 3).dynkin_diagram()
    assert not diagram_isomorphic(base, other)


def test_root_str():
    assert root_str((1, 2, 0)) == "a1+2a2"
    assert root_str((-1, -1, -1)) == "-a1-a2-a3"
    assert root_str((0, 1, -1)) == "a2-a3"


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_partners_are_the_sum_rows(family, rank):
    rs = build_root_system(family, rank)
    for i, a in enumerate(rs.roots):
        want = tuple(j for j, b in enumerate(rs.roots) if radd(a, b) in rs.root_set)
        assert rs.partners[i] == want


def ref_bits(mask):
    """The generator ``bits`` replaced: peel off the lowest set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bits_edge_masks():
    assert list(bits(0)) == []
    for i in range(480):
        assert list(bits(1 << i)) == [i]
    full = (1 << 480) - 1
    assert list(bits(full)) == list(range(480))
    assert list(bits(full ^ 1 << 239)) == list(ref_bits(full ^ 1 << 239))


def _mask(positions):
    mask = 0
    for i in positions:
        mask |= 1 << i
    return mask


# masks up to 480 bits (twice E8's 240 roots): sparse, about half full, dense
MASKS = st.integers(min_value=1, max_value=480).flatmap(
    lambda width: st.one_of(
        st.lists(st.integers(0, width - 1), max_size=8).map(_mask),
        st.integers(0, (1 << width) - 1),
        st.lists(st.integers(0, width - 1), max_size=8).map(
            lambda p: ((1 << width) - 1) ^ _mask(p)
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(MASKS)
def test_bits_matches_the_generator(mask):
    got = list(bits(mask))
    assert got == list(ref_bits(mask))
    assert _mask(got) == mask and got == sorted(got)
