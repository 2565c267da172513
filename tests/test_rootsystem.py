import hashlib
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsym import (
    Diagram,
    RootSystem,
    build_root_system,
    classify_connected,
    diagram_components,
    dim_g,
    root_str,
    simple_types,
    to_dot,
)
from flagsym.rootsystem import (
    InternalConsistencyError,
    _length_halves,
    bits,
    cartan_matrix,
    height,
    rneg,
    walk,
)
from root_helpers import (
    PAST_E8,
    cartan_int,
    diagram_isomorphic,
    inner_product,
    radd,
    ref_diagram_components,
    ref_dynkin_diagram,
    ref_extended_diagram,
    ref_length_halves,
    ref_root_tables,
    root_set,
    root_string,
    rsub,
    sum_index,
)

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
        assert rneg(r) in root_set(rs)
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
    assert inner_product(rs, (1, 0), (1, 0)) == 2  # node 1 long
    assert inner_product(rs, (0, 1), (0, 1)) == Fraction(2, 3)
    assert inner_product(rs, (2, 3), (2, 3)) == 2
    assert [rs.weights[rs.index[r]] for r in ((1, 0), (0, 1), (2, 3))] == [1, 3, 1]


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_root_index_build_matches_the_reference(family, rank):
    # the integer build gives the tables of the tuple and Fraction build, in
    # the same order, on every simple type of rank <= 8, and the pairing
    # weights b(d) = 2/(d, d) of its Fraction lengths as ints
    rs = build_root_system(family, rank)
    roots, index, lengths, sums, add = ref_root_tables(rs.cartan)
    assert rs.roots == roots
    assert list(rs.index.items()) == list(index.items())
    assert rs.weights == tuple(Fraction(2) / lengths[r] for r in roots)
    assert all(type(w) is int for w in rs.weights)
    assert rs.sums == sums
    assert rs.add == add


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_a_write_into_add_raises(family, rank):
    # the rows are read-only views: a verdict on the index, or a digest of
    # its table, cannot be outlived by a write
    rs = RootSystem(family, rank)
    count = len(rs.roots)
    for i, row in enumerate(rs.add):
        with pytest.raises(TypeError):
            row[i] = count
        assert row[i] == count  # i + i is never a root

def old_decompositions(rs, gamma):
    """The pairs (al, be), al < be positive, al ascending, with al + be =
    gamma, read off ``sums[gamma]`` as the Chevalley build once did."""
    neg, row, half = rs.neg, rs.add[gamma], len(rs.positive_roots)
    negative = rs.positive_mask << half
    return [(neg[x], row[x]) for x in bits(rs.sums[gamma] & negative) if neg[x] < row[x] < half]


@pytest.mark.parametrize("family,rank", simple_types(8) + PAST_E8)
def test_decompositions_are_the_pairs_read_off_sums(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.decompositions) == len(rs.positive_roots)
    assert all(type(pairs) is tuple for pairs in rs.decompositions)
    for gamma, pairs in enumerate(rs.decompositions):
        assert list(pairs) == old_decompositions(rs, gamma), (family, rank, gamma)
    # each zero-sum class once: twelve sum pairs to a class
    assert 12 * sum(map(len, rs.decompositions)) == sum(map(int.bit_count, rs.sums))


# the sha256 of add (rows little-endian) and of sums (each mask little-endian
# in (|R| + 7) // 8 bytes) for each A-D type of rank 9-12, as built by the
# pair loop that looked up a sum and a difference per ordered pair
ADD_SUMS_PAST_E8 = {
    "A9": (
        "aff4553e7ded0dc733cd9f52685dd79606bf6fe0458f72cfc2f532a991976765",
        "3c6422d44c48eaf5a352ac4f8f77e652e31824e9efc9adbee0e97db957e0a98f",
    ),
    "A10": (
        "18bde6a55cc894ef34da8118cf8b4a48b35a0727303b54ea3a65234d01d9a819",
        "70c5b0e3e4fd39146daec14cef590e5993fb3b8f56c2b97d55f4c44ea45664a4",
    ),
    "A11": (
        "eba60aa4e350e9e42f3b0a511a0dadea3c651af8cfbb5a7207ed2171ba214d80",
        "10347b35c2743f2abfafcd38b38f36a852773b973a6ecc8bf744f11ff73184df",
    ),
    "A12": (
        "7328611dc64510efd7e83331a6866bed571305ab636a3f40d304e4ed45c14ad8",
        "68418304efeba904adb6ed9e652ac2d90e5ca0d964c6aef38b1266b7e0655dc8",
    ),
    "B9": (
        "66cd18912fb282dfdeb7497d9172b0f90142d3322dab25c4aae7903622d8a35f",
        "015c07ae9ae5d9e0416a2e335d03c894b61a464d71c956d809aad30d08278f0f",
    ),
    "B10": (
        "5a0f9c7647c6726fd6d519b0cb2b1f36b699761852b326cda8789c0573c513bb",
        "b72d871e4788862423a0be9e26453bb80e7e9016856de765bfc612a8859d024e",
    ),
    "B11": (
        "b4c6fc9674fee12d9c0494c21568b020808b2cf041c1ed71750cd93b605d9ffd",
        "1f31158af764227ef7d7000a838845fcad9d3bfae1b6a3355a117975f46c0ee0",
    ),
    "B12": (
        "9697dc875b086c73973f6b58692eb33a5eedfff112e8bd896fa60cb6d47eddab",
        "7948e0428a9bf0329582b3d4f0df415b46b8b770a902e51be60797140de7438c",
    ),
    "C9": (
        "749b103c8168a93b417804e9554a26e26366389fb873be0b7610ca5884d63260",
        "2b3f640147bdfffed5529f34e5bc4f7d50ba9c3096a74f72de6a8cca52b63e91",
    ),
    "C10": (
        "0c27211403e1e4da0964c5c3d7efd46181e3ff28cfe50fc4fa3bce5df4e3cb0c",
        "9f525db8396149bc77e8ec4e321b28e22e3f063675b6a023634ca3d79d75926b",
    ),
    "C11": (
        "3af8d844e59b46592397156071d3afa3d64582fbab51049775543e3f94044446",
        "22cc0126dde2521901c1a985396c6fb76c50241be8876a62a992a907210851d9",
    ),
    "C12": (
        "69c582b4a897bb1fb6dc77435eb20c7054952124fc61adf63cdac0cef3ee5f92",
        "340a405b1ca133f82e9b72ada3f386c48550d63e417cae45f74e888583432b73",
    ),
    "D9": (
        "4aae3d9506e346217406852c77d9867c7cbe6f2c43433b68debbbe13b129efb3",
        "d2be763e890f40373994c2aea128e13a2e3f8998f756f281e0720caf2e52b15d",
    ),
    "D10": (
        "3e6add49e410d28b9ddfcd00536717fdd910c61cd08723795a0ed4bedf45a55b",
        "89a881d3d46a9ff2e9b22caec4ce3a60ee698aad433868d2f6654a29a7fe9ab6",
    ),
    "D11": (
        "526e704930b3c3ba484ebd46c21e043cf5e8e69f8517d36d0f830c5fc36a40c9",
        "1ba5d7818d7510f511cabe406310c99e77f646feb25d008048641646f74b6e4e",
    ),
    "D12": (
        "f62e1c0971c51d8efbc9023bc3213332e2359c3a3d439d83462fb43d429f619b",
        "66cee757001f4c6fa9c4fabd504f17372cbead11c27ddac2d6bd2d93e1a5de68",
    ),
}


def add_sums_digests(rs) -> tuple[str, str]:
    wide = array("H")
    wide.frombytes(b"".join(rs.add))
    if sys.byteorder == "big":
        wide.byteswap()
    width = (len(rs.roots) + 7) // 8
    masks = b"".join(s.to_bytes(width, "little") for s in rs.sums)
    return hashlib.sha256(wide).hexdigest(), hashlib.sha256(masks).hexdigest()


def test_root_index_past_e8_is_pinned():
    assert set(ADD_SUMS_PAST_E8) == {f"{f}{r}" for f, r in PAST_E8}
    for name, want in ADD_SUMS_PAST_E8.items():
        assert add_sums_digests(build_root_system(name[0], int(name[1:]))) == want, name


def test_disconnected_cartan_matrix_is_an_internal_error():
    # A1 x A1: no edge reaches node 2, so its root length is never fixed; the
    # check must hold under python -O as well, so it is no assert
    with pytest.raises(InternalConsistencyError, match="disconnected"):
        _length_halves(((2, 0), (0, 2)))
    assert _length_halves(((2, -1), (-1, 2))) == (1, 1)


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_length_halves_are_the_integer_symmetriser(family, rank):
    # c_ij d_j = c_ji d_i in ints, 1 on the shortest simple roots, and the
    # ratios of the reference's Fraction lengths (long roots 1 there)
    cartan = cartan_matrix(family, rank)
    d = _length_halves(cartan)
    assert all(type(x) is int for x in d) and min(d) == 1
    assert all(cartan[i][j] * d[j] == cartan[j][i] * d[i] for i in range(rank) for j in range(rank))
    assert [x * max(d) for x in ref_length_halves(cartan)] == list(d)


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
            if s in root_set(rs):
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
            if rsub(s, x) in root_set(rs)
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
            want = 2 * inner_product(rs, si, sj) / inner_product(rs, sj, sj)
            assert rs.cartan[i][j] == want
            assert rs.cartan_integer(rs.index[si], rs.index[sj]) == want


def test_inner_products_a3():
    rs = build_root_system("A", 3)
    a1, a2 = (1, 0, 0), (0, 1, 0)
    assert inner_product(rs, a1, a1) == 2
    assert inner_product(rs, a1, a2) == -1


def test_inner_products_g2():
    rs = build_root_system("G", 2)
    a1, a2 = (1, 0), (0, 1)
    assert inner_product(rs, a2, a2) == Fraction(2, 3)
    assert cartan_int(rs, a1, a2) == -3
    assert cartan_int(rs, a2, a1) == -1
    # index 0 is a2 in G2: the positive roots are ordered by (height, coordinates)
    i1, i2 = rs.index[a1], rs.index[a2]
    assert (i1, i2) == (1, 0)
    assert (rs.cartan_integer(i1, i2), rs.cartan_integer(i2, i1)) == (-3, -1)


def string_by_walks(rs, a, b):
    """(p, q) of the a-string through b, walked along the ``add`` rows."""
    i, j = rs.index[a], rs.index[b]
    return walk(rs.add[rs.neg[i]], j), walk(rs.add[i], j)


def test_root_string_examples():
    a2sys = build_root_system("A", 2)
    assert root_string(a2sys, (1, 0), (0, 1)) == (0, 1)
    assert string_by_walks(a2sys, (1, 0), (0, 1)) == (0, 1)
    g2 = build_root_system("G", 2)
    assert root_string(g2, (0, 1), (1, 0)) == (0, 3)
    assert string_by_walks(g2, (0, 1), (1, 0)) == (0, 3)


def test_root_string_rejects_degenerate():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        root_string(rs, (1, 0), (1, 0))
    with pytest.raises(ValueError):
        root_string(rs, (1, 0), (-1, 0))


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_string_identity_exhaustive(family, rank):
    # p - q = 2(b,a)/(a,a) for every root pair, and the index reads the same
    # Cartan integer off its walks; a root pairs to 2 with itself and an
    # opposite pair to -2
    rs = build_root_system(family, rank)
    for a in rs.roots:
        for b in rs.roots:
            ia, ib = rs.index[a], rs.index[b]
            if a == b:
                assert rs.cartan_integer(ia, ia) == cartan_int(rs, a, a) == 2
                continue
            if a == rneg(b):
                assert rs.cartan_integer(ib, ia) == cartan_int(rs, b, a) == -2
                continue
            p, q = root_string(rs, a, b)
            assert (p, q) == string_by_walks(rs, a, b)
            assert p - q == cartan_int(rs, b, a) == rs.cartan_integer(ib, ia)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([t for t in SMALL_TYPES if t != ("A", 1)]), st.data())
def test_string_identity_property(typ, data):
    rs = build_root_system(*typ)
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from([r for r in rs.roots if r not in (a, rneg(a))]))
    p, q = root_string(rs, a, b)
    assert p - q == cartan_int(rs, b, a) == rs.cartan_integer(rs.index[b], rs.index[a])


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_both_strings_of_a_sum_pair_run_down_equally(family, rank):
    # |n(a, b)| = p + 1 with p from the a-string through b, and n(b, a) =
    # -n(a, b), so when a + b is a root the b-string through a has the same
    # p; the Chevalley audit walks one of the two strings per pair orbit
    rs = build_root_system(family, rank)
    for i in range(len(rs.roots)):
        for j in bits(rs.sums[i]):
            p = walk(rs.add[rs.neg[i]], j)
            assert p == walk(rs.add[rs.neg[j]], i), (rs.roots[i], rs.roots[j])


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
    # dim g = |R| + rank against the closed forms the sweep reports
    types = simple_types(8)
    assert len(types) == 31
    for family, rank in types:
        rs = build_root_system(family, rank)
        assert len(rs.roots) + rs.rank == dim_g(family, rank), rs.name


def test_dynkin_diagram_a3():
    d = build_root_system("A", 3).dynkin_diagram()
    assert d.nodes == (1, 2, 3)
    assert d.edges == ((1, 2, 1, None), (2, 3, 1, None))


def test_extended_a3_is_cycle():
    d = build_root_system("A", 3).extended_diagram()
    assert d.nodes == (0, 1, 2, 3)
    assert len(d.edges) == 4
    assert all(neighbours.bit_count() == 2 for neighbours in d.adjacency)


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


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_diagrams_match_the_gram_builder(family, rank):
    # Cartan integers from root strings on the index give the diagrams the
    # Gram products gave, node order, edge order and short ends included
    rs = build_root_system(family, rank)
    assert rs.dynkin_diagram() == ref_dynkin_diagram(rs)
    assert rs.extended_diagram() == ref_extended_diagram(rs)


def test_dot_text_of_every_diagram_is_pinned():
    # the DOT text of the plain and the extended diagram of every type of
    # rank <= 8; the pin is that of the Gram-product builder
    text = "".join(
        to_dot(rs.dynkin_diagram(), frozenset(), "painted")
        + to_dot(rs.extended_diagram(), frozenset(), "extended")
        for rs in (build_root_system(f, r) for f, r in simple_types(8))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bc0a1c2d2fabd03d2350cce569e2180ce1e85ee0a3ff142bece63c0766165775"
    )


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


def test_diagram_components_match_the_edge_list_search():
    # every node subset of every extended diagram through rank 8 (node labels
    # are not places there): the same components in the same order, each with
    # its nodes and edges in the order of the subdiagram
    count = 0
    for family, rank in simple_types(8):
        ext = build_root_system(family, rank).extended_diagram()
        for mask in range(1 << len(ext.nodes)):
            nodes = tuple(v for v in ext.nodes if mask >> v & 1)
            edges = tuple(e for e in ext.edges if e[0] in nodes and e[1] in nodes)
            sub = Diagram(nodes, edges)
            assert diagram_components(sub) == ref_diagram_components(sub), (family, rank, mask)
            count += 1
    assert count == 4972


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
        want = tuple(j for j, b in enumerate(rs.roots) if radd(a, b) in root_set(rs))
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
