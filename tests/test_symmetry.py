import gc
import itertools
import re
import weakref
from collections import Counter

import pytest

from flagsym import (
    InternalConsistencyError,
    LeafDescriptor,
    PaintedDiagram,
    RootSystem,
    build_report,
    build_root_system,
    center_of_nilradical,
    classify_connected,
    diagrams_agree,
    h_prime,
    k_prime_check,
    leaf_pair,
    leaf_via_diagram,
    make_flag,
    parse_painted,
    symmetry_roots,
)
from flagsym import cli, symmetry
from flagsym.cli import simple_types
from flagsym.flag import split_painted
from flagsym.rootsystem import bits, rneg, root_str
from flagsym.symmetry import (
    ClassificationError,
    _closure_gap,
    _hermitian_name,
    _rank_q,
    _sound,
    _structure,
    _symmetric,
)

from root_helpers import diagram_isomorphic, radd, root_set, writable_add

RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]


def all_flags(types):
    for family, rank in types:
        rs = build_root_system(family, rank)
        for size in range(1, rank + 1):
            for combo in itertools.combinations(range(1, rank + 1), size):
                yield make_flag(PaintedDiagram(rs, frozenset(combo)))


def test_symmetry_roots_a3_23():
    f = make_flag(parse_painted("A3:{2,3}"))
    assert f.rs.roots_of(symmetry_roots(f)) == {(1, 1, 1), (0, 1, 1)}


def test_symmetry_roots_g2_twistor():
    f = make_flag(parse_painted("G2:{1}"))
    assert f.rs.roots_of(symmetry_roots(f)) == {(2, 3)}


def test_symmetry_roots_symmetric_coset_is_everything():
    f = make_flag(parse_painted("A3:{2}"))
    assert symmetry_roots(f) == f.m_plus_mask


def test_center_examples():
    for spec, center in [
        ("A3:{1,3}", {(1, 1, 1)}),
        ("A3:{2,3}", {(1, 1, 1), (0, 1, 1)}),
        ("A2:{1,2}", {(1, 1)}),
    ]:
        f = make_flag(parse_painted(spec))
        assert f.rs.roots_of(center_of_nilradical(f)) == center, spec


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_two_scans_agree_exhaustive(family, rank):
    for f in all_flags([(family, rank)]):
        assert symmetry_roots(f) == center_of_nilradical(f)


def test_leaf_pair_a3_23():
    f = make_flag(parse_painted("A3:{2,3}"))
    leaf = leaf_pair(f)
    assert leaf.u_type == "A2"
    assert leaf.k_semisimple_type == ("A1",)
    assert leaf.k_center_dim == 1
    assert leaf.name == "CP^2"
    assert leaf.toral_rank == 2
    assert f.rs.roots_of(leaf.k_mask) == {(1, 0, 0), (-1, 0, 0)}


def test_leaf_pair_g2_twistor():
    leaf = leaf_pair(make_flag(parse_painted("G2:{1}")))
    assert leaf.u_type == "A1"
    assert leaf.k_semisimple_type == ()
    assert leaf.name == "CP^1"


def test_leaf_pair_symmetric_coset_is_m_itself():
    f = make_flag(parse_painted("A3:{2}"))
    leaf = leaf_pair(f)
    assert leaf.u_type == "A3"
    assert leaf.k_semisimple_type == ("A1", "A1")
    assert leaf.name == "Gr_2(C^4)"
    assert f.rs.roots_of(leaf.u_mask) == root_set(f.rs)


def test_leaf_pair_b3_3():
    # so(7)/u(3): three symmetry roots, leaf CP^3 (as A3/A2 data)
    f = make_flag(parse_painted("B3:{3}"))
    assert f.rs.roots_of(symmetry_roots(f)) == {(0, 1, 2), (1, 1, 2), (1, 2, 2)}
    leaf = leaf_pair(f)
    assert leaf.u_type == "A3"
    assert leaf.k_semisimple_type == ("A2",)
    assert leaf.name == "CP^3"


def test_leaf_via_diagram_examples():
    d = leaf_via_diagram(parse_painted("A3:{2,3}"))
    assert set(d.nodes) == {0, 1}
    assert classify_connected(d) == ("A", 2)
    d = leaf_via_diagram(parse_painted("A3:{1,3}"))
    assert d.nodes == (0,)
    assert classify_connected(d) == ("A", 1)
    d = leaf_via_diagram(parse_painted("G2:{1}"))
    assert d.nodes == (0,)


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_two_method_leaf_identification_exhaustive(family, rank):
    for f in all_flags([(family, rank)]):
        leaf = leaf_pair(f)
        assert diagrams_agree(f.pd, leaf), f.pd.spec


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_leaf_diagrams_isomorphic_as_graphs(family, rank):
    # dual route: the extended-diagram component is graph-isomorphic to the
    # Dynkin diagram of the computed leaf type
    for f in all_flags([(family, rank)]):
        leaf = leaf_pair(f)
        got = leaf_via_diagram(f.pd)
        fam, r = leaf.u_type[0], int(leaf.u_type[1:])
        want = build_root_system(fam, r).dynkin_diagram()
        assert diagram_isomorphic(got, want), f.pd.spec


def test_h_prime_a3_23():
    f = make_flag(parse_painted("A3:{2,3}"))
    assert h_prime(f).bit_count() == 6
    rep = build_report(f)
    assert rep.coindex == 6


def test_h_prime_g2():
    rep = build_report(make_flag(parse_painted("G2:{1}")))
    assert rep.coindex == 8


def test_h_prime_symmetric_is_everything():
    f = make_flag(parse_painted("A3:{2}"))
    assert f.rs.roots_of(h_prime(f)) == root_set(f.rs)


def test_closure_gap_walks_the_given_rows():
    rs = build_root_system("A", 2)
    i, j = sorted((rs.index[(1, 0)], rs.index[(0, 1)]))
    pair = 1 << i | 1 << j  # a1 + a2 is a root outside it
    assert _closure_gap(rs, pair) == (i, j)
    assert _closure_gap(rs, pair, 1 << j) == (j, i)
    assert _closure_gap(rs, pair, 0) is None


@pytest.mark.parametrize(
    "spec,dim_m,coindex",
    [
        ("A3:{2}", 10, 2),  # symmetric: one painted node of coefficient 1
        ("A3:{2,3}", 4, 0),  # two painted nodes: never symmetric
        ("B3:{2}", 2, 0),  # the coefficient of node 2 in theta is 2
    ],
)
def test_a_coindex_against_the_highest_root_raises(spec, dim_m, coindex):
    f = make_flag(parse_painted(spec))
    f.dim_m = dim_m  # a planted tangent dimension moves the coindex only
    with pytest.raises(InternalConsistencyError) as info:
        build_report(f)
    assert str(info.value) == (
        f"{spec}: coindex {coindex} vs the painted coefficients of the highest root"
    )


def test_p_p_escaping_the_isotropy_roots_raises_from_every_entry_point(monkeypatch):
    rs = RootSystem("A", 3)  # its own leaf memo, empty
    f = make_flag(PaintedDiagram(rs, frozenset({2, 3})))
    outside = 1 << rs.index[(0, 1, 0)]  # node 2 is painted: a2 is a tangent root
    monkeypatch.setattr(symmetry, "_r_k", lambda rs, plus: outside)
    monkeypatch.setattr(symmetry, "_leaf_descriptor", None)  # a classification fails
    message = re.escape("A3:{2,3}: [p,p] escapes the isotropy roots")
    for entry in (build_report, leaf_pair, h_prime, k_prime_check):
        with pytest.raises(InternalConsistencyError, match=message):
            entry(f)
    assert f._structure is None and rs.leaf_memo == {}


def test_derived_masks_and_closures_run_once_per_flag(monkeypatch):
    calls = {"_sound": [], "_r_k": [], "_closure_gap": []}

    def counted(name):
        original = getattr(symmetry, name)

        def wrapper(rs, *masks):
            calls[name].append(masks)
            return original(rs, *masks)

        return wrapper

    for name in calls:
        monkeypatch.setattr(symmetry, name, counted(name))
    rs = RootSystem("E", 7)  # its own memos, empty
    f = make_flag(PaintedDiagram(rs, frozenset({2, 5})))
    build_report(f)
    record = _structure(f)
    assert k_prime_check(f) and h_prime(f) == record.hp
    full = (1 << len(rs.roots)) - 1
    # the index judged sound once per root system, by closing the zero set of
    # each node; [p, p] once; h' once, on the rows of p; the leaf on the rows
    # of k only; none for h_prime
    assert calls == {
        "_sound": [()],
        "_r_k": [(record.plus,)],
        "_closure_gap": [(full & ~zero,) for zero in rs.support]
        + [(record.hp, record.rp), (record.rk | record.rp, record.rk)],
    }
    assert rs.sound is True

    # E7:{2,5,6} has the same symmetry roots: [p, p] and the leaf come from the
    # memo, the soundness verdict from the root system, and only h' is closed
    # again
    for name in calls:
        calls[name].clear()
    g = make_flag(PaintedDiagram(rs, frozenset({2, 5, 6})))
    rep = build_report(g)
    other = _structure(g)
    assert other[:3] == record[:3] and rep.leaf is leaf_pair(f)
    assert k_prime_check(g) and h_prime(g) == other.hp
    assert calls == {"_sound": [()], "_r_k": [], "_closure_gap": [(other.hp, other.rp)]}


def ref_closure_gap(rs, mask):
    """The loop ``_closure_gap`` replaced: walk every row pair by pair."""
    for i in bits(mask):
        row = rs.add[i]
        for j in bits(rs.sums[i] & mask):
            if not mask >> row[j] & 1:
                return i, j
    return None


@pytest.mark.parametrize("family,rank", simple_types(6))
def test_closure_gap_gives_the_loop_witness(family, rank):
    """The same first witness (i, j) as the pairwise loop, on the closed leaf
    and h' sets of every painting and on each set with one root removed or
    one root added."""
    count = len(build_root_system(family, rank).roots)
    for f in all_flags([(family, rank)]):
        record, rs = _structure(f), f.rs
        for closed in (record.rk | record.rp, record.hp):
            assert _closure_gap(rs, closed) is None
            for i in range(count):
                variant = closed ^ 1 << i
                assert _closure_gap(rs, variant) == ref_closure_gap(rs, variant), f.pd.spec


# m holds roots outside h', h holds sums, and a root of p and one of h sum
# to a root
GAP_PAINTINGS = ["A5:{1,2}", "B4:{3}", "C4:{2}", "F4:{3,4}", "E6:{4}"]


def fresh_flag(spec):
    """A flag on a fresh root system, with the h' and p masks of a clean table."""
    family, rank, painted = split_painted(spec)
    clean = _structure(make_flag(PaintedDiagram(build_root_system(family, rank), painted)))
    return make_flag(PaintedDiagram(RootSystem(family, rank), painted)), clean.hp, clean.rp


def hprime_message(flag, hp):
    """The error of the walk over every row of h': its first pairwise witness."""
    a, b = (root_str(flag.rs.roots[i]) for i in ref_closure_gap(flag.rs, hp))
    return f"{flag.pd.spec}: h' not closed ({a} + {b})"


def kept_by_zero_sets(rs, i, j):
    """Mask of the roots in every zero set that holds roots i and j: a sum of
    i and j planted there leaves every zero set closed."""
    keep = (1 << len(rs.roots)) - 1
    for support in rs.support:
        if not (support >> i | support >> j) & 1:
            keep &= ~support
    return keep


@pytest.mark.parametrize("rows", ["p and h", "p", "h"])
@pytest.mark.parametrize("spec", GAP_PAINTINGS)
def test_planted_gap_between_p_and_h_raises_the_full_walk_witness(spec, rows):
    f, hp, rp = fresh_flag(spec)
    rs = f.rs
    # the sum of a root i of p and a root j > i of h, sent outside h', to a
    # root of every zero set that holds i and j, in the row of p, in the row
    # of h or in both
    i, j, outside = next(
        (i, j, o)
        for i in bits(rp)
        for j in bits(rs.sums[i] & hp & ~rp)
        if j > i
        for o in bits(f.m_mask & ~rp & kept_by_zero_sets(rs, i, j))
    )
    add = writable_add(rs)
    if rows != "h":
        add[i][j] = outside
    if rows != "p":
        add[j][i] = outside
    # a gap in the row of h alone escapes the rows of p
    assert (_closure_gap(rs, hp, rp) is None) == (rows == "h")
    if rows == "p and h":
        # the index stays sound, and the rows of p find the gap at (i, j),
        # the first witness of the walk over every row of h' too
        assert _sound(rs) and ref_closure_gap(rs, hp) == (i, j)
        message = hprime_message(f, hp)
    else:
        # add is no longer symmetric: the index fails closed
        assert not _symmetric(rs)
        message = f"{rs.name}: root index not sound"
    # no record of the painting can say hprime_closed over an open h'
    for entry in (build_report, cli._painting):
        with pytest.raises(InternalConsistencyError) as exc:
            entry(f)
        assert str(exc.value) == message
        assert f._structure is None


@pytest.mark.parametrize("spec", GAP_PAINTINGS)
def test_sum_inside_h_sent_outside_fails_the_node_verdict(spec):
    f, hp, rp = fresh_flag(spec)
    rs, h = f.rs, f.h_mask
    i = next(i for i in bits(h) if rs.sums[i] & h)
    j = next(bits(rs.sums[i] & h))
    add = writable_add(rs)
    add[i][j] = add[j][i] = next(bits(f.m_mask & ~rp))
    with pytest.raises(InternalConsistencyError) as exc:
        build_report(f)
    assert str(exc.value) == f"{rs.name}: root index not sound"
    assert f._structure is None and rs.sound is False
    # add is still symmetric, but a painted zero set is not closed; the rows
    # of p miss the gap that the walk over every row of h' finds
    assert _symmetric(rs)
    assert _closure_gap(rs, hp, rp) is None and ref_closure_gap(rs, hp) is not None


def test_gap_in_one_row_of_the_leaf_raises_from_the_leaf_closure():
    rs = RootSystem("A", 5)  # planted before first use
    f = make_flag(PaintedDiagram(rs, frozenset({1, 3})))
    record = _structure(make_flag(PaintedDiagram(build_root_system("A", 5), f.pd.painted)))
    # 0 is a root of k and 13 one of p, with their sum in p; 3 is a root of h
    # outside u = k + p, in every zero set that holds 0 and 13
    assert record.rk >> 0 & 1 and record.rp >> 13 & 1 and rs.sums[0] >> 13 & 1
    assert f.h_mask >> 3 & 1 and not (record.rk | record.rp) >> 3 & 1
    assert kept_by_zero_sets(rs, 0, 13) >> 3 & 1
    add = writable_add(rs)
    add[0][13] = add[13][0] = 3  # the index stays sound, and h' closed
    with pytest.raises(InternalConsistencyError, match=re.escape("A5:{1,3}: leaf root set not closed")):
        leaf_pair(f)
    assert rs.sound is True and f._structure.hp == record.hp and rs.leaf_memo == {}


def test_unsound_index_raises_from_every_entry_point():
    rs = RootSystem("A", 5)  # its own memos, empty
    f = make_flag(PaintedDiagram(rs, frozenset({1, 3})))
    record = _structure(make_flag(PaintedDiagram(build_root_system("A", 5), f.pd.painted)))
    # 11 is a root of p and 1 one of k; 3 is a root of h outside u = k + p.
    # Written only in the row of p, the gap escapes the rows of k, and add is
    # no longer symmetric
    assert record.rp >> 11 & 1 and record.rk >> 1 & 1
    assert f.h_mask >> 3 & 1 and not (record.rk | record.rp) >> 3 & 1
    writable_add(rs)[11][1] = 3
    assert _closure_gap(rs, record.rk | record.rp, record.rk) is None
    for entry in (build_report, leaf_pair, h_prime, k_prime_check, cli._painting):
        with pytest.raises(InternalConsistencyError) as exc:
            entry(f)
        assert str(exc.value) == "A5: root index not sound"
    assert f._structure is None and rs.leaf_memo == {} and rs.sound is False


def test_k_prime_examples():
    assert k_prime_check(make_flag(parse_painted("A3:{2,3}")))
    assert k_prime_check(make_flag(parse_painted("B3:{3}")))


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_report_invariants_exhaustive(family, rank):
    rs = build_root_system(family, rank)
    for f in all_flags([(family, rank)]):
        rep = build_report(f)
        assert rs.highest in rep.r_p_plus
        assert rep.index == 2 * len(rep.r_p_plus)
        assert rep.index + rep.coindex == f.dim_m
        assert rep.index % 2 == 0 and rep.coindex % 2 == 0
        assert (rep.coindex == 0) == f.is_symmetric_coset()
        # the centre is abelian: no two symmetry roots sum to a root
        for a in rep.r_p_plus:
            for b in rep.r_p_plus:
                assert radd(a, b) not in root_set(rs)
        # h' is closed and contains the isotropy roots
        r_h = rs.roots_of(f.h_mask)
        assert r_h <= rs.roots_of(h_prime(f))
        assert k_prime_check(f)
        # leaf sanity: r_k inside r_h, rank equality
        leaf = rep.leaf
        r_k = rs.roots_of(leaf.k_mask)
        assert r_k <= r_h
        assert rs.roots_of(leaf.u_mask) == r_k | {
            r for a in rep.r_p_plus for r in (a, rneg(a))
        }
        assert leaf.k_center_dim == 1
        assert int(leaf.u_type[1:]) == leaf.toral_rank


@pytest.mark.parametrize("spec", ["A2:{1,2}", "B2:{1,2}", "A3:{2,3}", "B3:{3}", "E8:{1,2,3,4}"])
def test_records_of_one_painting_are_equal(spec):
    flag, other = make_flag(parse_painted(spec)), make_flag(parse_painted(spec))
    rep = build_report(flag)
    assert rep == build_report(other)
    assert rep.r_p_plus == flag.rs.roots_of(symmetry_roots(flag))


@pytest.mark.parametrize("spec", ["A2:{1,2}", "E8:{1,2,3,4}"])
def test_a_record_keeps_no_flag_alive(spec):
    flag = make_flag(parse_painted(spec))
    alive = weakref.ref(flag)
    rep = cli._painting(flag)
    del flag
    gc.collect()
    assert alive() is None
    assert rep.spec == spec and rep.checks["kprime_commutes"]


@pytest.mark.parametrize("rank", range(1, 9))
def test_a_family_closed_forms(rank):
    # the painted nodes of A_n cut the n + 1 indices of e_1..e_{n+1} into
    # blocks n_0..n_k, so M = SU(n+1)/S(U(n_0) x ... x U(n_k)) and
    # dim M = (n+1)^2 - sum n_i^2.  One painted node gives a Grassmannian,
    # symmetric, with index dim M; with more, the symmetry roots are the
    # e_i - e_j with i in the first block and j in the last: index 2 n_0 n_k
    rs = build_root_system("A", rank)
    for size in range(1, rank + 1):
        for painted in itertools.combinations(range(1, rank + 1), size):
            cuts = (0, *painted, rank + 1)
            blocks = [b - a for a, b in zip(cuts, cuts[1:])]
            dim_m = (rank + 1) ** 2 - sum(n * n for n in blocks)
            index = dim_m if size == 1 else 2 * blocks[0] * blocks[-1]
            flag = make_flag(PaintedDiagram(rs, frozenset(painted)))
            assert (flag.dim_m, build_report(flag).index) == (dim_m, index), painted


def test_symmetric_coset_names():
    cases = {
        "A4:{2}": "Gr_2(C^5)",
        "A4:{1}": "CP^4",
        "B3:{1}": "Q_5",
        "C3:{3}": "Sp(3)/U(3)",
        "D4:{1}": "Q_6",
        "D5:{5}": "SO(10)/U(5)",
        "D5:{1}": "Q_8",
        "E6:{1}": "E III",
        "E7:{7}": "E VII",
    }
    for spec, name in cases.items():
        rep = build_report(make_flag(parse_painted(spec)))
        assert rep.coindex == 0, spec
        assert rep.leaf.name == name, spec


# each kind of leaf name: its pattern, and the real dimension dim G - dim K of
# the Hermitian symmetric space G/K it names, from the numbers in the name
LEAF_KINDS = [
    ("CP^n", r"CP\^(\d+)", lambda n: 2 * n),
    ("Q_n", r"Q_(\d+)", lambda n: 2 * n),
    ("Gr", r"Gr_(\d+)\(C\^(\d+)\)", lambda k, n: 2 * k * (n - k)),
    ("Sp", r"Sp\((\d+)\)/U\((\d+)\)", lambda n, k: n * (2 * n + 1) - k * k),
    ("SO", r"SO\((\d+)\)/U\((\d+)\)", lambda m, k: m * (m - 1) // 2 - k * k),
    ("E III", r"E III", lambda: 78 - 46),  # E6 / Spin(10) U(1)
    ("E VII", r"E VII", lambda: 133 - 79),  # E7 / E6 U(1)
]


def leaf_kind_and_dimension(name: str) -> tuple[str, int]:
    """The kind and the real dimension of the leaf named ``name``;
    ValueError on a name of no known kind."""
    for kind, pattern, dimension in LEAF_KINDS:
        match = re.fullmatch(pattern, name)
        if match:
            return kind, dimension(*map(int, match.groups()))
    raise ValueError(f"no leaf kind reads {name!r}")


def test_leaf_names_are_read():
    assert leaf_kind_and_dimension("Gr_2(C^5)") == ("Gr", 12)
    assert leaf_kind_and_dimension("SO(10)/U(5)") == ("SO", 20)
    assert leaf_kind_and_dimension("Sp(3)/U(3)") == ("Sp", 12)
    for name in ("CP^x", "Q_6 ", "E VI", "Gr_2(C^5"):
        with pytest.raises(ValueError, match="no leaf kind"):
            leaf_kind_and_dimension(name)


def test_leaf_name_agrees_with_the_index_through_rank_8():
    # the index is the real dimension of the leaf, and the leaf's name fixes
    # it, so a name that misnames the leaf shows here
    kinds = Counter()
    for entry in cli.enumerate_flags(max_rank=8).entries:
        kind, dimension = leaf_kind_and_dimension(entry.leaf.name)
        assert dimension == entry.index, (entry.spec, entry.leaf.name)
        kinds[kind] += 1
    assert kinds == {
        "CP^n": 1954, "Q_n": 205, "Gr": 120, "Sp": 120, "SO": 53, "E III": 2, "E VII": 1
    }


def test_hermitian_table_rejects_non_hermitian():
    with pytest.raises(ClassificationError):
        _hermitian_name(("G", 2), [("A", 1)])
    with pytest.raises(ClassificationError):
        _hermitian_name(("C", 3), [("C", 2)])


def test_leaf_memo_is_keyed_by_the_symmetry_roots(monkeypatch):
    # A3:{1,3} and A3:{1,2,3} have the same symmetry roots, so one memo entry
    rs = RootSystem("A", 3)
    one, two = (make_flag(PaintedDiagram(rs, frozenset(p))) for p in ({1, 3}, {1, 2, 3}))
    plus = _structure(one).plus
    assert _structure(two).plus == plus

    def reject(u, ks):
        raise ClassificationError("injected")

    monkeypatch.setattr(symmetry, "_hermitian_name", reject)
    for flag in (one, two, one):  # a failure is raised each time, never kept
        with pytest.raises(ClassificationError, match=re.escape(f"{flag.pd.spec}: injected")):
            leaf_pair(flag)
    assert rs.leaf_memo == {}
    monkeypatch.undo()

    leaf = leaf_pair(one)
    monkeypatch.setattr(symmetry, "_leaf_descriptor", None)  # a second computation fails
    assert leaf_pair(two) is leaf and leaf.name == "CP^1"
    assert rs.leaf_memo == {plus: leaf} and isinstance(leaf, LeafDescriptor)
    # masks and labels only: a memo entry refers to nothing that refers to rs
    assert all(isinstance(x, (str, int, tuple)) for x in leaf)
    assert all(isinstance(x, str) for x in leaf.k_semisimple_type)


def test_rank_helper():
    assert _rank_q([(1, 1, 1), (0, 1, 1)]) == 2
    assert _rank_q([(1, 1), (2, 2)]) == 1
    assert _rank_q([]) == 0
