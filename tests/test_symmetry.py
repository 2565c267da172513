import dataclasses
import itertools
import re

import pytest

from flagsym import (
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
from flagsym import symmetry
from flagsym.cli import simple_types
from flagsym.rootsystem import bits, radd, rneg
from flagsym.symmetry import (
    ClassificationError,
    _closure_gap,
    _hermitian_name,
    _masks,
    _rank_q,
)

from root_helpers import diagram_isomorphic

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
    assert symmetry_roots(f) == {(1, 1, 1), (0, 1, 1)}


def test_symmetry_roots_g2_twistor():
    f = make_flag(parse_painted("G2:{1}"))
    assert symmetry_roots(f) == {(2, 3)}


def test_symmetry_roots_symmetric_coset_is_everything():
    f = make_flag(parse_painted("A3:{2}"))
    assert symmetry_roots(f) == f.r_m_plus_set


def test_center_examples():
    assert center_of_nilradical(make_flag(parse_painted("A3:{1,3}"))) == {(1, 1, 1)}
    assert center_of_nilradical(make_flag(parse_painted("A3:{2,3}"))) == {
        (1, 1, 1),
        (0, 1, 1),
    }
    assert center_of_nilradical(make_flag(parse_painted("A2:{1,2}"))) == {(1, 1)}


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_two_scans_agree_exhaustive(family, rank):
    for f in all_flags([(family, rank)]):
        assert symmetry_roots(f) == center_of_nilradical(f)


def test_leaf_pair_a3_23():
    leaf = leaf_pair(make_flag(parse_painted("A3:{2,3}")))
    assert leaf.u_type == "A2"
    assert leaf.k_semisimple_type == ("A1",)
    assert leaf.k_center_dim == 1
    assert leaf.name == "CP^2"
    assert leaf.toral_rank == 2
    assert leaf.r_k == {(1, 0, 0), (-1, 0, 0)}


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
    assert leaf.r_u == f.rs.root_set


def test_leaf_pair_b3_3():
    # so(7)/u(3): three symmetry roots, leaf CP^3 (as A3/A2 data)
    f = make_flag(parse_painted("B3:{3}"))
    assert symmetry_roots(f) == {(0, 1, 2), (1, 1, 2), (1, 2, 2)}
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
    hp = h_prime(f)
    assert len(hp) == 6
    rep = build_report(f)
    assert rep.coindex == 6


def test_h_prime_g2():
    rep = build_report(make_flag(parse_painted("G2:{1}")))
    assert rep.coindex == 8


def test_h_prime_symmetric_is_everything():
    f = make_flag(parse_painted("A3:{2}"))
    assert h_prime(f) == f.rs.root_set


def test_hprime_closed_is_the_mask_closure():
    rep = build_report(make_flag(parse_painted("A3:{2,3}")))
    assert rep.hprime_closed is True
    # {a1, a2} misses a1 + a2, so it is not closed under root addition
    broken = dataclasses.replace(rep, h_prime_roots=frozenset({(1, 0, 0), (0, 1, 0)}))
    assert broken.hprime_closed is False


def test_derived_masks_and_closures_run_once_per_flag(monkeypatch):
    calls = {"_r_k": 0, "_closure_gap": 0}

    def counted(name):
        original = getattr(symmetry, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(symmetry, name, counted(name))
    f = make_flag(parse_painted("E7:{2,5}"))
    rep = build_report(f)
    assert k_prime_check(f) and rep.hprime_closed
    assert h_prime(f) is rep.h_prime_roots
    # [p, p] once; one closure for the leaf and one for h', none for hprime_closed
    assert calls == {"_r_k": 1, "_closure_gap": 2}


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
        rp, rk, hp = _masks(f)
        rs = f.rs
        for closed in (rk | rp, hp):
            assert _closure_gap(rs, closed) is None
            for i in range(count):
                variant = closed ^ 1 << i
                assert _closure_gap(rs, variant) == ref_closure_gap(rs, variant), f.pd.spec


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
                assert radd(a, b) not in rs.root_set
        # h' is closed and contains the isotropy roots
        assert f.r_h <= rep.h_prime_roots
        assert k_prime_check(f)
        # leaf sanity: r_k inside r_h, rank equality
        leaf = rep.leaf
        assert leaf.r_k <= f.r_h
        assert leaf.r_u == leaf.r_k | {
            r for a in rep.r_p_plus for r in (a, rneg(a))
        }
        assert leaf.k_center_dim == 1
        assert int(leaf.u_type[1:]) == leaf.toral_rank


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


def test_hermitian_table_rejects_non_hermitian():
    with pytest.raises(ClassificationError):
        _hermitian_name(("G", 2), [("A", 1)])
    with pytest.raises(ClassificationError):
        _hermitian_name(("C", 3), [("C", 2)])


def test_leaf_memo_is_keyed_by_the_symmetry_roots(monkeypatch):
    # A3:{1,3} and A3:{1,2,3} have the same symmetry roots, so one memo entry
    rs = RootSystem("A", 3)
    one, two = (make_flag(PaintedDiagram(rs, frozenset(p))) for p in ({1, 3}, {1, 2, 3}))
    assert symmetry._symmetry(one)[1] == symmetry._symmetry(two)[1]

    def reject(u, ks):
        raise ClassificationError("injected")

    monkeypatch.setattr(symmetry, "_hermitian_name", reject)
    for flag in (one, two, one):  # a failure is raised each time, never kept
        with pytest.raises(ClassificationError, match=re.escape(f"{flag.pd.spec}: injected")):
            leaf_pair(flag)
    assert rs.leaf_memo == {}
    monkeypatch.undo()

    leaf = leaf_pair(one)
    monkeypatch.setattr(symmetry, "_leaf_fields", None)  # a second computation fails
    assert leaf_pair(two) == leaf and leaf.name == "CP^1"
    (fields,) = rs.leaf_memo.values()
    # plain fields, no descriptor: a memo entry refers to nothing that refers to rs
    assert all(isinstance(x, (str, int, tuple)) for x in fields)
    assert all(isinstance(x, str) for x in fields[1])
    assert LeafDescriptor(*fields, rs=rs) == leaf


def test_rank_helper():
    assert _rank_q([(1, 1, 1), (0, 1, 1)]) == 2
    assert _rank_q([(1, 1), (2, 2)]) == 1
    assert _rank_q([]) == 0
