import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsym import (
    KahlerParam,
    PaintedDiagram,
    build_root_system,
    kahler_param,
    make_flag,
    parse_painted,
    random_kahler_param,
    simple_types,
    to_dot,
)
from flagsym.rootsystem import bits, rneg

from flag_helpers import epsilon, eval_root, ref_r_h, ref_r_m, ref_r_m_plus, t_modules
from root_helpers import inner_product, radd, root_set


def all_paintings(family, rank):
    rs = build_root_system(family, rank)
    for size in range(1, rank + 1):
        for combo in itertools.combinations(range(1, rank + 1), size):
            yield make_flag(PaintedDiagram(rs, frozenset(combo)))


RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]


def test_parse_roundtrip():
    pd = parse_painted("A3:{2,3}")
    assert pd.rs.name == "A3"
    assert pd.painted == frozenset({2, 3})
    assert pd.spec == "A3:{2,3}"
    assert parse_painted(" G2 : { 1 } ").painted == frozenset({1})


@pytest.mark.parametrize(
    "text",
    [
        "A3:{}", "A3:{0}", "A3:{4}", "Z3:{1}", "A3:2,3", "C2:{1}", "A3:{x}",
        # a rank in fullwidth or Arabic-Indic digits
        "A\uff13:{1}", "A\u0663:{1}",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_painted(text)


@pytest.mark.parametrize(
    "text,painted",
    [
        (" A3 : { 1 , 2, } ", {1, 2}),
        ("A3:{1,,02}", {1, 2}),
        ("A3:{ 3 ,1}", {1, 3}),
        ("A3:{2,2}", {2}),
    ],
)
def test_parse_keeps_the_lenient_forms(text, painted):
    assert parse_painted(text).painted == frozenset(painted)


@pytest.mark.parametrize("text,token", [("A3:{1 2}", "1 2"), ("B3:{1, 2 3}", "2 3")])
def test_parse_names_a_token_without_its_comma(text, token):
    with pytest.raises(ValueError) as exc:
        parse_painted(text)
    assert str(exc.value) == (
        f"cannot parse painted node {token!r} in {text!r}; expected e.g. 'A3:{{2,3}}'"
    )


def test_a3_23_flag_data():
    f = make_flag(parse_painted("A3:{2,3}"))
    assert f.rs.roots_of(f.h_mask) == {(1, 0, 0), (-1, 0, 0)}
    assert f.m_plus_mask.bit_count() == 5


def test_full_painting_empty_isotropy():
    f = make_flag(parse_painted("B3:{1,2,3}"))
    assert f.h_mask == 0
    assert f.dim_m == 18


def test_g2_1_flag_data():
    f = make_flag(parse_painted("G2:{1}"))
    assert f.rs.roots_of(f.h_mask) == {(0, 1), (0, -1)}
    assert f.m_plus_mask.bit_count() == 5
    # the white root is short: this is the twistor-space painting
    assert inner_product(f.rs, (0, 1), (0, 1)) == Fraction(2, 3)


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_ordering_axioms_exhaustive(family, rank):
    rs = build_root_system(family, rank)
    for f in all_paintings(family, rank):
        r_h, r_m = rs.roots_of(f.h_mask), rs.roots_of(f.m_mask)
        r_m_plus = rs.roots_of(f.m_plus_mask)
        assert r_h | r_m == root_set(rs) and not (r_h & r_m)
        assert r_h == {rneg(r) for r in r_h}
        minus = {rneg(r) for r in r_m_plus}
        assert r_m == r_m_plus | minus and not (r_m_plus & minus)
        for h in r_h:
            for m in r_m:
                s = radd(h, m)
                if s in root_set(rs):
                    assert s in r_m
            for m in r_m_plus:
                s = radd(h, m)
                if s in root_set(rs):
                    assert s in r_m_plus


def test_mask_views_through_rank_8():
    """The masks of FlagData agree with R_h, R_m and R_m+ built from
    coordinates on all 2455 paintings."""
    seen = 0
    for family, rank in simple_types(8):
        rs = build_root_system(family, rank)
        for f in all_paintings(family, rank):
            seen += 1
            r_m = ref_r_m(f)
            assert f.dim_m == len(r_m) == f.m_mask.bit_count()
            assert rs.roots_of(f.m_mask) == r_m
            assert rs.roots_of(f.h_mask) == ref_r_h(f) == root_set(rs) - r_m
            assert rs.roots_of(f.m_plus_mask) == ref_r_m_plus(f) <= r_m
            assert rs.mask_of(ref_r_m_plus(f)) == f.m_plus_mask
    assert seen == 2455


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_t_modules_partition(family, rank):
    for f in all_paintings(family, rank):
        cells = t_modules(f)
        assert sorted(r for c in cells.values() for r in c) == sorted(ref_r_m_plus(f))
        painted = sorted(f.pd.painted)
        for fp, roots in cells.items():
            assert all(tuple(r[i - 1] for i in painted) == fp for r in roots)
        assert f.m_mask.bit_count() == 2 * f.m_plus_mask.bit_count()


def test_eval_root_examples():
    f = make_flag(parse_painted("A3:{2,3}"))
    xi = kahler_param(f, [1, 1])
    assert eval_root(f, xi, (1, 0, 0)) == 0
    assert eval_root(f, xi, (1, 1, 1)) == 2
    assert eval_root(f, xi, (0, -1, 0)) == -1


def test_eval_root_sign_on_isotropy():
    f = make_flag(parse_painted("A3:{2,3}"))
    xi = kahler_param(f, [Fraction(1, 3), 5])
    for a in f.rs.roots_of(f.m_plus_mask):
        assert eval_root(f, xi, a) > 0
    for a in f.rs.roots_of(f.h_mask):
        assert eval_root(f, xi, a) == 0


def test_epsilon():
    f = make_flag(parse_painted("A3:{2,3}"))
    theta = f.rs.highest
    assert epsilon(f, theta) == 1
    assert epsilon(f, rneg(theta)) == -1
    assert epsilon(f, (0, 1, 1)) == 1
    with pytest.raises(ValueError):
        epsilon(f, (1, 0, 0))


def test_is_symmetric_coset():
    assert make_flag(parse_painted("A3:{2}")).is_symmetric_coset()
    assert not make_flag(parse_painted("A3:{2,3}")).is_symmetric_coset()
    assert not make_flag(parse_painted("A2:{1,2}")).is_symmetric_coset()


def test_symmetric_exactly_when_one_painted_node_has_coefficient_one():
    # is_symmetric_coset, the highest-root test build_report holds the
    # coindex to, against the definition as a sums scan (no two roots of
    # R_m+ sum to a root), on all 2455 paintings through rank 8
    symmetric = 0
    for family, rank in simple_types(8):
        for f in all_paintings(family, rank):
            sums, plus = f.rs.sums, f.m_plus_mask
            scan = not any(sums[i] & plus for i in bits(plus))
            assert f.is_symmetric_coset() == scan, f.pd.spec
            symmetric += scan
    assert symmetric == 67


def test_kahler_param_validation():
    f = make_flag(parse_painted("A3:{2,3}"))
    with pytest.raises(ValueError):
        kahler_param(f, [1])
    with pytest.raises(ValueError):
        kahler_param(f, [1, 0])
    with pytest.raises(ValueError):
        kahler_param(f, [1, -2])
    # no floats: 0.1 is a binary approximation, not 1/10
    with pytest.raises(ValueError, match="node 2"):
        kahler_param(f, [0.1, 2])
    with pytest.raises(ValueError, match="node 3"):
        KahlerParam({2: 1, 3: 2.0})
    # no bools: True is the int 1, but a flag where a coefficient belongs
    with pytest.raises(ValueError, match="node 2"):
        KahlerParam({2: True, 3: 1})
    with pytest.raises(ValueError, match="node 2"):
        kahler_param(f, [True, 2])
    xi = kahler_param(f, [1, "1/3"])
    assert xi == kahler_param(f, [Fraction(1), Fraction(1, 3)]) == KahlerParam({2: 1, 3: "1/3"})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_kahler_param_contract(seed):
    f = make_flag(parse_painted("B3:{1,3}"))
    xi = random_kahler_param(f, seed)
    assert xi == random_kahler_param(f, seed)  # deterministic in the seed
    assert set(xi.coeffs) == {1, 3}
    assert all(0 < v <= 10 for v in xi.coeffs.values())


def test_random_kahler_param_distinct_seeds():
    f = make_flag(parse_painted("A3:{2,3}"))
    assert random_kahler_param(f, 0) != random_kahler_param(f, 1)


def test_dot_output():
    pd = parse_painted("G2:{1}")
    dot = to_dot(pd.rs.dynkin_diagram(), pd.painted, "painted")
    assert "graph painted" in dot
    assert "fillcolor=black" in dot
    assert "n1 -- n2" in dot
    ext = to_dot(pd.rs.extended_diagram(), pd.painted, "extended")
    assert "0 (affine)" in ext
