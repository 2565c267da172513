import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsym import (
    PaintedDiagram,
    build_root_system,
    chevalley_table,
    kahler_param,
    make_flag,
    parse_painted,
    random_kahler_param,
    shortcut_set,
    shortcut_violations,
    symmetry_roots,
    transvection_set,
    transvection_violations,
)
from flagsym.rootsystem import rneg

from flag_helpers import pairing

RANK_LE_3 = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


def all_flags(types):
    for family, rank in types:
        rs = build_root_system(family, rank)
        for size in range(1, rank + 1):
            for combo in itertools.combinations(range(1, rank + 1), size):
                yield make_flag(PaintedDiagram(rs, frozenset(combo)))


@pytest.fixture(scope="module")
def a3_setup():
    f = make_flag(parse_painted("A3:{2,3}"))
    return f, kahler_param(f, [1, 1]), chevalley_table("A", 3)


@pytest.fixture(scope="module")
def g2_setup():
    f = make_flag(parse_painted("G2:{1}"))
    return f, kahler_param(f, [1]), chevalley_table("G", 2)


def test_pairing_examples(a3_setup):
    f, xi, t = a3_setup
    theta = (1, 1, 1)
    assert pairing(f, xi, t, theta) == 2
    assert pairing(f, xi, t, rneg(theta)) == 2  # both sign flips cancel


def test_pairing_g2_length_factors(g2_setup):
    f, xi, t = g2_setup
    # a1+a2 and a1+2a2 are short (b = 3); a1+3a2 is long (b = 1)
    assert pairing(f, xi, t, (1, 1)) == 3
    assert pairing(f, xi, t, (1, 2)) == 3
    assert pairing(f, xi, t, (1, 3)) == 1
    assert pairing(f, xi, t, (2, 3)) == 2


def test_pairing_positive_and_even_under_negation(a3_setup):
    f, xi, t = a3_setup
    for d in f.rs.roots_of(f.m_mask):
        v = pairing(f, xi, t, d)
        assert v > 0
        assert v == pairing(f, xi, t, rneg(d))


def test_pairing_rejects_isotropy(a3_setup):
    f, xi, t = a3_setup
    with pytest.raises(ValueError):
        pairing(f, xi, t, (1, 0, 0))


def test_transvection_theta_always_true(a3_setup):
    f, _, t = a3_setup
    for seed in range(5):
        xi = random_kahler_param(f, seed)
        assert not transvection_violations(f, xi, t, (1, 1, 1))


def test_transvection_a1_plus_a2_false_with_witness(a3_setup):
    f, xi, t = a3_setup
    viols = transvection_violations(f, xi, t, (1, 1, 0))
    assert viols
    # the witnessing decomposition -(a1+a2) = a3 + (-theta)
    assert ((-1, -1, -1), (0, 0, 1)) in {(b, g) for b, g, _ in viols} | {
        (g, b) for b, g, _ in viols
    }
    sviols = shortcut_violations(f, xi, (1, 1, 0))
    assert sviols


def test_transvection_a2_plus_a3_true_many_xi(a3_setup):
    f, _, t = a3_setup
    for seed in range(20):
        xi = random_kahler_param(f, seed)
        assert not transvection_violations(f, xi, t, (0, 1, 1))


def test_transvection_set_examples(a3_setup):
    f, _, t = a3_setup
    expected = {(1, 1, 1), (0, 1, 1)}
    for coeffs in [(1, 1), (1, 2), (7, 3)]:
        xi = kahler_param(f, coeffs)
        assert transvection_set(f, xi, t) == expected
        assert shortcut_set(f, xi) == expected


@pytest.mark.parametrize("family,rank", [("B", 3), ("A", 2)])
def test_table_of_another_type_is_rejected(a3_setup, family, rank):
    # the B3 table has the A3 table's shape and would give a wrong set
    # silently, the A2 table is too small to index
    f, _, _ = a3_setup
    xi, t = kahler_param(f, [1, 2]), chevalley_table(family, rank)
    for call in (
        lambda: transvection_set(f, xi, t),
        lambda: transvection_violations(f, xi, t, (0, 1, 1)),
    ):
        with pytest.raises(ValueError, match=f"{family}{rank} table .* painting A3:"):
            call()


def test_transvection_set_g2(g2_setup):
    f, _, t = g2_setup
    for seed in range(20):
        xi = random_kahler_param(f, seed)
        assert transvection_set(f, xi, t) == {(2, 3)}


def test_transvection_set_symmetric_coset():
    f = make_flag(parse_painted("A3:{2}"))
    t = chevalley_table("A", 3)
    xi = kahler_param(f, [2])
    assert transvection_set(f, xi, t) == f.rs.roots_of(f.m_plus_mask)


def test_g2_weighted_cancellation(g2_setup):
    # the both-negative decomposition of -theta only cancels through the
    # short-root weights b = 3; theta must check out exactly
    f, xi, t = g2_setup
    assert transvection_violations(f, xi, t, (2, 3)) == []
    assert transvection_violations(f, xi, t, (1, 2))
    assert shortcut_violations(f, xi, (1, 2))


def test_eq6_reduction_simply_laced(a3_setup):
    # with b = 1 the cyclic sum factors as n(beta,gamma)*(r(a) - r(beta) - r(gamma))
    f, xi, t = a3_setup
    rs = f.rs

    def r(d):
        return pairing(f, xi, t, d)

    r_m = rs.roots_of(f.m_mask)
    for a in rs.roots_of(f.m_plus_mask):
        na = rneg(a)
        for beta in r_m:
            gamma = tuple(x - y for x, y in zip(na, beta))
            if gamma not in r_m:
                continue
            total = (
                t.n_of(beta, gamma) * r(a)
                + t.n_of(a, gamma) * r(beta)
                + t.n_of(beta, a) * r(gamma)
            )
            assert total == t.n_of(beta, gamma) * (r(a) - r(beta) - r(gamma))


@pytest.mark.parametrize("family,rank", RANK_LE_3)
def test_two_methods_agree_exhaustive(family, rank):
    t = chevalley_table(family, rank)
    for f in all_flags([(family, rank)]):
        for seed in range(5):
            xi = random_kahler_param(f, f"{f.pd.spec}|{seed}")
            for a in f.rs.roots_of(f.m_plus_mask):
                assert (not transvection_violations(f, xi, t, a)) == (
                    not shortcut_violations(f, xi, a)
                ), (f.pd.spec, a)


@pytest.mark.parametrize("family,rank", RANK_LE_3)
def test_oracle_equals_symmetry_roots(family, rank):
    t = chevalley_table(family, rank)
    for f in all_flags([(family, rank)]):
        expected = symmetry_roots(f)
        for seed in range(3):
            xi = random_kahler_param(f, seed)
            assert transvection_set(f, xi, t) == expected, f.pd.spec


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["A3:{2,3}", "B3:{2}", "G2:{1}", "C3:{1,3}"]),
    st.integers(min_value=0, max_value=10**6),
    st.fractions(min_value=Fraction(1, 20), max_value=20),
)
def test_xi_scaling_invariance(spec, seed, scale):
    # the transvection condition is homogeneous in xi
    f = make_flag(parse_painted(spec))
    t = chevalley_table(f.rs.family, f.rs.rank)
    xi = random_kahler_param(f, seed)
    scaled = kahler_param(f, [v * scale for v in xi.coeffs.values()])
    assert transvection_set(f, xi, t) == transvection_set(f, scaled, t)


def test_distinct_seeds_same_transvection_set():
    f = make_flag(parse_painted("B3:{1,3}"))
    t = chevalley_table("B", 3)
    sets = {transvection_set(f, random_kahler_param(f, s), t) for s in range(6)}
    assert len(sets) == 1


def test_candidates_must_be_positive_tangent_roots(a3_setup):
    f, xi, t = a3_setup
    with pytest.raises(ValueError):
        transvection_violations(f, xi, t, (-1, -1, -1))
    with pytest.raises(ValueError):
        shortcut_violations(f, xi, (1, 0, 0))
