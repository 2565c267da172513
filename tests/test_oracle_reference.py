"""The integer oracles against the plain Fraction loops they replaced.

The reference functions below evaluate every cyclic sum and every scalar
condition directly in Fraction arithmetic, scanning all of R_m for each
decomposition.  The oracles in ``flagsym.oracle`` must return the same sets
and the same witnesses (pairs and exact rational totals).
"""

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
    simple_types,
    transvection_set,
    transvection_violations,
)
from flagsym.rootsystem import rneg

from flag_helpers import epsilon, eval_root, ref_r_m, ref_r_m_plus
from root_helpers import rsub, sum_root
from table_helpers import b_of, table_weights


def ref_decompositions(r_m, a):
    """The pairs {beta, gamma} of R_m with beta + gamma = -a, once each."""
    na = rneg(a)
    for beta in r_m:
        gamma = rsub(na, beta)
        if gamma in r_m and beta <= gamma:
            yield beta, gamma


def ref_values(flag, xi, table):
    """d(xi) and r(d) = epsilon_d d(xi) b(d) for every d in R_m, once per (flag, xi)."""
    r_m = ref_r_m(flag)
    value = {d: eval_root(flag, xi, d) for d in r_m}
    r = {d: epsilon(flag, d) * value[d] * b_of(table, d) for d in r_m}
    return value, r


def ref_transvection_violations(flag, r, table, a):
    rs = flag.rs

    def n_m(x, y):
        s = sum_root(rs, x, y)
        if s is None or s not in r:  # r is keyed by R_m
            return 0
        return table.n_of(x, y)

    out = []
    for beta, gamma in ref_decompositions(r.keys(), a):
        total = (
            n_m(beta, gamma) * r[a]
            + n_m(a, gamma) * r[beta]
            + n_m(beta, a) * r[gamma]
        )
        if total != 0:
            out.append((beta, gamma, total))
    return out


def ref_shortcut_violations(flag, value, a):
    out = []
    for beta, gamma in ref_decompositions(value.keys(), a):
        val = (1 + epsilon(flag, gamma)) * value[gamma] + (1 + epsilon(flag, beta)) * value[beta]
        if val != 0:
            out.append((beta, gamma, val))
    return out


def paintings(family, rank):
    rs = build_root_system(family, rank)
    for size in range(1, rank + 1):
        for combo in itertools.combinations(range(1, rank + 1), size):
            yield make_flag(PaintedDiagram(rs, frozenset(combo)))


def assert_matches_reference(flag, xi, table):
    # the reference sets are the roots with no reference violation
    value, r = ref_values(flag, xi, table)
    r_m_plus = ref_r_m_plus(flag)
    cyclic = {a: ref_transvection_violations(flag, r, table, a) for a in r_m_plus}
    scalar = {a: ref_shortcut_violations(flag, value, a) for a in r_m_plus}
    assert transvection_set(flag, xi, table) == {a for a, v in cyclic.items() if not v}
    assert shortcut_set(flag, xi) == {a for a, v in scalar.items() if not v}
    for a in r_m_plus:
        # witnesses come in root order, the reference's in set order
        got = transvection_violations(flag, xi, table, a)
        assert sorted(got) == sorted(cyclic[a])
        assert all(type(t) is Fraction for _, _, t in got)
        got = shortcut_violations(flag, xi, a)
        assert sorted(got) == sorted(scalar[a])
        assert all(type(t) is Fraction for _, _, t in got)


@pytest.mark.parametrize("family,rank", simple_types(4))
def test_integer_oracles_match_reference_rank_le_4(family, rank):
    table = chevalley_table(family, rank)
    for flag in paintings(family, rank):
        for seed in range(5):
            xi = random_kahler_param(flag, f"ref|{flag.pd.spec}|{seed}")
            assert_matches_reference(flag, xi, table)


# distinct primes above 10**4: any choice of them is pairwise coprime
LARGE_PRIMES = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        ["A3:{1,2,3}", "B3:{1,3}", "C3:{1,2}", "G2:{1,2}", "D4:{1,2,4}", "F4:{2,3}"]
    ),
    st.permutations(LARGE_PRIMES),
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=4, max_size=4),
)
def test_integer_oracles_match_reference_coprime_denominators(spec, primes, nums):
    flag = make_flag(parse_painted(spec))
    table = chevalley_table(flag.rs.family, flag.rs.rank)
    k = len(flag.pd.painted)
    xi = kahler_param(flag, [Fraction(n, p) for n, p in zip(nums[:k], primes[:k])])
    assert_matches_reference(flag, xi, table)


@pytest.mark.parametrize(
    "family,rank,weights", [("G", 2, {1, 3}), ("B", 3, {1, 2}), ("C", 3, {1, 2})]
)
def test_integer_oracles_match_reference_weighted_types(family, rank, weights):
    # non-simply-laced: the pairing weights b(d) = 2/(d, d) reach 2 or 3
    table = chevalley_table(family, rank)
    assert set(table_weights(table).values()) == weights
    for flag in paintings(family, rank):
        for step in range(4):
            coeffs = [
                Fraction(2 * i + step + 1, 3 * i + 2 * step + 5)
                for i in range(len(flag.pd.painted))
            ]
            assert_matches_reference(flag, kahler_param(flag, coeffs), table)
