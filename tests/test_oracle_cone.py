"""The transvection oracles decided on the whole open Kahler cone.

``transvection_cone_set`` and ``shortcut_cone_set`` must give the symmetry
roots, with no root left undecided, on every painting through rank 8; the
per-xi functions must agree with them; the type-level splitting tables must
give the cone sets and the witnesses of the per-painting kernel they replaced
(``oracle_helpers``); and a corrupted Chevalley table must make the oracle
check of the sweep and of ``analyze`` fail, never pass.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from flagsym import (
    PaintedDiagram,
    build_root_system,
    chevalley_table,
    kahler_param,
    make_flag,
    parse_painted,
    random_kahler_param,
    shortcut_cone_set,
    shortcut_set,
    shortcut_violations,
    simple_types,
    symmetry_roots,
    transvection_cone_set,
    transvection_set,
    transvection_violations,
)
from flagsym import cli
from flagsym.rootsystem import rneg, rsub
import oracle_helpers as ref
from root_helpers import sum_root
from table_helpers import with_constants


def paintings(family, rank):
    rs = build_root_system(family, rank)
    for size in range(1, rank + 1):
        for combo in itertools.combinations(range(1, rank + 1), size):
            yield make_flag(PaintedDiagram(rs, frozenset(combo)))


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_cone_sets_are_the_symmetry_roots(family, rank):
    table = chevalley_table(family, rank)
    for flag in paintings(family, rank):
        expected = (symmetry_roots(flag), frozenset())
        assert transvection_cone_set(flag, table) == expected, flag.pd.spec
        assert shortcut_cone_set(flag) == expected, flag.pd.spec


@pytest.mark.parametrize("family,rank", simple_types(4))
def test_per_xi_sets_equal_the_cone_sets(family, rank):
    table = chevalley_table(family, rank)
    for flag in paintings(family, rank):
        cyclic = transvection_cone_set(flag, table).proved
        scalar = shortcut_cone_set(flag).proved
        for seed in range(5):
            xi = random_kahler_param(flag, f"cone|{flag.pd.spec}|{seed}")
            assert transvection_set(flag, xi, table) == cyclic, flag.pd.spec
            assert shortcut_set(flag, xi) == scalar, flag.pd.spec


def mutated(table, changes):
    """A copy of ``table`` with n(x, y) -> f(n(x, y)), and n(y, x) = -n(x, y) kept."""
    n = dict(table.n)
    for (x, y), f in changes.items():
        n[(x, y)] = f(n[(x, y)])
        n[(y, x)] = -n[(x, y)]
    return with_constants(table, n)


def full_painting_entry(monkeypatch, family, rank, table):
    monkeypatch.setattr(cli, "chevalley_table", lambda f, r: table)
    rs = build_root_system(family, rank)
    return cli._painting(make_flag(PaintedDiagram(rs, frozenset(range(1, rank + 1)))))[0]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
@pytest.mark.parametrize("change", [lambda v: -v, lambda v: 0], ids=["flipped", "zeroed"])
def test_corrupted_constant_fails_the_oracle_check(monkeypatch, family, rank, change):
    # every painted: R_m is all of R and the highest root theta is the only
    # symmetry root; each constant n(beta, gamma) with beta + gamma = -theta
    # enters one of theta's cyclic sums
    table = chevalley_table(family, rank)
    theta = table.rs.highest
    assert full_painting_entry(monkeypatch, family, rank, table).checks["oracle_agree"]
    pairs = [(x, y) for x, y in table.n if x < y and sum_root(table.rs, x, y) == rneg(theta)]
    assert pairs
    for pair in pairs:
        entry = full_painting_entry(monkeypatch, family, rank, mutated(table, {pair: change}))
        assert entry.checks["oracle_agree"] is False, pair


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
@pytest.mark.parametrize("change", [lambda v: -v, lambda v: 0], ids=["flipped", "zeroed"])
def test_corrupted_constant_fails_the_oracle_check_on_a_partial_painting(
    monkeypatch, family, rank, change
):
    # node 1 left white: the splittings of -theta inside R_m are only some of
    # them, and the table's masks must pick each of those
    table = chevalley_table(family, rank)
    monkeypatch.setattr(cli, "chevalley_table", lambda f, r: table)
    flag = make_flag(PaintedDiagram(table.rs, frozenset(range(2, rank + 1))))
    assert cli._painting(flag)[0].checks["oracle_agree"]
    theta = table.rs.highest
    pairs = [
        (x, y)
        for x, y in table.n
        if x < y and sum_root(table.rs, x, y) == rneg(theta) and {x, y} <= flag.r_m
    ]
    assert pairs
    for pair in pairs:
        monkeypatch.setattr(cli, "chevalley_table", lambda f, r: mutated(table, {pair: change}))
        assert cli._painting(flag)[0].checks["oracle_agree"] is False, pair


def test_corrupted_constant_fails_the_oracle_check_through_analyze(monkeypatch, capsys):
    table = chevalley_table("A", 3)
    theta = table.rs.highest
    pair = next(
        (x, y) for x, y in table.n if x < y and sum_root(table.rs, x, y) == rneg(theta)
    )
    monkeypatch.setattr(cli, "chevalley_table", lambda f, r: mutated(table, {pair: lambda v: -v}))
    assert cli.main(["analyze", "A3:{1,2,3}", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["oracle_agree"] is False


def test_undecided_root_fails_closed(monkeypatch):
    # shifting the two other constants of the triple (theta, -a1, -a2-a3) by
    # opposite amounts gives theta the mixed-sign cyclic vector (1, -1, -1):
    # zero for some xi and not for others, so theta is undecided
    table = chevalley_table("A", 3)
    theta, beta, gamma = (1, 1, 1), (-1, 0, 0), (0, -1, -1)
    bad = mutated(table, {(theta, gamma): lambda v: v + 1, (beta, theta): lambda v: v - 1})
    flag = make_flag(parse_painted("A3:{1,2,3}"))
    assert transvection_cone_set(flag, bad) == (frozenset(), frozenset({theta}))
    entry = full_painting_entry(monkeypatch, "A", 3, bad)
    assert entry.checks["oracle_agree"] is False
    assert entry.undecided == 1
    report = cli.EnumerationReport([entry])
    assert cli._oracle_coverage(report) == (
        "Transvection oracles: proved on the whole Kähler cone for 0 of 1 "
        "paintings; 1 roots undecided"
    )


def test_undecided_root_outside_the_symmetry_roots_fails_closed(monkeypatch):
    # a1 is no symmetry root of A3:{1,2,3}; shifting one constant of each of its
    # two decompositions leaves both of its cyclic vectors of mixed sign, while
    # the proved set still equals the symmetry roots {theta}
    table = chevalley_table("A", 3)
    shift = lambda v: v + 1
    bad = mutated(
        table, {((-1, -1, 0), (0, 1, 0)): shift, ((-1, -1, -1), (0, 1, 1)): shift}
    )
    flag = make_flag(parse_painted("A3:{1,2,3}"))
    cone = transvection_cone_set(flag, bad)
    assert cone.proved == symmetry_roots(flag) == {(1, 1, 1)}
    assert cone.undecided == {(1, 0, 0)}
    entry = full_painting_entry(monkeypatch, "A", 3, bad)
    assert entry.checks["oracle_agree"] is False


@pytest.mark.parametrize("family,rank", simple_types(4))
def test_kernel_walks_each_decomposition_in_r_m_once(family, rank):
    table = build_root_system(family, rank).shortcut_table
    for flag in paintings(family, rank):
        rs, painted = flag.rs, flag.painted_mask
        for a in flag.r_m_plus:
            masks, row = table.masks[rs.index[a]], table.rows[rs.index[a]]
            starts = range(0, len(row), 2 + rank)
            got = [
                frozenset(row[start : start + 2])
                for k, start in enumerate(starts)
                if masks[4 * k] & painted and masks[4 * k + 1] & painted
            ]
            expected = {
                frozenset((rs.index[b], rs.index[rsub(rneg(a), b)]))
                for b in flag.r_m
                if rsub(rneg(a), b) in flag.r_m
            }
            assert len(got) == len(expected) and set(got) == expected, (flag.pd.spec, a)


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_splitting_tables_match_their_vectors(family, rank):
    # each row is a splitting of -a, in the order of rs.splittings, and the
    # four masks are the node supports of beta, gamma and the signs of c
    rs = build_root_system(family, rank)
    nodes = lambda v, keep: sum(1 << n for n, x in enumerate(v) if keep(x))
    for table in (rs.shortcut_table, chevalley_table(family, rank).cyclic_table):
        for a, (masks, row) in enumerate(zip(table.masks, table.rows)):
            split = [tuple(row[s : s + 2]) for s in range(0, len(row), 2 + rank)]
            assert split == rs.splittings(rs.neg[a])
            for k, (beta, gamma) in enumerate(split):
                c = row[k * (2 + rank) + 2 : (k + 1) * (2 + rank)]
                assert masks[4 * k : 4 * k + 4] == (
                    nodes(rs.roots[beta], bool),
                    nodes(rs.roots[gamma], bool),
                    nodes(c, lambda x: x > 0),
                    nodes(c, lambda x: x < 0),
                )


def perturbed(table, seed):
    """``table`` with three seeded constants shifted by +-1, antisymmetry kept."""
    rng = random.Random(seed)
    pairs = sorted((x, y) for x, y in table.n if x < y)
    pairs = rng.sample(pairs, min(3, len(pairs)))
    return mutated(table, {pair: lambda v, d=rng.choice((-1, 1)): v + d for pair in pairs})


def assert_matches_the_per_painting_kernel(flag, table, xi=None):
    """Cone sets, and with ``xi`` every witness list, equal those of the
    reference kernel, on ``table`` and on a perturbed copy of it."""
    spec = flag.pd.spec
    assert shortcut_cone_set(flag) == ref.cone_set(flag, ref.shortcut_kernel(flag)), spec
    if xi is not None:
        vectors = ref.shortcut_kernel(flag)
        for a in flag.r_m_plus:
            got = shortcut_violations(flag, xi, a)
            assert got == ref.violations(flag, xi, vectors, a), (spec, a)
    for t in (table, perturbed(table, spec)):
        vectors = ref.cyclic_kernel(flag, t)
        assert transvection_cone_set(flag, t) == ref.cone_set(flag, vectors), spec
        if xi is not None:
            for a in flag.r_m_plus:
                got = transvection_violations(flag, xi, t, a)
                assert got == ref.violations(flag, xi, vectors, a), (spec, a)


@pytest.mark.parametrize("family,rank", simple_types(6))
def test_mask_kernel_matches_the_per_painting_kernel_rank_le_6(family, rank):
    table = chevalley_table(family, rank)
    for flag in paintings(family, rank):
        xi = kahler_param(flag, [Fraction(k + 2, k + 1) for k in range(flag.center_dim)])
        assert_matches_the_per_painting_kernel(flag, table, xi if rank <= 4 else None)


def test_mask_kernel_matches_the_per_painting_kernel_rank_7_8_sample():
    rng = random.Random(11)
    for family, rank in simple_types(8):
        if rank < 7:
            continue
        table = chevalley_table(family, rank)
        for _ in range(4):
            painted = frozenset(rng.sample(range(1, rank + 1), rng.randint(1, rank)))
            flag = make_flag(PaintedDiagram(table.rs, painted))
            xi = kahler_param(flag, [Fraction(k + 2, k + 1) for k in range(len(painted))])
            assert_matches_the_per_painting_kernel(flag, table, xi)
