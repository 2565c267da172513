"""The transvection oracles decided on the whole open Kahler cone.

``transvection_cone_set`` and ``shortcut_cone_set`` must give the symmetry
roots, with no root left undecided, on every painting through rank 8; the
per-xi functions must agree with them; and a corrupted Chevalley table must
make the oracle check of the sweep and of ``analyze`` fail, never pass.
"""

import itertools
import json

import pytest

from flagsym import (
    PaintedDiagram,
    build_root_system,
    chevalley_table,
    make_flag,
    parse_painted,
    random_kahler_param,
    shortcut_cone_set,
    shortcut_set,
    simple_types,
    symmetry_roots,
    transvection_cone_set,
    transvection_set,
)
from flagsym import cli, oracle
from flagsym.rootsystem import rneg, rsub
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
    for flag in paintings(family, rank):
        rs, vectors = flag.rs, oracle._shortcut_kernel(flag)
        for a in flag.r_m_plus:
            got = [frozenset((b, g)) for b, g, _ in vectors(rs.index[a])]
            expected = {
                frozenset((rs.index[b], rs.index[rsub(rneg(a), b)]))
                for b in flag.r_m
                if rsub(rneg(a), b) in flag.r_m
            }
            assert len(got) == len(expected) and set(got) == expected, (flag.pd.spec, a)
