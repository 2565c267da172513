"""The transvection oracles decided on the whole open Kahler cone.

The walk of the reference kernel (``oracle_helpers``) must give the symmetry
roots, with no root left open, on every painting through rank 6 and on a
sample of rank 7-8, for both oracles; the per-xi functions must agree with it
and report its witnesses; their coefficients must give the vectors of the
per-table build; the cyclic vectors must be nonzero multiples of the
shortcut's on every table that keeps the pair and cyclic checks; and a
corrupted Chevalley table must make the oracle check of the sweep and of
``analyze`` fail, never pass.
"""

import itertools
import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest

from flagsym import (
    KahlerParam,
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
    symmetry_roots,
    transvection_set,
    transvection_violations,
)
from flagsym import cli, oracle
from flagsym.chevalley import _witnesses
from flagsym.oracle import _cyclic, _nonzero_terms, _scaled_values, _shortcut
from flagsym.rootsystem import bits, rneg
import oracle_helpers as ref
from root_helpers import rsub, sum_root
from table_helpers import table_constants, with_constants


def paintings(family, rank):
    rs = build_root_system(family, rank)
    for size in range(1, rank + 1):
        for combo in itertools.combinations(range(1, rank + 1), size):
            yield make_flag(PaintedDiagram(rs, frozenset(combo)))


def cone_sets(flag, table):
    """The walks of the cyclic and the shortcut vectors of the reference kernel."""
    return (
        ref.cone_set(flag, ref.cyclic_kernel(flag, table)),
        ref.cone_set(flag, ref.shortcut_kernel(flag)),
    )


def sample(family, rank, count):
    """``count`` seeded paintings of a type."""
    rng = random.Random(f"sample|{family}{rank}")
    rs = build_root_system(family, rank)
    for _ in range(count):
        painted = frozenset(rng.sample(range(1, rank + 1), rng.randint(1, rank)))
        yield make_flag(PaintedDiagram(rs, painted))


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_cone_sets_are_the_symmetry_roots(family, rank):
    # the walk the certificate stands for gives the symmetry roots with no
    # root left open, on every painting through rank 6 and a sample beyond
    table = chevalley_table(family, rank)
    flags = paintings(family, rank) if rank <= 6 else sample(family, rank, 4)
    for flag in flags:
        expected = (symmetry_roots(flag), frozenset())
        assert cone_sets(flag, table) == (expected, expected), flag.pd.spec


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_shortcut_table_has_the_verdict_pattern_on_every_type(family, rank):
    # the fact the cone argument rests on for the shortcut: every splitting
    # has the vector twice its member in R+, or 0 when both members are
    # negative, whatever the table
    rs = build_root_system(family, rank)
    half = len(rs.positive_roots)
    for row in ref.splitting_table(rs, _shortcut(rs)):
        for beta, gamma, c in row:
            positive = [d for d in (beta, gamma) if d < half]
            member = rs.roots[positive[0]] if positive else (0,) * rank
            assert c == [2 * x for x in member], (rs.roots[beta], rs.roots[gamma])


@pytest.mark.parametrize("family,rank", simple_types(4))
def test_per_xi_sets_equal_the_cone_sets(family, rank):
    table = chevalley_table(family, rank)
    for flag in paintings(family, rank):
        (cyclic, _), (scalar, _) = cone_sets(flag, table)
        for seed in range(5):
            xi = random_kahler_param(flag, f"cone|{flag.pd.spec}|{seed}")
            assert transvection_set(flag, xi, table) == cyclic, flag.pd.spec
            assert shortcut_set(flag, xi) == scalar, flag.pd.spec


def mutated(table, changes):
    """A copy of ``table`` with n(x, y) -> f(n(x, y)), and n(y, x) = -n(x, y) kept."""
    n = table_constants(table)
    for (x, y), f in changes.items():
        n[(x, y)] = f(n[(x, y)])
        n[(y, x)] = -n[(x, y)]
    return with_constants(table, n)


def full_painting_entry(monkeypatch, family, rank, table):
    monkeypatch.setattr(cli, "chevalley_table", lambda f, r: table)
    rs = build_root_system(family, rank)
    return cli._painting(make_flag(PaintedDiagram(rs, frozenset(range(1, rank + 1)))))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
@pytest.mark.parametrize("change", [lambda v: -v, lambda v: 0], ids=["flipped", "zeroed"])
def test_corrupted_constant_fails_the_oracle_check(monkeypatch, family, rank, change):
    # every painted: R_m is all of R and the highest root theta is the only
    # symmetry root; each constant n(beta, gamma) with beta + gamma = -theta
    # enters one of theta's cyclic sums
    table = chevalley_table(family, rank)
    theta = table.rs.highest
    assert full_painting_entry(monkeypatch, family, rank, table).checks["oracle_agree"]
    flag = make_flag(PaintedDiagram(table.rs, frozenset(range(1, rank + 1))))
    pairs = [
        (x, y)
        for x, y in table_constants(table)
        if x < y and sum_root(table.rs, x, y) == rneg(theta)
    ]
    assert pairs
    for pair in pairs:
        bad = mutated(table, {pair: change})
        # the constant enters only the splitting (beta, gamma) of -theta, whose
        # cyclic vector is no longer zero: the walk no longer proves theta,
        # and the check fails
        proved, _ = ref.cone_set(flag, ref.cyclic_kernel(flag, bad))
        assert theta not in proved, pair
        entry = full_painting_entry(monkeypatch, family, rank, bad)
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
    assert cli._painting(flag).checks["oracle_agree"]
    theta, r_m = table.rs.highest, table.rs.roots_of(flag.m_mask)
    pairs = [
        (x, y)
        for x, y in table_constants(table)
        if x < y and sum_root(table.rs, x, y) == rneg(theta) and {x, y} <= r_m
    ]
    assert pairs
    for pair in pairs:
        monkeypatch.setattr(cli, "chevalley_table", lambda f, r: mutated(table, {pair: change}))
        assert cli._painting(flag).checks["oracle_agree"] is False, pair


def test_corrupted_constant_fails_the_oracle_check_through_analyze(monkeypatch, capsys):
    table = chevalley_table("A", 3)
    theta = table.rs.highest
    pair = next(
        (x, y)
        for x, y in table_constants(table)
        if x < y and sum_root(table.rs, x, y) == rneg(theta)
    )
    monkeypatch.setattr(cli, "chevalley_table", lambda f, r: mutated(table, {pair: lambda v: -v}))
    assert cli.main(["analyze", "A3:{1,2,3}", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["oracle_agree"] is False


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("E", 6)])
def test_flipped_constant_fails_closed(family, rank):
    # one constant n(x, y) negated at a time, its partner n(y, x) left alone:
    # whenever the reference walk leaves a root open or gives a set other
    # than the symmetry roots on some painting, the check fails.  Put the
    # other way round, which walks only the tables the check passes: a
    # passed table has the walk of the symmetry roots on every painting.  E6
    # flips every tenth of its 1440 constants, in table order, to keep the
    # test short
    table = chevalley_table(family, rank)
    flags = list(paintings(family, rank))  # the full painting, all of R in R_m, last

    def walk_agrees(t, flags=flags):
        return all(
            ref.cone_set(flag, ref.cyclic_kernel(flag, t)) == (symmetry_roots(flag), frozenset())
            for flag in flags
        )

    copy = with_constants(table, {})
    assert oracle.oracle_check(copy) is True and walk_agrees(copy)
    constants = [(pair, v) for pair, v in table_constants(table).items() if v]
    if family == "E":
        constants = constants[::10]
    caught = 0
    for pair, v in constants:
        bad = with_constants(table, {pair: -v})
        if oracle.oracle_check(bad):
            assert walk_agrees(bad), pair
        else:
            caught += not walk_agrees(bad, flags[-1:])
    assert caught  # the full painting's walk tells some of the failed flips apart


def test_a_changed_copy_is_audited_not_read_off_a_certificate(monkeypatch):
    # a copy from with_constants has no certificate, even with every constant
    # unchanged: oracle_check audits the copy, and reads a certified table
    # off its certificate with no audit
    table = chevalley_table("B", 3)
    audits, check = [], oracle.sign_convention_check
    monkeypatch.setattr(
        oracle, "sign_convention_check", lambda t: audits.append(t) or check(t)
    )
    assert table.certified == "digest"
    assert oracle.oracle_check(table) is True
    assert audits == []  # read off the certificate
    copy = with_constants(table, {})
    assert copy.certified is None
    assert oracle.oracle_check(copy) is True
    assert audits == [copy]  # the copy audited
    (x, y), v = next((pair, v) for pair, v in table_constants(table).items() if v)
    bad = with_constants(table, {(x, y): -v})
    assert bad.certified is None
    assert oracle.oracle_check(bad) is False
    assert audits == [copy, bad]


@pytest.mark.parametrize("family,rank", simple_types(5)[1:])  # A1 has no sum pair
def test_pair_and_cyclic_checks_decide_the_cone_verdict(family, rank):
    # the theorem oracle_check reads off a certificate: on a table whose pair
    # and weighted cyclic checks pass, every cyclic vector is a nonzero
    # multiple of the shortcut's, Jacobi or not.  Seeded flips of one entry,
    # of one orbit (its four members) and of one zero-sum class (the orbits
    # of its three pairs, which keeps the cyclic identity)
    table = chevalley_table(family, rank)
    rs, constants = table.rs, table_constants(table)
    pairs = [pair for pair, v in constants.items() if v]
    rng = random.Random(f"flips|{family}{rank}")

    def orbit(x, y):
        return [(x, y), (y, x), (rneg(x), rneg(y)), (rneg(y), rneg(x))]

    def zero_sum_class(x, y):
        z = rneg(sum_root(rs, x, y))
        return orbit(x, y) + orbit(y, z) + orbit(z, x)

    kept, verdicts = 0, set()
    for flip in (lambda x, y: [(x, y)], orbit, zero_sum_class):
        for _ in range(20):
            bad = with_constants(table, {p: -constants[p] for p in flip(*rng.choice(pairs))})
            verdict = ref.cyclic_multiple_breaks(bad)
            verdicts.add(verdict is None)
            if next(_witnesses(bad), "Jacobi").startswith("Jacobi"):
                # the pair and weighted cyclic checks pass
                kept += 1
                assert verdict is None
    assert kept >= 20  # every class flip keeps them
    assert verdicts == {True, False}


def test_undecided_root_fails_closed(monkeypatch):
    # shifting the two other constants of the triple (theta, -a1, -a2-a3) by
    # opposite amounts gives theta the mixed-sign cyclic vector (1, -1, -1):
    # zero for some xi and not for others, so the walk leaves theta open
    table = chevalley_table("A", 3)
    theta, beta, gamma = (1, 1, 1), (-1, 0, 0), (0, -1, -1)
    bad = mutated(table, {(theta, gamma): lambda v: v + 1, (beta, theta): lambda v: v - 1})
    flag = make_flag(parse_painted("A3:{1,2,3}"))
    assert ref.cone_set(flag, ref.cyclic_kernel(flag, bad)) == (frozenset(), frozenset({theta}))
    entry = full_painting_entry(monkeypatch, "A", 3, bad)
    assert entry.checks["oracle_agree"] is False
    report = cli.EnumerationReport([entry])
    assert cli._oracle_coverage(report) == (
        "Transvection oracles: proved on the whole Kähler cone for 0 of 1 "
        "paintings by the certificates of their Chevalley tables"
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
    proved, left_open = ref.cone_set(flag, ref.cyclic_kernel(flag, bad))
    assert proved == symmetry_roots(flag) == {(1, 1, 1)}
    assert left_open == {(1, 0, 0)}
    entry = full_painting_entry(monkeypatch, "A", 3, bad)
    assert entry.checks["oracle_agree"] is False


@pytest.mark.parametrize("family,rank", simple_types(4))
def test_kernel_walks_each_decomposition_in_r_m_once(family, rank):
    # both walks, the reference kernel's and the per-xi functions', give each
    # decomposition -a = beta + gamma in R_m once, in the same order; the
    # coefficients (1, 0, 0) make every term a(xi) L > 0, so the per-xi walk
    # keeps them all
    rs = build_root_system(family, rank)
    constants = chevalley_table(family, rank)
    everything = lambda a, beta, gamma: (1, 0, 0)
    for kernel in (ref.shortcut_kernel, lambda flag: ref.cyclic_kernel(flag, constants)):
        for flag in paintings(family, rank):
            r_m = rs.roots_of(flag.m_mask)
            reference = kernel(flag)
            _, at = _scaled_values(flag, fixed_xi(flag))
            for a in bits(flag.m_plus_mask):
                got = [(beta, gamma) for beta, gamma, _ in reference(a)]
                walked = _nonzero_terms(flag, everything, a, at)
                assert [(beta, gamma) for beta, gamma, _ in walked] == got, (flag.pd.spec, a)
                root = rs.roots[a]
                expected = {
                    frozenset((rs.index[b], rs.index[rsub(rneg(root), b)]))
                    for b in r_m
                    if rsub(rneg(root), b) in r_m
                }
                pairs = [frozenset(g) for g in got]
                assert len(pairs) == len(expected) and set(pairs) == expected, (
                    flag.pd.spec,
                    root,
                )


@lru_cache(maxsize=None)
def shifted(table):
    """A copy of ``table`` with a third of its constants shifted, seeded by the type."""
    rng = random.Random(table.rs.name)
    n = table_constants(table)
    pairs = sorted(n)
    return with_constants(
        table,
        {p: n[p] + rng.choice((-2, -1, 1, 2)) for p in rng.sample(pairs, len(pairs) // 3)},
    )


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_splitting_tables_match_their_vectors(family, rank):
    # on the full painting, where R_m is all of R, the walk of the per-xi
    # functions gives for each positive root a the nonzero values c . xi L of
    # the vectors of the per-table build, in the order of rs.splittings: on
    # the clean table and on a copy with a third of its constants shifted
    rs = build_root_system(family, rank)
    table = chevalley_table(family, rank)
    flag = make_flag(PaintedDiagram(rs, frozenset(range(1, rank + 1))))
    xi = fixed_xi(flag)
    scale, at = _scaled_values(flag, xi)
    w = [int(c * scale) for c in xi.coeffs.values()]
    bad = shifted(table)
    for got, coefficients in (
        (_shortcut(rs), ref.shortcut_coefficients(rs)),
        (_cyclic(table), ref.cyclic_coefficients(table)),
        (_cyclic(bad), ref.cyclic_coefficients(bad)),
    ):
        for a, row in enumerate(ref.splitting_table(rs, coefficients)):
            values = [(beta, gamma, sum(map(mul, c, w))) for beta, gamma, c in row]
            assert list(_nonzero_terms(flag, got, a, at)) == [v for v in values if v[2]], a


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_splitting_tables_match_the_per_table_build(family, rank):
    # the coefficients of the per-xi functions are those of the build that
    # summed every vector, on every splitting: on the clean table and on a
    # copy with a third of its constants shifted
    rs = build_root_system(family, rank)
    table = chevalley_table(family, rank)
    bad = shifted(table)
    for got, coefficients in (
        (_shortcut(rs), ref.shortcut_coefficients(rs)),
        (_cyclic(table), ref.cyclic_coefficients(table)),
        (_cyclic(bad), ref.cyclic_coefficients(bad)),
    ):
        for a in range(len(rs.positive_roots)):
            for beta, gamma in rs.splittings(rs.neg[a]):
                assert got(a, beta, gamma) == coefficients(a, beta, gamma), (a, beta, gamma)


def perturbed(table, seed):
    """``table`` with three seeded constants shifted by +-1, antisymmetry kept."""
    rng = random.Random(seed)
    pairs = sorted((x, y) for x, y in table_constants(table) if x < y)
    pairs = rng.sample(pairs, min(3, len(pairs)))
    return mutated(table, {pair: lambda v, d=rng.choice((-1, 1)): v + d for pair in pairs})


def assert_matches_the_per_painting_kernel(flag, table, xi):
    """Every witness list at ``xi`` equals that of the reference kernel, on
    ``table`` and on a perturbed copy of it."""
    spec = flag.pd.spec
    vectors = ref.shortcut_kernel(flag)
    for a in flag.rs.roots_of(flag.m_plus_mask):
        got = shortcut_violations(flag, xi, a)
        assert got == ref.violations(flag, xi, vectors, a), (spec, a)
    for t in (table, perturbed(table, spec)):
        vectors = ref.cyclic_kernel(flag, t)
        for a in flag.rs.roots_of(flag.m_plus_mask):
            got = transvection_violations(flag, xi, t, a)
            assert got == ref.violations(flag, xi, vectors, a), (spec, a)


def fixed_xi(flag):
    return kahler_param(flag, [Fraction(k + 2, k + 1) for k in range(len(flag.pd.painted))])


@pytest.mark.parametrize("family,rank", simple_types(6))
def test_mask_kernel_matches_the_per_painting_kernel_rank_le_6(family, rank):
    # every painting through rank 4, two seeded ones of rank 5 and 6
    table = chevalley_table(family, rank)
    flags = paintings(family, rank) if rank <= 4 else sample(family, rank, 2)
    for flag in flags:
        assert_matches_the_per_painting_kernel(flag, table, fixed_xi(flag))


def test_mask_kernel_matches_the_per_painting_kernel_rank_7_8_sample():
    for family, rank in simple_types(8):
        if rank >= 7:
            table = chevalley_table(family, rank)
            for flag in sample(family, rank, 4):
                assert_matches_the_per_painting_kernel(flag, table, fixed_xi(flag))


@pytest.mark.parametrize(
    "coeffs", [{1: 1}, {1: 1, 2: 1, 3: 5}], ids=["painted-node-missing", "white-node-given"]
)
def test_kahler_param_off_the_painting_raises(coeffs):
    # xi lives on the painted nodes: one missing, or one on a white node,
    # names the painting and both node sets
    flag = make_flag(parse_painted("A3:{1,2}"))
    xi, table = KahlerParam(coeffs), chevalley_table("A", 3)
    message = (
        f"{xi!r} does not fit A3:{{1,2}}: coefficients on nodes {sorted(coeffs)}, "
        "painted nodes [1, 2]"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        transvection_set(flag, xi, table)
    with pytest.raises(ValueError, match=re.escape(message)):
        shortcut_violations(flag, xi, flag.rs.highest)
