"""The transvection oracles decided on the whole open Kahler cone.

``transvection_cone_set`` and ``shortcut_cone_set`` must give the symmetry
roots, with no root left undecided, on every painting through rank 8; the
per-xi functions must agree with them; the type-level splitting tables must
give the cone sets and the witnesses of the per-painting kernel they replaced,
and their weights and masks the vectors and masks of the per-table build
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
from flagsym import cli, oracle
from flagsym.chevalley import _witnesses
from flagsym.oracle import cone_verdict, cyclic_table, negative_splittings, shortcut_table
from flagsym.rootsystem import bits, rneg
import oracle_helpers as ref
from root_helpers import rsub, sum_root
from table_helpers import table_constants, with_constants


def paintings(family, rank):
    rs = build_root_system(family, rank)
    for size in range(1, rank + 1):
        for combo in itertools.combinations(range(1, rank + 1), size):
            yield make_flag(PaintedDiagram(rs, frozenset(combo)))


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_cone_sets_are_the_symmetry_roots(family, rank):
    # the type-level verdict holds, and the walk it stands for gives the
    # symmetry roots with nothing undecided on every painting
    table = chevalley_table(family, rank)
    assert cone_verdict(table) is None
    for flag in paintings(family, rank):
        expected = (symmetry_roots(flag), frozenset())
        assert transvection_cone_set(flag, table) == expected, flag.pd.spec
        assert shortcut_cone_set(flag) == expected, flag.pd.spec


def node_mask(v, keep=bool):
    """Bit n for each node n + 1 where ``keep`` holds of the coordinate."""
    return sum(1 << n for n, x in enumerate(v) if keep(x))


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_shortcut_table_has_the_verdict_pattern_on_every_type(family, rank):
    # the fact the verdict rests on when it checks the cyclic masks alone:
    # every shortcut splitting has sign masks (support of the member in R+, 0),
    # or (0, 0) when both members are negative, whatever the table
    rs = build_root_system(family, rank)
    half = len(rs.positive_roots)
    count = 0
    for split, masks in zip(negative_splittings(rs), shortcut_table(rs).masks):
        for k in range(0, len(split), 4):
            beta, gamma = split[k : k + 2]
            positive = [d for d in (beta, gamma) if d < half]
            pos = node_mask(rs.roots[positive[0]]) if positive else 0
            assert masks[k : k + 4] == (
                node_mask(rs.roots[beta]),
                node_mask(rs.roots[gamma]),
                pos,
                0,
            ), (rs.roots[beta], rs.roots[gamma])
            count += 1
    assert count == sum(len(rs.splittings(rs.neg[a])) for a in range(half))


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
    n = table_constants(table)
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
    on_cone = oracle._on_cone
    assert full_painting_entry(monkeypatch, family, rank, table).checks["oracle_agree"]
    pairs = [
        (x, y)
        for x, y in table_constants(table)
        if x < y and sum_root(table.rs, x, y) == rneg(theta)
    ]
    assert pairs
    for pair in pairs:
        bad = mutated(table, {pair: change})
        # the constant enters only the splitting (beta, gamma) of -theta, whose
        # cyclic vector is no longer zero: the verdict names it, and the
        # painting takes the walk, over the cyclic table once per root of R_m+
        assert cone_verdict(bad) == (theta, *pair)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(oracle, "_on_cone", lambda *args: calls.append(args) or on_cone(*args))
            entry = full_painting_entry(m, family, rank, bad)
        assert entry.checks["oracle_agree"] is False, pair
        assert len(calls) == len(table.rs.positive_roots)


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
    theta, r_m = table.rs.highest, table.rs.roots_of(flag.m_mask)
    pairs = [
        (x, y)
        for x, y in table_constants(table)
        if x < y and sum_root(table.rs, x, y) == rneg(theta) and {x, y} <= r_m
    ]
    assert pairs
    for pair in pairs:
        monkeypatch.setattr(cli, "chevalley_table", lambda f, r: mutated(table, {pair: change}))
        assert cli._painting(flag)[0].checks["oracle_agree"] is False, pair


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
def test_flipped_constant_gives_the_verdict_of_the_walk(monkeypatch, family, rank):
    # one constant n(x, y) negated at a time, its partner n(y, x) left alone:
    # whether the type verdict still holds or not, each painting gets the
    # oracle_agree and undecided of the walk forced on the same table.  E6
    # flips every tenth of its 1440 constants, in table order, to keep the
    # test short.
    table = chevalley_table(family, rank)
    flags = list(paintings(family, rank))
    constants = [(pair, v) for pair, v in table_constants(table).items() if v]
    if family == "E":
        constants = constants[::10]
    verdicts = set()
    for pair, v in constants:
        bad = with_constants(table, {pair: -v})
        monkeypatch.setattr(cli, "chevalley_table", lambda f, r: bad)
        got = [cli._painting(flag)[0] for flag in flags]
        verdicts.add(cone_verdict(bad) is None)
        with monkeypatch.context() as m:
            m.setattr(oracle, "cone_verdict", lambda table: ("forced",))
            walked = [cli._painting(flag)[0] for flag in flags]
        for flag, entry, walk in zip(flags, got, walked):
            assert (entry.checks["oracle_agree"], entry.undecided) == (
                walk.checks["oracle_agree"],
                walk.undecided,
            ), (pair, flag.pd.spec)
    assert verdicts == {True, False}  # both branches ran


def test_a_changed_copy_is_walked_not_read_off_a_certificate():
    # a copy from with_constants has no certificate, even with every constant
    # unchanged: oracle_check takes the cone verdict of the copy, as every
    # table did before certificates, and walks the painting when it fails
    table = chevalley_table("B", 3)
    flag = make_flag(parse_painted("B3:{1,2,3}"))
    symmetry = symmetry_roots(flag)
    walks = cone_verdict.cache_info().misses
    assert table.certified == "digest"
    assert oracle.oracle_check(flag, table, symmetry) == (True, 0)
    assert cone_verdict.cache_info().misses == walks  # read off the certificate
    copy = with_constants(table, {})
    assert copy.certified is None
    assert oracle.oracle_check(flag, copy, symmetry) == (True, 0)
    assert cone_verdict.cache_info().misses == walks + 1  # the verdict walked
    (x, y), v = next((pair, v) for pair, v in table_constants(table).items() if v)
    bad = with_constants(table, {(x, y): -v})
    assert bad.certified is None and cone_verdict(bad) is not None
    cyclic = transvection_cone_set(flag, bad)
    assert oracle.oracle_check(flag, bad, symmetry) == (
        not cyclic.undecided and cyclic.proved == symmetry,
        len(cyclic.undecided),
    )


@pytest.mark.parametrize("family,rank", simple_types(5)[1:])  # A1 has no sum pair
def test_pair_and_cyclic_checks_decide_the_cone_verdict(family, rank):
    # the theorem oracle_check reads off a certificate: on a table whose pair
    # and weighted cyclic checks pass, the walked verdict is None, Jacobi or
    # not.  Seeded flips of one entry, of one orbit (its four members) and of
    # one zero-sum class (the orbits of its three pairs, which keeps the
    # cyclic identity)
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
            verdict = cone_verdict(bad)
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


def vectors(rs, table, a):
    """(beta, gamma, c) per splitting of -a, c = u beta + v gamma from the weights."""
    split, uv = negative_splittings(rs)[a], table.weights[a]
    return [
        (beta, gamma, [u * y + v * z for y, z in zip(rs.roots[beta], rs.roots[gamma])])
        for beta, gamma, u, v in zip(split[::4], split[1::4], uv[::2], uv[1::2])
    ]


@pytest.mark.parametrize("family,rank", simple_types(4))
def test_kernel_walks_each_decomposition_in_r_m_once(family, rank):
    rs = build_root_system(family, rank)
    constants = chevalley_table(family, rank)
    for table, kernel in (
        (shortcut_table(rs), ref.shortcut_kernel),
        (cyclic_table(constants), lambda flag: ref.cyclic_kernel(flag, constants)),
    ):
        for flag in paintings(family, rank):
            painted, columns = flag.painted_mask, sorted(flag.pd.painted)
            r_m = rs.roots_of(flag.m_mask)
            reference = kernel(flag)
            for a in bits(flag.m_plus_mask):
                masks = table.masks[a]
                got = [
                    (beta, gamma, [c[i - 1] for i in columns])
                    for k, (beta, gamma, c) in enumerate(vectors(rs, table, a))
                    if masks[4 * k] & painted and masks[4 * k + 1] & painted
                ]
                # the splittings the masks keep, with their vectors over the
                # painted nodes, are those of the per-painting kernel, in order
                assert got == list(reference(a)), (flag.pd.spec, a)
                root = rs.roots[a]
                expected = {
                    frozenset((rs.index[b], rs.index[rsub(rneg(root), b)]))
                    for b in r_m
                    if rsub(rneg(root), b) in r_m
                }
                pairs = [frozenset(g[:2]) for g in got]
                assert len(pairs) == len(expected) and set(pairs) == expected, (
                    flag.pd.spec,
                    root,
                )


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_splitting_tables_match_their_vectors(family, rank):
    # the splittings of -a come in the order of rs.splittings, one pair of
    # weights and four masks each, and the masks are the node supports of
    # beta, gamma and the signs of c = u beta + v gamma
    rs = build_root_system(family, rank)
    for table in (shortcut_table(rs), cyclic_table(chevalley_table(family, rank))):
        assert len(table.masks) == len(table.weights) == len(rs.positive_roots)
        for a, masks in enumerate(table.masks):
            split = vectors(rs, table, a)
            assert [s[:2] for s in split] == rs.splittings(rs.neg[a])
            assert len(masks) == 4 * len(split) == 2 * len(table.weights[a])
            for k, (beta, gamma, c) in enumerate(split):
                assert masks[4 * k : 4 * k + 4] == (
                    node_mask(rs.roots[beta]),
                    node_mask(rs.roots[gamma]),
                    node_mask(c, lambda x: x > 0),
                    node_mask(c, lambda x: x < 0),
                )


def clashes(rs, table):
    """Splittings where u beta and v gamma have opposite signs on a common node."""
    half = len(rs.positive_roots)
    out = 0
    for split, uv in zip(negative_splittings(rs), table.weights):
        for k in range(len(uv) // 2):
            beta, gamma, nb, ng = split[4 * k : 4 * k + 4]
            sb = uv[2 * k] if beta < half else -uv[2 * k]
            sg = uv[2 * k + 1] if gamma < half else -uv[2 * k + 1]
            out += bool(nb & ng and sb * sg < 0)
    return out


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_splitting_tables_match_the_per_table_build(family, rank):
    # one splitting walk and sign masks from the node supports give the masks
    # and, through the weights, the vectors of the build that summed every
    # vector, on the clean tables and on a copy with a third of its constants
    # shifted, where u beta and v gamma can clash on a node and that node is
    # summed
    rs = build_root_system(family, rank)
    table = chevalley_table(family, rank)
    rng = random.Random(rs.name)
    n = table_constants(table)
    pairs = sorted(n)
    bad = with_constants(
        table,
        {p: n[p] + rng.choice((-2, -1, 1, 2)) for p in rng.sample(pairs, len(pairs) // 3)},
    )
    for got, coefficients in (
        (shortcut_table(rs), ref.shortcut_coefficients(rs)),
        (cyclic_table(table), ref.cyclic_coefficients(table)),
        (cyclic_table(bad), ref.cyclic_coefficients(bad)),
    ):
        masks, rows = ref.splitting_table(rs, coefficients)
        assert got.masks == masks
        assert [vectors(rs, got, a) for a in range(len(masks))] == rows
    assert clashes(rs, cyclic_table(table)) == 0
    if len(rs.roots) > 6:  # in A1 and A2 the two roots of a splitting share no node
        assert clashes(rs, cyclic_table(bad)) > 0


def perturbed(table, seed):
    """``table`` with three seeded constants shifted by +-1, antisymmetry kept."""
    rng = random.Random(seed)
    pairs = sorted((x, y) for x, y in table_constants(table) if x < y)
    pairs = rng.sample(pairs, min(3, len(pairs)))
    return mutated(table, {pair: lambda v, d=rng.choice((-1, 1)): v + d for pair in pairs})


def assert_matches_the_per_painting_kernel(flag, table, xi=None):
    """Cone sets, and with ``xi`` every witness list, equal those of the
    reference kernel, on ``table`` and on a perturbed copy of it."""
    spec = flag.pd.spec
    assert shortcut_cone_set(flag) == ref.cone_set(flag, ref.shortcut_kernel(flag)), spec
    if xi is not None:
        vectors = ref.shortcut_kernel(flag)
        for a in flag.rs.roots_of(flag.m_plus_mask):
            got = shortcut_violations(flag, xi, a)
            assert got == ref.violations(flag, xi, vectors, a), (spec, a)
    for t in (table, perturbed(table, spec)):
        vectors = ref.cyclic_kernel(flag, t)
        assert transvection_cone_set(flag, t) == ref.cone_set(flag, vectors), spec
        if xi is not None:
            for a in flag.rs.roots_of(flag.m_plus_mask):
                got = transvection_violations(flag, xi, t, a)
                assert got == ref.violations(flag, xi, vectors, a), (spec, a)


@pytest.mark.parametrize("family,rank", simple_types(6))
def test_mask_kernel_matches_the_per_painting_kernel_rank_le_6(family, rank):
    table = chevalley_table(family, rank)
    for flag in paintings(family, rank):
        xi = kahler_param(flag, [Fraction(k + 2, k + 1) for k in range(len(flag.pd.painted))])
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
