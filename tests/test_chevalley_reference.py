"""The indexed Chevalley build and audit against the tuple loops they replaced.

The reference functions below walk root strings on coordinate tuples, look
constants up by tuple key, build the table in Fraction arithmetic and check
the Jacobi identity on every triple of ``itertools.combinations(rs.roots, 3)``.
The build in ``flagsym.chevalley`` works on root indices in integers and must
store the same constants, with the weights of the root system the same as
those of the Fraction reference; its audit prunes the triples and must report
the same violations, on clean tables and on tables with seeded faults.
"""

import hashlib
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

import root_helpers
from flagsym import (
    build_constants,
    build_root_system,
    chevalley,
    convention_violations,
    rootsystem,
    sign_convention_check,
    simple_types,
)
from flagsym.chevalley import _jacobi_candidates
from flagsym.rootsystem import InternalConsistencyError, bits, height
from root_helpers import radd, ref_weights, root_set, rsub, sum_index
from table_helpers import _jacobi_triples, jacobi_walk, table_constants, with_constants

# The pure per-type reference helpers, shared by every test of the module:
# each value depends only on the type and the roots given, and the Jacobi
# reference asks for them on every term of every triple of every table.
# ref_weights is cached by its Cartan matrix in root_helpers.
rneg = lru_cache(maxsize=None)(rootsystem.rneg)
coroot = lru_cache(maxsize=None)(root_helpers.coroot)
cartan_int = lru_cache(maxsize=None)(root_helpers.cartan_int)


def ref_string_down(rs, a, base):
    p = 0
    v = rsub(base, a)
    while v in root_set(rs):
        p += 1
        v = rsub(v, a)
    return p


def ref_build_constants(rs):
    """(n, b): the extraspecial-pair table on coordinate tuples, in Fractions."""
    pos = rs.positive_roots
    pos_set = frozenset(pos)
    order = {r: i for i, r in enumerate(pos)}
    b = ref_weights(rs.cartan)

    special = {}

    def n_pos(x, y):
        return special[(x, y)] if order[x] < order[y] else -special[(y, x)]

    for gamma in pos:
        if height(gamma) < 2:
            continue
        pairs = []
        for a in pos:
            rest = rsub(gamma, a)
            if rest in pos_set and order[a] < order[rest]:
                pairs.append((a, rest))
        if not pairs:
            raise InternalConsistencyError(f"no decomposition for {gamma}")
        pairs.sort(key=lambda pr: order[pr[0]])
        eps, eta = pairs[0]
        special[(eps, eta)] = ref_string_down(rs, eps, eta) + 1
        for al, be in pairs[1:]:
            acc = Fraction(0)
            nu = rsub(al, eps)
            if nu in pos_set:
                acc += n_pos(eps, nu) * n_pos(be, nu) * b[al] * b[eta] / b[nu]
            mu = rsub(eta, al)
            if mu in pos_set:
                acc += n_pos(al, mu) * n_pos(mu, eps) * b[eta] * b[be] / b[mu]
            x = -acc / (special[(eps, eta)] * b[gamma])
            expected = ref_string_down(rs, al, be) + 1
            if x.denominator != 1 or abs(x) != expected:
                raise InternalConsistencyError(
                    f"constant for ({al}, {be}) came out {x}, |.| != {expected}"
                )
            special[(al, be)] = int(x)

    full = {}
    mixed = []
    for (x, y), s in sum_index(rs).items():
        px, py = height(x) > 0, height(y) > 0
        if px and py:
            full[(x, y)] = n_pos(x, y)
        elif not px and not py:
            full[(x, y)] = -n_pos(rneg(x), rneg(y))
        else:
            mixed.append((x, y, s))
    for x, y, s in mixed:
        z = rneg(s)
        if (height(y) > 0) == (height(z) > 0):
            val = full[(y, z)] * b[x] / b[z]
        else:
            val = full[(z, x)] * b[y] / b[z]
        if val.denominator != 1:
            raise InternalConsistencyError(f"non-integral constant for ({x}, {y})")
        full[(x, y)] = int(val)
    return full, b


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_build_matches_reference_through_e8(family, rank):
    rs = build_root_system(family, rank)
    table = build_constants(rs)
    n, b = ref_build_constants(rs)
    count, index = len(rs.roots), rs.index
    want = [0] * (count * count)
    for (x, y), v in n.items():
        want[index[x] * count + index[y]] = v
    assert table.n_dense.tolist() == want
    assert list(rs.weights) == [b[r] for r in rs.roots]
    assert all(type(w) is int for w in rs.weights)


def ref_jacobi_defect(n, sums, rs, x, y, z):
    """Coefficients of [[E_x,E_y],E_z] + [[E_y,E_z],E_x] + [[E_z,E_x],E_y],
    with n(a, b) read from ``n`` and a + b from ``sums``, both keyed by
    coordinate tuples (``table_constants`` and ``sum_index``)."""
    roots = {}
    cart = [0] * rs.rank  # ints stay exact beside the Fraction coroot terms
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        if a == rneg(b):
            coef = cartan_int(rs, c, a)
            if coef:
                roots[c] = roots.get(c, 0) + coef
            continue
        s = sums.get((a, b))
        if s is None:
            continue
        m = n[(a, b)]
        if s == rneg(c):
            for i, v in enumerate(coroot(rs, s)):
                cart[i] += m * v
            continue
        u = sums.get((s, c))
        if u is not None:
            coef = m * n[(s, c)]
            if coef:
                roots[u] = roots.get(u, 0) + coef
    return {r: c for r, c in roots.items() if c}, cart


def ref_violations(table):
    rs = table.rs
    b = ref_weights(rs.cartan)
    n, sums, roots = table_constants(table), sum_index(rs), root_set(rs)
    out = []
    for (x, y), v in n.items():
        if v != -table.n_of(y, x):
            out.append(f"antisymmetry fails at ({x}, {y})")
        if v != -table.n_of(rneg(x), rneg(y)):
            out.append(f"negation rule fails at ({x}, {y})")
        p = ref_string_down(rs, x, y)
        if abs(v) != p + 1:
            out.append(f"|n| != p+1 at ({x}, {y}): {v} vs {p + 1}")
    for (x, y), s in sums.items():
        z = rneg(s)
        lhs = table.n_of(x, y) * b[z]
        if lhs != table.n_of(y, z) * b[x] or lhs != table.n_of(z, x) * b[y]:
            out.append(f"weighted cyclic identity fails on ({x}, {y}, {z})")
    count = len(rs.roots)
    for k in [k for k, v in enumerate(table.n_dense) if v]:  # in index order
        x, y = rs.roots[k // count], rs.roots[k % count]
        if radd(x, y) not in roots:
            out.append(f"n nonzero off the sum pairs at ({x}, {y})")
    for x, y, z in itertools.combinations(rs.roots, 3):
        defect, cart = ref_jacobi_defect(n, sums, rs, x, y, z)
        if defect or any(cart):
            out.append(f"Jacobi fails on ({x}, {y}, {z})")
    return out


MUTATIONS = {
    "flip": lambda v: -v,
    "zero": lambda v: 0,
    "double": lambda v: 2 * v,
    "shift": lambda v: v + 1,
}


def mutated(table, kind, count, seed):
    """A copy of ``table`` with ``count`` seeded constants changed by ``kind``."""
    n = table_constants(table)
    keys = random.Random(seed).sample(sorted(n), count)
    return with_constants(table, {key: MUTATIONS[kind](n[key]) for key in keys})


@pytest.fixture(scope="module")
def clean_tables():
    return {
        f"{f}{r}": build_constants(build_root_system(f, r))
        for f, r in simple_types(5)
    }


@pytest.mark.parametrize("name", [f"{f}{r}" for f, r in simple_types(5)])
def test_audit_matches_reference_rank_le_5(name, clean_tables):
    table = clean_tables[name]
    assert convention_violations(table) == ref_violations(table) == []
    if len(table_constants(table)) < 2:
        return  # A1 has no constants to corrupt
    for step, kind in enumerate(MUTATIONS):
        bad = mutated(table, kind, 1 + step % 2, f"{name}|{kind}")
        got = convention_violations(bad)
        want = ref_violations(bad)
        assert want, (name, kind)
        assert sorted(got) == sorted(want), (name, kind)


def test_jacobi_triples_are_distinct_and_sorted_on_e6():
    rs = build_root_system("E", 6)
    triples = list(_jacobi_triples(rs))
    assert len(set(triples)) == len(triples)
    assert all(x < y < z for x, y, z in triples)


@pytest.mark.parametrize("name", ["G2", "B3", "A4", "F4"])
def test_jacobi_triples_are_exactly_the_triples_that_can_fail(name):
    # every other triple has a defect that is zero whatever the constants
    rs = build_root_system(name[0], int(name[1:]))
    index, count = rs.index, len(rs.roots)

    def near(i, j):  # roots i + j lies in R or is 0
        return j == rs.neg[i] or rs.add[i][j] != count

    want = set()
    for x, y, z in itertools.combinations(range(count), 3):
        total = tuple(map(sum, zip(rs.roots[x], rs.roots[y], rs.roots[z])))
        if (total in index or not any(total)) and (near(x, y) or near(x, z) or near(y, z)):
            want.add((x, y, z))
    assert set(_jacobi_triples(rs)) == want


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_every_zeroed_constant_gives_the_reference_witnesses(name, clean_tables):
    # the audit walks the sum pairs from the masks, so a constant set to zero
    # is reported like any other fault
    table = clean_tables[name]
    for key in table_constants(table):
        bad = with_constants(table, {key: 0})
        want = ref_violations(bad)
        assert want, (name, key)
        assert sorted(convention_violations(bad)) == sorted(want), (name, key)


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_canonical_triples_and_their_negations_are_the_candidates(family, rank):
    # the verdict draws its candidates from the canonical half
    rs = build_root_system(family, rank)
    half = len(rs.positive_roots)
    canonical = set(_jacobi_triples(rs, canonical=True))
    assert all(sum(i < half for i in t) >= 2 for t in canonical)
    negated = {tuple(sorted(rs.neg[i] for i in t)) for t in canonical}
    assert not canonical & negated
    assert canonical | negated == set(_jacobi_triples(rs))


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_integer_coroots_match_the_fraction_coroots(family, rank):
    # the witness tier reads a coroot s^v through its pairings <a_k, s^v>
    # with the simple roots, the Cartan integers of the index; they must be
    # those of the Fraction coroot, sum_i s^v_i <a_k, a_i^v>
    rs = build_root_system(family, rank)
    for k, a in enumerate(rs.simple_roots):
        ia = rs.index[a]
        for s, r in enumerate(rs.roots):
            pairing = sum(c * rs.cartan[k][i] for i, c in enumerate(coroot(rs, r)))
            assert rs.cartan_integer(ia, s) == pairing


def zero_sum_orbits(rs):
    """Each zero-sum triple {a, b, c} of distinct roots with its negation, once."""
    seen, out = set(), []
    for (x, y), s in sum_index(rs).items():
        triple = frozenset((x, y, rneg(s)))
        if triple not in seen:
            negated = frozenset(map(rneg, triple))
            seen |= {triple, negated}
            out.append((triple, negated))
    return out


# (orbits, orbits whose flip breaks Jacobi): the one G2 flip that passes
# leaves another valid table
ZERO_SUM_ORBITS = {
    "A3": (4, 4), "B3": (10, 10), "C3": (10, 10), "G2": (5, 4),
    "D4": (16, 16), "A4": (10, 10), "B4": (28, 28),
}


@pytest.mark.parametrize("name", sorted(ZERO_SUM_ORBITS))
def test_flipped_zero_sum_orbit_gives_the_reference_witnesses(name, clean_tables):
    # flipping the 12 constants of a triple and its negation keeps every
    # pair and cyclic check clean, so only the Jacobi walk can see it: the
    # verdict's candidates must fail exactly when some triple fails
    table = clean_tables[name]
    n, orbits, caught = table_constants(table), zero_sum_orbits(table.rs), 0
    for orbit in orbits:
        flips = {(x, y): -n[(x, y)] for t in orbit for x in t for y in t if x != y}
        assert len(flips) == 12
        bad = with_constants(table, flips)
        want = ref_violations(bad)
        assert all(m.startswith("Jacobi") for m in want), (name, orbit)
        assert sign_convention_check(bad) == (not want), (name, orbit)
        assert sorted(convention_violations(bad)) == sorted(want), (name, orbit)
        caught += bool(want)
    assert (len(orbits), caught) == ZERO_SUM_ORBITS[name]


@pytest.mark.parametrize("name", ["B5", "D6", "E6", "F4", "E7"])
def test_verdict_agrees_with_the_witness_tier_past_rank_4(name):
    # seeded faults on larger types than those above: a flipped zero-sum
    # orbit, which only the Jacobi walk can see, and a single changed entry;
    # the verdict passes exactly when the witness tier finds nothing
    table = build_constants(build_root_system(name[0], int(name[1:])))
    n, rng = table_constants(table), random.Random(name)
    faults = []
    for orbit in rng.sample(zero_sum_orbits(table.rs), 8):
        faults.append({(x, y): -n[(x, y)] for t in orbit for x in t for y in t if x != y})
    for key in rng.sample(sorted(n), 4):
        faults.append({key: MUTATIONS[rng.choice(sorted(MUTATIONS))](n[key])})
    for values in faults:
        bad = with_constants(table, values)
        clean = next(chevalley._witnesses(bad), None) is None
        assert sign_convention_check(bad) == clean, (name, values)


# (zero-sum orbits with no +-simple root, those whose flip breaks Jacobi)
AWAY_ORBITS = {
    "A1": (0, 0), "A2": (0, 0), "A3": (0, 0), "A4": (1, 1), "A5": (4, 4),
    "B2": (0, 0), "B3": (2, 2), "B4": (10, 10), "B5": (28, 28),
    "C3": (2, 2), "C4": (10, 10), "C5": (28, 28), "D4": (3, 3), "D5": (14, 14),
    "F4": (37, 37), "G2": (1, 1), "E6": (65, 65),
}


@pytest.mark.parametrize("name", sorted(AWAY_ORBITS))
def test_flipped_orbit_away_from_the_simple_roots_meets_the_witness_tier(name):
    # the verdict evaluates no triple of a class without a simple root, so
    # only the derivation argument catches a fault confined to such classes:
    # flip each zero-sum orbit none of whose roots is +-simple, and the
    # verdict must pass exactly when the witness tier finds nothing
    table = build_constants(build_root_system(name[0], int(name[1:])))
    rs, n = table.rs, table_constants(table)
    simple = {r for a in rs.simple_roots for r in (a, rneg(a))}
    orbits = [orbit for orbit in zero_sum_orbits(rs) if not simple & orbit[0]]
    caught = 0
    for orbit in orbits:
        bad = with_constants(table, {(x, y): -n[(x, y)] for t in orbit for x in t for y in t if x != y})
        clean = next(chevalley._witnesses(bad), None) is None
        assert sign_convention_check(bad) == clean, (name, orbit)
        caught += not clean
    assert (len(orbits), caught) == AWAY_ORBITS[name]


def half_walk_classes(rs):
    """The canonical triples as (generic, special): the verdict draws its
    candidates from the first and leaves the second out."""
    generic, special = [], []
    for p, q, g, s in jacobi_walk(rs, canonical=True):
        generic += (tuple(sorted((p, q, r))) for r in bits(g))
        special += (tuple(sorted((p, q, r))) for r in bits(s))
    return generic, special


def decided(rs, triple):
    """Whether the triple has an opposite pair or sums to zero."""
    x, y, z = triple
    neg = rs.neg
    total = tuple(map(sum, zip(*(rs.roots[i] for i in triple))))
    return y == neg[x] or z == neg[x] or z == neg[y] or not any(total)


def assert_zero_defect(table, triples):
    rs = table.rs
    n, sums = table_constants(table), sum_index(rs)
    for t in triples:
        roots, cart = ref_jacobi_defect(n, sums, rs, *(rs.roots[i] for i in t))
        assert not roots and not any(cart), (rs.name, t)


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_half_walk_leaves_out_only_triples_of_zero_defect(family, rank):
    # the clean audit skips the opposite-pair and zero-sum triples: each one
    # is evaluated here on the built table
    rs = build_root_system(family, rank)
    generic, special = half_walk_classes(rs)
    assert len(set(generic)) == len(generic) and len(set(special)) == len(special)
    assert not set(generic) & set(special)
    assert set(generic) | set(special) == set(_jacobi_triples(rs, canonical=True))
    assert all(decided(rs, t) for t in special)
    assert not any(decided(rs, t) for t in generic)
    assert_zero_defect(build_constants(rs), special)


def test_half_walk_triple_counts_of_e6_to_e8():
    # (evaluated, left out) of the canonical triples: 4620, 19362 and 106120
    counts = {}
    for rank in (6, 7, 8):
        generic, special = half_walk_classes(build_root_system("E", rank))
        counts[rank] = (len(generic), len(special))
    assert counts == {6: (3240, 1380), 7: (15120, 4242), 8: (90720, 15400)}


def sums_of_triples(rs, walk):
    """{sorted triple: index of its sum root} over the (p, q, third) of a walk
    of generic triples, for which p + q is a root."""
    add, out = rs.add, {}
    for p, q, third in walk:
        s = add[p][q]
        for r in bits(third):
            out[tuple(sorted((p, q, r)))] = add[s][r]
    return out


def quadruple_class(rs, triple, t):
    """{Q, -Q} for Q = triple + (-t), the zero-sum quadruple of a generic
    triple with sum roots[t], as the smaller of the two sorted index tuples."""
    neg = rs.neg
    q = sorted((*triple, neg[t]))
    return min(tuple(q), tuple(sorted(neg[i] for i in q)))


def simple_classes(rs, sums):
    """The classes {Q, -Q} of the triples of ``sums`` whose quadruple Q has four
    distinct roots and whose union holds a simple root."""
    simple = {i for a in range(rs.rank) for i in (a, rs.neg[a])}
    classes = {quadruple_class(rs, t, s) for t, s in sums.items()}
    return {c for c in classes if len(set(c)) == 4 and simple & set(c)}


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_verdict_candidates_meet_every_quadruple_class(family, rank):
    # a clean verdict needs one triple of each class {Q, -Q} with a simple
    # root (the derivation argument): the candidates are generic triples of
    # the full walk, and they meet every such class and no other
    rs = build_root_system(family, rank)
    generic = sums_of_triples(rs, ((p, q, g) for p, q, g, _ in jacobi_walk(rs)))
    candidates = sums_of_triples(rs, _jacobi_candidates(rs))
    assert candidates.items() <= generic.items()
    met = {quadruple_class(rs, t, s) for t, s in candidates.items()}
    assert met == simple_classes(rs, generic)


def test_verdict_triple_counts_of_e6_to_e8():
    # (classes with a simple root, triples the verdict evaluates): one per
    # class, and one more for each class with a second simple root met at
    # the higher one
    counts = {}
    for rank in (6, 7, 8):
        rs = build_root_system("E", rank)
        generic = sums_of_triples(rs, ((p, q, g) for p, q, g, _ in jacobi_walk(rs)))
        walk = [(a, y, z) for a, y, third in _jacobi_candidates(rs) for z in bits(third)]
        assert len(set(map(frozenset, walk))) == len(walk)
        counts[rank] = (len(simple_classes(rs, generic)), len(walk))
    assert counts == {6: (440, 495), 7: (1476, 1590), 8: (5614, 5859)}


# the sha256 of the repr of the verdict's triples (p, q, r), in the order it
# evaluates them: the first failing triple, and so the verdict's work on a
# faulty table, depends on that order, not only on the set of triples
VERDICT_WALK_ORDER = {
    "A1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A3": "74be1c79613adaa2e520a020a03022df22d8902a80dc386fd013b797e41ab11f",
    "A4": "2bf5454872843ba8b5fc2033e748f3605970749e568356b64f944a83d96e2be4",
    "A5": "91123bf58511853861dc69ca630de244248f566e534c082c3df402393d662cfd",
    "A6": "de4a77906b116178c17e6f02c8aa76427fcf9eddcb09a8565b37caa0905e8ce6",
    "A7": "fbc9fa8ba808bd0f654c44ed6377d72d678aeddc60d5be48ea1397a4cfca465f",
    "A8": "e2b70bec5c559730ce3e0d285773821e58a3359be8fcde3a41b9881d4cb87cfa",
    "B2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "B3": "81a85868710971a177a859a2c3d95fcfe70fd1c7d966d12bcb248f9efef4d383",
    "B4": "e323f3a5630cf8818e705f2b98384b1218209437e16632cf7bfb1cc35a390ef6",
    "B5": "78b3602b1e2c7450ff6f1e67dff127d9a3c0018a14bd30fe23c1c10036cd7a3e",
    "B6": "6f282c6c49dc5e1478c45747572721c2cfb0e8c447e930ff87b4d6f1e709b693",
    "B7": "96f97ccae3e4606017a8aadd8b6d309bf48df47129509fc766597e6eb8cfe88e",
    "B8": "69049dcdde975877e6494dde995a7392d599c8712e0244fd540216b6229e5b1d",
    "C3": "588c0a5a786b3dabec46ff4116af736d4fdc46086aa4e72542efda1487a9ff1c",
    "C4": "884a9bcc1fcbe56f45eac7ffc56351e8fa93f00c4f685a42e71f6e5d53530923",
    "C5": "f164ed9adcc14ad4ddc1f46dba285273fcb7b6cf216414a0f95f0621272cbf51",
    "C6": "59a72569532b21085228deb6e61a0ea2ad59a56c167f8112b00bff89f93e05f1",
    "C7": "b98f760f7e854f7f7992d3b536cdeccea427fd8783cd3fd3999f6ffda42517e3",
    "C8": "4d840e4211da95129f1c549d34d782ddffc779f82ef19e00ae66d675fec609de",
    "D4": "fc4f5426062542f8a968e51f1b61dfce9741557f2b356aebff06974a923470ef",
    "D5": "c3dab72ad519108d0f44aec9c78ac400b85732f044a85d89a9d7cce463288585",
    "D6": "9dacce35bd91b47a4bda94486c4ddca798438d22edb36deaf826358a72d4956c",
    "D7": "fb82a100e3cc92a04eee0b44c37e6c4c7b050c2704a0606f31a00a0c64c31125",
    "D8": "dcfaadf883b45b698a0b4c2b898b752a50c8c8d4576ebcad1f2b5faa4a40f17e",
    "E6": "8723996b0c548bd9b88f229992d6c9d436552a6b8d510a6c709945173b97f77a",
    "E7": "689f782f14403a4938dfff566450e879c6e5c15fbe6bb385e3a757328bde0446",
    "E8": "9781ca54c42ec81d7ca816211ea5980cfb57f76e43172dde6b7122d8dfcf0b86",
    "F4": "aa6140c2dbacaa7e46341ceb7e4b95c4bf02db7f904f8c762f247f2dd05662f6",
    "G2": "c51d01970d7fca9f1f9580eff411625fbc909097473a0f795397efe2922bdef5",
}


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_verdict_walk_order_is_pinned(family, rank):
    rs = build_root_system(family, rank)
    order = [(p, q, r) for p, q, third in _jacobi_candidates(rs) for r in bits(third)]
    got = hashlib.sha256(repr(order).encode()).hexdigest()
    assert got == VERDICT_WALK_ORDER[f"{family}{rank}"]


def pair_orbits(table):
    """Each orbit {(x, y), (y, x), (-x, -y), (-y, -x)} of sum pairs, once, in order."""
    seen, out = set(), []
    for x, y in table_constants(table):
        orbit = ((x, y), (y, x), (rneg(x), rneg(y)), (rneg(y), rneg(x)))
        if orbit[0] not in seen:
            seen.update(orbit)
            out.append(orbit)
    return out


@pytest.mark.parametrize("name", ["A3", "B2", "G2"])
def test_changed_orbit_member_fails_the_verdict(name, clean_tables):
    # the verdict reads each orbit once: a change to any one member breaks
    # antisymmetry and the negation rule; negating the whole orbit breaks
    # only the weighted cyclic identity, doubling it |n| = p+1 as well
    table = clean_tables[name]
    n = table_constants(table)
    for orbit in pair_orbits(table):
        changes = [{member: -n[member]} for member in orbit]
        changes += [{m: -n[m] for m in orbit}, {m: 2 * n[m] for m in orbit}]
        for values in changes:
            bad = with_constants(table, values)
            want = ref_violations(bad)
            assert want and not sign_convention_check(bad), (name, values)
            got = convention_violations(bad)
            assert sorted(got) == sorted(want), (name, values)
            assert convention_violations(bad, limit=2) == got[:2], (name, values)
        # the doubled orbit, last, breaks |n| = p+1 and the cyclic identity
        assert {"|n|", "weighted"} <= {m.split(" ")[0] for m in want}, (name, orbit)


@pytest.mark.parametrize("name", sorted(ZERO_SUM_ORBITS))
def test_flipped_zero_sum_orbit_keeps_the_left_out_triples_at_zero(name, clean_tables):
    # these tables pass the pair and cyclic checks but are not Chevalley
    # tables; the triples the half walk leaves out still have zero defect
    table, n = clean_tables[name], table_constants(clean_tables[name])
    _, special = half_walk_classes(table.rs)
    for orbit in zero_sum_orbits(table.rs):
        flips = {(x, y): -n[(x, y)] for t in orbit for x in t for y in t if x != y}
        bad = with_constants(table, flips)
        assert all(m.startswith("Jacobi") for m in convention_violations(bad)), orbit
        assert_zero_defect(bad, special)


def test_constant_off_the_sum_pairs_fails_the_audit():
    # a1 + a3 and a1 - a3 are no roots of A3, so n(a3, a1) must be zero; an
    # antisymmetric pair planted there reads only entries that no pair,
    # cyclic or Jacobi check reads
    table = build_constants(build_root_system("A", 3), verify=True)
    a1, a3 = (1, 0, 0), (0, 0, 1)
    bad = with_constants(table, {(a3, a1): 1, (a1, a3): -1})
    want = [  # in index order: a3 comes first, (0, 0, 1) < (1, 0, 0)
        f"n nonzero off the sum pairs at ({a3}, {a1})",
        f"n nonzero off the sum pairs at ({a1}, {a3})",
    ]
    assert not sign_convention_check(bad)
    assert convention_violations(bad) == ref_violations(bad) == want
    assert bad.n_of(a3, a1) == 1


@pytest.mark.parametrize("name", [f"{f}{r}" for f, r in simple_types(5)])
def test_planted_entry_off_the_sum_pairs_gives_the_reference_witness(name, clean_tables):
    table = clean_tables[name]
    rs, rng = table.rs, random.Random(name)
    x, y = rng.choice([(x, y) for x in rs.roots for y in rs.roots if radd(x, y) not in root_set(rs)])
    bad = with_constants(table, {(x, y): rng.choice((-3, -2, -1, 1, 2, 3))})
    want = [f"n nonzero off the sum pairs at ({x}, {y})"]
    assert not sign_convention_check(bad), (name, x, y)
    assert convention_violations(bad) == ref_violations(bad) == want, (name, x, y)
