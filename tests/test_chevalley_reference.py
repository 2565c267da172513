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


def kept_triples(rs, sums):
    """The canonical triples of ``sums`` that the representative rule keeps:
    three positive roots; a sum t in -T; or two positive roots x, y, one
    negative z and t positive with the largest index of {x, y, -z, t}."""
    half, neg = len(rs.positive_roots), rs.neg
    kept = set()
    for triple, t in sums.items():
        positive = [i for i in triple if i < half]
        if len(positive) == 3 or len(positive) == 2 and neg[t] in triple:
            kept.add(triple)
        elif len(positive) == 2 and t < half:
            z = next(i for i in triple if i >= half)
            if t > max(*positive, neg[z]):
                kept.add(triple)
    return kept


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_verdict_candidates_meet_every_quadruple_class(family, rank):
    # a clean verdict needs one triple of each class {Q, -Q} with a root
    # pairing: the generic triples of the full walk are the triples of those
    # classes, each class with all its triples
    rs = build_root_system(family, rank)
    half = len(rs.positive_roots)
    generic = sums_of_triples(rs, ((p, q, g) for p, q, g, _ in jacobi_walk(rs)))
    candidates = sums_of_triples(rs, _jacobi_candidates(rs))
    assert candidates.items() <= generic.items()
    assert all(sum(i < half for i in t) >= 2 for t in candidates)
    assert kept_triples(rs, generic) <= candidates.keys()
    classes = {quadruple_class(rs, t, s) for t, s in generic.items()}
    assert {quadruple_class(rs, t, s) for t, s in candidates.items()} == classes


def test_verdict_triple_counts_of_e6_to_e8():
    # (kept by the representative rule, candidates of the height masks), one
    # triple per class in these simply-laced types; the half walk evaluated
    # 3240, 15120 and 90720
    counts = {}
    for rank in (6, 7, 8):
        rs = build_root_system("E", rank)
        canonical = sums_of_triples(rs, ((p, q, g) for p, q, g, _ in jacobi_walk(rs, True)))
        candidates = sums_of_triples(rs, _jacobi_candidates(rs))
        counts[rank] = (len(kept_triples(rs, canonical)), len(candidates))
    assert counts == {6: (810, 876), 7: (3780, 3970), 8: (22680, 23331)}


# the sha256 of the repr of the verdict's triples (p, q, r), in the order it
# evaluates them: the first failing triple, and so the verdict's work on a
# faulty table, depends on that order, not only on the set of triples
VERDICT_WALK_ORDER = {
    "A1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A3": "f78504ec38fe746370577bc997d59638a0ecf3bdcf38a215ac1fc1bc2d43ccc1",
    "A4": "0342538eb7f86e4f37c2ec8e6a0f1f916cc84a4cc1623756bfeb2938643ebdbe",
    "A5": "7311c8cd132bffddd3268e12557353d599ac92e8d26f54173ea07b484a7b6e15",
    "A6": "32afb6cb38f09ad1e0eab200d3bb26fe079a50a96840ae0d5bb17637e33acb1b",
    "A7": "a41a0ab0ea62187956c8e4ae650845d2ca1f1db5744f52b88874b01fd04b38a0",
    "A8": "90950648df35d41420c86ec758686fb3402dd2bd8d07048f81a1e1ad0cce6a27",
    "B2": "8537b5e60dd6e484e8f795c3365d33ecf210de917458ea6342045b5cf59e2ec9",
    "B3": "9fd2682f2e7a2af347bdddb3983f4ff4461658c2b9e580adf8374538211e4a94",
    "B4": "9ce3c5758141a6d451e3f0b0276f81218d9a38b67d3c4ca1da89809cb9f02b3f",
    "B5": "f64f69d87e6cd0facb6ff29d0458298e0dbd8ab08ea2b9702c661149e28de561",
    "B6": "b5a08d439a9ee04842c2d161f9b993fc2cd1f2990244299a3afb20849c0c6aaf",
    "B7": "293e6b65865cc0ab61b210d44a039acc7eaa97e2cbb32028c14ae704289d5043",
    "B8": "8a4dd33f17984d765b48c3cdf41667a468ae6b8aa1fc24d755a73e69bcac8896",
    "C3": "1227134ecd85bf912765d9f50d4886ce03d991b902539c63011036a97277e366",
    "C4": "3487cb763f3d9b49dc4de1dfcd0daef99406a821a2466a5f06c451d64b6f54e6",
    "C5": "85a0d92f953bded585bfca1aaa606708e3dddb54dde20867ad915b8e691401ad",
    "C6": "c11e2e51afd7ad1d193b8ca95fc672d75e8aa4ef3d29a88f4268dc6570431716",
    "C7": "667ff4909cc221b6c044bd5a94b6929412fbdf2d15131545864ad3ab7f781dea",
    "C8": "9e26a900f158a156a85ba12ca5228d4542ea8b0b289726df00044f3e33008712",
    "D4": "6be9342b813e74fcb5f27626666a9b98a2d0bc3328ffb36204f5d1f2f431c550",
    "D5": "1ff60f460a547bb4f3c86b2a79f8a1dc98f555b331a2ccf8ebd8a2604fcf8a17",
    "D6": "f8d47df82b9320d0179038008cdd04b545f3fd4d66ae52ebae436a1e3c200631",
    "D7": "65d5f1f249e41011bcde647153c6f8ec3c33cb0473449ec03090c627e3362b90",
    "D8": "8342057de288d299b8a5d61035c23b452316ffcd0b1c07b93dedc625ee7f77f7",
    "E6": "2c9e5400dda674d38af49ddbe0c4495acc3d462ddc08078a6e8e1ddc4bb9659c",
    "E7": "e323462d69dc576d4b4f030712e680db731d2a212205c4f51c97f6c67c104c87",
    "E8": "307f7e33b464021a4831a497bb260e9917dab7b2259cb1e7f247ac735d18164c",
    "F4": "f007e562e21a4312b729c086bd71cecb2e0108c9b8388b9e3ac3a73e95d991a9",
    "G2": "2abbb2a9d709651c0152b5135958cfe168e44589748e59ec5bc3077d00e6dcdf",
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
