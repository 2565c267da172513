"""The mask kernel of the symmetry layer against the tuple loops it replaced.

The reference functions below are the former implementations: they build
every sum a + b as a coordinate tuple and test it against frozensets of
roots.  The kernel in ``flagsym.symmetry`` works on root-index bitmasks and
must give the same sets and the same verdicts on every painting of rank
<= 6 and on a seeded sample of rank 7-8 paintings.  The classifier of the
leaf's subsystems, which reads its Cartan integers off root strings, must
give the labels of the Gram-product classifier it replaced (built on the
Gram-form diagram builder of ``root_helpers``) on every symmetry-root mask
through rank 8, and the same error on sets of positive roots that are no
positive system; it reads each Cartan integer it needs once.  The closure of
the leaf on the rows of k alone must give the verdict of the full closure on
every symmetry-root mask through rank 8, and the closure of h' on the rows of
p alone that of the full closure on every painting through rank 8, with the
root index sound (the zero set of every node closed) on every type through
rank 8 and on the A-D types of rank 9-12.  The affine node's component, found
on node masks, must be the diagram of the component split it replaced (the
edge-list search of ``root_helpers``, which the reference classifier splits
its diagrams with too), with the same label, on every painting through rank
8, each component classified once per type.  The root-index tables
themselves (``index``, ``neg``, ``sums``, ``add``) are checked against
coordinate addition, the ``sum_index`` test helper and ``rneg`` for every
simple type of rank <= 8.
"""

import itertools
import random

import pytest

from flagsym import (
    Diagram,
    InternalConsistencyError,
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
    simple_types,
    symmetry_roots,
)
from flagsym import symmetry
from flagsym.rootsystem import bits, height, rneg
from flagsym.symmetry import (
    Structure,
    _classify_sub,
    _closure_gap,
    _indecomposables,
    _r_k,
    _sound,
    _structure,
    _symmetric,
)
from flag_helpers import ref_r_h, ref_r_m_plus
from root_helpers import (
    PAST_E8,
    diagram_from_vectors,
    radd,
    ref_diagram_components,
    root_set,
    rsub,
    sum_index,
)


def ref_symmetry_roots(flag):
    rset, nil = root_set(flag.rs), ref_r_m_plus(flag)
    return frozenset(a for a in nil if not any(radd(a, b) in rset for b in nil))


def ref_center_of_nilradical(flag):
    nil = ref_r_m_plus(flag)
    return frozenset(a for a in nil if all(radd(a, b) not in nil for b in nil))


def ref_r_k(flag, rp_plus):
    rset = root_set(flag.rs)
    out = set()
    for a in rp_plus:
        for b in rp_plus:
            if a != b:
                d = rsub(a, b)
                if d in rset:
                    out.add(d)
    return frozenset(out)


def ref_closed(rs, roots):
    return not any(
        radd(a, b) in root_set(rs) and radd(a, b) not in roots
        for a in roots
        for b in roots
    )


def ref_k_prime_check(flag, rp_plus):
    rk = ref_r_k(flag, rp_plus)
    rp = rp_plus | frozenset(rneg(a) for a in rp_plus)
    rset = root_set(flag.rs)
    return all(radd(g, a) not in rset for g in (ref_r_h(flag) - rk) for a in rp)


def ref_is_symmetric_coset(flag):
    rset, nil = root_set(flag.rs), ref_r_m_plus(flag)
    return not any(radd(a, b) in rset for a in nil for b in nil)


def ref_indecomposables(pos):
    pset = set(pos)
    return [
        s
        for s in sorted(pos, key=lambda r: (height(r), r))
        if not any(x != s and rsub(s, x) in pset for x in pos)
    ]


def ref_classify_sub(rs, pos):
    """Labels of the components of a closed subsystem: one diagram of all its
    simple roots from ``diagram_from_vectors``, each node labelled by its place
    among them, split into connected components."""
    simples = ref_indecomposables(list(rs.roots_of(pos)))
    diagram = diagram_from_vectors(rs, list(enumerate(simples)))
    return sorted(classify_connected(comp) for comp in ref_diagram_components(diagram))


def outcome(classify, rs, pos):
    """The labels, or the type and message of the error raised."""
    try:
        return classify(rs, pos)
    except (InternalConsistencyError, ValueError) as exc:
        return type(exc), str(exc)


def paintings(types):
    for family, rank in types:
        rs = build_root_system(family, rank)
        for size in range(1, rank + 1):
            for combo in itertools.combinations(range(1, rank + 1), size):
                yield PaintedDiagram(rs, frozenset(combo))


def rank_7_8_sample(count=60, seed=7):
    pool = list(paintings([t for t in simple_types(8) if t[1] >= 7]))
    return random.Random(seed).sample(pool, count)


def assert_kernel_matches_reference(pd, rng):
    flag = make_flag(pd)
    rs = flag.rs
    spec = pd.spec
    rp_plus = ref_symmetry_roots(flag)
    assert rs.roots_of(symmetry_roots(flag)) == rp_plus, spec
    center = rs.roots_of(center_of_nilradical(flag))
    assert center == ref_center_of_nilradical(flag) == rp_plus, spec
    assert flag.is_symmetric_coset() == ref_is_symmetric_coset(flag), spec
    r_h, r_m_plus = ref_r_h(flag), ref_r_m_plus(flag)
    assert flag.h_mask == rs.mask_of(r_h)
    assert flag.m_plus_mask == rs.mask_of(r_m_plus)

    plus = rs.mask_of(rp_plus)
    rk = ref_r_k(flag, rp_plus)
    assert rs.roots_of(_r_k(rs, plus)) == rk, spec
    assert k_prime_check(flag) == ref_k_prime_check(flag, rp_plus), spec

    rep = build_report(flag)
    assert rep.r_p_plus == rp_plus, spec
    assert rs.roots_of(rep.leaf.k_mask) == rk, spec
    ru = rk | rp_plus | frozenset(rneg(a) for a in rp_plus)
    assert rs.roots_of(rep.leaf.u_mask) == ru, spec
    hp = r_h | rp_plus | frozenset(rneg(a) for a in rp_plus)
    assert rs.roots_of(h_prime(flag)) == hp, spec
    assert ref_closed(rs, ru) and ref_closed(rs, hp), spec

    for sub in (ru, rk):
        pos = [r for r in sub if height(r) > 0]
        got = [rs.roots[i] for i in _indecomposables(rs, rs.mask_of(pos))]
        assert got == ref_indecomposables(pos), spec

    # off the theorems: a random part of R_m+ stands in for the symmetry roots
    members = sorted(r_m_plus, key=rs.index.__getitem__)  # index order
    fake = frozenset(rng.sample(members, rng.randint(1, len(members))))
    other = make_flag(pd)
    plus = rs.mask_of(fake)
    rp = plus | rs.neg_mask(plus)
    other._structure = Structure(plus, rp, _r_k(rs, plus), other.h_mask | rp)
    assert rs.roots_of(_r_k(rs, plus)) == ref_r_k(other, fake), spec
    assert k_prime_check(other) == ref_k_prime_check(other, fake), spec

    # closure verdicts, also on sets that are not closed
    for roots in (ru, hp, r_h, r_m_plus):
        members = sorted(roots)
        variants = [roots]
        if members:
            variants.append(roots - {rng.choice(members)})
        variants.append(roots | {rng.choice(rs.roots)})
        for v in variants:
            assert (_closure_gap(rs, rs.mask_of(v)) is None) == ref_closed(rs, v), spec


@pytest.mark.parametrize("family,rank", simple_types(6))
def test_kernel_matches_reference_rank_le_6(family, rank):
    rng = random.Random(f"{family}{rank}")
    for pd in paintings([(family, rank)]):
        assert_kernel_matches_reference(pd, rng)


def test_kernel_matches_reference_rank_7_8_sample():
    rng = random.Random("rank-7-8")
    for pd in rank_7_8_sample():
        assert_kernel_matches_reference(pd, rng)


def test_rank_le_6_covers_every_painting():
    assert sum(1 for _ in paintings(simple_types(6))) == 545


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_root_index_tables(family, rank):
    rs = build_root_system(family, rank)
    count = len(rs.roots)
    for i, a in enumerate(rs.roots):
        assert rs.index[a] == i
        assert rs.roots[rs.neg[i]] == rneg(a)
        for j, b in enumerate(rs.roots):
            s = radd(a, b)
            is_root = s in root_set(rs)
            assert (rs.sums[i] >> j & 1) == is_root
            assert rs.add[i][j] == (rs.index[s] if is_root else count)
            assert sum_index(rs).get((a, b)) == (s if is_root else None)
    positives = rs.mask_of(rs.positive_roots)
    assert rs.positive_mask == positives
    assert rs.neg_mask(positives) == rs.mask_of(rneg(r) for r in rs.positive_roots)
    sample = random.Random(rs.name).sample(rs.roots, min(7, count))
    mask = rs.mask_of(sample)
    assert rs.roots_of(mask) == frozenset(sample)
    assert rs.roots_of(rs.neg_mask(mask)) == frozenset(rneg(r) for r in sample)
    assert list(bits(mask)) == sorted(rs.index[r] for r in sample)


@pytest.fixture(scope="module")
def symmetry_masks():
    """The first flag of each of the 305 symmetry-root masks of rank <= 8."""
    masks = {}
    for pd in paintings(simple_types(8)):
        flag = make_flag(pd)
        masks.setdefault((pd.rs.name, _structure(flag).plus), flag)
    assert len(masks) == 305
    return list(masks.values())


@pytest.fixture(scope="module")
def leaf_subsystems(symmetry_masks):
    """(spec, rs, positive mask) of u and of k for each of the 305
    symmetry-root masks of rank <= 8."""
    subsystems = []
    for flag in symmetry_masks:
        rs, record = flag.rs, _structure(flag)
        rp, rk = record.rp, record.rk
        for pos in ((rp | rk) & rs.positive_mask, rk & rs.positive_mask):
            subsystems.append((flag.pd.spec, rs, pos))
    return subsystems


def test_classifier_matches_the_gram_classifier_on_every_symmetry_root_mask(leaf_subsystems):
    for spec, rs, pos in leaf_subsystems:
        assert _classify_sub(rs, pos) == ref_classify_sub(rs, pos), (spec, pos)


def test_classifier_reads_each_cartan_integer_once(leaf_subsystems, monkeypatch):
    # one diagram on all k simple roots: <t, s^v> for each of the C(k, 2)
    # pairs, and <s, t^v> once more for each edge; grouping the components
    # first read every joined pair again
    calls = []
    cartan_integer = RootSystem.cartan_integer

    def counted(self, t, s):
        calls.append((t, s))
        return cartan_integer(self, t, s)

    monkeypatch.setattr(RootSystem, "cartan_integer", counted)
    for spec, rs, pos in leaf_subsystems:
        simples = _indecomposables(rs, pos)
        k, edges = len(simples), len(rs.diagram(list(enumerate(simples))).edges)
        calls.clear()
        _classify_sub(rs, pos)
        assert len(calls) <= k * (k - 1) // 2 + edges, (spec, pos)


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_classifier_fails_as_the_gram_classifier_off_positive_systems(family, rank):
    # random sets of positive roots: their "simple roots" can pair positively
    # (a1 and a1 + a2) or give no Dynkin diagram; the error and its message,
    # which names the two nodes by their place among those roots, must agree
    rs = build_root_system(family, rank)
    rng = random.Random(rs.name)
    half = len(rs.positive_roots)
    got = []
    for _ in range(40):
        pos = sum(1 << i for i in rng.sample(range(half), rng.randint(1, half)))
        got.append(outcome(_classify_sub, rs, pos))
        assert got[-1] == outcome(ref_classify_sub, rs, pos), pos
    if half > 3:
        assert any(r[0] is InternalConsistencyError for r in got)


def test_leaf_closure_on_the_rows_of_k_gives_the_full_verdict(symmetry_masks):
    # two roots of p never sum to a root outside u = k + p: two of one sign
    # never sum to a root (the centre is abelian), a mixed pair sums into k
    for flag in symmetry_masks:
        rs, record = flag.rs, _structure(flag)
        rp, rk = record.rp, record.rk
        pruned = _closure_gap(rs, rk | rp, rk) is None
        assert pruned == (_closure_gap(rs, rk | rp) is None), flag.pd.spec


def test_hprime_closure_on_the_rows_of_p_gives_the_full_verdict():
    # h is closed, as every zero set is: the rows of p decide
    count = 0
    for pd in paintings(simple_types(8)):
        flag = make_flag(pd)
        rs, record = flag.rs, _structure(flag)
        assert _sound(rs), pd.spec
        pruned = _closure_gap(rs, record.hp, record.rp) is None
        assert pruned == (_closure_gap(rs, record.hp) is None), pd.spec
        count += 1
    assert count == 2455


@pytest.mark.parametrize("family,rank", simple_types(8) + PAST_E8)
def test_every_zero_set_is_closed(family, rank):
    rs = RootSystem(family, rank)  # its own verdict, not yet decided
    assert _symmetric(rs)
    assert _sound(rs) and rs.sound is True


def ref_leaf_via_diagram(pd):
    """The construction ``leaf_via_diagram`` replaced: drop the painted nodes
    and their edges from the extended diagram, split what is left into its
    components and keep the one of the affine node."""
    ext = pd.rs.extended_diagram()
    keep = [v for v in ext.nodes if v not in pd.painted]
    edges = tuple(e for e in ext.edges if e[0] in keep and e[1] in keep)
    return next(c for c in ref_diagram_components(Diagram(tuple(keep), edges)) if 0 in c.nodes)


@pytest.mark.parametrize("family,rank", simple_types(8))
def test_affine_component_is_classified_once_per_component(family, rank, monkeypatch):
    rs = RootSystem(family, rank)  # its own memos, empty
    pds = [
        PaintedDiagram(rs, frozenset(combo))
        for size in range(1, rank + 1)
        for combo in itertools.combinations(range(1, rank + 1), size)
    ]
    leaves = {pd: leaf_pair(make_flag(pd)) for pd in pds}
    refs = {pd: ref_leaf_via_diagram(pd) for pd in pds}
    classified = []

    def counted(diagram):
        classified.append(diagram.nodes)
        return classify_connected(diagram)

    monkeypatch.setattr(symmetry, "classify_connected", counted)
    for pd in pds:
        assert leaf_via_diagram(pd) == refs[pd], pd.spec
        label = "%s%d" % classify_connected(refs[pd])
        leaf = leaves[pd]
        assert diagrams_agree(pd, leaf) == (label == leaf.u_type), pd.spec
        assert diagrams_agree(pd, leaf._replace(u_type=label)), pd.spec
        assert not diagrams_agree(pd, leaf._replace(u_type=f"{label}'")), pd.spec
    assert sorted(classified) == sorted({ref.nodes for ref in refs.values()})
