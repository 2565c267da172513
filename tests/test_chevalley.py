import csv
import hashlib

import pytest

from flagsym import (
    InternalConsistencyError,
    build_constants,
    build_root_system,
    chevalley,
    cli,
    convention_violations,
    sign_convention_check,
    simple_types,
)
from flagsym.chevalley import AUDITED_DIGESTS, digest
from flagsym.rootsystem import RootSystem, rneg
import oracle_helpers as ref
from root_helpers import radd, sum_index
from table_helpers import _string_down, b_of, table_constants, with_constants

RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]


def dump_csv(table, path) -> None:
    """Write the constant table (root-index pair, constant) for audit."""
    index = table.rs.index
    rows = sorted((index[a], index[b], a, b, v) for (a, b), v in table_constants(table).items())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ia", "ib", "root_a", "root_b", "n"])
        for ia, ib, a, b, v in rows:
            writer.writerow([ia, ib, " ".join(map(str, a)), " ".join(map(str, b)), v])


@pytest.fixture(scope="module")
def tables():
    # build_constants certifies each one by the digest of an audited build
    return {t: build_constants(build_root_system(*t)) for t in RANK_LE_4}


def test_a2_magnitude(tables):
    t = tables[("A", 2)]
    assert abs(t.n_of((1, 0), (0, 1))) == 1


def test_g2_magnitude(tables):
    t = tables[("G", 2)]
    assert abs(t.n_of((0, 1), (1, 1))) == 2
    # the triple-bond constant reaches 3
    assert max(abs(v) for v in table_constants(t).values()) == 3


def test_antisymmetry_and_negation_exhaustive(tables):
    for t in tables.values():
        for (x, y), v in table_constants(t).items():
            assert v == -t.n_of(y, x)
            assert v == -t.n_of(rneg(x), rneg(y))
            assert v != 0


def test_magnitude_is_p_plus_one_exhaustive(tables):
    for typ, t in tables.items():
        rs = t.rs
        for (x, y), v in table_constants(t).items():
            assert abs(v) == _string_down(rs, x, y) + 1, (typ, x, y)


def test_weighted_cyclic_identity_exhaustive(tables):
    for t in tables.values():
        rs = t.rs
        for (x, y), s in sum_index(rs).items():
            z = rneg(s)
            assert t.n_of(x, y) * b_of(t, z) == t.n_of(y, z) * b_of(t, x)
            assert t.n_of(x, y) * b_of(t, z) == t.n_of(z, x) * b_of(t, y)


def test_unweighted_cyclic_identity_simply_laced(tables):
    for typ in [("A", 3), ("D", 4)]:
        t = tables[typ]
        for (x, y), s in sum_index(t.rs).items():
            z = rneg(s)
            assert t.n_of(x, y) == t.n_of(y, z) == t.n_of(z, x)


def test_b_values(tables):
    g2 = tables[("G", 2)]
    assert b_of(g2, (1, 0)) == 1  # long
    assert b_of(g2, (0, 1)) == 3  # short: 2/(2/3)
    assert b_of(g2, (1, 1)) == 3
    assert b_of(g2, (2, 3)) == 1
    a3 = tables[("A", 3)]
    assert all(b_of(a3, r) == 1 for r in a3.rs.roots)


def test_sign_convention_check_passes(tables):
    assert sign_convention_check(tables[("A", 3)])
    assert sign_convention_check(tables[("G", 2)])
    assert sign_convention_check(tables[("F", 4)])


def test_sign_convention_check_catches_mutation(tables):
    t = tables[("A", 3)]
    key, v = next(iter(table_constants(t).items()))
    t = with_constants(t, {key: -v})
    assert not sign_convention_check(t)


def test_witness_limit_below_one_is_rejected(tables):
    # a limit of 0 used to stop after the first witness, not before it
    clean = tables[("B", 3)]
    key, v = next(iter(table_constants(clean).items()))
    bad = with_constants(clean, {key: -v})
    assert len(convention_violations(bad, limit=1)) == 1
    for table in (clean, bad):
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit must be at least 1"):
                convention_violations(table, limit=limit)


def test_exhaustive_audit_of_every_type_through_e8():
    # every type through E8 gets the full Jacobi check here, and its digest
    # must be the pinned one: so a pin names only a build that passed the
    # audit, and build_constants may certify a table by its pin
    assert set(AUDITED_DIGESTS) == {f"{f}{r}" for f, r in simple_types(8)}
    for family, rank in simple_types(8):
        table = build_constants(build_root_system(family, rank), verify=True)
        assert table.certified == "audit", (family, rank)
        assert digest(table) == AUDITED_DIGESTS[f"{family}{rank}"], (family, rank)
        # the identity the oracle reads off a certificate, on the build the
        # sweep reads (certified by its digest): every cyclic vector a
        # nonzero multiple of the shortcut's
        bare = build_constants(table.rs)
        assert ref.cyclic_multiple_breaks(bare) is None, (family, rank)


# the sha256 of n_dense for each A-D type of rank 9-12, which has no pin in
# AUDITED_DIGESTS and so is audited exhaustively at every build
N_DENSE_PAST_E8 = {
    "A9": "fb395cd845c2a5380c0ea62e839b3737cb36810bd862df8e2cef5da8d8a6a8ae",
    "A10": "3204ae1707635c14347dd8f4ce76803376a372009be8462f6b2817739da4cda3",
    "A11": "4e977205d4ad629128b3464ac3238ff1e51adcc92ad0490e834cdff5534dfa64",
    "A12": "d8b399ddc25ebd308b11bc888b4c3787bf5f8f91a3156289920615f22ba14e7f",
    "B9": "4586af2e964a7942076f34f2497e6ad9cbfa7015ded78b368b5518e6ca06abfb",
    "B10": "38717a2f160390eaae0e3db735dce23c15254f08bf58c9c20411c4fd298a5b93",
    "B11": "6ca57b3a973f93ef7d35edf8b32428f89da5ca08b802e867fd30448b57ff6032",
    "B12": "53018500c4b6b52060c3593fc26b9bebd9bdc8b3260fcd20fe2af50e174db8d5",
    "C9": "594f3435cd14c5ede081a933b8da415faa54905aeeb838a6c69a348d1a771ea2",
    "C10": "61db607ed2a74c32fb37b77a404d0e1c4ca120d5edd043ff83158ed8a74418cd",
    "C11": "2734bf68b0f3ce9740e60a9b6a8f8850281d20ef2649f8cd01e4b8716ce06438",
    "C12": "b46b25b0131ac0ae683b20e69076eb1450a0602c8e21032caf6fbd4e7212279e",
    "D9": "a17459c4bf857a9d0ae34f29d405113b888bfb683299129ebb6effe664e57793",
    "D10": "9136aa987015b7039f7e558383fa3a95acefe8b7be8e933c1981d34a29c5d077",
    "D11": "f1ff3dd9ff47b1f6e0fa9924d0014f002926683b9e7e3a911935fd4b4c915e53",
    "D12": "f81cf45013d4cb899a5dec2d44d587c29ae4e25b5020fc356a26985b789bb5e1",
}


def test_build_past_e8_is_pinned():
    for name, want in N_DENSE_PAST_E8.items():
        table = build_constants(build_root_system(name[0], int(name[1:])))
        assert table.certified == "audit", name
        assert hashlib.sha256(table.n_dense).hexdigest() == want, name


@pytest.fixture
def audits(monkeypatch):
    """The names of the tables the audit runs on, in order."""
    names, check = [], chevalley.sign_convention_check
    monkeypatch.setattr(
        chevalley, "sign_convention_check", lambda t: names.append(t.rs.name) or check(t)
    )
    return names


def test_certificate_follows_the_verify_argument(audits):
    assert build_constants(build_root_system("F", 4)).certified == "digest"  # 48 roots
    assert build_constants(build_root_system("B", 5)).certified == "digest"  # 50 roots
    assert audits == []
    # verify=True audits even when the pin matches
    assert build_constants(build_root_system("B", 5), verify=True).certified == "audit"
    assert audits == ["B5"]
    assert build_constants(build_root_system("A", 2), verify=False).certified == "digest"
    assert audits == ["B5"]


def test_a_table_without_its_pin_is_audited_at_build(monkeypatch, audits):
    monkeypatch.delitem(AUDITED_DIGESTS, "E6")
    table = build_constants(build_root_system("E", 6))
    assert audits == ["E6"] and table.certified == "audit"
    monkeypatch.setattr(cli, "chevalley_table", lambda f, r: table)
    assert cli._audit_coverage([("E", 6)]) == (
        "Chevalley tables: 1 of 1 certified (1 audited exhaustively in this run, "
        "0 by the digest of an audited build)"
    )
    # a pin that names another build is no certificate either
    monkeypatch.setitem(AUDITED_DIGESTS, "B3", AUDITED_DIGESTS["B4"])
    assert build_constants(build_root_system("B", 3)).certified == "audit"
    assert audits == ["E6", "B3"]


def test_a_failed_audit_at_build_raises(monkeypatch):
    monkeypatch.delitem(AUDITED_DIGESTS, "A3")
    monkeypatch.setattr(chevalley, "sign_convention_check", lambda t: False)
    with pytest.raises(InternalConsistencyError, match="A3: constant table fails the audit"):
        build_constants(build_root_system("A", 3))


# planted faults on a fresh A3 (build_root_system's is shared), whose positive
# roots in index order are a3, a2, a1, a2+a3, a1+a2, a1+a2+a3
def test_build_raises_for_a_root_without_a_decomposition():
    rs = RootSystem("A", 3)
    decompositions = list(rs.decompositions)
    decompositions[3] = ()  # a2+a3 loses its summands
    rs.decompositions = tuple(decompositions)
    with pytest.raises(InternalConsistencyError) as info:
        build_constants(rs)
    assert str(info.value) == "no decomposition for (0, 1, 1)"


def test_a_fault_in_sums_fails_the_audit_at_build():
    # the build reads the decompositions, not sums; the certificate still
    # guards sums: the digest misses its pin and the audit judges the table
    rs = RootSystem("A", 3)
    sums = list(rs.sums)
    sums[3] &= rs.positive_mask  # a2+a3 loses its negative partners
    rs.sums = tuple(sums)
    with pytest.raises(InternalConsistencyError, match="A3: constant table fails the audit"):
        build_constants(rs)


@pytest.mark.parametrize(
    "family,rank,index,message",
    [
        # -a3: the build never reads the weight of a negative simple root
        ("A", 3, 6, "b(-r) != b(r) at r = (0, 0, 1): 2 vs 1"),
        # A1 has no sum pair, so no other check reads a weight
        ("A", 1, 1, "b(-r) != b(r) at r = (1,): 2 vs 1"),
    ],
)
def test_the_audit_reads_the_weights_of_the_negative_roots(family, rank, index, message):
    def planted(rs):
        weights = list(rs.weights)
        weights[index] = 2
        rs.weights = tuple(weights)
        return rs

    with pytest.raises(InternalConsistencyError, match=f"{family}{rank}: constant table fails"):
        build_constants(planted(RootSystem(family, rank)))
    # a table built on the sound weights, judged on the planted ones: the
    # verdict fails and the witness tier names the root first
    table = build_constants(RootSystem(family, rank))
    planted(table.rs)
    assert not sign_convention_check(table)
    assert convention_violations(table)[0] == message


@pytest.mark.parametrize(
    "index,weight,message",
    [
        # a1+a2+a3 = a3 + (a1+a2), the extraspecial pair, = a1 + (a2+a3),
        # whose Jacobi step multiplies by b(a2+a3) and divides by b(a1+a2+a3)
        (3, 3, "constant for ((1, 0, 0), (0, 1, 1)) came out -3, |.| != 1"),
        (5, 2, "constant for ((1, 0, 0), (0, 1, 1)) came out -1/2, |.| != 1"),
        # a2+a3 = a3 + a2: n(a2, -(a2+a3)) = n(a3, a2) b(a2+a3) / b(a3)
        (0, 2, "non-integral constant for ((0, 1, 0), (0, -1, -1))"),
    ],
)
def test_build_raises_on_a_planted_weight(index, weight, message):
    rs = RootSystem("A", 3)
    weights = list(rs.weights)
    weights[index] = weight
    rs.weights = tuple(weights)
    with pytest.raises(InternalConsistencyError) as info:
        build_constants(rs)
    assert str(info.value) == message


def test_a_changed_copy_is_never_certified(tables):
    for table in tables.values():
        assert table.certified == "digest"
        copy = with_constants(table, {})
        assert copy.certified is None
        assert digest(copy) == digest(table)
        for key, v in list(table_constants(table).items())[:1]:  # A1 has none
            assert digest(with_constants(table, {key: -v})) != digest(table)


def test_only_a_failing_table_enters_the_witness_tier(monkeypatch, capsys):
    # the verdict decides every clean table: a sweep, audited builds and an
    # analyze call never enter the witness tier
    calls, witnesses = [], chevalley._witnesses
    monkeypatch.setattr(chevalley, "_witnesses", lambda t: calls.append(t) or witnesses(t))
    cli.chevalley_table.cache_clear()  # the sweep builds its tables here
    assert len(cli.enumerate_flags(max_rank=6).entries) == 545
    for family, rank in simple_types(7):
        assert build_constants(build_root_system(family, rank), verify=True).certified == "audit"
    assert cli.main(["analyze", "E7:{2,5}", "--json"]) == 0
    capsys.readouterr()
    assert calls == []
    # the counter sits on the path a failing table takes
    clean = cli.chevalley_table("B", 3)
    key, v = next(iter(table_constants(clean).items()))
    assert convention_violations(with_constants(clean, {key: -v}))
    assert len(calls) == 1


def test_violation_listing_names_the_witness(tables):
    t = tables[("A", 2)]
    key, v = next(iter(table_constants(t).items()))
    t = with_constants(t, {key: -v})
    msgs = convention_violations(t, limit=3)
    assert msgs and any("fails" in m for m in msgs)


def test_csv_dump_roundtrip(tmp_path, tables):
    t = tables[("G", 2)]
    path = tmp_path / "g2.csv"
    dump_csv(t, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "ia,ib,root_a,root_b,n"
    assert len(lines) - 1 == len(table_constants(t))
    # spot-check one row against the table
    index = {r: i for i, r in enumerate(t.rs.roots)}
    for row in lines[1:3]:
        ia, ib, ra, rb, v = row.split(",")
        a = tuple(int(x) for x in ra.split())
        b = tuple(int(x) for x in rb.split())
        assert index[a] == int(ia) and index[b] == int(ib)
        assert t.n_of(a, b) == int(v)


def test_structure_constants_close_the_bracket(tables):
    # [E_x, E_y] lands on the sum root with the tabulated coefficient
    t = tables[("B", 3)]
    rs, n = t.rs, table_constants(t)
    for (x, y), s in sum_index(rs).items():
        assert radd(x, y) == s
        assert t.n_of(x, y) == n[(x, y)]
