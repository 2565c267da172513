"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Criterion 6 (the full verification sweep) is implemented exactly as stated
and currently FAILS: the rank-2 full flag manifolds A2:{1,2} and B2:{1,2}
violate the coindex bounds by the engine's own (cross-checked) computation.
test_cli.py::test_verify_known_findings_rank_2_to_6 pins that finding.
"""

import itertools
import json
import random
import time

from flagsym import (
    PaintedDiagram,
    build_report,
    build_root_system,
    center_of_nilradical,
    chevalley_table,
    diagrams_agree,
    enumerate_flags,
    h_prime,
    k_prime_check,
    main,
    random_kahler_param,
    shortcut_set,
    symmetry_roots,
    transvection_set,
    verify_theorem,
)
from flagsym.flag import make_flag
from flagsym.rootsystem import rneg
from root_helpers import radd, root_set, sum_index
from table_helpers import _string_down, b_of, table_constants

RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]

RANK_5_6 = [
    ("A", 5), ("A", 6), ("B", 5), ("B", 6), ("C", 5), ("C", 6),
    ("D", 5), ("D", 6), ("E", 6),
]


def _paintings(family, rank):
    for size in range(1, rank + 1):
        for combo in itertools.combinations(range(1, rank + 1), size):
            yield frozenset(combo)


def _flags(types):
    for family, rank in types:
        rs = build_root_system(family, rank)
        for painted in _paintings(family, rank):
            yield make_flag(PaintedDiagram(rs, painted))


def _result(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _analyze_json(capsys, spec):
    assert main(["analyze", spec, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_c1_su4_case(capsys):
    ok = True
    for spec in ("A3:{2,3}", "A3:{1,2}"):
        start = time.monotonic()
        record = _analyze_json(capsys, spec)
        elapsed = time.monotonic() - start
        ok &= record["coindex"] == 6
        ok &= record["index"] == 4
        ok &= record["leaf"]["u"] == "A2"
        ok &= record["leaf"]["k_factors"] == ["A1"]
        ok &= record["leaf"]["k_center_dim"] == 1
        ok &= record["leaf"]["name"] == "CP^2"
        ok &= elapsed < 1.0
    assert _result(1, "su(4) flags A3:{2,3} and A3:{1,2}", ok)


def test_c2_g2_twistor_case(capsys):
    start = time.monotonic()
    record = _analyze_json(capsys, "G2:{1}")
    elapsed = time.monotonic() - start
    ok = (
        record["index"] == 2
        and record["coindex"] == 8
        and record["leaf"]["name"] == "CP^1"
        and elapsed < 1.0
    )
    assert _result(2, "G2 twistor flag G2:{1}", ok)


def test_c3_exception_handling(capsys):
    record = _analyze_json(capsys, "G2:{2}")
    ok = record["exception"] == "c" and record["coindex"] == 6
    _, violations = verify_theorem(enumerate_flags(max_rank=2, families=["G"]))
    ok &= not any(v["entry"] == "G2:{2}" for v in violations)
    assert _result(3, "exception (c) reported and excluded", ok)


def test_c4_oracle_equivalence_rank_le_4():
    start = time.monotonic()
    ok = True
    for flag in _flags(RANK_LE_4):
        table = chevalley_table(flag.rs.family, flag.rs.rank)
        combinatorial = symmetry_roots(flag)
        ok &= combinatorial == center_of_nilradical(flag)
        for i in range(20):
            xi = random_kahler_param(flag, f"c4|{flag.pd.spec}|{i}")
            ok &= transvection_set(flag, xi, table) == combinatorial
            ok &= shortcut_set(flag, xi) == combinatorial
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    assert _result(4, f"oracle equivalence, rank <= 4, 20 xi each ({elapsed:.1f}s)", ok)


def test_c5_two_method_leaf_identification():
    ok = True
    for flag in _flags(RANK_LE_4 + RANK_5_6):
        report = build_report(flag)
        if not diagrams_agree(flag.pd, report.leaf):
            ok = False
            break
    assert _result(5, "leaf via diagram == leaf via [p,p], rank <= 6", ok)


def test_c6_theorem_sweep():
    start = time.monotonic()
    report = enumerate_flags(max_rank=6)
    passed, violations = verify_theorem(report)
    elapsed = time.monotonic() - start
    ok = passed and elapsed < 300.0
    _result(6, f"verify --max-rank 6 ({len(report.entries)} paintings, {elapsed:.1f}s)", ok)
    assert passed, (
        "theorem sweep reported violations (see the decisions ledger): "
        + "; ".join(f"{v['entry']}: {v['check']} ({v['detail']})" for v in violations)
    )
    assert elapsed < 300.0


def test_c7_structure_constant_integrity():
    ok = True
    for typ in RANK_LE_4:
        rs = build_root_system(*typ)
        table = chevalley_table(*typ)
        for (x, y), v in table_constants(table).items():
            ok &= abs(v) == _string_down(rs, x, y) + 1
        for (x, y), s in sum_index(rs).items():
            z = rneg(s)
            lhs = table.n_of(x, y) * b_of(table, z)
            ok &= lhs == table.n_of(y, z) * b_of(table, x)
            ok &= lhs == table.n_of(z, x) * b_of(table, y)
        # each of these tables is certified at construction: its digest
        # equals the pin of a build that the Chevalley tests audit
        # exhaustively (build_constants audits any other table, and raises
        # when the audit fails); run the audit on one small system here so
        # the criterion is exercised inside this test too
    from flagsym import sign_convention_check

    ok &= sign_convention_check(chevalley_table("F", 4))
    assert _result(7, "Jacobi + weighted cyclic + |n| = p+1, rank <= 4", ok)


def test_c8_metric_independence_rank_5_6():
    rng = random.Random("acceptance-c8")
    pool = [
        (family, rank, painted)
        for family, rank in RANK_5_6
        for painted in _paintings(family, rank)
    ]
    picks = rng.sample(pool, 10)
    ok = True
    for family, rank, painted in picks:
        flag = make_flag(PaintedDiagram(build_root_system(family, rank), painted))
        table = chevalley_table(family, rank)
        sets = {
            transvection_set(flag, random_kahler_param(flag, f"c8|{i}"), table)
            for i in range(20)
        }
        ok &= len(sets) == 1
        ok &= sets == {symmetry_roots(flag)}
    assert _result(8, "metric independence on 10 rank-5/6 paintings x 20 xi", ok)


def test_c9_invariant_suite_rank_le_6():
    ok = True
    for flag in _flags(RANK_LE_4 + RANK_5_6):
        rs = flag.rs
        report = build_report(flag)
        ok &= rs.highest in report.r_p_plus
        ok &= all(
            radd(a, b) not in root_set(rs)
            for a in report.r_p_plus
            for b in report.r_p_plus
        )
        ok &= not flag.h_mask & ~h_prime(flag)  # closure itself is verified inside
        ok &= k_prime_check(flag)
        ok &= report.index % 2 == 0 and report.coindex % 2 == 0
        ok &= (report.coindex == 0) == flag.is_symmetric_coset()
        if not ok:
            break
    assert _result(9, "invariant suite exhaustive, rank <= 6", ok)
