import hashlib
import json

import pytest

from flagsym import (
    dim_g,
    enumerate_flags,
    main,
    make_flag,
    onishchik_exception,
    parse_painted,
    root_str,
    simple_types,
    symmetry_roots,
    verify_theorem,
)
from flagsym.cli import _canonical_painting


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize(
    "family,rank,painted,tag",
    [
        ("G", 2, {2}, "c"),
        ("G", 2, {1}, None),
        ("G", 2, {1, 2}, None),
        ("B", 3, {3}, "b"),
        ("B", 4, {4}, "b"),
        ("B", 3, {1}, None),
        ("B", 3, {1, 3}, None),
        ("A", 3, {2, 3}, None),
        ("C", 3, {1}, "a"),
        ("C", 4, {1}, "a"),
        ("C", 3, {1, 2}, None),
        ("B", 2, {2}, "a"),  # sp(2) = so(5) presentation of CP^3
        ("B", 2, {1}, None),
    ],
)
def test_onishchik_exception_table(family, rank, painted, tag):
    assert onishchik_exception(family, rank, painted) == tag


def test_dim_g():
    assert dim_g("A", 3) == 15
    assert dim_g("G", 2) == 14
    assert dim_g("A", 1) == 3
    assert dim_g("B", 4) == 36
    assert dim_g("C", 3) == 21
    assert dim_g("D", 5) == 45
    assert dim_g("E", 6) == 78
    assert dim_g("F", 4) == 52


def test_simple_types_listing():
    assert simple_types(2) == [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
    assert ("C", 3) in simple_types(3)
    assert ("D", 4) not in simple_types(3)
    assert simple_types(6, families=["A"]) == [("A", r) for r in range(1, 7)]
    with pytest.raises(ValueError):
        simple_types(9)


def test_enumerate_counts_family_a():
    report = enumerate_flags(max_rank=3, families=["A"])
    assert len(report.entries) == 1 + 3 + 7
    assert report.summary["total"] == 11


def test_enumerate_counts_rank_2():
    report = enumerate_flags(max_rank=2)
    by_family = {}
    for e in report.entries:
        by_family.setdefault((e.family, e.rank), []).append(e)
    assert len(by_family[("G", 2)]) == 3
    assert len(by_family[("B", 2)]) == 3
    assert len(report.entries) == 10


def test_enumerate_entries_unique_and_sorted():
    report = enumerate_flags(max_rank=3)
    keys = [(e.family, e.rank, e.painted) for e in report.entries]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_enumerate_dedup_automorphisms():
    full = enumerate_flags(max_rank=3, families=["A"])
    dedup = enumerate_flags(max_rank=3, families=["A"], dedup_automorphisms=True)
    specs = {e.spec for e in dedup.entries}
    # A3:{1,2} and A3:{2,3} collapse to one representative
    assert len(dedup.entries) < len(full.entries)
    assert ("A3:{1,2}" in specs) != ("A3:{2,3}" in specs)
    assert _canonical_painting("A", 3, frozenset({2, 3})) == frozenset({1, 2})
    assert _canonical_painting("D", 4, frozenset({4})) == frozenset({1})
    assert _canonical_painting("D", 5, frozenset({5})) == frozenset({4})
    assert _canonical_painting("E", 6, frozenset({5, 6})) == frozenset({1, 3})


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--max-rank", "2", "--xi-samples", "3"],
        ["verify", "--max-rank", "2", "--xi-samples", "3"],
        ["analyze", "A3:{2,3}", "--samples", "5"],
    ],
)
def test_removed_sampling_options_exit_2(capsys, argv):
    # the oracles are proved on the whole Kahler cone; no sample count is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err.splitlines()[-1]


def test_verify_known_findings_rank_2_to_6():
    # the sweep is clean except for the two rank-2 full flag manifolds, which
    # genuinely violate the coindex bounds; pin that finding exactly
    report = enumerate_flags(max_rank=3)
    ok, violations = verify_theorem(report)
    assert not ok
    found = {(v["entry"], v["check"]) for v in violations}
    assert found == {
        ("A2:{1,2}", "coindex>=6"),
        ("A2:{1,2}", "dim_bound"),
        ("B2:{1,2}", "k6_uniqueness"),
    }


def test_verify_passes_on_clean_families():
    ok, violations = verify_theorem(
        enumerate_flags(max_rank=4, families=["D", "F", "G"])
    )
    assert ok and violations == []


def test_verify_k6_existence_tracked():
    # an A-family sweep that includes A3 must see both k = 6 paintings
    report = enumerate_flags(max_rank=3, families=["A"])
    _, violations = verify_theorem(report)
    assert not any(v["check"] == "k6_existence" for v in violations)
    k6 = [e.spec for e in report.entries if e.coindex == 6 and not e.symmetric]
    assert sorted(k6) == ["A3:{1,2}", "A3:{2,3}"]


def test_exception_entries_reported_not_asserted():
    report = enumerate_flags(max_rank=2)
    g22 = next(e for e in report.entries if e.spec == "G2:{2}")
    assert g22.exception == "c"
    assert g22.coindex == 6  # raw value is reported
    _, violations = verify_theorem(report)
    assert not any(v["entry"] == "G2:{2}" for v in violations)


def test_report_byte_stable(tmp_path, capsys):
    code1, _ = run_cli(capsys, "enumerate", "--max-rank", "2", "--seed", "11",
                       "--out", str(tmp_path / "a.json"))
    code2, _ = run_cli(capsys, "enumerate", "--max-rank", "2", "--seed", "11",
                       "--out", str(tmp_path / "b.json"))
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_enumerate_rank_4_stdout_is_byte_stable(capsys):
    code, out = run_cli(capsys, "enumerate", "--max-rank", "4")
    assert code == 0
    assert len(out.encode()) == 54172
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3cf062de7a9f91a9c49d862c813a6abe15bc1d4a81cd044714bfb064b2d8bb91"
    )


def test_analyze_json_is_the_enumerate_entry_plus_symmetry_roots(capsys):
    entries = enumerate_flags(max_rank=4).entries
    assert len(entries) == 106
    for entry in entries:
        code, out = run_cli(capsys, "analyze", entry.spec, "--json")
        assert code == 0
        record = json.loads(out)
        roots = record.pop("symmetry_roots")
        assert record == entry.to_json(), entry.spec
        flag = make_flag(parse_painted(entry.spec))
        assert roots == [root_str(a) for a in sorted(symmetry_roots(flag))], entry.spec


def test_analyze_json_schema(capsys):
    code, out = run_cli(capsys, "analyze", "A3:{2,3}", "--json")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {
        "family", "rank", "painted", "dim_g", "dim_M", "symmetric", "exception",
        "index", "coindex", "symmetry_roots", "leaf", "checks",
    }
    assert set(record["leaf"]) == {"u", "k_factors", "k_center_dim", "name"}
    assert set(record["checks"]) == {
        "oracle_agree", "diagram_agree", "hprime_closed", "kprime_commutes",
    }
    assert record["dim_g"] == 15 and record["dim_M"] == 10


def test_analyze_text_output(capsys):
    code, out = run_cli(capsys, "analyze", "G2:{1}")
    assert code == 0
    assert "index of symmetry: 2   coindex: 8" in out
    assert "CP^1" in out
    assert "checks: oracle ok" in out


def test_analyze_with_explicit_xi(capsys):
    code, out = run_cli(capsys, "analyze", "A3:{2,3}", "--xi", "1,2/3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["checks"]["oracle_agree"] is True


def test_analyze_rejects_bad_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "A3:{9}"])
    assert exc.value.code == 2
    assert "out of range" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--max-rank", "0"], "must be between 1 and 8, got 0"),
        (["enumerate", "--max-rank", "9"], "must be between 1 and 8, got 9"),
        (["verify", "--families", "X"], "unknown families X"),
        (["enumerate", "--families", "A,Q"], "unknown families Q"),
        (["analyze", "A3:{2,3}", "--xi", "1/0"], "not a rational number: '1/0'"),
        (["analyze", "A3:{2,3}", "--xi", "abc"], "not a rational number: 'abc'"),
        (["analyze", "A3:{2,3}", "--xi", "1"], "expected 2 coefficients"),
        (["analyze", "A3:{2,3}", "--xi", "1,-2"], "strictly positive"),
        (["analyze", "Z3:{1}"], "cannot parse painted diagram"),
        (["analyze", "A3:{9}"], "out of range"),
        (["analyze", "C2:{1}"], "not a simple type: C2"),
        (["verify", "--families", ","], "no family given"),
        (["enumerate", "--families", " "], "no family given"),
    ],
)
def test_cli_bad_input_exits_2_with_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_enumerate_to_an_unwritable_path_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--max-rank", "1", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flagsym: error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_empty_sweep_is_a_violation(capsys):
    report = enumerate_flags(max_rank=1, families=["G"])
    assert report.entries == []
    ok, violations = verify_theorem(report)
    assert not ok
    assert [(v["entry"], v["check"]) for v in violations] == [(None, "empty_sweep")]
    code, out = run_cli(capsys, "verify", "--max-rank", "1", "--families", "G")
    assert code == 1 and out.startswith("FAIL") and "empty_sweep" in out


def test_verify_cli_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--max-rank", "2", "--families", "G")
    assert code == 0 and out.startswith("PASS")
    code, out = run_cli(capsys, "verify", "--max-rank", "2")
    assert code == 1
    assert "A2:{1,2}" in out and "B2:{1,2}" in out


def test_verify_reports_chevalley_audit_coverage(capsys):
    code, out = run_cli(capsys, "verify", "--max-rank", "2", "--families", "G")
    assert code == 0
    assert out.splitlines()[-1] == "Chevalley tables: 1 of 1 audited exhaustively"
    code, out = run_cli(capsys, "verify", "--max-rank", "5", "--families", "B,C")
    lines = out.splitlines()
    assert lines[0].startswith(("PASS", "FAIL"))
    assert lines[-1] == (
        "Chevalley tables: 5 of 7 audited exhaustively; not audited: B5, C5"
    )


def test_verify_reports_oracle_proof_coverage(capsys):
    code, out = run_cli(capsys, "verify", "--max-rank", "3", "--families", "A,G")
    assert code == 1  # the pinned A2:{1,2} finding
    lines = out.splitlines()
    assert lines[-2] == (
        "Transvection oracles: proved on the whole Kähler cone for 14 of 14 "
        "paintings; 0 roots undecided"
    )
    assert lines[-1].startswith("Chevalley tables:")


def test_dot_emission(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "analyze", "G2:{1}", "--dot", str(tmp_path), "--json"
    )
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["G2_1_extended.dot", "G2_1_painted.dot"]
    text = (tmp_path / "G2_1_painted.dot").read_text()
    assert "n1 -- n2" in text


def test_enumerate_stdout(capsys):
    code, out = run_cli(capsys, "enumerate", "--max-rank", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["total"] == 1
    assert payload["entries"][0]["symmetric"] is True
