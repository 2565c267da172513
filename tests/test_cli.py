import argparse
import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from flagsym import (
    build_constants,
    build_root_system,
    cli,
    dim_g,
    enumerate_flags,
    main,
    make_flag,
    onishchik_exception,
    oracle,
    parse_painted,
    root_str,
    simple_types,
    symmetry_roots,
    verify_theorem,
)
from flagsym.cli import _canonical_painting
from flagsym.flag import painting_spec, random_kahler_param
from flagsym.rootsystem import RootSystem
from table_helpers import with_constants


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


@pytest.mark.parametrize(
    "families,unknown", [(["G", "x"], "x"), (["X"], "X"), (["g"], "g"), (["A", "Q", "b"], "Q,b")]
)
def test_enumerate_flags_rejects_unknown_family_letters(families, unknown):
    # a letter the library does not know is an error, not a smaller sweep
    with pytest.raises(ValueError, match=f"^unknown families {unknown}; choose from A,B,C,D,E,F,G$"):
        enumerate_flags(max_rank=2, families=families)


@pytest.mark.parametrize("families", [[], (), ""])
def test_enumerate_flags_rejects_an_empty_family_filter(families):
    # only None means every family: an empty filter is an error, not the full sweep
    with pytest.raises(ValueError, match="^no family given; choose from A,B,C,D,E,F,G$"):
        enumerate_flags(max_rank=2, families=families)


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_repeated_family_letters_sweep_each_type_once(capsys, command):
    # `--families A,A` sweeps A1..A3 once: the same stdout as `--families A`
    _, once = run_cli(capsys, command, "--max-rank", "3", "--families", "A")
    _, twice = run_cli(capsys, command, "--max-rank", "3", "--families", "A,A")
    assert twice == once
    assert simple_types(3, families=["A", "A"]) == simple_types(3, families=["A"])


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


def test_enumerate_rank_6_stdout_is_byte_stable(capsys):
    # rank 6 reaches E6 and B/C/D5-6, which the rank-4 pin does not
    code, out = run_cli(capsys, "enumerate", "--max-rank", "6", "--seed", "0")
    assert code == 0
    assert len(out.encode()) == 283163
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9fa9a862659e04dbae1038c69e968159a6798fd3b2e8b8ea5cf501313c7e43cf"
    )


def test_enumerate_rank_8_stdout_is_byte_stable(capsys):
    # rank 8 spans all 305 symmetry-root masks, whose leaf descriptors are
    # shared between the paintings of one mask
    code, out = run_cli(capsys, "enumerate", "--max-rank", "8")
    assert code == 0
    assert len(out.encode()) == 1302681
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "adeaa3444bd37f0813aa4b0d9104837b1977b490a43a50c35955584cd5ac1912"
    )


def test_verify_rank_8_stdout_is_byte_stable(capsys):
    # the three known findings, the oracle and claim coverage and the audit
    # list of all 2455 paintings of rank <= 8
    code, out = run_cli(capsys, "verify", "--max-rank", "8")
    assert code == 1
    assert len(out.encode()) == 517
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "599af7e2c46916e6bcb5be3a756ffd1038c3ea6b847a2ee616391bf43841afc8"
    )


def analyze_pin_specs() -> list[str]:
    """Every painting of rank <= 3, and three of rank 5-8."""
    small = [
        painting_spec(f"{family}{rank}", painted)
        for family, rank in simple_types(3)
        for size in range(1, rank + 1)
        for painted in itertools.combinations(range(1, rank + 1), size)
    ]
    return small + ["E8:{1,2,3,4}", "E7:{7}", "B5:{2,5}"]


def test_analyze_stdout_is_byte_stable(capsys):
    # the text and the --json record of each painting, in that order
    specs = analyze_pin_specs()
    assert len(specs) == 34
    out = []
    for spec in specs:
        for extra in ([], ["--json"]):
            code, text = run_cli(capsys, "analyze", spec, *extra)
            assert code == 0
            out.append(text)
    data = "".join(out).encode()
    assert len(data) == 25866
    assert hashlib.sha256(data).hexdigest() == (
        "bb919834d713bb56aabc781a10d029d5ecc3fafd690b4bd9183119cfb0c9613d"
    )


def test_analyze_json_of_rank_7_and_8_is_byte_stable(capsys):
    # every A-E painting of rank 7 and 8 with 1-4 painted nodes, in the order
    # the benchmark's analyze workload draws from
    specs = [
        painting_spec(f"{family}{rank}", painted)
        for family in "ABCDE"
        for rank in (7, 8)
        for size in range(1, 5)
        for painted in itertools.combinations(range(1, rank + 1), size)
    ]
    assert len(specs) == 1300
    out = []
    for spec in specs:
        code, text = run_cli(capsys, "analyze", spec, "--json")
        assert code == 0, spec
        out.append(text)
    data = "".join(out).encode()
    assert len(data) == 719841
    assert hashlib.sha256(data).hexdigest() == (
        "dc520517bcc1227929ed4da902aafb067a8e7a158890a161e8cf9eaef6ed12bd"
    )


def flagsym_caches():
    """Every functools cache of the flagsym modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "flagsym" or name.startswith("flagsym."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def test_cleared_caches_rebuild_every_type(monkeypatch):
    # after every functools cache is cleared, a sweep builds each type's root
    # system and Chevalley table again; a cache that clearing misses (a
    # module-level dict, a class attribute, a file) makes it build fewer
    builds = {"root systems": 0, "tables": 0}
    init, build = RootSystem.__init__, cli.build_constants

    def counted_init(self, *args):
        builds["root systems"] += 1
        init(self, *args)

    def counted_build(*args, **kwargs):
        builds["tables"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(RootSystem, "__init__", counted_init)
    monkeypatch.setattr(cli, "build_constants", counted_build)
    caches = flagsym_caches()
    for cache in caches:
        cache.cache_clear()
    try:
        enumerate_flags(max_rank=4)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert len(simple_types(4)) == 12
    assert builds == {"root systems": 12, "tables": 12}


def test_clean_sweep_walks_no_cone_set(monkeypatch):
    # on clean tables the cone verdict is read off the certificate: no
    # decomposition of a root is walked on any painting
    calls, splittings = [], RootSystem.splittings
    monkeypatch.setattr(
        RootSystem, "splittings", lambda rs, s: calls.append(rs) or splittings(rs, s)
    )
    assert len(enumerate_flags(max_rank=6).entries) == 545
    assert calls == []
    # the counter sits on the path a per-painting oracle takes
    flag = make_flag(parse_painted("A3:{2,3}"))
    oracle.shortcut_set(flag, random_kahler_param(flag, 0))
    assert calls and set(calls) == {flag.rs}


def test_certified_sweep_builds_no_oracle_table():
    # every table of a rank-6 sweep is certified, and the oracle reads its
    # verdict off the certificate: in a fresh interpreter no table is
    # audited and no decomposition of a root is walked
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "from flagsym import chevalley, cli, oracle\n"
        "from flagsym.rootsystem import RootSystem\n"
        "audits, walks = [], []\n"
        "for module in (chevalley, oracle):\n"
        "    check = module.sign_convention_check\n"
        "    module.sign_convention_check = lambda t, check=check: audits.append(t) or check(t)\n"
        "splittings = RootSystem.splittings\n"
        "RootSystem.splittings = lambda rs, s: walks.append(s) or splittings(rs, s)\n"
        "assert len(cli.enumerate_flags(max_rank=6).entries) == 545\n"
        "print(len(audits), len(walks))"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.stdout == "0 0\n"


def test_cleared_caches_free_the_root_systems_without_the_cycle_collector():
    # nothing a root system keeps (the leaf memo) may refer back to it: a
    # cycle would keep every type's tables alive past the cache clearing
    # until a full collection, and a sweep with fresh caches would pile them
    # up in memory
    caches = flagsym_caches()
    for cache in caches:
        cache.cache_clear()
    gc.disable()
    try:
        enumerate_flags(max_rank=3)
        rs = build_root_system("B", 3)
        table = cli.chevalley_table("B", 3)
        alive = weakref.ref(rs)
        del rs, table
        for cache in caches:
            cache.cache_clear()
        assert alive() is None
    finally:
        gc.enable()


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
        plus = flag.rs.roots_of(symmetry_roots(flag))
        assert roots == [root_str(a) for a in sorted(plus)], entry.spec


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


def test_analyze_rejects_bad_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "A3:{9}"])
    assert exc.value.code == 2
    assert "out of range" in capsys.readouterr().err.splitlines()[-1]


def bad_input(number, argv, message):
    """One bad-input case.  Its id is fixed by ``number``, not by its place in
    the list, so adding or removing a case renames no other."""
    return pytest.param(argv, message, id=f"argv{number}-{message}")


@pytest.mark.parametrize(
    "argv,message",
    [
        bad_input(0, ["verify", "--max-rank", "0"], "must be between 1 and 8, got 0"),
        bad_input(1, ["enumerate", "--max-rank", "9"], "must be between 1 and 8, got 9"),
        bad_input(2, ["verify", "--families", "X"], "unknown families X"),
        bad_input(3, ["enumerate", "--families", "A,Q"], "unknown families Q"),
        # the oracles are proved for every xi, so a single xi has nothing to add
        bad_input(4, ["analyze", "A3:{2,3}", "--xi", "1"], "unrecognized arguments: --xi 1"),
        bad_input(5, ["analyze"], "the following arguments are required: spec"),
        bad_input(6, ["frobnicate"], "invalid choice: 'frobnicate'"),
        bad_input(7, ["verify", "--families"], "argument --families: expected one argument"),
        bad_input(8, ["analyze", "Z3:{1}"], "cannot parse painted diagram"),
        bad_input(9, ["analyze", "A3:{9}"], "out of range"),
        bad_input(10, ["analyze", "C2:{1}"], "not a simple type: C2"),
        bad_input(11, ["verify", "--families", ","], "no family given"),
        bad_input(12, ["enumerate", "--families", " "], "no family given"),
        bad_input(13, ["analyze", "A3:{2,3}", "--seed", "1"], "unrecognized arguments: --seed 1"),
        bad_input(14, ["verify", "--max-rank", "1", "--seed", "1"], "unrecognized arguments: --seed 1"),
        bad_input(15, ["enumerate", "--max-rank", "x"], "must be an integer, got 'x'"),
        # the root index of A_n holds |R|^2 sums: the bound is checked before it is built
        bad_input(16, ["analyze", "A9:{1}"], "rank must be at most 8, got 9"),
        # a painted node is one number: a missing comma is named, not passed to int()
        bad_input(17, ["analyze", "A3:{1 2}"], "cannot parse painted node '1 2' in 'A3:{1 2}'"),
        # the rank is ASCII digits, as the nodes are: a fullwidth 3 is no rank
        bad_input(18, ["analyze", "A\uff13:{1}"], "cannot parse painted diagram"),
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


def test_analyze_rejects_a_rank_above_the_bound_before_building_it(capsys, monkeypatch):
    # A300 would need a root index of about 10**10 entries; no build may start
    monkeypatch.setattr(cli, "build_root_system", None)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "A300:{1}"])
    assert exc.value.code == 2
    assert "rank must be at most 8, got 300" in capsys.readouterr().err.splitlines()[-1]


def test_enumerate_to_an_unwritable_path_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--max-rank", "1", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flagsym: error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_analyze_dot_to_an_unwritable_path_exits_2_with_one_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "sub"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "A3:{2,3}", "--dot", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flagsym: error: cannot write DOT files to {target}: Not a directory\n"


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_repeated_calls_build_the_parser_once(monkeypatch, capsys, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for _ in range(50):
        assert main(["analyze", "A1:{1}", "--json"]) == 0
    capsys.readouterr()
    assert cli._parser.cache_info().misses == 1
    assert built == ["flagsym", "flagsym analyze", "flagsym enumerate", "flagsym verify"]


def test_shared_parser_carries_nothing_between_calls(capsys, fresh_parser):
    good = ["analyze", "A3:{2,3}", "--json"]
    code, first = run_cli(capsys, *good)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "A3:{9}"])
    assert exc.value.code == 2
    assert "out of range" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "C2:{1}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "flagsym analyze: error: argument spec: not a simple type: C2"
    )
    code, again = run_cli(capsys, *good)
    assert code == 0
    assert again == first
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    fresh = subprocess.run(
        [sys.executable, "-m", "flagsym", *good], capture_output=True, check=True, env=env
    )
    assert fresh.stdout == first.encode()


def test_closed_pipe_ends_without_a_traceback():
    # 118 kB of JSON fills the pipe, so the write that follows the close
    # always meets a closed reader
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagsym", "enumerate", "--max-rank", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_analyze_help_is_the_same_on_every_call(capsys, fresh_parser):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: flagsym analyze")


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


def test_verify_reports_chevalley_audit_coverage(capsys, monkeypatch):
    code, out = run_cli(capsys, "verify", "--max-rank", "2", "--families", "G")
    assert code == 0
    assert out.splitlines()[-1] == (
        "Chevalley tables: 1 of 1 certified (0 audited exhaustively in this run, "
        "1 by the digest of an audited build)"
    )
    code, out = run_cli(capsys, "verify", "--max-rank", "5", "--families", "B,C")
    lines = out.splitlines()
    assert lines[0].startswith(("PASS", "FAIL"))
    assert lines[-1] == (
        "Chevalley tables: 7 of 7 certified (0 audited exhaustively in this run, "
        "7 by the digest of an audited build)"
    )
    # the line counts an audit only where one ran, and no table that has no
    # certificate
    tables = {
        ("B", 2): build_constants(build_root_system("B", 2), verify=True),
        ("B", 3): with_constants(build_constants(build_root_system("B", 3)), {}),
    }
    monkeypatch.setattr(cli, "chevalley_table", lambda f, r: tables[(f, r)])
    assert cli._audit_coverage([("B", 3), ("B", 2)]) == (
        "Chevalley tables: 1 of 2 certified (1 audited exhaustively in this run, "
        "0 by the digest of an audited build)"
    )


def test_verify_reports_oracle_proof_coverage(capsys):
    code, out = run_cli(capsys, "verify", "--max-rank", "3", "--families", "A,G")
    assert code == 1  # the pinned A2:{1,2} finding
    lines = out.splitlines()
    assert lines[-3] == (
        "Transvection oracles: proved on the whole Kähler cone for 14 of 14 "
        "paintings by the certificates of their Chevalley tables"
    )
    assert lines[-2].startswith("coindex ≥ 6")
    assert lines[-1].startswith("Chevalley tables:")


def test_verify_reports_claim_coverage(capsys):
    code, out = run_cli(capsys, "verify", "--max-rank", "6")
    assert code == 1  # the pinned rank-2 findings
    lines = out.splitlines()
    assert lines[-2] == (
        "coindex ≥ 6, dim bound, k = 6: checked on 494 of 545 paintings; "
        "41 symmetric, 10 exceptions excluded"
    )
    report = enumerate_flags(max_rank=6)
    assert sum(1 for e in report.entries if e.symmetric and e.exception) == 0
    _, violations = verify_theorem(report)
    assert out.splitlines()[1 : 1 + len(violations)] == [
        f"  {v['entry']}: {v['check']}: {v['detail']}" for v in violations
    ]


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
