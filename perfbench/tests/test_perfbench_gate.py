"""Self-test of the benchmark's correctness gate and tracer.

Each check must be able to fail: a corrupted reference entry, an
``InternalConsistencyError`` raised inside the program and an empty workload
all fail the run instead of passing.  Inputs are small cuts of the real
workloads, checked against the pinned references.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from flagsym import InternalConsistencyError, cli, symmetry  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, AnalyzeR8, StructureR8, SweepR6, TablesR7, load_refs  # noqa: E402

STRUCTURE_SPECS = ["A8:{1}", "B8:{2,5}", "D8:{7,8}"]


def corrupt(refs: dict, key: str) -> dict:
    bad = copy.deepcopy(refs)
    entry = bad[key]
    if isinstance(entry, str):
        bad[key] = "0" * len(entry)
    else:
        entry["coindex"] += 2
    return bad


@pytest.fixture
def small_sweep(monkeypatch):
    """The rank <= 2 sweep: 10 paintings, and the same three findings."""
    full = cli.enumerate_flags
    monkeypatch.setattr(cli, "enumerate_flags", lambda max_rank, seed: full(max_rank=2, seed=seed))
    return {k: v for k, v in load_refs("sweep-r6").items() if int(k[1]) <= 2}


def test_sweep_gate_passes_then_fails_on_corrupted_and_missing_entries(small_sweep):
    ok = SweepR6(0, small_sweep).run_pass()
    assert (ok.attempted, ok.failures) == (10, [])

    bad = corrupt(small_sweep, "G2:{1}")
    assert [f.split(":")[0] for f in SweepR6(0, bad).run_pass().failures] == ["G2"]

    extra = dict(small_sweep, **{"A3:{1}": load_refs("sweep-r6")["A3:{1}"]})
    res = SweepR6(0, extra).run_pass()
    assert res.attempted == 11 and res.failures == ["A3:{1}: missing from the sweep"]


def test_sweep_gate_requires_the_exact_violation_list(small_sweep, monkeypatch):
    verify = cli.verify_theorem

    def drops_last_finding(report):
        ok, violations = verify(report)
        return ok, violations[:2]

    monkeypatch.setattr(cli, "verify_theorem", drops_last_finding)
    res = SweepR6(0, small_sweep).run_pass()
    assert res.failures == ["B2:{1,2}: violation list differs at k6_uniqueness"]


def test_structure_gate_fails_on_corrupted_reference():
    refs = load_refs("structure-r8")
    ok = StructureR8(0, refs, specs=STRUCTURE_SPECS).run_pass()
    assert (ok.attempted, ok.failures, len(ok.windows)) == (3, [], 3)
    res = StructureR8(0, corrupt(refs, "B8:{2,5}"), specs=STRUCTURE_SPECS).run_pass()
    assert len(res.failures) == 1 and res.failures[0].startswith("B8:{2,5}: differs")


def test_internal_consistency_error_fails_every_operation(monkeypatch):
    def broken(flag):
        raise InternalConsistencyError("injected")

    monkeypatch.setattr(symmetry, "leaf_pair", broken)
    res = StructureR8(0, load_refs("structure-r8"), specs=STRUCTURE_SPECS).run_pass()
    assert len(res.failures) == 3 and all("injected" in f for f in res.failures)


def test_false_consistency_check_fails(monkeypatch):
    monkeypatch.setattr(symmetry, "k_prime_check", lambda flag: False)
    res = StructureR8(0, load_refs("structure-r8"), specs=STRUCTURE_SPECS[:1]).run_pass()
    assert res.failures == ["A8:{1}: checks false: ['kprime_commutes']"]


def test_tables_gate_fails_on_corrupted_digest():
    refs = load_refs("tables-r7")
    types = [("A", 2), ("G", 2), ("B", 3)]
    assert TablesR7(0, refs, types=types).run_pass().failures == []
    res = TablesR7(0, corrupt(refs, "G2"), types=types).run_pass()
    assert len(res.failures) == 1 and res.failures[0].startswith("G2: table digest")


def test_analyze_gate_fails_on_corrupted_reference():
    refs = load_refs("analyze-r8")
    specs = ["A7:{1}", "D7:{2}"]
    assert AnalyzeR8(0, refs, specs=specs).run_pass().failures == []
    bad = copy.deepcopy(refs)
    bad["A7:{1}"]["symmetry_roots"] = "0" * 16
    res = AnalyzeR8(0, bad, specs=specs).run_pass()
    assert len(res.failures) == 1 and res.failures[0].startswith("A7:{1}: differs")


def test_empty_workload_is_not_a_pass():
    res = StructureR8(0, load_refs("structure-r8"), specs=[]).run_pass()
    assert run.verdict([res], []) is False
    assert run.verdict([StructureR8(0, load_refs("structure-r8"), specs=["A8:{1}"]).run_pass()], [])


def test_analyze_draw_is_seeded_and_stratified():
    one, again, other = AnalyzeR8.draw(1), AnalyzeR8.draw(1), AnalyzeR8.draw(2)
    assert one == again != other
    assert len(one) == 120 and set(one) <= set(AnalyzeR8.candidates())
    strata = {(s.split(":")[0], s.count(",") + 1) for s in one}
    assert len(strata) == 40


def test_tracer_nests_spans_and_restores_the_program():
    before = (cli.build_report, symmetry.symmetry_roots, symmetry.build_report)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.build_report is not before[0]
        res = StructureR8(0, load_refs("structure-r8"), specs=STRUCTURE_SPECS).run_pass()
    finally:
        tracer.remove()
    assert res.failures == []
    assert (cli.build_report, symmetry.symmetry_roots, symmetry.build_report) == before
    assert tracer.calls["symmetry.report"] == 3 and tracer.calls["symmetry.scan_roots"] >= 3
    assert tracer.self_sum_s() == pytest.approx(tracer.top_level_s, abs=1e-6)
    assert 0 < tracer.top_level_s <= sum(t1 - t0 for t0, t1 in res.windows)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-r6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_speed_probe_samples_and_takes_its_own_time_out():
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
    assert len(probe.durations) >= 5
    assert 0 < probe.own_s(t0, t1) < t1 - t0
    slowdowns = [probe.slowdown(k) for k in range(len(probe.durations))]
    corrected = probe.corrected_s(t0, t1)
    assert probe.own_s(t0, t1) / max(slowdowns) <= corrected <= probe.own_s(t0, t1) / min(slowdowns)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    probe = SpeedProbe()
    probe.burst()
    timed = [run.Timed(StructureR8(0, load_refs("structure-r8"), specs=STRUCTURE_SPECS).run_pass(), probe)]
    e2e, _ = run.end_to_end(timed, [(0.1, 0.1)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, u, b) for k, (u, b) in PER_LAYER.items()
    ]


def test_percentile_estimates_known_quantiles():
    values = list(range(1, 1002))
    assert run.percentile(values, 50) == pytest.approx(501, abs=0.5)
    assert run.percentile(values, 90) == pytest.approx(900.9, abs=1.5)
    assert run.percentile([3.0], 90) == 3.0
    assert 1 < run.percentile([1.0, 2.0, 10.0], 90) < 10
