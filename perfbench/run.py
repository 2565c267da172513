"""Benchmark of the flagsym engine: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.  The
workloads (see ``workloads.py`` and ``BENCHMARK.json``) are ``sweep-r6``,
``structure-r8``, ``tables-r7`` and ``analyze-r8``.  Each runs in one process
with no extra threads.  Set-up is timed in separate fresh processes, from
process start until the workload is ready, and the median is reported.  The
run then measures whole passes.  It starts another pass only while that pass
is expected to end within ``--seconds``, and it always runs at least one.
Every output is checked against the pinned references in ``refs/``.  Times
are corrected for the host's changing speed (see ``speed.py``); the raw times
are printed beside them.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics of ``tracing.py``.  A traced run
makes two traced passes around one untraced pass.  It reports the median of
the traced passes and the tracing overhead, and it checks that every exact
counter repeats between the two traced passes.  Human-readable lines come
first: the environment, each metric with its unit, and each failure.  The
exit code is 0 for a clean run, 1 when an output is wrong and 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_PROBE_S, SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 5


def commit_id() -> str:
    """HEAD of the repository if this is a git checkout, else "unknown"."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct``-th percentile.

    A weighted mean of all order statistics, with weights from the beta
    distribution of the sample quantile.  A single order statistic at p90
    of the analyze-r8 draw is one fixed painting's time (the draw puts a gap
    there), so it moved by 9.5 % between runs; this estimate averages the
    neighbours and moves about half as much.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule on each interval [i/n, (i+1)/n]
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def time_setup(workload: str, seed: int, probe: SpeedProbe) -> tuple[float, float]:
    """Raw and corrected seconds from the start of a fresh process until the
    workload is ready.  The speed is sampled just before and just after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    probe.burst()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        probe.burst()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process for {workload} failed (exit {code})")
    return ready - start, probe.corrected_s(start, ready)


class Timed:
    """A pass with its operation times, raw and corrected for the host's speed."""

    def __init__(self, result, probe: SpeedProbe):
        self.result = result
        self.raw = [probe.own_s(t0, t1) for t0, t1 in result.windows]
        self.corrected = [probe.corrected_s(t0, t1) for t0, t1 in result.windows]
        # clock time inside the ops (probe samples included, as the tracer's
        # spans see it) to corrected time, for scaling span times
        clock = sum(t1 - t0 for t0, t1 in result.windows)
        self.scale = sum(self.corrected) / clock if clock else 1.0

    @property
    def wall_s(self) -> float:
        return sum(self.corrected)


def end_to_end(timed: list[Timed], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Corrected end-to-end metrics and, for the record, their raw values."""

    def summary(per_pass: list[list[float]], setup_s: list[float]) -> dict:
        lat = [x for p in per_pass for x in p]
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(sum(p) for p in per_pass), "s"),
            "op_p50_ms": (1e3 * percentile(lat, 50), "ms"),
            "op_p90_ms": (1e3 * percentile(lat, 90), "ms"),
        }

    raw = summary([t.raw for t in timed], [s[0] for s in setup])
    corrected = summary([t.corrected for t in timed], [s[1] for s in setup])
    corrected["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return corrected, raw


def named_latencies(name: str, timed: list[Timed]) -> dict:
    """The latency percentiles named for the workloads that have them."""
    lat = [1e3 * x for t in timed for x in t.corrected]
    if name == "structure-r8":
        return {"painting_p50_ms": percentile(lat, 50), "painting_p99_ms": percentile(lat, 99)}
    if name == "analyze-r8":
        return {"analyze_p50_ms": percentile(lat, 50), "analyze_p90_ms": percentile(lat, 90)}
    return {}


def traced_passes(wl, probe: SpeedProbe):
    """Traced, untraced, traced; returns the untraced pass and (pass, tracer) pairs."""
    from tracing import Tracer

    traced = []
    untraced = None
    for kind in ("traced", "untraced", "traced"):
        if kind == "untraced":
            untraced = Timed(wl.run_pass(), probe)
            continue
        tracer = Tracer()
        tracer.install()
        try:
            result = wl.run_pass()
        finally:
            tracer.remove()
        traced.append((Timed(result, probe), tracer))
    return untraced, traced


def per_layer(untraced: Timed, traced) -> tuple[dict, float, list[str]]:
    from tracing import PER_LAYER

    problems = []
    counters = [t.counters() for _, t in traced]
    if counters[0] != counters[1]:
        problems.append(f"counters differ between traced passes: {counters}")
    for _, t in traced:
        if abs(t.self_sum_s() - t.top_level_s) > 1e-6 * (1 + sum(t.calls.values())):
            problems.append("span self times do not add up to the top-level spans")
    runs = []
    for p, t in traced:
        # span times scale like the pass; counters and ratios stay exact
        m = {k: v * p.scale if k.endswith("_s") else v
             for k, v in t.metrics(p.result.paintings).items()}
        m["trace.unwrapped_s"] = p.wall_s - p.scale * t.top_level_s
        runs.append(m)
    out = {k: statistics.median(r[k] for r in runs) if k.endswith("_s") else v
           for k, v in runs[0].items()}
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    out["trace.overhead_pct"] = 100 * (traced_wall / untraced.wall_s - 1)
    return {k: (out[k], unit) for k, (unit, _) in PER_LAYER.items()}, traced_wall, problems


def verdict(passes, problems) -> bool:
    """A run is correct when it attempted something and nothing failed."""
    attempted = sum(p.attempted for p in passes)
    return attempted > 0 and not problems and not any(p.failures for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "flagsym" / "__init__.py").is_file():
        print(f"error: the flagsym sources are not under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, load_refs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    load_start = loadavg()
    wl.refs = load_refs(wl.name)
    lines, problems = [], []
    if args.trace:
        with SpeedProbe() as probe:
            untraced, traced = traced_passes(wl, probe)
        timed = [untraced] + [p for p, _ in traced]
        metrics, traced_wall, problems = per_layer(untraced, traced)
        lines.append(f"  wall_s untraced {untraced.wall_s:.6g} s, traced {traced_wall:.6g} s")
    else:
        setup_probe = SpeedProbe()
        setup = [time_setup(wl.name, args.seed, setup_probe) for _ in range(SETUP_PROBES)]
        timed = []
        start = time.perf_counter()
        longest = 0.0
        with SpeedProbe() as probe:
            while True:
                t0 = time.perf_counter()
                result = wl.run_pass()
                longest = max(longest, time.perf_counter() - t0)
                timed.append(Timed(result, probe))
                if time.perf_counter() - start + longest > args.seconds:
                    break
        metrics, raw = end_to_end(timed, setup)
        lines += [f"  raw {k} = {v:.6g} {u}" for k, (v, u) in raw.items()]
        lines += [f"  {k} = {v:.6g} ms" for k, v in named_latencies(wl.name, timed).items()]

    passes = [t.result for t in timed]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if not attempted:
        problems.append("no operations attempted")
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  "
          f"op {wl.op}  outputs checked/pass {passes[0].attempted}")
    print(f"env commit {commit_id()}  python {platform.python_version()}  "
          f"nproc {len(os.sched_getaffinity(0))}  loadavg start {load_start}  end {loadavg()}  "
          f"median host slowdown {statistics.median(probe.durations) / REF_PROBE_S:.3f}")
    for line in [f for p in passes for f in p.failures[:20]] + problems:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in lines:
        print(line)
    print(f"  failed_ratio = {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    if not attempted:
        return 1
    result = {
        "correct": verdict(passes, problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
