"""Regenerate the pinned references in ``refs/`` from the current program.

Run from the repository root:  python3 perfbench/make_refs.py [name ...]

The references were made once, from the commit that added the benchmark, and
a later change must keep matching them; regenerate only with an argument
that the program's answers were wrong.  ``analyze-r8`` takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flagsym import chevalley, cli, rootsystem  # noqa: E402

from workloads import (  # noqa: E402
    REFS_DIR,
    SWEEP_VIOLATIONS,
    AnalyzeR8,
    StructureR8,
    maths_record,
    paintings_of,
    spec_of,
    table_digest,
)


def sweep_r6() -> dict:
    report = cli.enumerate_flags(max_rank=6, seed=0)
    _, violations = cli.verify_theorem(report)
    got = sorted([v["entry"], v["check"]] for v in violations)
    if got != SWEEP_VIOLATIONS:
        raise SystemExit(f"unexpected violation list {got}")
    return {
        spec_of(r["family"], r["rank"], r["painted"]): maths_record(r)
        for r in report.to_json()["entries"]
    }


def structure_r8() -> dict:
    return {s: StructureR8.record(s)[0] for f in "ABCDE" for s in paintings_of(f, 8)}


def tables_r7() -> dict:
    out = {}
    for family, rank in cli.simple_types(7):
        rs = rootsystem.RootSystem(family, rank)
        out[rs.name] = table_digest(rs, chevalley.build_constants(rs, verify=True))
    return out


def analyze_r8() -> dict:
    out = {}
    for spec in AnalyzeR8.candidates():
        code, rec = AnalyzeR8.record(spec)
        if code != 0:
            raise SystemExit(f"analyze {spec} exited {code}")
        out[spec] = maths_record(rec)
    return out


def write_refs(name: str, refs: dict) -> Path:
    """One reference per line, keys sorted, so a changed entry shows as one line."""
    path = REFS_DIR / f"{name.replace('-', '_')}.json"
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(refs.items()))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return path


MAKERS = {"sweep-r6": sweep_r6, "structure-r8": structure_r8, "tables-r7": tables_r7,
          "analyze-r8": analyze_r8}

if __name__ == "__main__":
    for name in sys.argv[1:] or MAKERS:
        refs = MAKERS[name]()
        print(f"wrote {len(refs)} references to {write_refs(name, refs)}")
