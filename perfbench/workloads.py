"""The four workloads of the flagsym benchmark and their correctness gate.

Each workload turns a seed into inputs (``setup``), then runs timed passes
(``run_pass``).  A pass times every operation from outside the program and
checks every output against references pinned in ``refs/``.  An operation is
a painting (``structure-r8``), a table (``tables-r7``), an ``analyze`` call
(``analyze-r8``) or the whole ``verify --max-rank 6`` sweep (``sweep-r6``,
whose 545 paintings are each checked).

Calls go through module attributes (``cli.enumerate_flags``, ...) looked up
at call time, so the tracer in ``trace.py`` sees them when it rebinds them.
Operations that raise, return a false consistency check or differ from the
reference are failures; they are recorded and the pass continues.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from flagsym import chevalley, cli, flag, rootsystem, symmetry

REFS_DIR = Path(__file__).resolve().parent / "refs"

# The three findings of the rank <= 6 sweep (criterion 6 of the acceptance
# suite); the sweep must report exactly these, whatever the seed.
SWEEP_VIOLATIONS = [
    ["A2:{1,2}", "coindex>=6"],
    ["A2:{1,2}", "dim_bound"],
    ["B2:{1,2}", "k6_uniqueness"],
]

ANALYZE_MAX_PAINTED = 4  # E8 paintings with more nodes take up to 2.2 s each
ANALYZE_PER_STRATUM = 3  # 10 types x 4 sizes x 3 = 120 calls, 12 beyond p90


def _flagsym_caches() -> list:
    """Every functools cache in the flagsym package, found before tracing wraps them."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "flagsym" or name.startswith("flagsym."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def spec_of(family: str, rank: int, painted) -> str:
    return f"{family}{rank}:{{{','.join(map(str, sorted(painted)))}}}"


def paintings_of(family: str, rank: int, sizes=None) -> list[str]:
    """Specs of the paintings of one type with the given node counts (default all)."""
    return [
        spec_of(family, rank, combo)
        for size in (sizes or range(1, rank + 1))
        for combo in itertools.combinations(range(1, rank + 1), size)
    ]


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def maths_record(rec: dict) -> dict:
    """The mathematical fields of an ``enumerate``/``analyze`` JSON record.

    Bytes, key order and bookkeeping fields are ignored, so a documented
    schema change that keeps the answers does not trip the gate.
    """
    leaf = rec["leaf"]
    out = {
        "index": rec["index"],
        "coindex": rec["coindex"],
        "symmetric": rec["symmetric"],
        "exception": rec["exception"],
        "leaf": [leaf["u"], list(leaf["k_factors"]), leaf["k_center_dim"], leaf["name"]],
    }
    if "symmetry_roots" in rec:
        out["dim_g"] = rec["dim_g"]
        out["dim_M"] = rec["dim_M"]
        out["symmetry_roots"] = _digest(sorted(rec["symmetry_roots"]))
    return out


def failed_checks(checks) -> list[str]:
    """Names of consistency checks that are false; an empty set fails too."""
    if not checks:
        return ["(no checks reported)"]
    return [name for name, ok in checks.items() if ok is not True]


def table_digest(rs, table) -> str:
    """Digest of the sorted nonzero structure constants n(a, b)."""
    return _digest(
        sorted(
            (a, b, table.n_of(a, b))
            for a in rs.roots
            for b in rs.roots
            if table.n_of(a, b)
        )
    )


def load_refs(name: str):
    return json.loads((REFS_DIR / f"{name.replace('-', '_')}.json").read_text())


@dataclass
class PassResult:
    windows: list[tuple[float, float]]  # perf_counter start and end of each timed op
    attempted: int
    failures: list[str] = field(default_factory=list)  # one line per failed op
    paintings: int = 0


class Workload:
    name = ""
    op = ""
    fresh_caches = True  # clear the flagsym caches before each pass

    def __init__(self, seed: int, refs=None):
        self.seed = seed
        self.refs = refs
        self._caches = _flagsym_caches()

    def setup(self) -> None:
        """Make the inputs from the seed (and warm what the workload needs warm)."""

    def run_pass(self) -> PassResult:
        if self.fresh_caches:
            for cache in self._caches:
                cache.cache_clear()
        return self._pass()

    def _pass(self) -> PassResult:
        raise NotImplementedError


class SweepR6(Workload):
    """``enumerate_flags(max_rank=6)`` + ``verify_theorem``: the user's ``verify``."""

    name = "sweep-r6"
    op = "sweep"  # one timed operation per pass; its 545 paintings are checked

    def _pass(self) -> PassResult:
        expected = self.refs
        t0 = time.perf_counter()
        try:
            report = cli.enumerate_flags(max_rank=6, seed=self.seed)
            _, violations = cli.verify_theorem(report)
        except Exception as exc:  # the whole sweep is lost: every painting fails
            window = [(t0, time.perf_counter())]
            return PassResult(window, len(expected), [f"sweep raised {exc!r}"] * len(expected))
        window = [(t0, time.perf_counter())]

        bad: dict[str, str] = {}
        seen = {}
        for rec in report.to_json()["entries"]:
            spec = spec_of(rec["family"], rec["rank"], rec["painted"])
            seen[spec] = rec
            if spec not in expected:
                bad[spec] = "not in the reference"
            elif maths_record(rec) != expected[spec]:
                bad[spec] = f"differs: {maths_record(rec)} vs {expected[spec]}"
            elif failed_checks(rec["checks"]):
                bad[spec] = f"checks false: {failed_checks(rec['checks'])}"
        for spec in expected.keys() - seen.keys():
            bad[spec] = "missing from the sweep"
        got = {(v["entry"] or "(sweep)", v["check"]) for v in violations}
        for entry, check in got ^ {tuple(v) for v in SWEEP_VIOLATIONS}:
            bad.setdefault(entry, f"violation list differs at {check}")
        attempted = max(len(expected), len(seen))
        failures = [f"{spec}: {why}" for spec, why in sorted(bad.items())]
        return PassResult(window, attempted, failures[:attempted], len(seen))


class StructureR8(Workload):
    """make_flag -> build_report -> diagrams_agree -> k_prime_check on A8..E8."""

    name = "structure-r8"
    op = "painting"

    def __init__(self, seed: int, refs=None, specs=None):
        super().__init__(seed, refs)
        self.specs = specs

    def setup(self) -> None:
        if self.specs is None:
            self.specs = [s for fam in "ABCDE" for s in paintings_of(fam, 8)]
            random.Random(self.seed).shuffle(self.specs)

    @staticmethod
    def record(spec: str) -> tuple[dict, dict]:
        """The maths fields and consistency checks of one painting."""
        pd = flag.parse_painted(spec)
        fl = flag.make_flag(pd)
        exc = cli.onishchik_exception(pd.rs.family, pd.rs.rank, pd.painted)
        rep = symmetry.build_report(fl, exception=exc)
        checks = {
            "diagram_agree": symmetry.diagrams_agree(pd, rep.leaf),
            "kprime_commutes": symmetry.k_prime_check(fl),
        }
        leaf = rep.leaf
        got = {
            "index": rep.index,
            "coindex": rep.coindex,
            "symmetric": fl.is_symmetric_coset(),
            "exception": exc,
            "leaf": [leaf.u_type, list(leaf.k_semisimple_type), leaf.k_center_dim, leaf.name],
        }
        return got, checks

    def _pass(self) -> PassResult:
        windows, failures = [], []
        for spec in self.specs:
            t0 = time.perf_counter()
            try:
                got, checks = self.record(spec)
            except Exception as exc:
                windows.append((t0, time.perf_counter()))
                failures.append(f"{spec}: raised {exc!r}")
                continue
            windows.append((t0, time.perf_counter()))
            if got != self.refs.get(spec):
                failures.append(f"{spec}: differs: {got} vs {self.refs.get(spec)}")
            elif failed_checks(checks):
                failures.append(f"{spec}: checks false: {failed_checks(checks)}")
        return PassResult(windows, len(self.specs), failures, len(self.specs))


class TablesR7(Workload):
    """Fresh ``RootSystem`` + exhaustive ``build_constants(verify=True)`` per type."""

    name = "tables-r7"
    op = "table"

    def __init__(self, seed: int, refs=None, types=None):
        super().__init__(seed, refs)
        self.types = types

    def setup(self) -> None:
        if self.types is None:
            self.types = cli.simple_types(7)
            random.Random(self.seed).shuffle(self.types)

    def _pass(self) -> PassResult:
        windows, failures = [], []
        for family, rank in self.types:
            name = f"{family}{rank}"
            t0 = time.perf_counter()
            try:
                rs = rootsystem.RootSystem(family, rank)
                table = chevalley.build_constants(rs, verify=True)
            except Exception as exc:
                windows.append((t0, time.perf_counter()))
                failures.append(f"{name}: raised {exc!r}")
                continue
            windows.append((t0, time.perf_counter()))
            digest = table_digest(rs, table)
            if digest != self.refs.get(name):
                failures.append(f"{name}: table digest {digest} vs {self.refs.get(name)}")
        return PassResult(windows, len(self.types), failures)


class AnalyzeR8(Workload):
    """Closed loop, one caller: in-process ``flagsym analyze <spec> --json``."""

    name = "analyze-r8"
    op = "analyze call"
    fresh_caches = False  # a long-lived caller: tables warmed in setup

    TYPES = [(f, r) for f in "ABCDE" for r in (7, 8)]

    def __init__(self, seed: int, refs=None, specs=None):
        super().__init__(seed, refs)
        self.specs = specs

    @classmethod
    def candidates(cls) -> list[str]:
        sizes = range(1, ANALYZE_MAX_PAINTED + 1)
        return [s for f, r in cls.TYPES for s in paintings_of(f, r, sizes)]

    @classmethod
    def draw(cls, seed: int) -> list[str]:
        """Seeded draw of 120 paintings with the same mix of costs for every seed.

        The draw is stratified by type and painted-node count.  Cost grows
        with the tangent dimension dim M, so within a stratum the j-th pick
        has the dim M found (j + 1/2)/3 of the way up the stratum, and the
        seed chooses among the paintings with that dim M.  Plain random
        picks moved the p90 latency by 9 % from seed to seed.
        """
        dim_m = {spec: rec["dim_M"] for spec, rec in load_refs(cls.name).items()}
        rng = random.Random(seed)
        specs = []
        for family, rank in cls.TYPES:
            for size in range(1, ANALYZE_MAX_PAINTED + 1):
                stratum = paintings_of(family, rank, [size])
                dims = sorted(dim_m[s] for s in stratum)
                for j in range(ANALYZE_PER_STRATUM):
                    target = dims[int((j + 0.5) * len(dims) / ANALYZE_PER_STRATUM)]
                    specs.append(rng.choice([s for s in stratum if dim_m[s] == target]))
        rng.shuffle(specs)
        return specs

    def setup(self) -> None:
        if self.specs is None:
            self.specs = self.draw(self.seed)
        for family, rank in self.TYPES:
            cli.chevalley_table(family, rank)

    @staticmethod
    def record(spec: str) -> tuple[int, dict]:
        """Exit code and parsed JSON record of ``flagsym analyze <spec> --json``."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["analyze", spec, "--json"])
        return code, json.loads(buf.getvalue())

    def _pass(self) -> PassResult:
        windows, failures = [], []
        for spec in self.specs:
            t0 = time.perf_counter()
            try:
                code, rec = self.record(spec)
            except Exception as exc:
                windows.append((t0, time.perf_counter()))
                failures.append(f"{spec}: raised {exc!r}")
                continue
            windows.append((t0, time.perf_counter()))
            if code != 0:
                failures.append(f"{spec}: exit code {code}")
            elif spec_of(rec["family"], rec["rank"], rec["painted"]) != spec:
                failures.append(f"{spec}: record is for another painting")
            elif maths_record(rec) != self.refs.get(spec):
                failures.append(f"{spec}: differs: {maths_record(rec)} vs {self.refs.get(spec)}")
            elif failed_checks(rec["checks"]):
                failures.append(f"{spec}: checks false: {failed_checks(rec['checks'])}")
        return PassResult(windows, len(self.specs), failures, len(self.specs))


WORKLOADS = {w.name: w for w in (SweepR6, StructureR8, TablesR7, AnalyzeR8)}
