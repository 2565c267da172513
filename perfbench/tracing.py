"""Per-module tracing for the flagsym benchmark, from outside the program.

The tracer rebinds public functions of the package's modules to timing
wrappers at run time and restores them afterwards; no source file changes.
Every flagsym module attribute that names a traced function is rebound, so
cross-module calls such as ``cli.transvection_set`` -> ``oracle`` (looked up
at call time) become child spans of their caller.  Spans are aggregated in
memory per name: calls, inclusive time and the time covered by child spans.
A span's self time is its inclusive time minus its children's, so the self
times of all spans plus the time outside any span add up to the wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from flagsym import rootsystem

# span name -> (module, attribute) of the function wrapped
SPANS = {
    "rootsystem.build": ("flagsym.rootsystem", "RootSystem.__init__"),
    "chevalley.request": ("flagsym.cli", "chevalley_table"),
    "chevalley.build": ("flagsym.chevalley", "build_constants"),
    "chevalley.audit": ("flagsym.chevalley", "sign_convention_check"),
    "flag.make_flag": ("flagsym.flag", "make_flag"),
    "flag.kahler": ("flagsym.flag", "random_kahler_param"),
    "symmetry.scan_roots": ("flagsym.symmetry", "symmetry_roots"),
    "symmetry.scan_center": ("flagsym.symmetry", "center_of_nilradical"),
    "symmetry.leaf": ("flagsym.symmetry", "leaf_pair"),
    "symmetry.hprime": ("flagsym.symmetry", "h_prime"),
    "symmetry.kprime": ("flagsym.symmetry", "k_prime_check"),
    "symmetry.diagram": ("flagsym.symmetry", "diagrams_agree"),
    "symmetry.report": ("flagsym.symmetry", "build_report"),
    "oracle.transvection": ("flagsym.oracle", "transvection_set"),
    "oracle.shortcut": ("flagsym.oracle", "shortcut_set"),
    "cli.enumerate": ("flagsym.cli", "enumerate_flags"),
    "cli.verify": ("flagsym.cli", "verify_theorem"),
    "cli.main": ("flagsym.cli", "main"),
}

# per-layer metric -> (unit, better); see BENCHMARK.json for the list
PER_LAYER = {
    "rootsystem.build_s": ("s", "lower"),
    "rootsystem.builds": ("count", "lower"),
    "chevalley.build_s": ("s", "lower"),
    "chevalley.audit_s": ("s", "lower"),
    "chevalley.table_requests": ("count", "lower"),
    "chevalley.tables_built": ("count", "lower"),
    "chevalley.tables_audited": ("count", "higher"),
    "chevalley.tables_unaudited": ("count", "lower"),
    "flag.make_flag_s": ("s", "lower"),
    "flag.flags_built": ("count", "lower"),
    "flag.kahler_s": ("s", "lower"),
    "flag.kahler_samples": ("count", "lower"),
    "symmetry.scan_s": ("s", "lower"),
    "symmetry.scan_calls": ("count", "lower"),
    "symmetry.scans_per_painting": ("ratio", "lower"),
    "symmetry.leaf_s": ("s", "lower"),
    "symmetry.hprime_s": ("s", "lower"),
    "symmetry.kprime_s": ("s", "lower"),
    "symmetry.diagram_s": ("s", "lower"),
    "symmetry.report_s": ("s", "lower"),
    "oracle.transvection_s": ("s", "lower"),
    "oracle.shortcut_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.xi_per_painting": ("ratio", "lower"),
    "cli.enumerate_self_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
    "cli.analyze_self_s": ("s", "lower"),
    "trace.unwrapped_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """Aggregated spans of one traced pass; ``install`` / ``remove`` rebind."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.exhaustive_audits = 0
        self.top_level_s = 0.0  # inclusive time of spans with no traced parent
        self._open: list[float] = []  # child time accumulated by each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "chevalley.audit" and kwargs.get("jacobi_samples") is None:
                self.exhaustive_audits += 1
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.top_level_s += elapsed

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "flagsym" or n.startswith("flagsym.")]
        for name, (modname, attr) in SPANS.items():
            if attr == "RootSystem.__init__":
                cls = rootsystem.RootSystem
                self._undo.append((cls, "__init__", cls.__dict__["__init__"]))
                cls.__init__ = self._wrap(name, cls.__init__)
                continue
            target = getattr(sys.modules[modname], attr, None)
            if target is None:  # gone after a refactor: its metrics read 0
                continue
            wrapper = self._wrap(name, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def self_sum_s(self) -> float:
        """Self times of all spans; equals ``top_level_s`` when nesting is sound."""
        return sum(self.self_s(n) for n in self.total)

    def counters(self) -> dict:
        return {**dict(self.calls), "chevalley.exhaustive_audits": self.exhaustive_audits}

    def metrics(self, paintings: int) -> dict:
        """Per-layer metrics of one pass over ``paintings`` paintings."""
        c, s = self.calls, self.self_s
        per = (lambda n: n / paintings) if paintings else (lambda n: 0.0)
        return {
            "rootsystem.build_s": s("rootsystem.build"),
            "rootsystem.builds": c["rootsystem.build"],
            "chevalley.build_s": s("chevalley.build"),
            "chevalley.audit_s": s("chevalley.audit"),
            "chevalley.table_requests": c["chevalley.request"],
            "chevalley.tables_built": c["chevalley.build"],
            "chevalley.tables_audited": self.exhaustive_audits,
            "chevalley.tables_unaudited": c["chevalley.build"] - c["chevalley.audit"],
            "flag.make_flag_s": s("flag.make_flag"),
            "flag.flags_built": c["flag.make_flag"],
            "flag.kahler_s": s("flag.kahler"),
            "flag.kahler_samples": c["flag.kahler"],
            "symmetry.scan_s": s("symmetry.scan_roots") + s("symmetry.scan_center"),
            "symmetry.scan_calls": c["symmetry.scan_roots"],
            "symmetry.scans_per_painting": per(c["symmetry.scan_roots"]),
            "symmetry.leaf_s": s("symmetry.leaf"),
            "symmetry.hprime_s": s("symmetry.hprime"),
            "symmetry.kprime_s": s("symmetry.kprime"),
            "symmetry.diagram_s": s("symmetry.diagram"),
            "symmetry.report_s": s("symmetry.report"),
            "oracle.transvection_s": s("oracle.transvection"),
            "oracle.shortcut_s": s("oracle.shortcut"),
            "oracle.calls": c["oracle.transvection"] + c["oracle.shortcut"],
            "oracle.xi_per_painting": per(c["flag.kahler"]),
            "cli.enumerate_self_s": s("cli.enumerate"),
            "cli.verify_s": s("cli.verify"),
            "cli.analyze_self_s": s("cli.main"),
        }
