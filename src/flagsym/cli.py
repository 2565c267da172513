"""Batch enumeration, exception filtering, theorem verification and reports.

Subcommands:

  analyze <spec>     one painted diagram, e.g. 'A3:{2,3}' (text or --json)
  enumerate          sweep all paintings up to --max-rank, emit JSON
  verify             run the sweep and check every classification claim;
                     exit 0 on a clean pass, 1 with a violation listing

The three exceptional isometry-group families (where the transitive simple
group is a proper subgroup of the full isometry group) are matched by
(family, rank, painted set) pattern and excluded from the claim checks:

  (a)  Sp(n+1)/U(1)xSp(n) = CP^{2n+1}:  Cm:{1} for m >= 3, plus its rank-2
       presentation B2:{2} (sp(2) = so(5));
  (b)  SO(2n-1)/U(n-1), n >= 4:         Bm:{m} for m >= 3;
  (c)  G_2/U(2) with long white root:   G2:{2}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from .chevalley import ChevalleyTable, build_constants
from .flag import FlagData, PaintedDiagram, make_flag, painting_spec, split_painted, to_dot
from .oracle import oracle_check
from .rootsystem import FAMILIES, build_root_system, is_valid_type, root_str
from .symmetry import SymmetryReport, build_report, diagrams_agree, k_prime_check

MAX_RANK_BOUND = 8


def onishchik_exception(family: str, rank: int, painted) -> str | None:
    """Exception tag for the three exceptional (g, h) families, else None."""
    painted = frozenset(painted)
    if family == "C" and painted == {1}:
        return "a"
    if family == "B" and rank == 2 and painted == {2}:
        return "a"  # sp(2) = so(5): the rank-2 presentation of CP^3
    if family == "B" and rank >= 3 and painted == {rank}:
        return "b"
    if family == "G" and painted == {2}:
        return "c"
    return None


def dim_g(family: str, rank: int) -> int:
    """Dimension of the compact simple group of the given type."""
    if not is_valid_type(family, rank):
        raise ValueError(f"not a simple type: {family}{rank}")
    n = rank
    if family == "A":
        return n * (n + 2)
    if family in ("B", "C"):
        return n * (2 * n + 1)
    if family == "D":
        return n * (2 * n - 1)
    return {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}[
        (family, rank)
    ]


def _known_families(chosen: list[str]) -> list[str]:
    """``chosen``, or ValueError when it is empty or names a letter that is
    not one of ``FAMILIES``; the unknown letters come in the order given."""
    if not chosen:
        raise ValueError(f"no family given; choose from {','.join(FAMILIES)}")
    unknown = [f for f in chosen if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {','.join(unknown)}; choose from {','.join(FAMILIES)}")
    return chosen


def simple_types(max_rank: int, families=None) -> list[tuple[str, int]]:
    """All simple types with rank <= max_rank, sorted by (family, rank), each once.

    ``families=None`` means every family.  An empty collection, or a family
    letter that is not one of ``FAMILIES`` (lowercase included), raises
    ValueError.
    """
    if not 1 <= max_rank <= MAX_RANK_BOUND:
        raise ValueError(f"max_rank must be between 1 and {MAX_RANK_BOUND}")
    chosen = FAMILIES if families is None else _known_families(sorted(set(families)))
    out = []
    for fam in chosen:
        for rank in range(1, max_rank + 1):
            if is_valid_type(fam, rank):
                out.append((fam, rank))
    return out


@lru_cache(maxsize=None)
def _diagram_automorphisms(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Dynkin diagram automorphisms; perm[i - 1] is the image of node i."""
    nodes = tuple(range(1, rank + 1))
    perms = [nodes]
    if family == "A" and rank >= 2:
        perms.append(nodes[::-1])
    elif family == "D" and rank > 4:
        perms.append(nodes[:-2] + (rank, rank - 1))
    elif family == "D" and rank == 4:
        perms = [(a, 2, b, c) for a, b, c in itertools.permutations((1, 3, 4))]
    elif family == "E" and rank == 6:
        perms.append((6, 2, 5, 4, 3, 1))
    return tuple(perms)


def _canonical_painting(family: str, rank: int, painted: frozenset) -> frozenset:
    images = [
        frozenset(p[i - 1] for i in painted) for p in _diagram_automorphisms(family, rank)
    ]
    return min(images, key=lambda s: tuple(sorted(s)))


@lru_cache(maxsize=None)
def chevalley_table(family: str, rank: int) -> ChevalleyTable:
    return build_constants(build_root_system(family, rank))


def _audit_coverage(types) -> str:
    """One line: how many Chevalley tables of ``types`` were certified, and how."""
    certified = [chevalley_table(f, r).certified for f, r in types]
    audited, pinned = certified.count("audit"), certified.count("digest")
    return (
        f"Chevalley tables: {audited + pinned} of {len(types)} certified "
        f"({audited} audited exhaustively in this run, {pinned} by the digest of an "
        "audited build)"
    )


def _oracle_coverage(report: EnumerationReport) -> str:
    """One line: on how many paintings the oracles were proved on the whole cone."""
    entries = report.entries
    proved = sum(1 for e in entries if e.checks["oracle_agree"])
    return (
        f"Transvection oracles: proved on the whole Kähler cone for {proved} of "
        f"{len(entries)} paintings by the certificates of their Chevalley tables"
    )


def _claim_coverage(report: EnumerationReport) -> str:
    """One line: on how many paintings the coindex and dimension claims ran."""
    entries = report.entries
    symmetric = sum(1 for e in entries if e.symmetric)
    excepted = sum(1 for e in entries if e.exception and not e.symmetric)
    return (
        f"coindex ≥ 6, dim bound, k = 6: checked on {len(entries) - symmetric - excepted} "
        f"of {len(entries)} paintings; {symmetric} symmetric, {excepted} exceptions excluded"
    )


class EnumerationReport(namedtuple("EnumerationReport", "entries summary")):
    """The records of a sweep, and its summary: a fresh dict unless one is given."""

    __slots__ = ()

    def __new__(cls, entries: list[SymmetryReport], summary: dict | None = None):
        return super().__new__(cls, entries, {} if summary is None else summary)

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "summary": self.summary,
        }


def _painting(flag: FlagData) -> SymmetryReport:
    """The record of one painting, with its consistency checks.

    ``oracle_agree`` holds when both oracles give the symmetry roots on the
    whole Kahler cone.  :func:`flagsym.oracle.oracle_check` reads it off the
    certificate of the type's Chevalley table, and audits a table that has
    none; a table that fails the audit fails the check on every painting.
    ``hprime_closed`` is true on every record: :func:`build_report` raises
    on an h' that is not closed.
    """
    pd, family, rank = flag.pd, flag.rs.family, flag.rs.rank
    report = build_report(flag, exception=onishchik_exception(family, rank, pd.painted))
    return report._replace(
        checks={
            "oracle_agree": oracle_check(chevalley_table(family, rank)),
            "diagram_agree": diagrams_agree(pd, report.leaf),
            "hprime_closed": True,
            "kprime_commutes": k_prime_check(flag),
        }
    )


def enumerate_flags(
    max_rank: int = 6,
    families=None,
    seed=0,
    dedup_automorphisms: bool = False,
) -> EnumerationReport:
    """Sweep every nonempty painting of every simple type with rank <= max_rank.

    ``seed`` is recorded in the summary; the sweep itself draws no sample.
    """
    entries = []
    for family, rank in simple_types(max_rank, families):
        nodes = list(range(1, rank + 1))
        for size in range(1, rank + 1):
            for combo in itertools.combinations(nodes, size):
                painted = frozenset(combo)
                if dedup_automorphisms and _canonical_painting(
                    family, rank, painted
                ) != painted:
                    continue
                pd = PaintedDiagram(build_root_system(family, rank), painted)
                entries.append(_painting(make_flag(pd)))
    entries.sort(key=lambda e: (e.family, e.rank, e.painted))
    summary = {
        "total": len(entries),
        "symmetric": sum(1 for e in entries if e.symmetric),
        "exceptions": sum(1 for e in entries if e.exception),
        "max_rank": max_rank,
        "seed": str(seed),
        "dedup_automorphisms": dedup_automorphisms,
        "violations": [],
    }
    return EnumerationReport(entries, summary)


def verify_theorem(report: EnumerationReport) -> tuple[bool, list[dict]]:
    """Check the classification claims over a sweep.

    A sweep without entries is a violation (``empty_sweep``), never a pass.
    Universal sanity for every entry: consistency flags all true, coindex 0
    exactly on symmetric cosets, index and coindex even.  For non-symmetric
    entries without an exception tag: coindex k >= 6, dim g <= k(k-1)/2, and
    k = 6 only for the two A3 paintings with isotropy 2R + su(2) adjacent to
    an end node; those paintings must also realize k = 6 when in range.
    """
    violations: list[dict] = []

    def flag_violation(entry: SymmetryReport | None, check: str, detail: str) -> None:
        violations.append(
            {"entry": entry.spec if entry else None, "check": check, "detail": detail}
        )

    if not report.entries:
        flag_violation(None, "empty_sweep", "no paintings were checked")
    k6_allowed = {("A", 3, (1, 2)), ("A", 3, (2, 3))}
    k6_seen = set()
    swept_types = set()
    for e in report.entries:
        swept_types.add((e.family, e.rank))
        for name, ok in e.checks.items():
            if not ok:
                flag_violation(e, name, "consistency check failed")
        if (e.coindex == 0) != e.symmetric:
            flag_violation(e, "symmetric_iff_coindex0", f"coindex {e.coindex}")
        if e.index % 2 or e.coindex % 2:
            flag_violation(e, "parity", f"index {e.index}, coindex {e.coindex}")
        if e.symmetric or e.exception:
            continue
        k = e.coindex
        if k < 6:
            flag_violation(e, "coindex>=6", f"coindex {k}")
        if 2 * e.dim_g > k * (k - 1):
            flag_violation(e, "dim_bound", f"dim g = {e.dim_g} > k(k-1)/2 = {k * (k - 1) // 2}")
        if k == 6:
            key = (e.family, e.rank, e.painted)
            if key in k6_allowed:
                k6_seen.add(key)
            else:
                flag_violation(e, "k6_uniqueness", f"coindex 6 at {e.spec}")
    if ("A", 3) in swept_types and not report.summary.get("dedup_automorphisms"):
        for key in sorted(k6_allowed - k6_seen):
            flag_violation(None, "k6_existence", f"expected coindex 6 at {key}")
    report.summary["violations"] = violations
    return (not violations), violations


def _print_analysis(record: dict) -> None:
    spec = painting_spec(f"{record['family']}{record['rank']}", record["painted"])
    print(f"flag manifold {spec}   dim G = {record['dim_g']}, dim M = {record['dim_M']}")
    print(f"symmetric coset: {'yes' if record['symmetric'] else 'no'}")
    print(f"exception: {record['exception'] or 'none'}")
    print(f"index of symmetry: {record['index']}   coindex: {record['coindex']}")
    print(f"symmetry roots: {', '.join(record['symmetry_roots'])}")
    leaf = record["leaf"]
    kpart = " + ".join(leaf["k_factors"]) if leaf["k_factors"] else "(abelian)"
    print(
        f"leaf: u = {leaf['u']}, k = {kpart} + {leaf['k_center_dim']}-dim center, "
        f"name = {leaf['name']}"
    )
    state = {name: "ok" if ok else "FAIL" for name, ok in record["checks"].items()}
    print(
        f"checks: oracle {state['oracle_agree']} | diagram {state['diagram_agree']} | "
        f"h' closed {state['hprime_closed']} | [k',p]=0 {state['kprime_commutes']}"
    )


def _write_dot(pd: PaintedDiagram, directory: str) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    stem = pd.spec.replace(":", "_").replace("{", "").replace("}", "").replace(",", "-")
    (out / f"{stem}_painted.dot").write_text(
        to_dot(pd.rs.dynkin_diagram(), pd.painted, "painted")
    )
    (out / f"{stem}_extended.dot").write_text(
        to_dot(pd.rs.extended_diagram(), pd.painted, "extended")
    )


def _max_rank(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if not 1 <= value <= MAX_RANK_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {MAX_RANK_BOUND}, got {value}"
        )
    return value


def _families(text: str) -> list[str]:
    try:
        return _known_families([f.strip().upper() for f in text.split(",") if f.strip()])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _painted(text: str) -> PaintedDiagram:
    """A painting of rank at most MAX_RANK_BOUND, rejected before its root
    system is built: the root index allocates |R|^2 ``add`` entries."""
    try:
        family, rank, painted = split_painted(text)
        if rank > MAX_RANK_BOUND:
            raise ValueError(f"rank must be at most {MAX_RANK_BOUND}, got {rank}")
        return PaintedDiagram(build_root_system(family, rank), painted)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    Repeated ``main`` calls share it: ``parse_args`` makes a new namespace
    per call and leaves the parser as it was, the ``type=`` callables read
    what they check when they run, and help is laid out when it is printed.
    """
    parser = argparse.ArgumentParser(
        prog="flagsym",
        description="symmetry-index engine for generalized flag manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one painted diagram")
    p_an.add_argument(
        "spec", type=_painted, help="painted diagram, e.g. 'A3:{2,3}' or 'G2:{1}'"
    )
    p_an.add_argument("--json", action="store_true", help="emit a JSON record")
    p_an.add_argument("--dot", metavar="DIR", help="write painted/extended DOT files")

    p_en = sub.add_parser("enumerate", help="sweep all paintings up to a rank bound")
    p_en.add_argument("--max-rank", type=_max_rank, default=6)
    p_en.add_argument("--families", type=_families, help="comma-separated subset, e.g. 'A,B,G'")
    p_en.add_argument("--out", help="write the JSON report to this file")
    p_en.add_argument("--seed", default="0", help="recorded in the summary")
    p_en.add_argument(
        "--dedup-automorphisms",
        action="store_true",
        help="keep one painting per diagram-automorphism orbit",
    )

    p_ve = sub.add_parser("verify", help="run the sweep and verify every claim")
    p_ve.add_argument("--max-rank", type=_max_rank, default=6)
    p_ve.add_argument("--families", type=_families, help="comma-separated subset")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        status = _run(parser, args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:
        # the reader stopped early (``flagsym enumerate | head -1``): send what
        # is still buffered to devnull, as the Python docs advise for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "analyze":
        pd = args.spec
        report = _painting(make_flag(pd))
        record = report.to_json()
        record["symmetry_roots"] = [root_str(a) for a in sorted(report.r_p_plus)]
        if args.dot:
            try:
                _write_dot(pd, args.dot)
            except OSError as exc:
                parser.exit(
                    2,
                    f"{parser.prog}: error: cannot write DOT files to {args.dot}: "
                    f"{exc.strerror}\n",
                )
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            _print_analysis(record)
        return 0

    if args.command == "enumerate":
        report = enumerate_flags(
            max_rank=args.max_rank,
            families=args.families,
            seed=args.seed,
            dedup_automorphisms=args.dedup_automorphisms,
        )
        payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
        if args.out:
            try:
                Path(args.out).write_text(payload + "\n")
            except OSError as exc:
                parser.exit(2, f"{parser.prog}: error: cannot write {args.out}: {exc.strerror}\n")
            print(f"wrote {len(report.entries)} entries to {args.out}")
        else:
            print(payload)
        return 0

    if args.command == "verify":
        report = enumerate_flags(max_rank=args.max_rank, families=args.families)
        ok, violations = verify_theorem(report)
        if ok:
            print(
                f"PASS: {len(report.entries)} paintings up to rank {args.max_rank}, "
                "all checks satisfied"
            )
        else:
            print(f"FAIL: {len(violations)} violation(s) over {len(report.entries)} paintings")
            for v in violations:
                print(f"  {v['entry'] or '(sweep)'}: {v['check']}: {v['detail']}")
        print(_oracle_coverage(report))
        print(_claim_coverage(report))
        print(_audit_coverage(simple_types(args.max_rank, args.families)))
        return 0 if ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
