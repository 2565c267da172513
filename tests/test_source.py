"""Static checks on the package source and on the imports of the test
modules, one check of the package's module-level state across a sweep, and
one of the modules the CLI's start-up loads, with the standard library only."""

import argparse
import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

from flagsym import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flagsym"
TESTS = ROOT / "tests"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


# __init__.py imports to re-export: its imports are the public names; the
# test modules and their helpers are held to the same rule
@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys.path\nfrom math import gcd, lcm\n\nlcm(sys.path)\n")
    assert unused_imports(module) == ["gcd", "os"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parsed_and_read(paths) -> tuple[dict, set[str]]:
    """The modules of ``paths`` parsed, by name, and the names they read.

    A read is an ``ast.Name``, an ``ast.Attribute`` or an imported alias, in
    any of the modules.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return trees, read


def unread_private_definitions(paths) -> list[str]:
    """Module-level ``_name`` functions and classes, and ``_name`` methods of
    module-level classes, that no module of ``paths`` reads.

    Each result is ``module.name`` or ``module.Class.name``.
    """
    trees, read = parsed_and_read(paths)

    def unread(node, kinds):
        return (
            isinstance(node, kinds)
            and node.name.startswith("_")
            and not node.name.startswith("__")
            and node.name not in read
        )

    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if unread(node, (*FUNCTIONS, ast.ClassDef)):
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += (f"{module}.{node.name}.{m.name}" for m in node.body if unread(m, FUNCTIONS))
    return sorted(found)


def test_every_private_definition_is_read_by_the_package():
    # a private helper only the tests call belongs in a test helper module
    assert unread_private_definitions(sorted(SRC.glob("*.py"))) == []


def test_unread_private_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _called():\n    pass\n\ndef _imported():\n    pass\n\n"
        "def _attribute():\n    pass\n\ndef _dead():\n    _called()\n\n"
        "class _Dead:\n    def _method(self):\n        pass\n\n"
        "def public():\n    pass\n\ndef __getattr__(name):\n    pass\n"
    )
    (tmp_path / "b.py").write_text("import a\nfrom a import _imported\n\na._attribute()\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_private_definitions(paths) == ["a._Dead", "a._Dead._method", "a._dead"]


def test_unread_private_method_is_found(tmp_path):
    # a method only the tests call is dead code in the package, as
    # RootSystem._scaled_product was once the diagrams left the Gram form
    (tmp_path / "a.py").write_text(
        "class Table:\n"
        "    def _read_by_self(self):\n        return self._read_elsewhere()\n\n"
        "    def _read_elsewhere(self):\n        pass\n\n"
        "    def _dead(self):\n        pass\n\n"
        "    def __init__(self):\n        self._read_by_self()\n\n"
        "    def public(self):\n        pass\n\n"
        "    class _Nested:\n        def _inner(self):\n            pass\n\n"
        "def function():\n    def _local():\n        pass\n"
    )
    (tmp_path / "b.py").write_text("from a import Table\n\nTable()._read_elsewhere()\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_private_definitions(paths) == ["a.Table._dead"]


def unread_public_definitions(paths) -> list[str]:
    """Module-level public functions and classes that no module of ``paths``
    reads, as ``module.name``; a re-export from ``__init__`` imports the name,
    so it is a read."""
    trees, read = parsed_and_read(paths)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    )


def test_every_public_definition_is_read_by_the_package():
    # a public function only the tests call belongs in a test helper module,
    # as rootsystem.radd and rsub did; one the package exports is read by
    # its __init__
    assert unread_public_definitions(sorted(SRC.glob("*.py"))) == []


def test_unread_public_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def called():\n    pass\n\ndef exported():\n    pass\n\n"
        "def attribute():\n    pass\n\ndef dead():\n    called()\n\n"
        "class Dead:\n    def method(self):\n        pass\n\n"
        "def _private():\n    pass\n\ndef __getattr__(name):\n    pass\n"
    )
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "b.py").write_text("import a\n\na.attribute()\n")
    paths = [tmp_path / "__init__.py", tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_public_definitions(paths) == ["a.Dead", "a.dead"]


def functions_naming(path: Path, functions, name: str) -> list[str]:
    """The module-level ``functions`` of ``path`` whose bodies, nested
    functions included, read ``name`` as a variable or an attribute."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, FUNCTIONS) and node.name in functions:
            if any(
                isinstance(sub, ast.Name) and sub.id == name
                or isinstance(sub, ast.Attribute) and sub.attr == name
                for sub in ast.walk(node)
            ):
                found.append(node.name)
    return found


# the audit reads only the arrays that the digest covers; the build's list of
# decompositions is not one of them, so a wrong list cannot pass unjudged
AUDIT_FUNCTIONS = ("sign_convention_check", "_witnesses", "_jacobi_candidates")


def test_the_audit_never_reads_the_decompositions():
    path = SRC / "chevalley.py"
    defined = {n.name for n in ast.parse(path.read_text()).body if isinstance(n, FUNCTIONS)}
    assert set(AUDIT_FUNCTIONS) <= defined
    assert functions_naming(path, AUDIT_FUNCTIONS, "decompositions") == []


def test_a_function_naming_the_decompositions_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def reads(rs):\n    return rs.decompositions\n\n"
        "def nested(rs):\n    def inner():\n        return decompositions\n    return inner\n\n"
        "def clean(rs):\n    return rs.sums\n\n"
        "def unlisted(rs):\n    return rs.decompositions\n"
    )
    functions = ("reads", "nested", "clean")
    assert functions_naming(tmp_path / "a.py", functions, "decompositions") == ["reads", "nested"]


# the memos a RootSystem fills as it is used; every other attribute its
# constructor sets is root data, which a verdict or a digest covers
ROOT_MEMOS = {"leaf_memo", "component_memo", "sound", "_extended"}


def root_data_writes(paths) -> tuple[set[str], list[str]]:
    """The root-data attributes of ``RootSystem`` in ``paths``, those its
    ``__init__`` sets and its cached properties, and the assignments or
    deletions of an attribute of one of those names anywhere else in
    ``paths``, as ``module:line name``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    cls = next(
        node
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RootSystem"
    )
    constructor = next(fn for fn in cls.body if isinstance(fn, FUNCTIONS) and fn.name == "__init__")
    cached = {
        fn.name
        for fn in cls.body
        if isinstance(fn, FUNCTIONS)
        and any(ast.unparse(d).endswith("cached_property") for d in fn.decorator_list)
    }

    def written(tree):
        return (
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
        )

    data = ({node.attr for node in written(constructor)} | cached) - ROOT_MEMOS
    inside = set(map(id, ast.walk(constructor)))
    writes = [
        f"{module}:{node.lineno} {node.attr}"
        for module, tree in trees.items()
        for node in written(tree)
        if node.attr in data and id(node) not in inside
    ]
    return data, writes


def test_no_package_code_rebinds_root_data():
    # the rows of add are read-only, which stops a write in place; this stops
    # rebinding, so a soundness verdict or a digest holds for the root system
    data, writes = root_data_writes(sorted(SRC.glob("*.py")))
    assert {"roots", "sums", "add", "support", "partners"} <= data
    assert writes == []


def test_a_rebound_root_data_attribute_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from functools import cached_property\n\n"
        "class RootSystem:\n"
        "    def __init__(self):\n"
        "        self.add = ()\n"
        "        self.sums, self.sound = (), None\n\n"
        "    @cached_property\n    def partners(self):\n        return ()\n\n"
        "    @property\n    def name(self):\n        return ''\n\n"
        "def plant(rs):\n"
        "    rs.add = tuple(rs.add)\n"
        "    rs.sound = rs.leaf_memo = rs.name = None\n"
        "    del rs.sums\n"
    )
    (tmp_path / "b.py").write_text(
        "def grow(rs):\n    rs.add += ()\n    rs.add[0][1] = 3\n    rs.partners = ()\n"
    )
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert root_data_writes(paths) == (
        {"add", "sums", "partners"}, ["a:17 add", "a:19 sums", "b:2 add", "b:4 partners"]
    )


ROLE = re.compile(r":(func|meth|class|attr|mod):(`~?([^`]*)`)?")


def unresolved_references(module: str, text: str) -> list[str]:
    """The targets of the ``:func:``, ``:meth:``, ``:class:``, ``:attr:`` and
    ``:mod:`` references in ``text`` that name nothing, in order.

    A ``:mod:`` target must import.  Any other target is a dotted name in
    ``module`` or, failing that, a dotted path from a module that imports.
    A role with no backticked target is reported as the role.
    """

    def lookup(obj, parts):
        for part in parts:
            if obj is None or not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    def imported(name):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    def resolves(role, target):
        if role == "mod":
            return imported(target) is not None
        parts = target.split(".")
        return lookup(imported(module), parts) or any(
            lookup(imported(".".join(parts[:cut])), parts[cut:])
            for cut in range(len(parts) - 1, 0, -1)
        )

    return [
        target if quoted else f":{role}:"
        for role, quoted, target in ROLE.findall(text)
        if not quoted or not resolves(role, target)
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__main__.py"), ids=lambda p: p.name
)
def test_every_docstring_reference_resolves(path):
    # a reference left behind by a rename or a removal names nothing; the
    # entry point is left out, since importing it runs the CLI
    assert unresolved_references(f"flagsym.{path.stem}", path.read_text()) == []


def test_unresolved_reference_is_found():
    text = (
        ":func:`oracle_check` :func:`cone_verdict` :mod:`flagsym.chevalley` "
        ":mod:`flagsym.nowhere` :meth:`~flagsym.rootsystem.RootSystem.diagram` "
        ":meth:`RootSystem.splittings` :class:`flagsym.oracle.ConeSet` "
        ":attr:`flagsym.chevalley.ChevalleyTable.certified` :attr:"
    )
    assert unresolved_references("flagsym.oracle", text) == [
        "cone_verdict", "flagsym.nowhere", "flagsym.oracle.ConeSet", ":attr:"
    ]


def parser_builders(path: Path) -> tuple[int, list[tuple[str, list[str]]]]:
    """Calls of ``argparse.ArgumentParser(`` in a module, and the functions making them.

    Each function comes with the names of its decorators, ``functools.``
    prefixes and call arguments dropped.
    """
    def is_build(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) in (
            "argparse.ArgumentParser", "ArgumentParser"
        )

    def name(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return ast.unparse(target).removeprefix("functools.")

    tree = ast.parse(path.read_text())
    calls = sum(map(is_build, ast.walk(tree)))
    builders = [
        (fn.name, [name(d) for d in fn.decorator_list])
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and any(map(is_build, ast.walk(fn)))
    ]
    return calls, builders


def test_cli_builds_its_parser_once_per_process():
    # a parser built on every main() call costs an in-process analyze about
    # half its time; one cached builder makes it once
    calls, builders = parser_builders(SRC / "cli.py")
    assert calls == 1
    assert len(builders) == 1
    _, decorators = builders[0]
    assert {"cache", "lru_cache"} & set(decorators), builders


def test_per_call_parser_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import argparse\nfrom functools import lru_cache\n\n"
        "def main(argv):\n    return argparse.ArgumentParser().parse_args(argv)\n\n"
        "@lru_cache\ndef build():\n    return argparse.ArgumentParser()\n"
    )
    assert parser_builders(module) == (2, [("main", []), ("build", ["lru_cache"])])


def test_every_traced_function_exists():
    # the benchmark's tracer skips a (module, attribute) it cannot find and its
    # layer then reads 0; a rename must fail here instead
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, (module, attribute) in tracing.SPANS.items():
        target = importlib.import_module(module)
        for part in attribute.split("."):
            target = getattr(target, part, None)
        assert callable(target), (name, module, attribute)


def readme_synopsis(text: str) -> dict[str, set[str]]:
    """The ``--`` flags of each subcommand in the first code block under the
    README's "Command line" heading; an indented line continues the last one."""
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    flags: dict[str, set[str]] = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("flagsym "):
            command = flags.setdefault(line.split()[1], set())
        elif not line.strip():
            continue
        command |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def parser_options() -> dict[str, set[str]]:
    """The ``--`` options of each subcommand of the CLI parser, help aside."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            option
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        for name, parser in sub.choices.items()
    }


def test_readme_synopsis_names_every_cli_option():
    # an option the synopsis leaves out, or one the CLI no longer has, fails here
    assert readme_synopsis((ROOT / "README.md").read_text()) == parser_options()


def test_readme_synopsis_is_read_per_subcommand():
    text = (
        "## Command line\n\n```\nflagsym run 'x' [--json] [--dot DIR]\n"
        "flagsym sweep --max-rank 6 [--out FILE]\n"
        "              [--dedup]   # --comment\n```\n\n```\nflagsym other --later\n```\n"
    )
    assert readme_synopsis(text) == {
        "run": {"--json", "--dot"},
        "sweep": {"--max-rank", "--out", "--dedup"},
    }


CONTAINER_SIZES = """
import importlib, json, pkgutil, sys

package = importlib.import_module(sys.argv[1])
modules = [package] + [
    importlib.import_module(f"{package.__name__}.{m.name}")
    for m in pkgutil.iter_modules(package.__path__)
    if m.name != "__main__"
]

def sizes():
    return {
        f"{module.__name__}.{name}": len(value)
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }

before = sizes()
exec(sys.argv[2], {package.__name__: package})
after = sizes()
print(json.dumps(sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))))
"""


def grown_module_containers(package: str, call: str, path: Path) -> list[str]:
    """Module-level dicts, lists and sets of ``package`` and its modules whose
    size ``call`` changes, in a fresh interpreter with ``path`` on sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(path), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", CONTAINER_SIZES, package, call],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_no_module_level_memo_grows_across_a_sweep():
    # a memo must live on a RootSystem or in a functools cache: the
    # benchmark clears the caches for fresh passes and a module-level dict
    # would stay warm
    call = "flagsym.cli.enumerate_flags(max_rank=3)"
    assert grown_module_containers("flagsym", call, SRC.parent) == []


def test_growing_module_level_memo_is_found(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from . import work\n\nFIXED = [1, 2]\n")
    (package / "__main__.py").write_text("raise SystemExit(2)\n")  # never imported
    (package / "work.py").write_text(
        "from functools import cache\n\n_memo = {}\n\n"
        "@cache\ndef cached(x):\n    return x\n\n"
        "def run(x):\n    _memo[x] = cached(x)\n"
    )
    assert grown_module_containers("pkg", "pkg.work.run(3)", tmp_path) == ["pkg.work._memo"]


def unresolved_annotations(package: str) -> list[str]:
    """The functions and methods defined in ``package`` and its modules whose
    annotations ``typing.get_type_hints`` cannot resolve, with the error."""
    root = importlib.import_module(package)
    modules = [root] + [
        importlib.import_module(f"{package}.{m.name}")
        for m in pkgutil.iter_modules(root.__path__)
        if m.name != "__main__"
    ]
    out = []
    for module in modules:
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            for member in vars(value).values() if isinstance(value, type) else [value]:
                # the function of a staticmethod, classmethod or property
                member = getattr(member, "__func__", getattr(member, "fget", member))
                # defined in the module's source: not a generated NamedTuple.__new__
                if (
                    isinstance(member, types.FunctionType)
                    and member.__code__.co_filename == module.__file__
                ):
                    try:
                        typing.get_type_hints(member)
                    except Exception as exc:  # any failure to resolve is the finding
                        out.append(f"{module.__name__}.{member.__qualname__}: {exc}")
    return sorted(out)


def test_every_annotation_resolves():
    # annotations are evaluated lazily (from __future__ import annotations), so
    # a name imported inside a function body resolves nowhere
    assert unresolved_annotations("flagsym") == []


def test_unresolved_annotation_is_found(tmp_path, monkeypatch):
    package = tmp_path / "hinted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("raise SystemExit(2)\n")  # never imported
    (package / "m.py").write_text(
        "from __future__ import annotations\n\n"
        "def ok(x: int) -> list[int]:\n    return [x]\n\n"
        "class C:\n"
        "    @property\n    def p(self) -> Missing:\n        return 1\n\n"
        "    @staticmethod\n    def s(x: Gone) -> int:\n        return x\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unresolved_annotations("hinted") == [
        "hinted.m.C.p: name 'Missing' is not defined",
        "hinted.m.C.s: name 'Gone' is not defined",
    ]


# modules the CLI's start-up must not load: dataclasses loads inspect, and
# fractions loads decimal, about 11 ms of every command together
SLOW_IMPORTS = ("dataclasses", "inspect", "fractions", "decimal")


def slow_imports(module: str, path: Path) -> list[str]:
    """The SLOW_IMPORTS in ``sys.modules`` after ``import module`` in a fresh
    interpreter with ``path`` on sys.path; without the site module (-S), whose
    start-up files may import anything."""
    code = f"import sys, {module}\nprint(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(path)), capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_cli_start_up_loads_no_slow_module():
    assert slow_imports("json", SRC.parent) == []  # a bare interpreter loads none
    assert slow_imports("flagsym.cli", SRC.parent) == []


def test_slow_import_is_found(tmp_path):
    (tmp_path / "m.py").write_text("from fractions import Fraction\n\nFraction(1)\n")
    assert slow_imports("m", tmp_path) == ["fractions", "decimal"]
