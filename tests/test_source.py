"""Static checks on the package source, with the standard library only."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flagsym"


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


# __init__.py imports to re-export: its imports are the public names
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys.path\nfrom math import gcd, lcm\n\nlcm(sys.path)\n")
    assert unused_imports(module) == ["gcd", "os"]


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
