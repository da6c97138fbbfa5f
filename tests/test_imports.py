"""Import rules: the library runs on the standard library, numpy and scipy
alone, and the benchmark's oracle stays independent of the library it
judges.  Both are checked by parsing the sources, so nothing is imported."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entroscope"
ORACLE = ROOT / "bench" / "oracle.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "entroscope"}


def _imported(path: Path) -> list[tuple[int, str]]:
    """(level, top-level name) of every import in the file; relative imports
    have level > 0 and name their package-local module, or "" for `from .`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(0, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append((node.level, (node.module or "").split(".")[0]))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_stdlib_numpy_scipy(path):
    foreign = {name for level, name in _imported(path) if level == 0 and name not in ALLOWED}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_oracle_imports_nothing_from_the_library():
    found = [
        (level, name)
        for level, name in _imported(ORACLE)
        if level > 0 or name == "entroscope"
    ]
    assert not found, f"oracle.py imports {found}"
