"""Source hygiene: no package module imports a name it neither uses nor exports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kdmps"

# (module, name) pairs imported without use on purpose: the benchmark tracer
# (perfbench/tracing.py) wraps kdmps.variance.dense_hamiltonian by name
ALLOWED = {("variance", "dense_hamiltonian")}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in ``source`` that no expression
    reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used | exported]


def test_checker_finds_a_planted_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom .a import b, c as d\n__all__ = ['d']\nb()\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_imports_only_what_it_uses(module):
    unused = [n for n in unused_imports((PACKAGE / f"{module}.py").read_text()) if (module, n) not in ALLOWED]
    assert not unused, f"kdmps.{module} imports {unused} without using or exporting them"
