"""Source hygiene: no package module imports a name it neither uses nor
exports, or exports a name it does not bind, no private helper is left
without a caller in the package, the (bra, MPO, ket) contraction steps live
in kdmps.tensor alone, only kdmps.ed names the dense guard, and only
kdmps.tensor and kdmps.mps know the blob format and the MPS archive layout."""

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


def stale_exports(source: str) -> list[str]:
    """Names ``__all__`` lists that no top-level statement of ``source``
    binds (by import, def, class or assignment)."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in bound]


def orphaned_private(sources: dict[str, str]) -> list[str]:
    """``module._name`` of every module-level ``_private`` function or class
    in ``sources`` (module name -> source) that no other top-level statement
    of any of them names: as a name, an attribute or an imported name.
    References from inside the definition itself do not count."""
    defined, named_by = [], {}
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    defined.append((module, i, node.name))
            for sub in ast.walk(node):
                names = [getattr(sub, "id", None), getattr(sub, "attr", None)]
                if isinstance(sub, ast.ImportFrom):
                    names += [alias.name for alias in sub.names]
                for name in names:
                    named_by.setdefault(name, set()).add((module, i))
    return [f"{m}.{name}" for m, i, name in defined if not named_by.get(name, set()) - {(m, i)}]


def test_checker_finds_a_planted_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom .a import b, c as d\n__all__ = ['d']\nb()\n"
    assert unused_imports(source) == ["os"]


def test_checker_finds_a_planted_stale_export():
    source = (
        "import os.path\nfrom .a import b as c\nX, Y = 1, 2\nZ: int = 3\n"
        "def f():\n    gone = 1\nclass K:\n    pass\n"
        "__all__ = ['os', 'c', 'X', 'Y', 'Z', 'f', 'K', 'b', 'gone', 'Spec']\n"
    )
    assert stale_exports(source) == ["b", "gone", "Spec"]


def test_checker_finds_a_planted_orphaned_helper():
    sources = {
        "a": (
            "def _called():\n    pass\n"
            "def _recursive():\n    return _recursive()\n"
            "class _Lonely:\n    def copy(self) -> '_Lonely':\n        return _Lonely()\n"
            "def _imported():\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "def __dunder__():\n    pass\n"
            "def public(x: int = 0):\n    return _called()\n"
        ),
        "b": "import kdmps.a as ka\nfrom .a import _imported\nX = ka._by_attribute\n",
    }
    assert orphaned_private(sources) == ["a._recursive", "a._Lonely"]


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    unused = [n for n in unused_imports((PACKAGE / f"{module}.py").read_text()) if (module, n) not in ALLOWED]
    assert not unused, f"kdmps.{module} imports {unused} without using or exporting them"


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_only_what_it_binds(module):
    stale = stale_exports((PACKAGE / f"{module}.py").read_text())
    assert not stale, f"kdmps.{module} lists {stale} in __all__ without binding them"


def test_every_private_helper_has_a_caller_in_the_package():
    """A deletion that leaves a private helper behind fails here; a helper
    only tests or the benchmark call belongs in them, not in kdmps."""
    orphans = orphaned_private({m: (PACKAGE / f"{m}.py").read_text() for m in MODULES})
    assert not orphans, f"{orphans} are defined in kdmps but named by no other statement there"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ed"])
def test_only_the_dense_oracle_names_the_guard(module):
    """The dense guard is stated once, in kdmps.ed; other modules ask
    ed.within_guard or ed.guard_dims."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    named = {getattr(node, attr, None) for node in ast.walk(tree) for attr in ("id", "attr", "name")}
    assert "DENSE_GUARD" not in named, f"kdmps.{module} names DENSE_GUARD"


@pytest.mark.parametrize("module", MODULES)
def test_only_the_format_modules_know_the_archive_layout(module):
    """The blob format is stated once, in kdmps.tensor, and the MPS archive
    layout once, in kdmps.mps: other modules read a reference state through
    load_mps and build no site blob name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    named = {getattr(node, attr, None) for node in ast.walk(tree) for attr in ("id", "attr", "name")}
    if module != "tensor":
        assert "TENSOR_MAGIC" not in named, f"kdmps.{module} names TENSOR_MAGIC"
    if module != "mps":
        strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        assert not [v for v in strings if v.startswith("site_")], f"kdmps.{module} builds an MPS blob name"


def test_excitation_runs_on_the_tensor_kernel():
    """kdmps.excitation takes its contraction steps from kdmps.tensor and
    defines no matmul steps of its own."""
    import kdmps.excitation as kexc
    import kdmps.tensor as kten

    for name in ("ket_step", "mpo_step", "close", "close_right"):
        assert getattr(kexc, name) is getattr(kten, name)
    tree = ast.parse((PACKAGE / "excitation.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not {n for n in defined if n.endswith("_step") or n.lstrip("_").startswith("close")}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "matmul"]
