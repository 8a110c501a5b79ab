"""Every public function, class and method of the package has a caller.

A public name that nothing in ``src/`` or ``bench/`` refers to, apart from
its own definition and the re-exports in ``__init__.py``, is API only tests
call; it is deleted rather than kept.  Names are matched, not resolved, but a
reference counts only in a file that can reach the defining module: the
module itself, a module of the package importing from it directly or through
other modules, or a ``bench/`` file naming it as a layer (``m.ledger``) or
naming a layer that reaches it.  So ``Path.resolve`` in a file that never
touches the ledger does not keep an uncalled ``LedgerIndex.resolve``.  A
method counts as used only through an attribute (``x.symbols``), so a local
variable of the same name does not keep it.
Every name of ``ledgersim.__all__`` must also be defined, so a deleted
function cannot linger as a re-export that breaks ``import *``.
"""

import ast
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgersim"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

# Kept without a caller, each for a stated reason.
EXCEPTIONS = {
    # the canonical scenario printer, kept to render scheduler witnesses
    "formats.scenario_to_text",
    # wrapped by name (``VALUE_OPS``) by the benchmark's tracer, whose traced
    # run fails without it; ``symbols`` elsewhere is a local variable
    "model.Value.symbols",
}


def _trees(replace: dict[Path, str] | None = None) -> dict[Path, ast.Module]:
    """Every file of ``src/`` and ``bench/`` outside ``__init__.py``, parsed,
    with the text of the files in ``replace`` swapped in."""
    replace = replace or {}
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    return {
        path: ast.parse(replace.get(path) or path.read_text()) for path in paths if path.name != "__init__.py"
    }


def _public_definitions(trees):
    """(module.qualname, (module, name, is_method)) of every public
    top-level function and class, and every public method of a top-level
    class."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = path.stem
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", (module, node.name, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", (module, item.name, True)


def _imported(tree: ast.Module) -> set[str]:
    """The package modules a module of the package imports from."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def _referenced_names(trees):
    """For each package module, every identifier used in a file that can
    reach it: ``(name, False)`` for a name, attribute or imported name, which
    keeps a function or class, and ``(name, True)`` for an attribute, which
    alone keeps a method."""
    imports = {path.stem: _imported(tree) for path, tree in trees.items() if path.parent == PACKAGE}
    names = defaultdict(set)
    for path, tree in trees.items():
        if path.parent == PACKAGE:
            todo = [path.stem]
        else:  # a bench/ file reaches the layers it names: m.ledger
            todo = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in MODULES]
        reached = set()
        while todo:
            module = todo.pop()
            if module not in reached:
                reached.add(module)
                todo.extend(imports[module])
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((node.id, False))
            elif isinstance(node, ast.Attribute):
                used |= {(node.attr, False), (node.attr, True)}
            elif isinstance(node, ast.alias):
                used.add((node.name.rsplit(".", 1)[-1], False))
        for module in reached:
            names[module] |= used
    return names


def _unused(trees) -> list[str]:
    used = _referenced_names(trees)
    definitions = _public_definitions(trees)
    return sorted(qual for qual, (module, name, method) in definitions if (name, method) not in used[module])


def test_every_public_definition_is_used_outside_tests():
    assert _unused(_trees()) == sorted(EXCEPTIONS)  # an exception that gains a caller leaves the list


def test_a_same_named_call_out_of_reach_keeps_nothing():
    """``bench/run.py`` calls ``Path(__file__).resolve()`` and names no
    layer, so an uncalled ``LedgerIndex.resolve`` is still reported."""
    ledger = PACKAGE / "ledger.py"
    text = ledger.read_text().replace(
        "class LedgerIndex:\n", "class LedgerIndex:\n    def resolve(self, position):\n        return None\n\n", 1
    )
    assert "ledger.LedgerIndex.resolve" in _unused(_trees({ledger: text}))


def _missing_exports(package) -> list[str]:
    """The names of ``package.__all__`` the package does not define."""
    return [name for name in package.__all__ if not hasattr(package, name)]


def test_every_export_is_defined():
    """``from ledgersim import *`` fails on a name of ``__all__`` the package
    does not define, so a deleted function leaves ``__all__`` too."""
    import ledgersim

    assert _missing_exports(ledgersim) == []


def test_a_stale_export_is_reported():
    stale = types.ModuleType("stale")
    stale.kept = object()
    stale.__all__ = ["kept", "deleted"]
    assert _missing_exports(stale) == ["deleted"]
