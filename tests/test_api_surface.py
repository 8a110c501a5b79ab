"""Every public function, class and method of the package has a caller.

A public name that nothing in ``src/`` or ``bench/`` refers to, apart from
its own definition and the re-exports in ``__init__.py``, is API only tests
call; it is deleted rather than kept.  Names are matched, not resolved: a
reference to any object of the same name counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgersim"

# Kept without a caller, each for a stated reason.
EXCEPTIONS = {
    # the canonical scenario printer, kept to render scheduler witnesses
    "formats.scenario_to_text",
}


def _public_definitions():
    """(module.qualname, name) of every public top-level function and class,
    and every public method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _referenced_names():
    """Every identifier used in ``src/`` or ``bench/`` outside ``__init__.py``:
    names, attributes and imported names."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_used_outside_tests():
    definitions = dict(_public_definitions())
    used = _referenced_names()
    unused = sorted(qual for qual, name in definitions.items() if name not in used)
    assert unused == sorted(EXCEPTIONS)  # an exception that gains a caller leaves the list
