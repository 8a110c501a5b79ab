"""Every public function, class and method of the package has a caller.

A public name that nothing in ``src/`` or ``bench/`` refers to, apart from
its own definition, is API only tests call; it is deleted rather than kept.
Names are matched, not resolved, but a reference counts only in a file that
can reach the defining module: the module itself, a module of the package
importing from it directly or through other modules, or a ``bench/`` file
naming it as a layer (``m.ledger``) or naming a layer that reaches it.  So
``Path.resolve`` in a file that never touches the ledger does not keep an
uncalled ``LedgerIndex.resolve``.  A method counts as used only through an
attribute (``x.symbols``), so a local variable of the same name does not
keep it.

The package has one import order: no function imports, the modules'
run-time imports form an acyclic graph, and importing a module loads only
that graph's closure of it, so the bottom layer loads nothing above it.
No module reaches a private name of another (``formats._name``,
``from .formats import _name``) outside a short list of stated reasons.
And the benchmark's view of the package holds: every layer function
``bench/`` traces or calls exists where it says, so a move cannot break
``bench/`` or leave a per-layer row reading 0 without a test failing.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgersim"
BENCH = ROOT / "bench"
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


def _imported(tree: ast.Module, at_load: bool = False) -> set[str]:
    """The package modules a module of the package imports from.  With
    ``at_load``, only those it imports when it loads: by module-level
    statements outside ``if TYPE_CHECKING:`` blocks.  Reach counts every
    import, since ``policy`` calls ``carriers`` on the ``LedgerIndex`` it
    names only in annotations."""
    found = set()
    for node in _load_time_statements(tree) if at_load else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def _load_time_statements(tree: ast.Module):
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.If) and not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
            todo += node.body + node.orelse


def _reach(graph: dict[str, set[str]], modules) -> set[str]:
    """``modules`` and every module ``graph`` leads to from them."""
    todo, reached = list(modules), set()
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(graph[module])
    return reached


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
        reached = _reach(imports, todo)
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


def _call_time_imports(trees) -> list[str]:
    """``file:line`` of every import statement inside a function of the package."""
    found = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                }
    return sorted(found)


def _import_cycle(trees) -> list[str]:
    """One cycle of the package's run-time import graph, as the modules on
    it with the first repeated at the end; empty when the graph is acyclic."""
    graph = {path.stem: _imported(tree, at_load=True) for path, tree in trees.items() if path.parent == PACKAGE}
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module) :] + [module]
        if module in done:
            return []
        for imported in sorted(graph.get(module, ())):
            cycle = visit(imported, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return []


def test_no_function_imports():
    assert _call_time_imports(_trees()) == []


def test_a_call_time_import_is_reported():
    """``run_validator`` as it was when it imported the portal per spend."""
    validators = PACKAGE / "validators.py"
    text = validators.read_text().replace(
        "        cfg = _portal(ref.params)",
        "        from .token_portal import TokenConfig, transition_check\n\n"
        "        cfg = _portal(ref.params)",
        1,
    )
    line = text.splitlines().index("        from .token_portal import TokenConfig, transition_check") + 1
    assert _call_time_imports(_trees({validators: text})) == [f"validators.py:{line}"]


def test_run_time_imports_are_acyclic():
    assert _import_cycle(_trees()) == []


def test_an_import_cycle_is_named():
    """``model`` importing ``ledger`` at run time closes a cycle through
    ``ledger``'s own import of ``model``; a guarded import does not."""
    model = PACKAGE / "model.py"
    text = model.read_text()
    guarded = text.replace("\nPosition = int", "\nif TYPE_CHECKING:\n    from .ledger import Chain\nPosition = int", 1)
    assert _import_cycle(_trees({model: guarded})) == []
    plain = text.replace("\nPosition = int", "\nfrom .ledger import Chain\nPosition = int", 1)
    cycle = _import_cycle(_trees({model: plain}))
    assert cycle[0] == cycle[-1] and {"model", "ledger"} <= set(cycle)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_each_module_loads_only_what_it_imports(module):
    """A fresh interpreter importing ``ledgersim.<module>`` holds the package,
    the module and the modules it imports at load time, directly or through
    others, and no other module of the package."""
    graph = {path.stem: _imported(tree, at_load=True) for path, tree in _trees().items() if path.parent == PACKAGE}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    show = f"import sys, ledgersim.{module}; print(*sorted(n for n in sys.modules if n.partition('.')[0] == 'ledgersim'))"
    run = subprocess.run([sys.executable, "-c", show], env=env, capture_output=True, text=True, check=True)
    expected = {"ledgersim"} | {f"ledgersim.{m}" for m in _reach(graph, [module])}
    assert sorted(set(run.stdout.split()) ^ expected) == []


# Private names one module of the package uses from another, each for a
# stated reason.
PRIVATE_REACH = {
    # ``fuzz --cases`` and ``--seed`` spell naturals as the file formats do,
    # with the formats' message
    "cli -> formats._nat",
}


def _private_reach(trees) -> list[str]:
    """``importer -> module._name`` for every private name a module of the
    package takes from another: as an attribute of a module it imports
    (``formats._nat``) or by a relative import (``from .formats import
    _nat``)."""
    found = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        bound = {  # the package modules this file imports by name: from . import formats
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                module, names = node.value.id, [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                module, names = node.module, [alias.name for alias in node.names]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            found |= {f"{path.stem} -> {module}.{name}" for name in private if module != path.stem}
    return sorted(found)


def test_no_module_reaches_another_modules_private_names():
    assert _private_reach(_trees()) == sorted(PRIVATE_REACH)  # a mended reach leaves the list


def test_a_private_reach_is_reported():
    """``build_world`` with the loop it once ran in place of its judge,
    checking intents through ``formats._intent_problem``."""
    harness = PACKAGE / "harness.py"
    text = harness.read_text().replace(
        "    _refuse(scenario)\n",
        "    for at, intent in enumerate(scenario.intents):\n"
        "        params = dict(intent.params)\n"
        '        key = (intent.kind, params.pop("function", None)) if intent.kind == "call" else intent.kind\n'
        "        problem = formats._intent_problem(key, params) if key in formats.INTENTS else None\n"
        "        if problem is not None:\n"
        '            raise ValueError(f"intent {at}: {problem}")\n',
        1,
    )
    assert "formats._intent_problem" in text
    assert _private_reach(_trees({harness: text})) == sorted(PRIVATE_REACH | {"harness -> formats._intent_problem"})


# Rows of ``bench/tracer.py`` that name no function: the synthetic count of
# ``Value`` operations, and three rows whose functions are gone, so they read
# 0 on every workload (ROADMAP item 17 drops them from the benchmark).
DARK_ROWS = {"model.value_ops", "ledger.resolve_input", "equivalence.check_commute", "equivalence.check_defer_slotted"}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _traced_labels(tracer) -> set[str]:
    """Every function label of the tracer: the part of a ``.calls`` or
    ``.self_s`` row before that word, every observer and every refusing
    builder."""
    labels = set(tracer.OBSERVERS) | set(tracer.REFUSING)
    for name, _, _ in tracer.PER_LAYER:
        parts = name.split(".")
        for word in ("calls", "self_s"):
            if word in parts:
                labels.add(".".join(parts[: parts.index(word)]))
    return labels


def _untraceable(labels) -> list[str]:
    """The labels ``layer.function`` or ``layer.Class.method`` that name no
    function defined in that layer; the tracer wraps only those."""
    missing = []
    for label in sorted(labels):
        layer, *path = label.split(".")
        target = importlib.import_module(f"ledgersim.{layer}")
        for name in path:
            target = getattr(target, name, None)
        if not (inspect.isfunction(target) and target.__module__ == f"ledgersim.{layer}"):
            missing.append(label)
    return missing


def test_every_traced_row_names_a_function_of_its_layer():
    assert _untraceable(_traced_labels(_tracer()) - DARK_ROWS) == []


def test_an_imported_function_is_not_traceable_from_its_importer():
    """``ledger`` imports ``context_at`` from ``model``; the tracer wraps it
    as a ``model`` function or not at all."""
    assert _untraceable({"ledger.context_at", "model.context_at"}) == ["ledger.context_at"]


def test_every_value_op_is_a_value_method():
    from ledgersim import model

    assert [op for op in _tracer().VALUE_OPS if op not in vars(model.Value)] == []


def test_every_layer_name_the_benchmark_reads_exists():
    """Every ``m.<layer>.<name>`` of ``bench/`` resolves."""
    missing = set()
    for path, tree in _trees().items():
        if path.parent != BENCH:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)):
                continue
            holder, layer = node.value.value, node.value.attr
            named_m = getattr(holder, "id", None) == "m" or getattr(holder, "attr", None) == "m"  # m or self.m
            if layer in MODULES and named_m and not hasattr(importlib.import_module(f"ledgersim.{layer}"), node.attr):
                missing.add(f"{path.name}: m.{layer}.{node.attr}")
    assert sorted(missing) == []
