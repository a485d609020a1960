"""The package's import graph: acyclic, every import at module level and used, few private names.

Each ``src/copulacheck/*.py`` is parsed with ``ast``.  Every import of a
package module, relative or absolute, at module level or inside a function,
is an edge of the graph.  A cycle means two modules each need the other, the
kind of coupling a function-level import hides until it is called.  A name
with a leading underscore crosses from one module to another only where
``PRIVATE_IMPORTS`` lists it, so shared helpers (the integer-pair format in
``scalars``, say) stay public where they are defined.  A module reads every
name it imports or lists it in ``__all__``, except where ``UNUSED_IMPORTS``
keeps one.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "copulacheck"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
# (importer, module, name): the counting families rank their breakpoints by the kernels' cursor
PRIVATE_IMPORTS = {("families", "monotone", "_ranks")}
# (module, name): bench/spans.py traces vertex_sum by name in sklar's namespace too
UNUSED_IMPORTS = {("sklar", "vertex_sum")}


def _imported_modules(node: ast.AST) -> set[str]:
    """The package modules that one import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level:
        # "from .families import X" names one module, "from . import serialize" each name
        names = [node.module] if node.module else [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module == "copulacheck":
        names = [alias.name for alias in node.names]
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        full = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
        names = [n.removeprefix("copulacheck.") for n in full if n.startswith("copulacheck.")]
    else:
        return set()
    return {name.split(".")[0] for name in names} & MODULES.keys()


def _tree(stem: str) -> ast.Module:
    return ast.parse(MODULES[stem].read_text(encoding="utf-8"), filename=str(MODULES[stem]))


def private_imports() -> set[tuple[str, str, str]]:
    """(importer, module, name) for each underscored name one package module imports from another."""
    return {
        (stem, module, alias.name)
        for stem in MODULES
        for node in ast.walk(_tree(stem))
        if isinstance(node, ast.ImportFrom) and node.module
        for module in _imported_modules(node)
        for alias in node.names
        if alias.name.startswith("_")
    }


def unused_imports() -> set[tuple[str, str]]:
    """(module, name) for each name a package module imports but neither reads nor lists in ``__all__``."""
    unused = set()
    for stem in MODULES:
        tree = _tree(stem)
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ]
        unused |= {(stem, name) for name in imported - read - set(*exported)}
    return unused


def import_graph() -> dict[str, set[str]]:
    """Module -> the package modules it imports anywhere in its source."""
    return {
        stem: set().union(*map(_imported_modules, ast.walk(_tree(stem)))) - {stem}
        for stem in MODULES
    }


def test_the_graph_sees_the_known_imports():
    graph = import_graph()
    assert {"families", "monotone", "mvdf", "scalars", "errors"} <= graph["serialize"]
    assert {"serialize", "sklar", "families"} <= graph["cli"]
    assert graph["errors"] == set()
    assert ("families", "monotone", "_ranks") in private_imports()


def test_intra_package_imports_are_acyclic():
    try:
        order = list(TopologicalSorter(import_graph()).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert set(order) == MODULES.keys()


def test_no_import_inside_a_function():
    nested = [
        f"{stem}.py:{node.lineno}"
        for stem in MODULES
        for func in ast.walk(_tree(stem))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_private_names_cross_modules_only_where_listed():
    assert private_imports() <= PRIVATE_IMPORTS


def test_every_imported_name_is_read_or_exported():
    assert unused_imports() == UNUSED_IMPORTS
