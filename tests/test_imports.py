"""Module boundaries: no ghostsim module reaches another's private names, every
private name a module defines is read somewhere in the package, one function
alone selects the correlation engine, and one alone maps failures to exit
codes."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ghostsim"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(tree: ast.AST) -> list[str]:
    """Private names imported from a ghostsim module, or read as attributes
    of a ghostsim module bound by an import."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "ghostsim"
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ghostsim":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    found = {p.name: _private_uses(ast.parse(p.read_text())) for p in sources}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_check_sees_private_imports_and_attributes():
    code = (
        "from .core import Grid1D, _readonly\n"
        "from . import optics\n"
        "import ghostsim.source as src\n"
        "optics._transfer_function\n"
        "src._philox_key\n"
        "from . import __version__\n"
    )
    assert _private_uses(ast.parse(code)) == [
        "core._readonly", "optics._transfer_function", "src._philox_key"
    ]


def _private_definitions(tree: ast.Module) -> list[str]:
    """Private functions and constants a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if _private(name)]


def _unread_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """module.name for each private definition no module reads, as a name or
    as an attribute."""
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]


def test_every_private_definition_is_read_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 7
    assert _unread_private_definitions(trees) == []


def test_check_sees_unread_private_definitions():
    trees = {
        "a": ast.parse(
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    _local = _helper\n"
            "def public():\n"
            "    return _helper()\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "_CACHE = {}\n"
            "def _stale(x=_CACHE):\n"
            "    a._fresh = x\n"
            "def _fresh():\n"
            "    pass\n"
        ),
    }
    assert _unread_private_definitions(trees) == ["a._UNUSED", "a._dead", "b._stale", "b._fresh"]


def _is_string(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string(el) for el in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _innermost_functions(tree: ast.AST, hit) -> list[str | None]:
    """Innermost functions (None: module level) holding a node where hit(node)."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif hit(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _is_engine_switch(node: ast.AST) -> bool:
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(o, ast.Name) and o.id == "engine" for o in operands) and any(
        _is_string(o) for o in operands
    )


def _engine_switches(tree: ast.AST) -> list[str]:
    """Innermost functions holding a comparison of the name `engine` with a string."""
    return _innermost_functions(tree, _is_engine_switch)


def test_only_correlate_selects_an_engine():
    found = [
        f"{p.stem}.{name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for name in _engine_switches(ast.parse(p.read_text()))
    ]
    assert sorted(set(found)) == ["experiment._correlate"]


def test_check_sees_engine_comparisons():
    code = (
        "def f(engine):\n"
        "    return engine == 'mc'\n"
        "def g(engine):\n"
        "    def inner():\n"
        "        return 'analytic' != engine\n"
        "    return inner\n"
        "def h(engine, kind, other):\n"
        "    if kind == 'engine' or engine == other:\n"
        "        return engine in ('mc', 'analytic')\n"
        "engine is None\n"
    )
    assert _engine_switches(ast.parse(code)) == ["f", "inner", "h"]


EXIT_FAILURES = {"EXIT_CONFIG", "EXIT_SAMPLING", "EXIT_IO"}


def _reads_exit_failure(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return isinstance(node.ctx, ast.Load) and node.id in EXIT_FAILURES
    return isinstance(node, ast.Attribute) and node.attr in EXIT_FAILURES


def _exit_code_readers(tree: ast.AST) -> list[str | None]:
    """Innermost functions (None: module level) that read a failure exit code,
    as a name or as an attribute."""
    return _innermost_functions(tree, _reads_exit_failure)


def test_only_main_maps_failures_to_exit_codes():
    found = [
        f"{p.stem}.{name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for name in _exit_code_readers(ast.parse(p.read_text()))
    ]
    assert sorted(set(found)) == ["cli.main"]


def test_check_sees_exit_code_reads():
    code = (
        "EXIT_IO = 4\n"
        "def main():\n"
        "    return EXIT_CONFIG\n"
        "def run():\n"
        "    def inner():\n"
        "        return cli.EXIT_SAMPLING\n"
        "    return EXIT_OK\n"
        "CODES = (EXIT_IO,)\n"
    )
    assert _exit_code_readers(ast.parse(code)) == ["main", "inner", None]
