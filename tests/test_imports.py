"""Module boundaries: no ghostsim module reaches another's private names."""

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
