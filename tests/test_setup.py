"""Setup plumbing: a ghostsim function gets the bench from one object."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ghostsim"
BENCH_PARTS = {"geometry", "grid"}
CARRIERS = {"config", "econf"}


def _bench_taken_twice(tree: ast.AST) -> list[str]:
    """Functions that take a part of the bench (a geometry or a grid) beside
    the EnsembleConfig that already carries it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if names & BENCH_PARTS and names & CARRIERS:
                found.append(node.name)
    return found


def test_no_function_takes_the_bench_twice():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    found = {p.name: _bench_taken_twice(ast.parse(p.read_text())) for p in sources}
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_check_sees_positional_and_keyword_pairs():
    code = (
        "def scan(geometry, obj, config): ...\n"
        "def run(cfg, grid, *, econf): ...\n"
        "def scan_one(obj, config): ...\n"
        "def arms(geometry, obj): ...\n"
        "class Sweep:\n"
        "    def point(self, grid, config=None): ...\n"
    )
    assert _bench_taken_twice(ast.parse(code)) == ["scan", "run", "point"]
