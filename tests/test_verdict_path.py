"""The verdicts have one path, and meta.json is no input of it.

run and verify reach their verdicts through experiments._check_saved, the
one caller of experiments.analyze, and only run_experiment, which writes
meta.json, names that file.  Both are read from a static scan (ast) of
src/torusflow, so that a second verdict path or a reader of meta.json
cannot come back unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstrings(tree) -> set:
    """The ids of the docstring constants of tree's module, classes and
    functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _sites(tree, where: str, match) -> list:
    """The dotted name of the enclosing def of each node of tree for which
    match(node) holds, where being the name of tree's module."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = f"{where}.{node.name}"
        if match(node):
            found.append(inner)
        found += _sites(node, inner, match)
    return found


def _calls_analyze(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "analyze") \
        or (isinstance(func, ast.Attribute) and func.attr == "analyze")


def _scan(match_of) -> list:
    """_sites of match_of(tree) over every module of src/torusflow."""
    found = []
    for path in sorted((ROOT / "src" / "torusflow").glob("*.py")):
        tree = ast.parse(path.read_text())
        found += _sites(tree, path.stem, match_of(tree))
    return found


def _names_meta_json(tree):
    docstrings = _docstrings(tree)
    return lambda node: isinstance(node, ast.Constant) \
        and isinstance(node.value, str) and "meta.json" in node.value \
        and id(node) not in docstrings


def test_analyze_has_one_call_site():
    assert _scan(lambda tree: _calls_analyze) == ["experiments._check_saved"]


def test_only_run_experiment_names_meta_json():
    assert set(_scan(_names_meta_json)) == {"experiments.run_experiment"}


def test_the_scan_finds_analyze_calls_and_meta_json():
    tree = ast.parse('"""Writes meta.json."""\n'
                     "def f(out):\n"
                     '    """Reads meta.json."""\n'
                     "    analyze(1)\n    exp.analyze(2)\n    analyzer(3)\n"
                     "class C:\n"
                     "    def g(self, out):\n"
                     '        open(f"{out}/meta.json")\n')
    assert _sites(tree, "m", _calls_analyze) == ["m.f", "m.f"]
    assert _sites(tree, "m", _names_meta_json(tree)) == ["m.C.g"]
