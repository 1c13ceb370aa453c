"""The verdicts have one path, and meta.json is no input of it.

run and verify reach their verdicts through experiments._check_saved, the
one caller of experiments.analyze, and only run_experiment, which writes
meta.json, names that file.  Within estimates, one function makes a report
vacuous and one evaluates every exponential, and the ids of its
declaration table are those README.md and bench/checks.py name, as the
columns of solver's probe table are those of README.md's table of
columns.  All are
read statically (ast and text), so that a second verdict path, vacuity
rule or exponential, or a reader of meta.json, cannot come back unnoticed.
"""

import ast
import re
from pathlib import Path

from torusflow import estimates as est, solver

ROOT = Path(__file__).resolve().parents[1]
ESTIMATES = ROOT / "src" / "torusflow" / "estimates.py"


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


def _assigns_vacuous(node) -> bool:
    return isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
        and isinstance(node.value, ast.Name) and node.value.id == "VACUOUS"


def _calls_exp(node) -> bool:
    # math.exp, np.exp or a bare exp
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Attribute) and node.func.attr == "exp")
        or (isinstance(node.func, ast.Name) and node.func.id == "exp"))


def test_one_function_makes_a_report_vacuous():
    tree = ast.parse(ESTIMATES.read_text())
    assert _sites(tree, "estimates", _assigns_vacuous) \
        == ["estimates.Evidence.report"]


def test_one_function_evaluates_an_exponential():
    tree = ast.parse(ESTIMATES.read_text())
    assert _sites(tree, "estimates", _calls_exp) == ["estimates.exp_bound"]


def test_the_scan_finds_vacuity_and_exponentials():
    tree = ast.parse("def f(r):\n    r.status = VACUOUS\n    x = VACUOUS\n"
                     "    return r.status == VACUOUS\n"
                     "def g(x):\n    return math.exp(x) + np.exp(x)"
                     " + exp(x) + expm1(x)\n")
    assert _sites(tree, "m", _assigns_vacuous) == ["m.f", "m.f"]
    assert _sites(tree, "m", _calls_exp) == ["m.g", "m.g", "m.g"]


def _readme_ids() -> list:
    """The ids of README.md's table of inequalities, in its order."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| id | kind |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", table, flags=re.M)


def _bench_expected_ids() -> tuple:
    """bench/checks.py's EXPECTED_IDS, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "checks.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and [t.id for t in node.targets] == ["EXPECTED_IDS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/checks.py has no EXPECTED_IDS")


def test_readme_and_benchmark_name_the_declared_ids():
    declared = list(est.INEQUALITIES)
    assert len(declared) == 17
    assert _readme_ids() == declared
    assert sorted(_bench_expected_ids()) == sorted(declared)


def _readme_columns() -> list:
    """(column, runs, signed) of each row of README.md's table of columns,
    in its order: the labels named in its runs field, and its signed
    field."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| column | runs | signed |", 1)[1].split("\n\n")[0]
    return [(column, set(re.findall(r"`([^`]+)`", runs)), signed)
            for column, runs, signed in re.findall(
                r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \|", table,
                flags=re.M)]


def test_readme_names_the_recorded_columns():
    labels = {label for probe in solver.PROBES
              for runs in probe.columns.values() for label in runs}
    declared = [("t", labels, "—")] + [
        (column, set(runs), "yes" if probe.signed else "no")
        for probe in solver.PROBES for column, runs in probe.columns.items()]
    assert _readme_columns() == declared
