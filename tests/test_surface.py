"""The library is the pipeline: every def in src/torusflow is reached from
the command line (cli.main) or from a demo, so the library's surface cannot
grow back with functions that only tests call.

Reachability is read from a static name graph (ast), by bare name: a def
is reached when reached code names it, as a name or as an attribute, or
through an `import ... as` alias of it.  The roots are cli.main, every
name a demo references, the module-level and class-level statements of
the package (imports excepted: they bind a name, they do not use it) and
the bodies of dunder methods, which Python calls itself.  Matching by bare
name over-approximates: a def that shares its name with a reached one
counts as reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the defs that neither cli.main nor a demo reaches, with the reason each
#: stays in the package
EXEMPT = {
    "norms.compute_norm_report": "bench/trace_cli.py wraps it by name "
                                 "(ROADMAP item 9)",
    "norms.l2_norm_sq": "bench/trace_cli.py wraps it by name "
                        "(ROADMAP item 9)",
    "norms.grad_l2_norm_sq": "bench/trace_cli.py wraps it by name "
                             "(ROADMAP item 9)",
    "solver.forcing_lp_sq_series": "bench/trace_cli.py wraps it by name "
                                   "(ROADMAP item 9)",
    "solver._Workspace.padded_magnitude": "only forcing_lp_sq_series "
                                          "calls it, which bench/trace_cli.py "
                                          "wraps by name (ROADMAP item 9)",
    "norms._padded_magnitude": "only compute_norm_report calls it",
    "norms.gradient_field": "only compute_norm_report calls it",
    "field.gradient_data": "only compute_norm_report calls it, through "
                           "gradient_field",
}


def _names(node) -> set:
    """Every name and attribute name that node's code refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Graph:
    def __init__(self):
        self.defs = {}      # "module.qualname" -> FunctionDef
        self.roots = set()
        self.aliases = {}   # asname -> names it stands for

    def add_aliases(self, tree):
        for sub in ast.walk(tree):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    if alias.asname:
                        self.aliases.setdefault(alias.asname, set()).add(
                            alias.name.rsplit(".")[-1])

    def add_body(self, body, prefix):
        """The defs of a module or class body, nested defs included, and
        the names its other statements use as roots."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        inner = "" if sub is stmt else f".{sub.name}"
                        self.defs[f"{prefix}.{stmt.name}{inner}"] = sub
                if _is_dunder(stmt.name):
                    self.roots |= _names(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self.add_body(stmt.body, f"{prefix}.{stmt.name}")
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.roots |= _names(stmt)

    def unreachable(self) -> set:
        by_name = {}
        for node in self.defs.values():
            by_name.setdefault(node.name, []).append(node)
        reached, todo = set(), list(self.roots)
        while todo:
            name = todo.pop()
            if name in reached:
                continue
            reached.add(name)
            todo += self.aliases.get(name, ())
            for node in by_name.get(name, ()):
                todo += _names(node)
        return {key for key, node in self.defs.items()
                if node.name not in reached and not _is_dunder(node.name)}


def _package_graph() -> _Graph:
    graph = _Graph()
    for path in sorted((ROOT / "src" / "torusflow").glob("*.py")):
        tree = ast.parse(path.read_text())
        graph.add_aliases(tree)
        graph.add_body(tree.body, path.stem)
    graph.roots.add("main")     # cli.main
    for demo in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(demo.read_text())
        graph.add_aliases(tree)
        graph.roots |= _names(tree)
    return graph


def test_every_def_is_reached_from_the_cli_or_a_demo():
    unreachable = _package_graph().unreachable()
    stray = sorted(unreachable - EXEMPT.keys())
    assert not stray, (
        f"{stray} reached neither from cli.main nor from a demo: move to "
        "tests/oracles.py, delete, or list in EXEMPT with a reason")
    stale = sorted(EXEMPT.keys() - unreachable)
    assert not stale, f"{stale} listed in EXEMPT but reached, or gone"


def test_the_scan_follows_aliases_and_dunders():
    # the scan itself: a call through an alias reaches its def, a dunder
    # body is a root, and an unnamed def is unreachable
    graph = _Graph()
    tree = ast.parse("from .m import used as alias\n"
                     "def main():\n    alias()\n"
                     "def used():\n    pass\n"
                     "class C:\n"
                     "    def __init__(self):\n        helper()\n"
                     "def helper():\n    pass\n"
                     "def orphan():\n    pass\n")
    graph.add_aliases(tree)
    graph.add_body(tree.body, "m")
    graph.roots.add("main")
    assert graph.unreachable() == {"m.orphan"}
