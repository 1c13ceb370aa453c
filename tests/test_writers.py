"""Every file a command writes reaches disk one way per kind: a text file
through solver._write_atomic, which moves it into place whole, and a
snapshot through field.save_field, into the snapshots.partial directory
that save_trajectory publishes.

The calls that write are read from a static scan (ast) of src/torusflow:
the builtin open with a write mode (w, a, x or +, or a mode that is not a
literal) and np.savez_compressed, each with the function it lies in.
os.fdopen of a worker's pipe opens no file on disk and is not matched.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the one function each kind of write may lie in
WRITERS = {"open": "solver._write_atomic",
           "savez_compressed": "field.save_field"}


def _write_kind(call: ast.Call):
    """"open" or "savez_compressed" for a call that writes a file, else
    None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2] + [k.value for k in call.keywords
                                  if k.arg == "mode"]
        if any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value)
               for m in modes):
            return "open"
    elif isinstance(func, ast.Attribute) and func.attr == "savez_compressed":
        return "savez_compressed"
    return None


def _writes(tree, where: str) -> list:
    """(kind, dotted name of the enclosing def) of each call in tree that
    writes a file, where being the name of tree's module."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = f"{where}.{node.name}"
        kind = isinstance(node, ast.Call) and _write_kind(node)
        if kind:
            found.append((kind, inner))
        found += _writes(node, inner)
    return found


def test_every_write_goes_through_its_one_writer():
    found = [write for path in sorted((ROOT / "src" / "torusflow")
                                      .glob("*.py"))
             for write in _writes(ast.parse(path.read_text()), path.stem)]
    stray = sorted(w for w in found if w[1] != WRITERS[w[0]])
    assert not stray, (
        f"{stray} write outside their writer: send text through "
        "solver._write_atomic and snapshots through field.save_field")
    assert set(found) == set(WRITERS.items())


def test_the_scan_finds_writes_by_mode():
    tree = ast.parse("def f(p, fd, m):\n"
                     "    open(p)\n    open(p, 'rb')\n"
                     "    open(p, 'a')\n    open(p, mode='r+')\n"
                     "    open(p, m)\n    os.fdopen(fd, 'wb')\n"
                     "class C:\n"
                     "    def g(self, p):\n        np.savez_compressed(p)\n")
    assert _writes(tree, "m") == [("open", "m.f")] * 3 \
        + [("savez_compressed", "m.C.g")]
