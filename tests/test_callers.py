"""The library holds no test-only code: every public function, class and method
of ``slmcf`` has a caller in the program.

The program is ``src/`` and the benchmark harness ``perfbench/``.  A name
counts as called where it occurs in that code outside its own definition,
with docstrings and comments removed (a name only a docstring mentions has no
caller) and ``slmcf/__init__.py``'s re-exports left out.  Strings count, since
the harness binds its wrap points by name and the run record reads fields by
name.  Reference code the tests compare against lives in ``conftest.py``.
"""

import ast
import pathlib
import re

import slmcf

SRC = pathlib.Path(slmcf.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _code(path):
    """The module at ``path`` parsed, its docstrings removed (comments do not
    survive parsing)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                node.body = body[1:] or [ast.Pass()]
    return tree


def _definitions(tree):
    """(body, index, node) of every public module-level function and class and
    of every public method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for i, node in enumerate(tree.body):
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield tree.body, i, node
        if isinstance(node, ast.ClassDef):
            for j, member in enumerate(node.body):
                if isinstance(member, defs) and not member.name.startswith("_"):
                    yield node.body, j, member


def uncalled():
    """Qualified names of the public definitions in ``slmcf`` with no caller."""
    modules = {path: _code(path) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    harness = "\n".join(ast.unparse(_code(path)) for path in sorted(PERFBENCH.glob("*.py")))
    text = {path: ast.unparse(tree) for path, tree in modules.items()}
    out = []
    for path, tree in modules.items():
        elsewhere = harness + "\n".join(t for p, t in text.items() if p != path)
        for body, i, node in list(_definitions(tree)):
            body[i] = ast.Pass()                    # the definition itself does not count
            own = ast.unparse(tree)
            body[i] = node
            if not re.search(rf"\b{node.name}\b", own + "\n" + elsewhere):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_every_public_definition_has_a_program_caller():
    assert uncalled() == []

