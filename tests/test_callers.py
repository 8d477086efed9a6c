"""The library holds no test-only code: every public function, class and method
of ``slmcf`` has a caller in the program, and every parameter with a default
is passed by one.

The program is ``src/`` and the benchmark harness ``perfbench/``.  A name
counts as called where it occurs in that code outside its own definition,
with docstrings and comments removed (a name only a docstring mentions has no
caller) and ``slmcf/__init__.py``'s re-exports left out.  Strings count, since
the harness binds its wrap points by name and the run record reads fields by
name.  Reference code the tests compare against lives in ``conftest.py``.

A parameter counts as passed where a call in that code names it as a keyword
or reaches it by position.  Calls are matched by the called name or
attribute: a function's calls are those of its name, a method's those of the
attribute, the ``__init__`` of a class those of the class and of every
subclass that inherits it.  Arguments after a ``*`` and ``**`` mappings pass
no parameter.  The one exemption is ``cli.main``'s ``argv``: the console
script calls ``main()`` and the tests set ``argv``.
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



EXEMPT = {"cli.main.argv"}


def _program():
    """Every module of the program, parsed without its docstrings."""
    return [_code(path) for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))]


def _calls(trees):
    """{called name: [(positional arguments, keyword names)]} of every call in
    ``trees``; positional arguments stop at the first ``*``."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            n = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                     len(node.args))
            out.setdefault(name, []).append((n, {k.arg for k in node.keywords if k.arg}))
    return out


def _defaulted(fn, skip):
    """{name: position} of the parameters of ``fn`` with a default, the
    position counted after the first ``skip`` positional parameters (None:
    keyword only)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {p.arg: i - skip for i, p in enumerate(positional) if i >= first}
    out.update({p.arg: None for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _audited(modules):
    """(qualified name, definition, positional parameters skipped, called
    names) of every public function and method of ``slmcf`` and of the
    ``__init__`` of every public class."""
    classes = {node.name: node for tree in modules.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def inherits(name, base):
        node = classes.get(name)
        if node is None or any(m.name == "__init__" for m in node.body
                               if isinstance(m, ast.FunctionDef)):
            return False
        parents = [b.id for b in node.bases if isinstance(b, ast.Name)]
        return base in parents or any(inherits(p, base) for p in parents)

    fns = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, fns) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node, 0, {node.name}
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, fns):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in member.decorator_list)
                if member.name == "__init__" and not node.name.startswith("_"):
                    callers = {node.name} | {c for c in classes if inherits(c, node.name)}
                    yield f"{module}.{node.name}.__init__", member, 1, callers
                elif not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, int(not static), \
                        {member.name}


def unpassed():
    """Qualified names of the parameters with a default in ``slmcf`` that no
    program call passes."""
    modules = {path.stem: _code(path) for path in sorted(SRC.glob("*.py"))}
    calls = _calls(_program())
    out = []
    for qualname, fn, skip, names in _audited(modules):
        made = [c for name in names for c in calls.get(name, ())]
        for param, position in _defaulted(fn, skip).items():
            if not any(param in keywords or (position is not None and position < n)
                       for n, keywords in made):
                out.append(f"{qualname}.{param}")
    return sorted(set(out) - EXEMPT)


def test_every_parameter_with_a_default_is_passed_by_the_program():
    assert unpassed() == []
