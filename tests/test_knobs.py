"""Every setting has one way in.

A parameter with a default that no call in ``src/chuarc``, ``perfbench`` or
a README python block ever passes is a knob nobody turns: make it the value
it always takes, or add it to KEEP with the reason it stays. A call passes a
parameter by its keyword, by position, or through ``*args`` or ``**kwargs``.
Calls are matched to a function by its name (a class's name for
``__init__``), so a name shared by two functions counts the calls of both.

The package reads no environment variable: a run's settings come from its
arguments and its config only. It opens files for writing in one place,
``cells.artefact``, so every artefact names a path it cannot open and leaves
no partial file behind.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chuarc"

#: (function, parameter) pairs that stay without a call that sets them,
#: each with its reason
KEEP = {
    ("derivatives", "v_in"): "the acceptance tests pass it",
    ("run_case", "kernel"): "the acceptance tests pass it",
}


def _defaulted(tree) -> dict:
    """{(call name, parameter): positional index or None} of each parameter
    with a default of the functions in ``tree``. The index counts the
    arguments a call writes, so a method's ``self`` or ``cls`` is not one
    (the package has no staticmethod)."""
    found = {}

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                name = cls if child.name == "__init__" else child.name
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    found[name, positional[i].arg] = i - (1 if cls else 0)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found[name, arg.arg] = None
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return found


def _passes(call: ast.Call, param: str, index) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return index is not None
    return index is not None and len(call.args) > index


def _callers() -> list:
    """The parsed sources whose calls count as setting a parameter."""
    texts = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))]
    for readme in (ROOT / "README.md", ROOT / "perfbench" / "README.md"):
        texts += re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    return [ast.parse(text) for text in texts]


def unset() -> set:
    defaulted = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defaulted.update(_defaulted(ast.parse(path.read_text())))
    left = set(defaulted)
    for tree in _callers():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            left -= {(fn, param) for fn, param in left
                     if fn == name and _passes(call, param, defaulted[fn, param])}
    return left


def test_every_defaulted_parameter_is_set_somewhere():
    found = unset()
    assert found - set(KEEP) == set(), "no call sets these: make each the value it always takes"
    assert set(KEEP) - found == set(), "calls set these now: take them off KEEP"


def test_no_module_reads_the_environment():
    for path in sorted(PACKAGE.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        named = {tok.string for tok in tokens if tok.type == tokenize.NAME}
        assert named & {"environ", "getenv"} == set(), f"{path.name} reads the environment"


def _writes(tree) -> list:
    """Line numbers of the calls in ``tree`` that write a file: ``open`` or
    ``.open`` with a mode holding w, a, x or + (or a mode that is not a
    literal), ``.write_text``, ``.write_bytes`` and ``json.dump``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
                lines.append(node.lineno)
        elif name in ("write_text", "write_bytes") or (
                name == "dump" and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_cells_opens_a_file_for_writing():
    assert _writes(ast.parse((PACKAGE / "cells.py").read_text())), "cells.artefact opens no file"
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cells.py":
            lines = _writes(ast.parse(path.read_text()))
            assert lines == [], f"{path.name} writes a file at lines {lines}: open it with cells.artefact"
