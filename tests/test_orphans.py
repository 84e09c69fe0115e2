"""Every top-level function, class and assigned name of chuarc has a reader.

A name that no code in ``src/chuarc`` or ``perfbench`` names outside its own
definition or assignment (the re-exports of ``__init__.py``, strings,
comments and docstrings do not count) is code that only its tests reach.
Delete it, or add it to KEEP with the reason it stays.
Likewise an error class that no ``except`` clause or ``isinstance`` call of
the package names is only a second name for its base.
And every name that the benchmark's tracer wraps is still there to wrap.
"""

import ast
import importlib.util
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chuarc"

#: names that stay without a caller, each with its reason
KEEP = {
    "derivatives": "the acceptance tests import it",
    "run_case": "the acceptance tests import it",
    "_passthrough_kernel": "the acceptance tests import it",
    "nrmse": "ROADMAP item 8's baselines give it a caller",
}


def names(source: str) -> list:
    """(line, name) of every NAME token of ``source``: the names its code uses."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(tok.start[0], tok.string) for tok in tokens if tok.type == tokenize.NAME]


def orphans() -> set:
    """Top-level names of the package modules with no reference elsewhere."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources = {p: p.read_text() for p in modules + sorted((ROOT / "perfbench").glob("*.py"))}
    used = {p: names(text) for p, text in sources.items()}
    found = set()
    for path in modules:
        elsewhere = {name for p in used if p != path for _, name in used[p]}
        for node in ast.parse(sources[path]).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            rest = {name for line, name in used[path] if not first <= line <= node.end_lineno}
            found |= defined - rest - elsewhere
    return found


def test_every_top_level_name_has_a_caller():
    found = orphans()
    assert found - set(KEEP) == set(), "no reader: delete these, or keep them with a reason"
    assert set(KEEP) - found == set(), "these have callers now: take them off KEEP"


def _names(node) -> set:
    """The names and attribute names within an expression."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_error_type_is_told_apart():
    errors = ast.parse((PACKAGE / "errors.py").read_text()).body
    classes = {node.name for node in errors if isinstance(node, ast.ClassDef)}
    told = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                told |= _names(node.type)
            elif isinstance(node, ast.Call) and _names(node.func) == {"isinstance"}:
                told |= _names(node.args[1])
    assert classes - told == set(), "caught nowhere: fold these into their base"


def test_every_name_the_benchmark_tracer_wraps_exists():
    # a wrapped name that is renamed or deleted silently zeroes the metrics
    # recorded under it; run_case is a dead wrap the benchmark still lists
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= {"chuarc.experiment.run_case"}
