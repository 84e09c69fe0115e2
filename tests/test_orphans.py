"""Every top-level function and class of chuarc has a caller.

A name that nothing in ``src/chuarc`` or ``perfbench`` mentions outside its
own definition (the re-exports of ``__init__.py`` do not count) is code that
only its tests reach. Delete it, or add it to KEEP with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chuarc"

#: names that stay without a caller, each with its reason
KEEP = {
    "derivatives": "the acceptance tests import it",
    "_passthrough_kernel": "the acceptance tests import it",
    "inject_noise": "noise injection is a feature of the paper",
    "snr_db": "noise injection is a feature of the paper",
    "nrmse": "the paper's second error metric; a run is still to report it",
    "multibit_encrypt": "README API",
    "multibit_decrypt": "README API",
    "classification_surface": "README API",
}


def orphans() -> set:
    """Top-level names of the package modules with no reference elsewhere."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources = {p: p.read_text() for p in modules + sorted((ROOT / "perfbench").glob("*.py"))}
    found = set()
    for path in modules:
        lines = sources[path].splitlines(keepends=True)
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[:first - 1] + lines[node.end_lineno:])
            texts = [rest] + [text for p, text in sources.items() if p != path]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(text) for text in texts):
                found.add(node.name)
    return found


def test_every_top_level_name_has_a_caller():
    found = orphans()
    assert found - set(KEEP) == set(), "no caller: delete these, or keep them with a reason"
    assert set(KEEP) - found == set(), "these have callers now: take them off KEEP"
