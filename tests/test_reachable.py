"""Every public module-level name of the package is used inside the package.

A function, class or assigned name that occurs only at its definition is
reached by nothing but tests (or by nothing at all) and should be deleted or
wired in. Occurrences are counted as whole words over every package source
file, the definition included, so at least two are required.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reconstab"


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_used_inside_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    text = "\n".join(sources.values())
    unused = [
        f"{module}:{name}"
        for module, source in sources.items()
        for name in _public_definitions(ast.parse(source))
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    ]
    assert unused == []
