"""Every public module-level name of the package is used inside the package,
and every name a package module imports is used in that module.

A function, class or assigned name that occurs only at its definition is
reached by nothing but tests (or by nothing at all) and should be deleted or
wired in. Occurrences are counted as whole words over every package source
file, the definition included, so at least two are required. An import is
used when its bound name is read in the module, or listed in ``__all__``.
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


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_import_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        unused.extend(f"{path.name}:{name}" for name in _imported_names(tree) if name not in used)
    assert unused == []


# RowPanels' parts, its writer, its uninitialized constructor and its block
# list: the packed layout of a Gram and its factor
_PACKED_LAYOUT = {"rects", "diags", "write", "empty", "blocks"}


def test_only_linops_knows_the_packed_layout():
    """No module but linops reads or writes packed row panels, or imports the
    panel width they are cut by; ``np.empty`` is numpy's, not the layout's."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linops.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in _PACKED_LAYOUT:
                if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                    offenders.append(f"{path.name}:{node.lineno}:.{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                if any(a.name == "_SOLVE_PANEL" for a in node.names):
                    offenders.append(f"{path.name}:{node.lineno}:_SOLVE_PANEL")
    assert offenders == []
