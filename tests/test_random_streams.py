"""Random draws in the package come from explicit generators in few places.

Every ``np.random`` attribute the package uses is ``default_rng`` or
``Generator``, so no draw reads the global stream, and only the modules that
own a stream (data sampling, feature-map sampling, the Lanczos start vector)
use one. Alignment and attack code receive their draws from ``data``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reconstab"
ALLOWED_NAMES = {"default_rng", "Generator"}
ALLOWED_MODULES = {"data.py", "featuremaps.py", "linops.py"}


def _random_uses(tree: ast.Module) -> list[str]:
    """Attributes read off ``np.random``/``numpy.random``, plus any import of
    ``numpy.random`` (marked ``import``), in order of appearance.
    """
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            inner = node.value
            if (
                inner.attr == "random"
                and isinstance(inner.value, ast.Name)
                and inner.value.id in ("np", "numpy")
            ):
                uses.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy.random") or any(a.name == "random" for a in node.names):
                uses.append("import")
        elif isinstance(node, ast.Import) and any(
            a.name.startswith("numpy.random") for a in node.names
        ):
            uses.append("import")
    return uses


def test_random_streams_are_explicit_generators_in_owning_modules():
    found = {
        path.name: _random_uses(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    not_generators = {
        name: [u for u in uses if u not in ALLOWED_NAMES]
        for name, uses in found.items()
        if any(u not in ALLOWED_NAMES for u in uses)
    }
    outside = sorted(name for name, uses in found.items() if uses and name not in ALLOWED_MODULES)
    assert not_generators == {}
    assert outside == []
