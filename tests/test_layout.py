"""Package layout: no code that only the tests use.

Oracles that check the package (general piecewise-linear composition, the
base-p carry walk, step-by-step branch prediction) live in ``helpers.py``;
the package keeps only what its own modules call.
"""

import ast
import importlib.util
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ramstab"

# names the package exports without calling them itself
PUBLIC_ONLY = {"revalidate"}  # the public re-check of a certificate


def referenced_names(tree):
    """Names a module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_top_level_definition_is_used_by_the_package():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            name = getattr(node, "name", "")
            if isinstance(node, ast.FunctionDef) and name.startswith("__") and name.endswith("__"):
                continue  # a module hook the interpreter calls, as PEP 562's __getattr__
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        if path.name != "__init__.py":
            used |= referenced_names(tree)
    unused = {name: module for name, module in defined.items() if name not in used}
    assert unused == dict.fromkeys(PUBLIC_ONLY, "certificates.py")


def test_the_composition_module_is_gone():
    assert importlib.util.find_spec("ramstab.plf") is None
