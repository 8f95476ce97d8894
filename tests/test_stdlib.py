"""The package imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

import aalguard

PACKAGE = Path(aalguard.__file__).parent


def _imported_top_levels(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, module in _imported_top_levels(tree):
            if module != "aalguard" and module not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno}: {module}")
    assert foreign == []
