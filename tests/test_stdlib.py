"""The package imports only the standard library and itself, and loads
no module at start-up that only a rare path uses."""

import ast
import json
import os
import subprocess
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


# Modules whose import costs start-up time: dataclasses pulls in inspect
# (and with it ast, dis and tokenize); the audit time needs no datetime,
# and only a credential check needs hashlib and hmac.
SLOW_TO_IMPORT = {"dataclasses", "inspect", "datetime", "hashlib", "hmac"}

_ADDED_BY_IMPORT = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_no_slow_module():
    # Only what the import adds counts: site may load some of these first.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for module in ("aalguard", "aalguard.cli"):
        result = subprocess.run(
            [sys.executable, "-c", _ADDED_BY_IMPORT.format(module=module)],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        added = set(json.loads(result.stdout))
        assert module in added
        assert added & SLOW_TO_IMPORT == set(), module


def test_importing_the_package_loads_none_of_its_modules():
    # Each command imports the modules it runs; the package itself is its
    # docstring alone.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", _ADDED_BY_IMPORT.format(module="aalguard")],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert json.loads(result.stdout) == ["aalguard"]
